"""Every benchmark job is a run the CLI accepts: it sets only keys that its
scenario reads. A rejected job would count as a failed operation. The
traced pass's span recorder reads what it instruments and puts back every
function it rebinds. One pass of every transport workload's input set
passes the benchmark's own output checks, and the reference recorder's
reruns of link scenario rows still reproduce those rows."""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

from dustlink import storm
from dustlink.cli import ExperimentConfig, check_read, run_scenario

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
from jobs import INPUT_SETS, WORKLOADS, build_jobs  # noqa: E402
from make_reference import REPLICATES, SEED_STRIDE, replicate_columns  # noqa: E402
from run import Runner  # noqa: E402
from spans import (AGGREGATE_TARGETS, SPAN_TARGETS, Instrumentation,  # noqa: E402
                   SpanRecorder)
from verify import load_reference  # noqa: E402

CASES = [pytest.param(workload, set_index, id=f"{workload}-set{set_index}")
         for workload in WORKLOADS for set_index in range(INPUT_SETS)]


@pytest.mark.parametrize("workload, set_index", CASES)
def test_every_job_is_accepted(workload, set_index, tmp_path):
    jobs = build_jobs(workload, set_index, str(tmp_path), str(tmp_path / "catalog"))
    assert jobs
    for job in jobs:
        check_read(job.config)


def _bindings() -> dict:
    """(module, attribute) -> object for every attribute the spans rebind."""
    attrs = {target[2] for target in SPAN_TARGETS + AGGREGATE_TARGETS}
    return {(name, attr): vars(module)[attr]
            for name, module in list(sys.modules.items())
            if name == "dustlink" or name.startswith("dustlink.")
            for attr in attrs if attr in vars(module)}


def test_traced_storm_steps_record_their_particles(tmp_path):
    cfg = ExperimentConfig(scenario="storm_density", seed=1003, output=str(tmp_path),
                           overrides={"storm.steps": 3})
    # the fields the three steps are given, stepped without the recorder
    given = [storm.empty_field()]
    for _ in range(2):
        given.append(storm.step_field(given[-1], storm.StormConfig(seed=cfg.seed)))
    before = _bindings()
    recorder = SpanRecorder()
    with Instrumentation(recorder):
        assert storm.step_field is not before["dustlink.storm", "step_field"]
        run_scenario(cfg)
    steps = [span for span in recorder.spans if span.name == "storm.step"]
    assert len(steps) == 3
    assert [span.attrs["particles"] for span in steps] == [f.count() for f in given]
    assert given[-1].count() > 0
    _assert_restored(before)


@pytest.mark.parametrize("scenario", ["time_scenario", "capacity_distance"])
def test_traced_link_scenarios_record_their_span(scenario, tmp_path):
    # the CLI's link run is the span's function, so the span is not 0 s
    steps = 3 if scenario == "capacity_distance" else None   # time has no grid
    cfg = ExperimentConfig(scenario=scenario, planet="mars", output=str(tmp_path),
                           range_steps=steps, overrides={"transport.packets": 50})
    before = _bindings()
    recorder = SpanRecorder()
    with Instrumentation(recorder):
        run_scenario(cfg)
    assert [span.name for span in recorder.spans].count("link.scenario") == 1
    _assert_restored(before)


def _assert_restored(before: dict) -> None:
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_transport_workloads_match_references(tmp_path):
    # bench/verify.py's checks, among them the Monte Carlo cells whose
    # recorded replicates all read 0 and so allow no other value
    for workload in ("earth_sweeps", "mars_capacity"):
        for set_index in range(INPUT_SETS):
            jobs = build_jobs(workload, set_index, str(tmp_path))
            runner = Runner(jobs, load_reference(workload, set_index))
            runner.check(runner.run_pass()[1])
            assert runner.attempted == len(jobs)
            assert runner.failed == 0, (workload, set_index)


@pytest.mark.parametrize("name", ["time_scenario_mars", "capacity_distance_mars"])
def test_reference_replicates_rerun_each_row(name, tmp_path):
    # make_reference.py reruns each row through dustlink.link with
    # packet_count= and LinkConfig.for_preset(planet); its first replicate
    # seed is the job's seed plus SEED_STRIDE, so at a job run at that seed
    # the first replicate is the row itself
    job = next(j for j in build_jobs("mars_capacity", 0, str(tmp_path))
               if j.name == name)
    steps = 3 if job.config.scenario == "capacity_distance" else None
    small = replace(job.config, range_steps=steps,
                    overrides={"transport.packets": 20})
    result = run_scenario(replace(small, seed=small.seed + SEED_STRIDE))
    header, rows = list(result.header), result.rows
    columns = replicate_columns(replace(job, config=small), header, rows, None)
    assert set(columns) == {"T_MS", "capacity_bps"} | (
        {"A_dB_per_m"} if steps is None else {"H_dust"})
    for column, replicates in columns.items():
        j = header.index(column)
        assert len(replicates) == len(rows)
        for row, values in zip(rows, replicates):
            assert len(values) == REPLICATES
            assert values[0] == pytest.approx(row[j], rel=1e-12)
