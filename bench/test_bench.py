"""Tests of the benchmark's own logic.

    python3 -m pytest -q bench/test_bench.py
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import dustlink.cli  # noqa: E402
import dustlink.link  # noqa: E402
import dustlink.transport  # noqa: E402
from dustlink.atmosphere import load_catalog_dir  # noqa: E402
from dustlink.cli import ExperimentConfig, run_scenario, write_outputs  # noqa: E402

from spans import (Instrumentation, Span, SpanRecorder, covered_length,  # noqa: E402
                   layer_totals, self_times)
from probe import PROBE_REF_S, normalise  # noqa: E402
from synthcat import generate_catalog  # noqa: E402
from verify import check_output, quartile_spread, sha256, tail_percentile  # noqa: E402


# --- self time -------------------------------------------------------------

def test_covered_length_merges_overlaps():
    assert covered_length([]) == 0.0
    assert covered_length([(0, 1), (2, 4)]) == 3.0
    assert covered_length([(0, 3), (1, 2), (2, 5)]) == 5.0
    assert covered_length([(4, 6), (0, 1), (0.5, 2)]) == 4.0


def test_self_time_subtracts_children_and_aggregates():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0, aggregates={"rng": [5, 0.5]}),
        Span("b", 3.0, 6.0, parent=0),          # overlaps a by 1
        Span("c", 1.5, 2.0, parent=1),
        Span("d", 9.0, 12.0, parent=0),         # clipped to the root's end
    ]
    assert self_times(spans) == pytest.approx([10 - 6, 3 - 0.5 - 0.5, 3, 0.5, 3])


def test_layer_self_times_add_up_to_root_time():
    clock = iter(range(100)).__next__
    rec = SpanRecorder(clock=lambda: float(clock()))
    inner = rec.span_fn("inner", lambda: rec.add_aggregate("rng", 0.25))
    outer = rec.span_fn("outer", lambda: [inner(), inner()])
    outer()
    totals = layer_totals(rec.spans)
    root = rec.spans[0]
    assert totals["self_sum_s"] == pytest.approx(root.end - root.start)
    assert totals["inner.calls"] == 2
    assert totals["rng.calls"] == 2
    assert totals["rng.self_s"] == pytest.approx(0.5)
    assert [s.parent for s in rec.spans] == [-1, 0, 0]


def test_instrumentation_rebinds_every_importer_and_restores():
    originals = (dustlink.cli.estimate_transmittance,
                 dustlink.link.estimate_transmittance,
                 dustlink.transport.substream)
    with Instrumentation(SpanRecorder()):
        assert dustlink.cli.estimate_transmittance is not originals[0]
        assert (dustlink.link.estimate_transmittance
                is dustlink.cli.estimate_transmittance)
        assert dustlink.transport.substream is not originals[2]
    assert (dustlink.cli.estimate_transmittance,
            dustlink.link.estimate_transmittance,
            dustlink.transport.substream) == originals


def test_traced_run_writes_the_same_bytes(tmp_path):
    cfg = ExperimentConfig(scenario="particle_sweep", seed=3, replicates=1,
                           range_start=10.0, range_stop=100.0, range_steps=2,
                           output=str(tmp_path / "plain"),
                           overrides={"transport.packets": 50})
    plain = write_outputs(run_scenario(cfg), cfg)[0].read_bytes()
    rec = SpanRecorder()
    traced_cfg = replace(cfg, output=str(tmp_path / "traced"))
    with Instrumentation(rec):
        traced = write_outputs(run_scenario(traced_cfg), traced_cfg)[0].read_bytes()
    assert traced == plain
    totals = layer_totals(rec.spans)
    assert totals["transport.estimate.calls"] == 2
    assert totals["transport.estimate.packets"] == 100
    assert totals["rng.substream.calls"] == 100
    assert totals["output.csv.calls"] == 1


# --- percentile rule and spread ----------------------------------------------

def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(range(10)) is None
    assert tail_percentile(range(11)) == (100 / 11, 0)
    assert tail_percentile(range(20)) == (50.0, 9)
    p, value = tail_percentile(list(range(100))[::-1])
    assert (p, value) == (90.0, 89)
    assert sum(v > value for v in range(100)) == 10


def test_normalise_uses_the_probes_around_each_pass():
    probes = [PROBE_REF_S, PROBE_REF_S, 3 * PROBE_REF_S]
    assert normalise([1.0, 2.0], probes) == pytest.approx([1.0, 1.0])


def test_quartile_spread():
    assert quartile_spread([10.0] * 5) == 0.0
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


# --- tolerance check -----------------------------------------------------------

def _reference(text, sigma):
    data = text.encode()
    return {"sha256": sha256(data), "csv": data, "sigma": sigma}


REF = "value,seed,T_MS,A_dB_per_m\n10.0,7,0.5,3.0\n100.0,8,0.0,inf\n"
SIGMA = {"T_MS": [0.01, 0.0], "A_dB_per_m": [0.1, None]}


@pytest.mark.parametrize("text, ok", [
    (REF, True),
    ("value,seed,T_MS,A_dB_per_m\n10.0,7,0.55,3.5\n100.0,8,0.0,inf\n", True),
    ("value,seed,T_MS,A_dB_per_m\n10.0,7,0.57,3.0\n100.0,8,0.0,inf\n", False),
    ("value,seed,T_MS,A_dB_per_m\n10.0,7,0.5,3.0\n100.0,8,1e-9,inf\n", False),
    ("value,seed,T_MS,A_dB_per_m\n10.0,7,0.5,3.0\n100.0,8,0.0,12.5\n", True),
    ("value,seed,T_MS,A_dB_per_m\n10.000001,7,0.5,3.0\n100.0,8,0.0,inf\n", False),
    ("value,seed,T_MS,A_dB_per_m\n10.0,7,0.5,3.0\n", False),
    ("value,seed,T_MS\n10.0,7,0.5\n100.0,8,0.0\n", False),
    ("value,seed,T_MS,A_dB_per_m\n10.0,7,0.5\n100.0,8,0.0,inf\n", False),
    ("not a csv", False),
])
def test_check_output_tolerances(text, ok):
    assert (check_output(text.encode(), _reference(REF, SIGMA)) == []) == ok


def test_recorded_references_are_consistent():
    from jobs import INPUT_SETS, WORKLOADS
    from verify import MC_COLUMNS, load_reference
    for workload in WORKLOADS:
        for set_index in range(INPUT_SETS):
            index = load_reference(workload, set_index)
            for name, entry in index["jobs"].items():
                assert sha256(entry["csv"]) == entry["sha256"], name
                header = entry["csv"].decode().splitlines()[0].split(",")
                assert sorted(entry["sigma"]) == sorted(
                    c for c in header if c in MC_COLUMNS), name
                for sigmas in entry["sigma"].values():
                    assert len(sigmas) == entry["rows"], name


# --- synthetic catalog -----------------------------------------------------------

def test_catalog_generator_is_deterministic(tmp_path):
    a = generate_catalog(tmp_path / "a", 300, seed=4)
    b = generate_catalog(tmp_path / "b", 300, seed=4)
    c = generate_catalog(tmp_path / "c", 300, seed=5)
    assert a == b and a["catalog_sha256"] != c["catalog_sha256"]
    assert a["catalog_lines"] == 300
    for f in (tmp_path / "a").iterdir():
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()
    gases = [p.stem for p in (tmp_path / "a").glob("*.par")]
    catalog = load_catalog_dir(tmp_path / "a", gases)
    assert sum(len(v) for v in catalog.values()) == 300
