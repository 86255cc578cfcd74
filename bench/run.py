#!/usr/bin/env python3
"""dustlink benchmark: named workloads run through the public CLI API.

    python3 bench/run.py --workload earth_sweeps --seed 1 --seconds 30 --trace 0

One process runs the workload's jobs one after another (``workers = 1``),
pass after pass, a closed loop with one client. Every pass's CSVs are
checked against the recorded reference. The last line of standard output
is one JSON object. With ``--trace 0`` it holds the end-to-end metrics:
``pass_s`` (median pass time, scaled to the reference machine speed by
the probe in ``probe.py``), ``setup_s`` (median over fresh interpreters)
and ``peak_rss_mib``. With ``--trace 1`` it holds the per-layer metrics
of traced passes, interleaved with untraced passes to measure the tracing
overhead. The lines before it print every metric with its unit and sample
count, and the machine facts.

The package is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

from probe import normalise, probe_s
from verify import check_output, load_reference, sha256, tail_percentile

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_RUNS = 5          # timed fresh interpreters per run, after one warm-up
MIN_PASSES = 3

SETUP_CODE = """\
import json, time
t0 = time.perf_counter()
import dustlink
t1 = time.perf_counter()
from dustlink.atmosphere import MOLECULE_IDS, load_catalog_dir
load_catalog_dir(dustlink.bundled_catalog_dir(), sorted(MOLECULE_IDS))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "catalog_s": t2 - t1}), flush=True)
"""


def fail(message: str) -> None:
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    package = SRC / "dustlink"
    if not (package / "__init__.py").is_file():
        fail(f"no dustlink package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dustlink
    if Path(dustlink.__file__).resolve().parent != package.resolve():
        fail(f"imported dustlink from {dustlink.__file__}, not {package}")
    return dustlink


def measure_setup(runs: int) -> list[dict]:
    """Time fresh interpreters from spawn to 'import + bundled catalog'."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for i in range(runs + 1):       # the first one compiles bytecode
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=env, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or not line:
            fail(f"set-up interpreter exited with code {code}")
        if i:
            samples.append({"setup_s": ready - t0, **json.loads(line)})
    return samples


def machine_facts() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


class Runner:
    """Runs passes of one workload and checks every output."""

    def __init__(self, jobs, reference):
        from dustlink.cli import run_scenario, write_outputs
        self.jobs = jobs
        self.reference = reference
        self.run_scenario = run_scenario
        self.write_outputs = write_outputs
        self.attempted = 0
        self.failed = 0
        self.digest_matches: list[int] = []

    def run_pass(self, recorder=None) -> tuple[float, dict[str, bytes]]:
        run_scenario, write_outputs = self.run_scenario, self.write_outputs
        if recorder is not None:
            run_scenario = recorder.span_fn("cli.run_scenario", run_scenario)
            write_outputs = recorder.span_fn("cli.write_outputs", write_outputs)
        paths = {}
        t0 = time.perf_counter()
        for i, job in enumerate(self.jobs):
            if recorder is not None:
                recorder.trace_id = i
            try:
                paths[job.name] = write_outputs(run_scenario(job.config),
                                                job.config)[0]
            except Exception:   # noqa: BLE001 - a failing job is counted
                traceback.print_exc()
        wall = time.perf_counter() - t0
        return wall, {name: p.read_bytes() for name, p in paths.items()}

    def check(self, outputs: dict[str, bytes]) -> None:
        matches = 0
        for job in self.jobs:
            self.attempted += 1
            ref = self.reference["jobs"][job.name]
            data = outputs.get(job.name)
            problems = (["job raised"] if data is None
                        else check_output(data, ref))
            if problems:
                self.failed += 1
                print(f"FAIL {job.name}: " + "; ".join(problems[:5]),
                      file=sys.stderr)
            matches += data is not None and sha256(data) == ref["sha256"]
        self.digest_matches.append(matches)


def timed_passes(seconds: float, step) -> None:
    """Call ``step()`` while the budget allows, at least MIN_PASSES times."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if (len(durations) >= MIN_PASSES
                and elapsed + median(durations) > seconds):
            return


def layer_metrics(totals: dict, setup: dict, overhead: float, wall: float,
                  digest_match: int) -> dict[str, tuple[float, str]]:
    t = lambda key: totals.get(key, 0.0)   # noqa: E731
    events = t("transport.estimate.events")
    packets = t("transport.estimate.packets")
    calls = t("scatter.extinction.calls")
    m = {
        "rng.substream.calls": (t("rng.substream.calls"), "count"),
        "rng.substream.self_s": (t("rng.substream.self_s")
                                 + t("rng.uniform_stream.self_s"), "s"),
        "transport.estimate.calls": (t("transport.estimate.calls"), "count"),
        "transport.estimate.self_s": (t("transport.estimate.self_s"), "s"),
        "transport.packets": (packets, "count"),
        "transport.events": (events, "count"),
        "transport.us_per_event": (
            1e6 * t("transport.estimate.self_s") / events if events else 0.0,
            "us"),
    }
    for fate in ("reached", "weight_killed", "backscatter_exit",
                 "lateral_exit", "guard_killed"):
        m[f"transport.fate.{fate}"] = (t(f"transport.estimate.{fate}"), "count")
    m.update({
        "transport.reached_ratio": (
            t("transport.estimate.reached") / packets if packets else 0.0,
            "ratio"),
        "scatter.extinction.calls": (calls, "count"),
        "scatter.extinction.self_s": (t("scatter.extinction.self_s"), "s"),
        "scatter.extinction.repeat_ratio": (
            1.0 - t("scatter.extinction.distinct_keys") / calls if calls else 0.0,
            "ratio"),
        "atmosphere.catalog.self_s": (t("atmosphere.catalog.self_s"), "s"),
        "atmosphere.catalog.lines": (t("atmosphere.catalog.lines"), "count"),
        "atmosphere.absorption.self_s": (t("atmosphere.absorption.self_s"), "s"),
        "atmosphere.absorption.line_points": (
            t("atmosphere.absorption.line_points"), "count"),
        "storm.step.self_s": (t("storm.step.self_s"), "s"),
        "storm.count.self_s": (t("storm.count.self_s"), "s"),
        "storm.particle_steps": (t("storm.step.particles"), "count"),
        "link.scenario.self_s": (t("link.scenario.self_s"), "s"),
        "output.csv.calls": (t("output.csv.calls"), "count"),
        "output.csv.self_s": (t("output.csv.self_s"), "s"),
        "output.csv.bytes": (t("output.csv.bytes"), "B"),
        "output.digest_match": (digest_match, "count"),
        "cli.run_scenario.self_s": (t("cli.run_scenario.self_s"), "s"),
        "cli.write_outputs.self_s": (t("cli.write_outputs.self_s"), "s"),
        "setup.import_s": (setup["import_s"], "s"),
        "setup.catalog_s": (setup["catalog_s"], "s"),
        "trace.wall_s": (wall, "s"),
        "trace.residual_s": (wall - t("self_sum_s"), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    return m


def median_of(dicts: list[dict]) -> dict:
    return {key: median(d.get(key, 0.0) for d in dicts)
            for key in set().union(*dicts)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    from jobs import CATALOG_LINES, WORKLOADS, build_jobs, input_set
    from spans import Instrumentation, SpanRecorder, layer_totals
    from synthcat import generate_catalog

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of "
             + ", ".join(WORKLOADS))
    set_index = input_set(args.seed)
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup = measure_setup(SETUP_RUNS)
        inputs = {"seed": args.seed, "input_set": set_index}
        catalog_dir = None
        if args.workload == "spectra_storm":
            catalog_dir = str(work / "catalog")
            inputs.update(generate_catalog(catalog_dir, CATALOG_LINES, set_index))
        jobs = build_jobs(args.workload, set_index, str(work / "out"), catalog_dir)
        runner = Runner(jobs, load_reference(args.workload, set_index))

        # warm-up: lazy imports and first-call set-up, checked but not timed
        runner.check(runner.run_pass()[1])
        walls, probes = [], [probe_s()]
        overheads, traced_walls, layer_samples = [], [], []
        recorder = None

        def plain_pass():
            wall, outputs = runner.run_pass()
            probes.append(probe_s())
            runner.check(outputs)
            walls.append(wall)

        def paired_pass():
            nonlocal recorder
            wall, plain = runner.run_pass()
            runner.check(plain)
            walls.append(wall)
            recorder = SpanRecorder()
            with Instrumentation(recorder):
                traced_wall, traced = runner.run_pass(recorder)
            runner.check(traced)
            for name in plain.keys() | traced.keys():
                if plain.get(name) != traced.get(name):
                    runner.failed += 1
                    print(f"FAIL {name}: traced bytes differ from untraced",
                          file=sys.stderr)
            traced_walls.append(traced_wall)
            overheads.append(traced_wall / wall - 1.0)
            layer_samples.append(layer_totals(recorder.spans))

        timed_passes(args.seconds, paired_pass if args.trace else plain_pass)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    facts = machine_facts()
    print(f"workload {args.workload}: {WORKLOADS[args.workload]}")
    print("inputs: " + json.dumps(inputs))
    print("machine: " + json.dumps(facts))
    print(f"jobs attempted {runner.attempted}, failed {runner.failed}, "
          f"error_rate {runner.failed / runner.attempted:.4f}; CSVs equal to "
          f"the reference bytes: {min(runner.digest_matches)}/{len(jobs)} "
          "per pass")

    setup_med = median_of(setup)
    if args.trace:
        wall_traced = median(traced_walls)
        values = layer_metrics(median_of(layer_samples), setup_med,
                               median(overheads), wall_traced,
                               min(runner.digest_matches))
        WORK.mkdir(exist_ok=True)
        spans_file = WORK / f"spans_{args.workload}_seed{args.seed}.json"
        spans_file.write_text(json.dumps(recorder.to_json()))
        print(f"traced passes {len(traced_walls)}, untraced {len(walls)}; "
              f"spans of the last traced pass in {spans_file.relative_to(ROOT)}")
        print(f"self times sum to {wall_traced - values['trace.residual_s'][0]:.4f}"
              f" s of traced wall {wall_traced:.4f} s; the residual is the "
              "benchmark's own loop between jobs")
    else:
        values = {
            "pass_s": (median(normalise(walls, probes)), "s"),
            "setup_s": (setup_med["setup_s"], "s"),
            "peak_rss_mib": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        tail = tail_percentile(walls)
        print(f"wall_s {median(walls):.4f} s median over {len(walls)} passes, "
              "tail " + (f"p{tail[0]:.1f} = {tail[1]:.4f} s" if tail else
                         "none (needs at least 11 passes)")
              + f"; speed probe {median(probes):.4f} s median of {len(probes)}")
        print(f"setup_s samples: {len(setup)} fresh interpreters")
        packets = sum(job.packets for job in jobs)
        if packets:
            print(f"packets_per_s {packets / median(walls):.1f} 1/s "
                  f"({packets} packets per pass, {len(walls)} passes)")
    for name, (value, unit) in values.items():
        print(f"  {name:36s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
