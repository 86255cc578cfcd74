"""Philox calls and blocks of the benchmark's transport passes.

Usage: python3 tools/philox_counts.py SRC_DIR [SRC_DIR]
                                      [--workload W] [--set K]

For each tree, in its own interpreter, imports ``dustlink`` from SRC_DIR
and runs the jobs of each transport workload of ``bench/jobs.py`` (one
whose jobs trace packets) with ``run_scenario``, in-process, one pass per
input set; it writes no CSV and changes nothing under ``bench/``.
``--workload`` and ``--set`` keep one workload or one input set.

Per pass, it prints the ``dustlink.rng.philox4x64`` calls, the Philox
blocks they compute, the blocks the packets read, and computed / read.
Event n of a packet reads its block n, and a packet that ends on its step
(reached or backscattered) reads one block past its last event; the
traces of a kernel call are its runs that share every input but the depth
(``extinction_per_m`` and ``distance_m``), as the kernel groups them, and
a trace's packets read the blocks of its deepest run: its event total
plus its reached and backscattered packets. The counts repeat exactly from
run to run. How far a refill computes ahead changes the blocks computed
but no block read and no draw.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
# the TransportConfig fields whose product is the depth; runs that share
# every other field are one trace
DEPTH_INPUTS = ("extinction_per_m", "distance_m")


def main(src_dir: str, workloads: list[str] | None = None,
         sets: list[int] | None = None) -> list[dict]:
    """One record per pass: workload, input set, calls, computed, read."""
    sys.path[:0] = [str(Path(src_dir).resolve()), str(BENCH_DIR)]
    os.environ.pop("DUSTLINK_CATALOG_DIR", None)
    import numpy as np

    import dustlink
    import dustlink.rng as rng
    import dustlink.transport as transport
    from dustlink.cli import run_scenario
    from jobs import INPUT_SETS, WORKLOADS, build_jobs

    if not Path(dustlink.__file__).resolve().is_relative_to(Path(src_dir).resolve()):
        raise SystemExit(f"imported dustlink from {dustlink.__file__}")
    on_step = [transport.FATES.index(f) for f in ("reached", "backscatter_exit")]
    philox, trace_packets = rng.philox4x64, transport._trace_packets
    counts = {}

    def counting_philox(seeds, streams, blocks, out=None):
        words = philox(seeds, streams, blocks, out=out)
        counts["calls"] += 1
        counts["computed"] += words.size // 4
        return words

    def counting_trace(cfgs):
        _, fates, events = out = trace_packets(cfgs)
        deepest = {}
        for r, cfg in enumerate(cfgs):
            key = tuple(value for name, value in vars(cfg).items()
                        if name not in DEPTH_INPUTS)
            if cfg.optical_depth >= cfgs[deepest.get(key, r)].optical_depth:
                deepest[key] = r
        for r in deepest.values():
            counts["read"] += int(events[r]) + int(np.isin(fates[r], on_step).sum())
        return out

    records = []
    rng.philox4x64, transport._trace_packets = counting_philox, counting_trace
    try:
        with tempfile.TemporaryDirectory() as work:
            for workload in workloads or WORKLOADS:
                for set_index in (range(INPUT_SETS) if sets is None else sets):
                    jobs = build_jobs(workload, set_index, work, catalog_dir=work)
                    if not any(job.packets for job in jobs):
                        continue
                    counts.update(calls=0, computed=0, read=0)
                    for job in jobs:
                        run_scenario(job.config)
                    records.append({"workload": workload, "set": set_index, **counts})
    finally:
        rng.philox4x64, transport._trace_packets = philox, trace_packets
    return records


def _run_tree(src_dir: str, workloads: list[str] | None,
              sets: list[int] | None) -> list[dict]:
    """``main`` on one tree in a fresh interpreter, so each tree imports its
    own ``dustlink``."""
    code = (f"import json, sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            f"import philox_counts; print(json.dumps(philox_counts.main("
            f"{src_dir!r}, {workloads!r}, {sets!r})))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def line(tree: str, record: dict) -> str:
    return (f"{tree} {record['workload']} set {record['set']}: "
            f"{record['calls']} calls, {record['computed']} blocks computed, "
            f"{record['read']} read, ratio {record['computed'] / record['read']:.3f}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src_dirs", nargs="+", metavar="SRC_DIR")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--set", type=int, action="append", dest="sets")
    args = parser.parse_args()
    if len(args.src_dirs) > 2:
        parser.error("give one or two SRC_DIRs")
    names = ("old", "new") if len(args.src_dirs) == 2 else ("tree",)
    trees = [_run_tree(src_dir, args.workload, args.sets) for src_dir in args.src_dirs]
    for records in zip(*trees):
        for name, record in zip(names, records):
            print(line(name, record))
