#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --seeds 1-10 [--seconds 30] [workload ...]

Runs ``run.py --trace 0`` once per seed and workload, one run at a time
with the workloads interleaved, and prints for each metric the median
and the inter-quartile distance as a share of the median, the figure the
bounds in ``BENCHMARK.json`` are set against.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median

from verify import quartile_spread

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("workloads", nargs="*",
                        default=["earth_sweeps", "mars_capacity", "spectra_storm"])
    args = parser.parse_args(argv)
    first, last = (int(v) for v in args.seeds.split("-"))
    values: dict[str, dict[str, list[float]]] = {}
    for seed in range(first, last + 1):
        for workload in args.workloads:
            out = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed",
                 str(seed), "--seconds", args.seconds, "--trace", "0"],
                capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.splitlines()[-1])
            if not result["correct"]:
                print(out.stderr, file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(
                    metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n} {m['value']:.4f}" for n, m in result["metrics"].items()),
                flush=True)
    for workload, metrics in values.items():
        for name, series in metrics.items():
            spread = (f"{quartile_spread(series):.4f}" if len(series) > 1
                      else "n/a")
            print(f"{workload:14s} {name:14s} median {median(series):10.4f} "
                  f"spread {spread} (n={len(series)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
