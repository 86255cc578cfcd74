"""Alternating parent/child benchmark runs, summarised in one JSON file.

Usage: python3 tools/bench_pairs.py OLD_ROOT NEW_ROOT --tag T
                                    [--pairs N] [--seconds S] [--seed K]

Copies each repository root to a temporary directory, under names of
equal length and without any ``__pycache__``, and compiles the copy with
``compileall``, so both trees start from the same bytecode state. Child processes run with
``PYTHONDONTWRITEBYTECODE`` unset. Then, for each pair and each workload
named in NEW_ROOT's ``BENCHMARK.json``, both copies run their own
``bench/run.py --workload W --seed K --seconds S`` once: the parent (OLD)
first in even pairs, the child (NEW) first in odd ones. After the pairs,
``SETUP_ROUNDS`` rounds each start one fresh interpreter per copy on the
``SETUP_CODE`` of that copy's own ``bench/run.py`` (read, not imported),
the parent first in even rounds, and time it as ``bench/run.py`` times
``setup_s``: interleaved, both trees' set-ups see the same host load.

Writes ``BENCH_<tag>.json`` to the current directory with both trees'
commits, the machine facts (numpy's version and the CPU features it
dispatches on among them), every run's ``correct``/``attempted``/``failed``
and metrics, and per workload and metric: the parent's and the child's
median and quartiles, the relative change of the medians, and how many
pairs the child read lower. Each end-to-end metric of NEW_ROOT's
``BENCHMARK.json`` also gets a ``verdict`` (see ``verdict``) from its
``better`` direction and its ``bound``; every workload's ``setup_s``
verdict comes from the set-up rounds, whose samples and summary the file
holds under ``setup_rounds``. It imports no ``dustlink``.
"""

import argparse
import ast
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles

TREES = ("parent", "child")
SETUP_ROUNDS = 30
# directory names of the two copies: of equal length, because a run's peak
# RSS follows the length of the path it runs from (by up to ~0.8 MiB)
COPY_NAMES = {"parent": "old", "child": "new"}
_IGNORED = shutil.ignore_patterns("__pycache__", ".git", ".bench_work",
                                  ".pytest_cache", ".hypothesis")


def child_env() -> dict:
    """The environment of every child process: bytecode is written and
    the package comes only from the tree's own ``src/``."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPATH", None)
    return env


def copy_tree(root: Path, dest: Path) -> Path:
    shutil.copytree(root, dest, ignore=_IGNORED)
    return dest


def compile_tree(root: Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(root)],
                   env=child_env(), check=True, stdout=subprocess.DEVNULL)


def git_state(root: Path) -> dict:
    def git(*args):
        proc = subprocess.run(["git", "-C", str(root), *args],
                              capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None
    status = git("status", "--porcelain")
    return {"root": str(root), "commit": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status)}


def run_order(pair: int) -> tuple[str, str]:
    """The parent runs first in even pairs, the child in odd ones."""
    return TREES if pair % 2 == 0 else TREES[::-1]


def parse_result(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a run's output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError(f"last line is not a benchmark result: {lines[-1]!r}")
    return result


def numpy_facts() -> dict:
    """numpy's version and the CPU features it dispatches on here. CSV
    bytes depend on both: some ufuncs round differently per SIMD target."""
    import numpy
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:     # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {"numpy": numpy.__version__,
            "numpy_cpu_features": sorted(k for k, on in __cpu_features__.items() if on)}


def parse_machine(stdout: str) -> dict | None:
    for line in stdout.splitlines():
        if line.startswith("machine: "):
            return json.loads(line.removeprefix("machine: "))
    return None


def bench_run(root: Path, workload: str, seed: int, seconds: float) -> str:
    """Standard output of one ``bench/run.py`` run in ``root``."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, env=child_env(), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {workload} exited with code "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def setup_code(root: Path) -> str:
    """The ``SETUP_CODE`` string of the tree's ``bench/run.py``."""
    module = ast.parse((root / "bench" / "run.py").read_text())
    for node in module.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "SETUP_CODE" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise ValueError(f"{root}: bench/run.py has no SETUP_CODE")


def setup_run(root: Path) -> float:
    """Seconds from spawning a fresh interpreter on the tree's set-up code
    until it prints its first line, timed as ``bench/run.py`` times
    ``setup_s``, with the package from the tree's ``src/``."""
    code = setup_code(root)
    env = {**child_env(), "PYTHONPATH": str(root / "src")}
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=root, env=env,
                          stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        returncode = proc.wait(timeout=120)
    if returncode != 0 or not line:
        raise RuntimeError(f"{root}: set-up interpreter exited with code {returncode}")
    return ready - t0


def run_setups(roots: dict, rounds: int = SETUP_ROUNDS, runner=setup_run,
               log=print) -> list[dict]:
    """One ``setup_s`` record per tree per round, in ``record``'s shape;
    the parent runs first in even rounds."""
    runs = []
    for round_ in range(rounds):
        for tree in run_order(round_):
            runs.append({"pair": round_, "tree": tree,
                         "metrics": {"setup_s": runner(roots[tree])},
                         "units": {"setup_s": "s"}})
        log(f"set-up round {round_}: " + ", ".join(
            f"{run['tree']} {run['metrics']['setup_s']:.4g} s" for run in runs[-2:]))
    return runs


def record(pair: int, tree: str, stdout: str) -> dict:
    result = parse_result(stdout)
    return {"pair": pair, "tree": tree, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "units": {name: m["unit"] for name, m in result["metrics"].items()}}


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of a sample."""
    q1, med, q3 = (quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def verdict(parent: list[float], child: list[float], better: str,
            bound: float) -> str:
    """How the child's runs compare with the parent's, pair by pair.

    ``gain``: the child is better in at least 9 of 10 pairs (ties count
    for neither) and the medians differ by more than the parent's
    q3 - q1; ``worse``: the child's median is worse by more than
    ``bound`` times the parent's median; ``unresolved``: the parent's
    (q3 - q1) / median exceeds ``bound`` and not every child run beats
    every parent run; ``flat``: any other case. ``better`` is "lower" or
    "higher".
    """
    # negated, a higher-is-better metric reads lower-is-better
    sign = 1.0 if better == "lower" else -1.0
    old, new = [sign * v for v in parent], [sign * v for v in child]
    old_spread = spread(old)
    iqr = old_spread["q3"] - old_spread["q1"]
    gap = old_spread["median"] - spread(new)["median"]
    scale = bound * abs(old_spread["median"])
    if 10 * sum(n < o for o, n in zip(old, new)) >= 9 * len(old) and gap > iqr:
        return "gain"
    if -gap > scale:
        return "worse"
    if iqr > scale and not max(new) < min(old):
        return "unresolved"
    return "flat"


def summarise(runs: list[dict], end_to_end: dict | None = None,
              setups: list[dict] | None = None) -> dict:
    """Per metric: each tree's spread and the pairs the child read lower,
    and for each metric in ``end_to_end`` (name -> ``BENCHMARK.json``
    entry with ``better`` and ``bound``) its ``verdict``.

    ``runs`` holds one ``record`` per tree per pair of one workload. Given
    ``setups`` (``run_setups``' records), ``setup_s`` takes its verdict
    from them.
    """
    end_to_end = end_to_end or {}
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["tree"]] = run
    full = [p for _, p in sorted(by_pair.items()) if set(p) == set(TREES)]
    names = sorted(set().union(*(p[t]["metrics"] for p in full for t in TREES)))
    summary = {}
    for name in names:
        pairs = [p for p in full if all(name in p[t]["metrics"] for t in TREES)]
        values = {t: [p[t]["metrics"][name] for p in pairs] for t in TREES}
        parent, child = spread(values["parent"]), spread(values["child"])
        summary[name] = {
            "unit": pairs[0]["child"]["units"].get(name),
            "parent": parent,
            "child": child,
            "change": (child["median"] / parent["median"] - 1.0
                       if parent["median"] else None),
            "child_lower": sum(c < p for p, c in zip(values["parent"],
                                                     values["child"])),
            "pairs": len(pairs),
        }
        if name in end_to_end:
            gate = end_to_end[name]
            if name == "setup_s" and setups:
                values = {t: [run["metrics"][name] for run in setups
                              if run["tree"] == t] for t in TREES}
                summary[name]["verdict_from"] = "setup_rounds"
            summary[name]["verdict"] = verdict(values["parent"], values["child"],
                                               gate["better"], gate["bound"])
    return summary


def run_pairs(roots: dict, workloads: list[str], pairs: int, seed: int,
              seconds: float, runner=bench_run, log=print) -> tuple[dict, dict]:
    """Every run's record per workload, and the first machine facts seen."""
    runs = {w: [] for w in workloads}
    machine = None
    for pair in range(pairs):
        for workload in workloads:
            for tree in run_order(pair):
                stdout = runner(roots[tree], workload, seed, seconds)
                machine = machine or parse_machine(stdout)
                run = record(pair, tree, stdout)
                runs[workload].append(run)
                log(f"pair {pair} {workload} {tree}: "
                    + ", ".join(f"{k} {v:.4g}" for k, v in run["metrics"].items())
                    + f"; correct {run['correct']}, failed {run['failed']}")
    return runs, machine


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_root", type=Path)
    parser.add_argument("new_root", type=Path)
    parser.add_argument("--tag", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)

    sources = {"parent": args.old_root.resolve(), "child": args.new_root.resolve()}
    spec = json.loads((sources["child"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"]: m for m in spec.get("end_to_end", [])}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        roots = {t: copy_tree(sources[t], Path(tmp) / COPY_NAMES[t]) for t in TREES}
        for root in roots.values():
            compile_tree(root)
        log = lambda m: print(m, flush=True)
        runs, machine = run_pairs(roots, workloads, args.pairs, args.seed,
                                  args.seconds, log=log)
        setups = run_setups(roots, log=log)
    out = {
        "tag": args.tag,
        "parent": git_state(sources["parent"]),
        "child": git_state(sources["child"]),
        "machine": {**(machine or {}), "platform": platform.platform(),
                    **numpy_facts()},
        "protocol": {"pairs": args.pairs, "seconds": args.seconds,
                     "seed": args.seed, "order": "parent first in even pairs",
                     "bytecode": "fresh copies compiled with compileall",
                     "setup_rounds": SETUP_ROUNDS,
                     "setup_order": "parent first in even rounds"},
        "setup_rounds": {"summary": summarise(setups, end_to_end)["setup_s"],
                         "runs": setups},
        "workloads": {w: {"summary": summarise(runs[w], end_to_end, setups),
                          "runs": runs[w]}
                      for w in workloads},
    }
    path = Path(f"BENCH_{args.tag}.json")
    path.write_text(json.dumps(out, indent=1) + "\n")
    for w in workloads:
        for name, s in out["workloads"][w]["summary"].items():
            print(f"{w:14s} {name:14s} parent {s['parent']['median']:.4g} "
                  f"[{s['parent']['q1']:.4g}, {s['parent']['q3']:.4g}] child "
                  f"{s['child']['median']:.4g} [{s['child']['q1']:.4g}, "
                  f"{s['child']['q3']:.4g}] child lower {s['child_lower']}"
                  f"/{s['pairs']} {s.get('verdict', '')}".rstrip())
    s = out["setup_rounds"]["summary"]
    print(f"set-up rounds  setup_s        parent {s['parent']['median']:.4g} "
          f"child {s['child']['median']:.4g} child lower {s['child_lower']}"
          f"/{s['pairs']} {s.get('verdict', '')}".rstrip())
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
