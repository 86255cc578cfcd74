"""Golden SHA-256 digests of scenario CSVs, for accepting a refactor.

Usage: python3 tools/golden_digests.py SRC_DIR > digests.json
       python3 tools/golden_digests.py OLD_SRC NEW_SRC

With one tree, imports ``dustlink`` from SRC_DIR and prints a JSON object
with numpy's version ("numpy"), the CPU features numpy dispatches on
("numpy_cpu_features"), both as ``tools/bench_pairs.py`` records them,
and, under "digests", the SHA-256 of each run's CSV: some ufuncs round
differently per numpy version and SIMD target. The runs are every scenario
x planet at small sizes, alone and with one override set per
``transport.*``, ``link.*`` and ``medium.*`` key (and, for
``storm_density``, per ``storm.*`` key), at 1 and 3 workers, plus every
``bench/jobs.py`` job of every input set. A tree whose ``CONFIG_KEYS``
names the scenarios that read each key gets each size in ``BASE`` only
where it is read, and a run whose override its scenario does not read is
left out: the tree rejects it. A refactor that keeps the output gives the
same JSON on the source trees before and after it.

With two trees, runs the same set once per tree, each in its own
subprocess, and prints each tree's numpy facts and, for each CSV whose
digest differs, its header, its row count and the largest relative change
of each column that changed. It exits 1 if a run or a header is missing or
differs, a row count differs, a column outside ``bench/verify.py``'s
``MC_COLUMNS`` changes, or a changed cell flips kind: it is not a finite
number on both sides (text, nan or an infinity on either), or it is zero
on one side only. A deliberate change of the Monte Carlo draws passes,
anything else fails. A run that NEW_SRC rejects passes only if it is no
bench job and OLD_SRC's CSV of it is the same without the rejected
override.
"""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from collections.abc import Collection
from dataclasses import replace
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import numpy_facts  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
FACTS = ("numpy", "numpy_cpu_features")
# the sizes of every run; a tree that names its readers sets each where read
BASE = {"replicates": 2, "range.steps": 3, "transport.packets": 400,
        "storm.steps": 5}
# one value per override key, each different from the preset's own
OVERRIDES = {
    "transport.packets": 300,
    "transport.weight_threshold": 0.05,
    "transport.g_lo": 0.2,
    "transport.g_hi": 0.8,
    "transport.max_events": 3,
    "transport.distance_m": 5.0,
    "medium.count_per_m": 50.0,
    "medium.visibility_m": 200.0,
    "medium.n0_per_m3": 1e7,
    "link.tx_power_dbm": 20.0,
    "link.noise_psd_w_hz": 1e-20,
}
# one value per storm.* key, each different from the default; only
# storm_density reads them. Its beam cone holds no particle at these sizes,
# so only storm.steps and storm.timestep_s change the CSV bytes; the other
# sets show that the key still reaches StormConfig.
STORM_OVERRIDES = {
    "storm.emission_rate": 50,
    "storm.steps": 7,
    "storm.timestep_s": 120.0,
    "storm.updraft_m_s": 0.9,
    "storm.settling_m_s": 0.1,
    "storm.wind_speed_m_s": 20.0,
    "storm.vortex_strength_rad_s": 0.1,
}


def main(src_dir: str, keep_dir: str | None = None,
         without: Collection[str] = ()) -> dict:
    """``numpy_facts()``; the digest of each run's CSV, under "digests"; the
    override of each run the tree rejects, under "rejected"; and, for each
    run named in ``without``, the digest of its CSV with its override left
    out, under "without". With ``keep_dir``, a copy of each digested CSV
    there too, at its run's name plus ".csv"."""
    sys.path[:0] = [str(Path(src_dir).resolve()), str(BENCH_DIR)]
    os.environ.pop("DUSTLINK_CATALOG_DIR", None)
    import dustlink
    from dustlink.cli import (CONFIG_KEYS, SCENARIOS, parse_config, run_scenario,
                              write_outputs)
    from dustlink.errors import ConfigError
    from dustlink.presets import PLANETS
    from jobs import CATALOG_LINES, INPUT_SETS, WORKLOADS, build_jobs
    from synthcat import generate_catalog

    if not Path(dustlink.__file__).resolve().is_relative_to(Path(src_dir).resolve()):
        raise SystemExit(f"imported dustlink from {dustlink.__file__}")

    def reads(scenario: str, key: str) -> bool:
        # a tree without reader sets reads, or at least takes, every key
        return scenario in getattr(CONFIG_KEYS[key], "read_by", SCENARIOS)

    out = {**numpy_facts(), "digests": {}, "rejected": {}, "without": {}}
    with tempfile.TemporaryDirectory() as work:
        def digest(cfg, keep_as: str | None = None) -> str:
            path = write_outputs(run_scenario(cfg), cfg)[0]
            if keep_dir is not None and keep_as is not None:
                kept = Path(keep_dir, keep_as + ".csv")
                kept.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(path, kept)
            return hashlib.sha256(path.read_bytes()).hexdigest()

        def config(scenario: str, keys: dict):
            text = "\n".join(f"{k} = {v}" for k, v in keys.items())
            return replace(parse_config(text, scenario), output=work)

        for scenario in SCENARIOS:
            overrides = {**OVERRIDES, **(STORM_OVERRIDES
                                         if scenario == "storm_density" else {})}
            sizes = {k: v for k, v in BASE.items() if reads(scenario, k)}
            for planet, key, workers in product(PLANETS, ("base", *overrides),
                                                (1, 3)):
                name = f"{scenario}/{planet}/{key}/w{workers}"
                keys = {"planet": planet, "seed": 7, "workers": workers, **sizes}
                if name in without:
                    out["without"][name] = digest(config(
                        scenario, {k: v for k, v in keys.items() if k != key}))
                if key in overrides:
                    keys[key] = overrides[key]
                cfg = config(scenario, keys)
                if key == "base" or reads(scenario, key):
                    out["digests"][name] = digest(cfg, name)
                    continue
                try:
                    run_scenario(cfg)
                except ConfigError:
                    out["rejected"][name] = key
                    continue
                raise SystemExit(f"{name}: ran a key its scenario does not read")
        for set_index in range(INPUT_SETS):
            catalog_dir = f"{work}/catalog{set_index}"
            generate_catalog(catalog_dir, CATALOG_LINES, set_index)
            for workload in WORKLOADS:
                for job in build_jobs(workload, set_index, work, catalog_dir):
                    name = f"bench/{workload}/set{set_index}/{job.name}"
                    out["digests"][name] = digest(job.config, name)
    return out


def _run_tree(src_dir: str, keep_dir: str, without: Collection[str] = ()) -> dict:
    """``main`` on one tree in a fresh interpreter, so each tree imports its
    own ``dustlink``."""
    code = (f"import json, sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            f"import golden_digests; print(json.dumps(golden_digests.main("
            f"{src_dir!r}, {keep_dir!r}, {sorted(without)!r})))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def _cells(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()]


def _changes(old: list[list[str]], new: list[list[str]]) -> tuple[dict, list[str]]:
    """Largest relative change per changed column of two CSVs with one
    header and row count, and the cells that flip kind: a changed cell is
    a flip unless it is a finite number on both sides, zero on both or on
    neither."""
    header = old[0]
    largest: dict[str, float] = {}
    flips = []
    for i, (old_row, new_row) in enumerate(zip(old[1:], new[1:])):
        for column, a, b in zip(header, old_row, new_row):
            if a == b:
                continue
            try:
                x, y = float(a), float(b)
            except ValueError:
                x = y = math.nan   # text on either side: no number to compare
            if not (math.isfinite(x) and math.isfinite(y)) or (x == 0.0) != (y == 0.0):
                flips.append(f"{column}[{i}] {a} -> {b}")
                continue
            change = abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0
            largest[column] = max(largest.get(column, 0.0), change)
    return largest, flips


def facts_line(tree: str, out: dict) -> str:
    """A tree's numpy version and CPU features, from its ``main``."""
    return (f"{tree}: numpy {out['numpy']}; CPU features "
            + " ".join(out["numpy_cpu_features"]))


def rejection_failures(old: dict, new: dict) -> list[str]:
    """Each run the new tree rejects whose override changes the old tree's
    CSV, or that the old tree neither rejects nor digests without it;
    ``old`` and ``new`` are each tree's ``main``."""
    return [f"{name}: rejected, but {key} changes the old tree's CSV"
            for name, key in sorted(new["rejected"].items())
            if name not in old["rejected"]
            and not old["digests"].get(name) == old["without"].get(name) is not None]


def compare(old_src: str, new_src: str) -> int:
    """Print how each differing CSV of ``new_src`` differs from ``old_src``'s;
    0 if only Monte Carlo columns move, and only in value, else 1."""
    sys.path.insert(0, str(BENCH_DIR))
    from verify import MC_COLUMNS

    with tempfile.TemporaryDirectory() as work:
        trees = [Path(work, "old"), Path(work, "new")]
        new_out = _run_tree(new_src, str(trees[1]))
        old_out = _run_tree(old_src, str(trees[0]), new_out["rejected"])
        print(facts_line("old", old_out))
        print(facts_line("new", new_out))
        old, new = old_out["digests"], new_out["digests"]
        rejected = new_out["rejected"]
        bad = sorted(name for name in set(old) ^ set(new) if name not in rejected)
        for name in bad:
            print(f"{name}: only in {'old' if name in old else 'new'}")
        for failure in rejection_failures(old_out, new_out):
            print(failure)
            bad.append(failure)
        differ = sorted(name for name in set(old) & set(new) if old[name] != new[name])
        overall: dict[str, float] = {}
        for name in differ:
            a, b = (_cells(Path(tree, name + ".csv")) for tree in trees)
            print(f"{name}: header {','.join(b[0])}, rows {len(a) - 1} -> {len(b) - 1}")
            if a[0] != b[0] or len(a) != len(b):
                print("  header or row count differs")
                bad.append(name)
                continue
            largest, flips = _changes(a, b)
            for column, change in largest.items():
                print(f"  {column}: largest relative change {change:.3g}")
                overall[column] = max(overall.get(column, 0.0), change)
            for flip in flips:
                print(f"  flips {flip}")
            if flips or set(largest) - set(MC_COLUMNS):
                bad.append(name)
    print(f"{len(rejected)} runs rejected; {len(differ)} of {len(set(old) & set(new))} "
          "CSVs differ; largest relative change "
          + (", ".join(f"{c} {v:.3g}" for c, v in sorted(overall.items())) or "none")
          + f"; {len(bad)} failing")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) == 2:
        out = main(sys.argv[1])
        print(json.dumps({key: out[key] for key in (*FACTS, "digests")},
                         indent=1, sort_keys=True))
    elif len(sys.argv) == 3:
        sys.exit(compare(sys.argv[1], sys.argv[2]))
    else:
        raise SystemExit(__doc__.split("\n\n")[1])
