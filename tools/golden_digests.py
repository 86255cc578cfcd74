"""Golden SHA-256 digests of scenario CSVs, for accepting a refactor.

Usage: python3 tools/golden_digests.py SRC_DIR > digests.json
       python3 tools/golden_digests.py OLD_SRC NEW_SRC

With one tree, imports ``dustlink`` from SRC_DIR and prints a JSON object
that maps each run to the SHA-256 of its CSV. The runs are every scenario
x planet at small sizes, alone and with one override set per
``transport.*``, ``link.*`` and ``medium.*`` key (and, for
``storm_density``, per ``storm.*`` key), at 1 and 3 workers, plus every
``bench/jobs.py`` job of every input set. A refactor that keeps the output
gives the same JSON on the source trees before and after it.

With two trees, runs the same set once per tree, each in its own
subprocess, and prints, for each CSV whose digest differs, its header, its
row count and the largest relative change of each column that changed. It
exits 1 if a run or a header is missing or differs, a row count differs, a
column outside ``bench/verify.py``'s ``MC_COLUMNS`` changes, or a cell
flips between finite and non-finite or between zero and non-zero: a
deliberate change of the Monte Carlo draws passes, anything else fails.
"""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
BASE = {"transport.packets": 400, "storm.steps": 5}
# one value per override key, each different from the preset's own
OVERRIDES = {
    "transport.packets": 300,
    "transport.weight_threshold": 0.05,
    "transport.g_lo": 0.2,
    "transport.g_hi": 0.8,
    "transport.g_fixed": 0.7,
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


def main(src_dir: str, keep_dir: str | None = None) -> dict:
    """Digest of each run's CSV; with ``keep_dir``, a copy of each CSV there
    too, at its run's name plus ".csv"."""
    sys.path[:0] = [str(Path(src_dir).resolve()), str(BENCH_DIR)]
    os.environ.pop("DUSTLINK_CATALOG_DIR", None)
    import dustlink
    from dustlink.cli import SCENARIOS, ExperimentConfig, run_scenario, write_outputs
    from dustlink.presets import PLANETS
    from jobs import CATALOG_LINES, INPUT_SETS, WORKLOADS, build_jobs
    from synthcat import generate_catalog

    if not Path(dustlink.__file__).resolve().is_relative_to(Path(src_dir).resolve()):
        raise SystemExit(f"imported dustlink from {dustlink.__file__}")
    digests = {}
    with tempfile.TemporaryDirectory() as work:
        def digest(name: str, cfg) -> None:
            path = write_outputs(run_scenario(cfg), cfg)[0]
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
            if keep_dir is not None:
                kept = Path(keep_dir, name + ".csv")
                kept.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(path, kept)

        for scenario in SCENARIOS:
            overrides = {**OVERRIDES, **(STORM_OVERRIDES
                                         if scenario == "storm_density" else {})}
            for planet in PLANETS:
                for key in ("base", *overrides):
                    extra = {key: overrides[key]} if key in overrides else {}
                    for workers in (1, 3):
                        digest(f"{scenario}/{planet}/{key}/w{workers}",
                               ExperimentConfig(
                                   scenario, planet, seed=7, replicates=2,
                                   workers=workers, output=work, range_steps=3,
                                   overrides={**BASE, **extra}))
        for set_index in range(INPUT_SETS):
            catalog_dir = f"{work}/catalog{set_index}"
            generate_catalog(catalog_dir, CATALOG_LINES, set_index)
            for workload in WORKLOADS:
                for job in build_jobs(workload, set_index, work, catalog_dir):
                    digest(f"bench/{workload}/set{set_index}/{job.name}", job.config)
    return digests


def _run_tree(src_dir: str, keep_dir: str) -> dict:
    """``main`` on one tree in a fresh interpreter, so each tree imports its
    own ``dustlink``."""
    code = (f"import json, sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            f"import golden_digests; "
            f"print(json.dumps(golden_digests.main({src_dir!r}, {keep_dir!r})))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def _cells(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()]


def _changes(old: list[list[str]], new: list[list[str]]) -> tuple[dict, list[str]]:
    """Largest relative change per changed column of two CSVs with one
    header and row count, and the cells that flip kind."""
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
                x, y = math.nan, math.nan   # text changed: no number to compare
            if math.isfinite(x) != math.isfinite(y) or (x == 0.0) != (y == 0.0):
                flips.append(f"{column}[{i}] {a} -> {b}")
            change = (abs(x - y) / max(abs(x), abs(y))
                      if math.isfinite(x) and math.isfinite(y) else math.inf)
            largest[column] = max(largest.get(column, 0.0), change)
    return largest, flips


def compare(old_src: str, new_src: str) -> int:
    """Print how each differing CSV of ``new_src`` differs from ``old_src``'s;
    0 if only Monte Carlo columns move, and only in value, else 1."""
    sys.path.insert(0, str(BENCH_DIR))
    from verify import MC_COLUMNS

    with tempfile.TemporaryDirectory() as work:
        trees = [Path(work, "old"), Path(work, "new")]
        old, new = (_run_tree(src, str(keep))
                    for src, keep in zip((old_src, new_src), trees))
        bad = sorted(set(old) ^ set(new))
        for name in bad:
            print(f"{name}: only in {'old' if name in old else 'new'}")
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
    print(f"{len(differ)} of {len(old)} CSVs differ; largest relative change "
          + (", ".join(f"{c} {v:.3g}" for c, v in sorted(overall.items())) or "none")
          + f"; {len(bad)} failing")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) == 2:
        print(json.dumps(main(sys.argv[1]), indent=1, sort_keys=True))
    elif len(sys.argv) == 3:
        sys.exit(compare(sys.argv[1], sys.argv[2]))
    else:
        raise SystemExit(__doc__.split("\n\n")[1])
