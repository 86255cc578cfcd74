"""Golden SHA-256 digests of scenario CSVs, for accepting a refactor.

Usage: python3 tools/golden_digests.py SRC_DIR > digests.json

Imports ``dustlink`` from SRC_DIR and prints a JSON object that maps each
run to the SHA-256 of its CSV. The runs are every scenario x planet at
small sizes, alone and with one override set per ``transport.*``,
``link.*`` and ``medium.*`` key (and, for ``storm_density``, per
``storm.*`` key), at 1 and 3 workers, plus every ``bench/jobs.py`` job of
every input set. A refactor that keeps the output gives the same JSON on
the source trees before and after it.
"""

import hashlib
import json
import os
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


def main(src_dir: str) -> dict:
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


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    print(json.dumps(main(sys.argv[1]), indent=1, sort_keys=True))
