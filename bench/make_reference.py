#!/usr/bin/env python3
"""Record the reference output of every benchmark job.

    python3 bench/make_reference.py [workload ...]

For each workload and input set this writes ``reference/<workload>/set<k>/``
holding each job's CSV (gzip), its SHA-256, and for every Monte Carlo
column the per-row standard deviation over ``REPLICATES`` runs that differ
only in their random seed:

- sweeps rerun the whole job with other scenario seeds (the grid does not
  depend on the seed);
- time and distance scenarios rerun each row through ``dustlink.link``
  with the row's own dust count or density, so that the seed-drawn inputs
  stay fixed.

Run it again only for a deliberate, documented change of the outputs.
"""

import gzip
import json
import math
import shutil
import sys
from dataclasses import replace
from statistics import stdev

from run import WORK, import_package
from verify import MC_COLUMNS, read_table, reference_path, sha256

REPLICATES = 16
SEED_STRIDE = 7919


def _sigma(samples: list[float]) -> float | None:
    if not all(math.isfinite(v) for v in samples):
        return None
    return stdev(samples)


def _band_center_absorption(planet) -> float:
    """k at the band centre from the bundled catalog, as the CLI computes it
    for the time scenario (its helper is private)."""
    import numpy as np
    from dustlink import atmosphere, bundled_catalog_dir
    catalog = atmosphere.load_catalog_dir(bundled_catalog_dir(),
                                          [g for g, _ in planet.gases])
    return float(atmosphere.absorption_coefficient(
        planet.mixture(), catalog, np.array([planet.frequency_hz])).k_per_m[0])


def replicate_columns(job, header, rows, run_job) -> dict[str, list[list[float]]]:
    """Column -> per-row list of replicate values, for the MC columns."""
    from dustlink import link, preset
    cfg = job.config
    seeds = [cfg.seed + SEED_STRIDE * (r + 1) for r in range(REPLICATES)]
    mc = [c for c in header if c in MC_COLUMNS]
    out = {c: [[] for _ in rows] for c in mc}
    if not mc:
        return out
    scenario = cfg.scenario
    planet = preset(cfg.planet)
    packets = cfg.overrides["transport.packets"]
    if scenario in ("particle_sweep", "visibility_sweep"):
        for seed in seeds:
            _, rep_rows = read_table(run_job(replace(cfg, seed=seed)))
            for c in mc:
                j = header.index(c)
                for i, row in enumerate(rep_rows):
                    out[c][i].append(row[j])
    elif scenario == "time_scenario":
        link_cfg = link.LinkConfig.for_preset(planet, distance_m=1.0)
        k = _band_center_absorption(planet)
        for i, row in enumerate(rows):
            count = int(row[header.index("count")])
            for seed in seeds:
                p = link.run_time_scenario(link_cfg, planet, [count], seed, k,
                                           packet_count=packets)[0]
                values = {"T_MS": p.transmittance,
                          "A_dB_per_m": p.attenuation_db_per_m,
                          "capacity_bps": p.capacity_bps}
                for c in mc:
                    out[c][i].append(values[c])
    elif scenario == "capacity_distance":
        link_cfg = link.LinkConfig.for_preset(planet)
        for i, row in enumerate(rows):
            d, density, k = (row[header.index(c)]
                             for c in ("d_m", "density_per_m", "k_per_m"))
            for seed in seeds:
                p = link.run_distance_sweep(link_cfg, planet, [d],
                                            (density, density), seed, k,
                                            packet_count=packets)[0]
                values = {"T_MS": p.transmittance, "H_dust": p.h_dust,
                          "capacity_bps": p.capacity_bps}
                for c in mc:
                    out[c][i].append(values[c])
    else:
        raise ValueError(f"no replicate rule for {scenario}")
    return out


def make(workload: str, set_index: int) -> None:
    from dustlink.cli import run_scenario, write_outputs
    from jobs import CATALOG_LINES, build_jobs, scenario_seed
    from synthcat import generate_catalog

    work = WORK / f"reference-{workload}-{set_index}"
    inputs = {"scenario_seed": scenario_seed(set_index)}
    catalog_dir = None
    if workload == "spectra_storm":
        catalog_dir = str(work / "catalog")
        inputs.update(generate_catalog(catalog_dir, CATALOG_LINES, set_index))
    jobs = build_jobs(workload, set_index, str(work / "out"), catalog_dir)

    def run_job(cfg) -> bytes:
        return write_outputs(run_scenario(cfg), cfg)[0].read_bytes()

    target = reference_path(workload, set_index)
    target.mkdir(parents=True, exist_ok=True)
    index = {"workload": workload, "input_set": set_index, "inputs": inputs,
             "replicates": REPLICATES, "jobs": {}}
    for job in jobs:
        data = run_job(job.config)
        header, rows = read_table(data)
        reps = replicate_columns(job, header, rows, run_job)
        index["jobs"][job.name] = {
            "sha256": sha256(data),
            "rows": len(rows),
            "sigma": {c: [_sigma(v) for v in per_row]
                      for c, per_row in reps.items()},
        }
        (target / f"{job.name}.csv.gz").write_bytes(
            gzip.compress(data, mtime=0))
        print(f"{workload} set{set_index} {job.name}: {len(rows)} rows",
              flush=True)
    (target / "index.json").write_text(json.dumps(index, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str]) -> int:
    import_package()
    from jobs import INPUT_SETS, WORKLOADS
    for workload in argv or list(WORKLOADS):
        for set_index in range(INPUT_SETS):
            make(workload, set_index)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
