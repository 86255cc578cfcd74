"""The benchmark's workloads: named job lists run through ``dustlink.cli``.

A job is one ``ExperimentConfig``; a pass runs every job of a workload in
order with ``run_scenario`` then ``write_outputs``, one process, one
worker, as a researcher runs the CLI. Sizes use only existing config keys
(``replicates``, ``transport.packets``, ``range.steps``, ``storm.steps``,
``catalog_dir``).

The workload seed selects one of ``INPUT_SETS`` input sets (scenario seed
and synthetic-catalog seed); a reference output is recorded for each set.
"""

from dataclasses import dataclass

from dustlink.cli import ExperimentConfig
from dustlink.link import TIME_SCENARIO_SECONDS

INPUT_SETS = 5
SCENARIO_SEED_BASE = 1000
CATALOG_LINES = 10_000
ABSORPTION_POINTS = 2001

# Per-workload transport sizes, chosen so that one pass takes about 1-2 s
# on a 2-core machine and a run holds a dozen or more passes.
EARTH_PACKETS = 1500
EARTH_REPLICATES = 2
MARS_PACKETS = 1000
MARS_DISTANCE_STEPS = 6

WORKLOADS = {
    "earth_sweeps": "transport-bound: Earth particle and visibility sweeps, "
                    "thin to opaque, both scatter couplings",
    "mars_capacity": "transport plus extinction, Doppler absorption and link "
                     "capacity: Mars time and distance scenarios",
    "spectra_storm": "no transport: 10^4-line absorption spectra, extinction "
                     "tables, storm stepping and its wide CSV",
}


@dataclass(frozen=True)
class Job:
    name: str
    config: ExperimentConfig
    packets: int            # photon packets traced per run (from the config)


def input_set(seed: int) -> int:
    return seed % INPUT_SETS


def scenario_seed(set_index: int) -> int:
    return SCENARIO_SEED_BASE + set_index


def build_jobs(workload: str, set_index: int, out_dir: str,
               catalog_dir: str | None = None) -> list[Job]:
    """The job list of ``workload`` for one input set."""
    seed = scenario_seed(set_index)

    def cfg(scenario, planet, **kw):
        return ExperimentConfig(scenario=scenario, planet=planet, seed=seed,
                                output=out_dir, workers=1, **kw)

    if workload == "earth_sweeps":
        sweep = {"transport.packets": EARTH_PACKETS}
        runs = EARTH_REPLICATES * EARTH_PACKETS
        return [
            # 10, 100, 1000 particles on the 10 m path: 1, 10, 100 per metre
            Job("particle_sweep_earth",
                cfg("particle_sweep", "earth", replicates=EARTH_REPLICATES,
                    range_start=10.0, range_stop=1000.0, range_steps=3,
                    overrides=sweep), 3 * runs),
            # visibility 10 m .. 10 km
            Job("visibility_sweep_earth",
                cfg("visibility_sweep", "earth", replicates=EARTH_REPLICATES,
                    range_steps=4, overrides=sweep), 4 * runs),
        ]
    if workload == "mars_capacity":
        mars = {"transport.packets": MARS_PACKETS}
        return [
            Job("time_scenario_mars",
                cfg("time_scenario", "mars", overrides=mars),
                TIME_SCENARIO_SECONDS * MARS_PACKETS),
            Job("capacity_distance_mars",
                cfg("capacity_distance", "mars", range_steps=MARS_DISTANCE_STEPS,
                    overrides=mars), MARS_DISTANCE_STEPS * MARS_PACKETS),
        ]
    if workload == "spectra_storm":
        if catalog_dir is None:
            raise ValueError("spectra_storm needs the synthetic catalog")
        spectrum = {"catalog_dir": catalog_dir, "range_steps": ABSORPTION_POINTS,
                    "range_scale": "linear"}
        return [
            Job("absorption_spectrum_earth",
                cfg("absorption_spectrum", "earth", **spectrum), 0),
            Job("absorption_spectrum_mars",
                cfg("absorption_spectrum", "mars", **spectrum), 0),
            Job("extinction_table_earth", cfg("extinction_table", "earth"), 0),
            Job("extinction_table_mars", cfg("extinction_table", "mars"), 0),
            Job("storm_density_earth", cfg("storm_density", "earth"), 0),
        ]
    raise ValueError(f"unknown workload {workload!r}")
