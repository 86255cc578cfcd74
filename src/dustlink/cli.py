"""Experiment configuration, scenario orchestration and the ``dustlink`` CLI.

Scenarios cover the transport sweeps (packet count, visibility, dust
count, distance, frequency), the two capacity scenarios, the storm
counter, and extinction/absorption table dumps. Every sweep point runs
``replicates`` independent seeds; a full run is a pure function of
(config bytes, seed), for any worker count.

Config files are UTF-8 ``key = value`` lines ('#' comments). Unknown keys
are rejected; see ``CONFIG_KEYS`` for the schema. Exit codes: 0 success,
2 config error, 3 data/catalog error, 4 runtime error.
"""

import argparse
import math
import os
import sys
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median

import numpy as np

from . import atmosphere, link, storm
from .errors import (CatalogError, ConfigError, DomainError, DustlinkError,
                     FormatError)
from .output import write_csv, write_svg_line
from .presets import PLANETS, PlanetPreset, bundled_catalog_dir, preset
from .rng import derive_seed
from .scatter import (LinearDensity, Visibility, VolumetricDensity,
                      ensemble_extinction)
# estimate_transmittance stays bound here although unused:
# bench/test_bench.py checks that the benchmark's span recorder rebinds it
from .transport import (FixedAsymmetry, TransportConfig, UniformAsymmetry,
                        _is_int, estimate_batch,
                        estimate_transmittance)  # noqa: F401

__all__ = ["ExperimentConfig", "ScenarioResult", "parse_config",
           "run_scenario", "write_outputs", "main", "SCENARIOS"]

CATALOG_ENV_VAR = "DUSTLINK_CATALOG_DIR"

# key -> converter; the complete config schema. A key under one of
# _OVERRIDE_PREFIXES goes to ``ExperimentConfig.overrides``; any other key
# sets the ExperimentConfig field named by the key with "." replaced by "_".
CONFIG_KEYS = {
    "scenario": str,
    "planet": str,
    "seed": int,
    "replicates": int,
    "workers": int,
    "output": str,
    "plot": "bool",
    "catalog_dir": str,
    "range.start": float,
    "range.stop": float,
    "range.steps": int,
    "range.scale": str,
    "density.lo_per_m": float,
    "density.hi_per_m": float,
    "transport.packets": int,
    "transport.weight_threshold": float,
    "transport.g_lo": float,
    "transport.g_hi": float,
    "transport.g_fixed": float,
    "transport.max_events": int,
    "transport.distance_m": float,
    "medium.count_per_m": float,
    "medium.visibility_m": float,
    "medium.n0_per_m3": float,
    "link.tx_power_dbm": float,
    "link.noise_psd_w_hz": float,
    "storm.emission_rate": int,
    "storm.steps": int,
    "storm.timestep_s": float,
    "storm.updraft_m_s": float,
    "storm.settling_m_s": float,
    "storm.wind_speed_m_s": float,
    "storm.vortex_strength_rad_s": float,
}

_OVERRIDE_PREFIXES = ("transport.", "medium.", "link.", "storm.")

# config key -> the field it overrides in the transport template: a
# TransportConfig field, a UniformAsymmetry bound ("lo", "hi"), or the "g"
# of a FixedAsymmetry, which wins over the bounds
_TRANSPORT_KEYS = {
    "transport.packets": "packet_count",
    "transport.distance_m": "distance_m",
    "transport.weight_threshold": "weight_threshold",
    "transport.max_events": "max_events",
    "transport.g_lo": "lo",
    "transport.g_hi": "hi",
    "transport.g_fixed": "g",
}


@dataclass(frozen=True)
class ScenarioResult:
    """Rows plus the CSV/plot schema of one scenario run."""

    scenario: str
    planet: str
    header: tuple[str, ...]
    rows: tuple[tuple, ...]
    x_column: str
    y_column: str


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    planet: str = "earth"
    seed: int = 1
    replicates: int = 10
    workers: int = 1
    output: str = "out"
    plot: bool = False
    catalog_dir: str | None = None
    range_start: float | None = None
    range_stop: float | None = None
    range_steps: int | None = None
    range_scale: str | None = None     # None: the scenario's own scale
    density_lo_per_m: float | None = None
    density_hi_per_m: float | None = None
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {self.scenario!r}; expected one of "
                + ", ".join(SCENARIOS))
        if self.planet not in PLANETS:
            raise ConfigError(f"unknown planet {self.planet!r}")
        for key, value in self.overrides.items():
            if key not in CONFIG_KEYS or not key.startswith(_OVERRIDE_PREFIXES):
                raise ConfigError(f"unknown override key {key!r}")
            # an int fits either kind of key; a float only a finite float key
            if CONFIG_KEYS[key] is int and not _is_int(value):
                raise ConfigError(f"override {key} must be an int, got {value!r}")
            if not (_is_int(value)
                    or isinstance(value, float) and math.isfinite(value)):
                raise ConfigError(
                    f"override {key} must be a finite number, got {value!r}")
        ints = {"seed": self.seed, "replicates": self.replicates,
                "workers": self.workers}
        if self.range_steps is not None:
            ints["range_steps"] = self.range_steps
        for name, value in ints.items():
            if not _is_int(value):
                raise ConfigError(f"{name} must be an int, got {value!r}")
        if not 0 <= self.seed < 1 << 128:
            raise ConfigError(f"seed must be in [0, 2**128), got {self.seed!r}")
        if self.replicates < 1 or self.workers < 1:
            raise ConfigError("replicates and workers must be >= 1")
        if self.range_scale not in (None, "log", "linear"):
            raise ConfigError(f"unknown range scale {self.range_scale!r}")
        for name in ("range_start", "range_stop", "density_lo_per_m",
                     "density_hi_per_m"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if (self.density_lo_per_m is None) != (self.density_hi_per_m is None):
            raise ConfigError(
                "density.lo_per_m and density.hi_per_m must be set together")
        if (self.range_start is not None and self.range_stop is not None
                and self.range_start > self.range_stop):
            raise ConfigError("range.start must not exceed range.stop")
        if self.range_steps is not None and self.range_steps < 1:
            raise ConfigError("range.steps must be >= 1")


def parse_config(text: str, override_scenario: str | None = None) -> ExperimentConfig:
    """Parse a key-value config.

    Unknown keys and unparsable or non-finite numbers are errors. Only the
    keys that are set are passed on, so unset fields keep the defaults of
    ``ExperimentConfig``.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        conv = CONFIG_KEYS[key]
        if conv == "bool":
            if value.lower() not in ("true", "false"):
                raise ConfigError(f"line {lineno}: {key} must be true or false")
            values[key] = value.lower() == "true"
        elif conv in (int, float):
            try:
                values[key] = conv(value)
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: cannot parse {key}={value!r} as "
                    f"{conv.__name__}") from None
            if not math.isfinite(values[key]):
                raise ConfigError(f"line {lineno}: {key} must be finite, "
                                  f"got {value!r}")
        else:
            values[key] = value

    if override_scenario is not None:
        values["scenario"] = override_scenario
    if "scenario" not in values:
        raise ConfigError("missing scenario")

    overrides = {k: v for k, v in values.items() if k.startswith(_OVERRIDE_PREFIXES)}
    fields = {k.replace(".", "_"): v for k, v in values.items() if k not in overrides}
    return ExperimentConfig(**fields, overrides=overrides)


def _transport(cfg: ExperimentConfig, planet: PlanetPreset) -> TransportConfig:
    """The transport template of every run a scenario traces."""
    fields = {name: cfg.overrides[key] for key, name in _TRANSPORT_KEYS.items()
              if key in cfg.overrides}
    bounds = {name: fields.pop(name) for name in ("lo", "hi") if name in fields}
    if "g" in fields:
        fields["asymmetry"] = FixedAsymmetry(fields.pop("g"))
    elif bounds:
        fields["asymmetry"] = UniformAsymmetry(**bounds)
    return replace(link.transport_template(planet), **fields)


def _grid(cfg: ExperimentConfig, start: float, stop: float, steps: int,
          scale: str) -> list[float]:
    """The sweep grid: the scenario's default range, overridden by ``range.*``."""
    start = start if cfg.range_start is None else cfg.range_start
    stop = stop if cfg.range_stop is None else cfg.range_stop
    steps = steps if cfg.range_steps is None else cfg.range_steps
    scale = cfg.range_scale or scale
    if steps == 1:
        return [float(start)]
    if scale == "log":
        if start <= 0:
            raise ConfigError("log-scaled ranges need a positive start")
        return [float(v) for v in np.geomspace(start, stop, steps)]
    return [float(v) for v in np.linspace(start, stop, steps)]


def _density(cfg: ExperimentConfig, planet: PlanetPreset):
    """The density of a scenario's fixed dust population.

    An explicit visibility or volumetric density override wins over the
    per-meter beam count, ``medium.count_per_m`` or the preset's.
    """
    if "medium.visibility_m" in cfg.overrides:
        return Visibility(cfg.overrides["medium.visibility_m"])
    if "medium.n0_per_m3" in cfg.overrides:
        return VolumetricDensity(cfg.overrides["medium.n0_per_m3"])
    return LinearDensity(cfg.overrides.get("medium.count_per_m",
                                           planet.dust_count_per_m))


def _medium(cfg: ExperimentConfig, planet: PlanetPreset, f_hz: float):
    """The fixed dust population of a scenario at ``f_hz``."""
    return planet.medium(_density(cfg, planet), f_hz)


def _sweep(cfg: ExperimentConfig, values: list[float],
           runs: list[TransportConfig]) -> list[tuple]:
    """Trace ``replicates`` seeded copies of each value's run.

    All runs go in one batch, or with ``workers > 1`` one contiguous slice
    per worker; results do not depend on how the runs are split. Rows are
    ``(value, replicate, seed, T, A)``, sorted by value and replicate.
    """
    keys = [(value, rep) for value in values for rep in range(cfg.replicates)]
    transports = [replace(run, seed=derive_seed(cfg.seed, cfg.scenario, vi, rep))
                  for vi, run in enumerate(runs) for rep in range(cfg.replicates)]
    if cfg.workers > 1:
        bounds = np.linspace(0, len(transports), cfg.workers + 1, dtype=int)
        slices = [transports[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])
                  if hi > lo]
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = [r for part in pool.map(estimate_batch, slices) for r in part]
    else:
        results = estimate_batch(transports)
    rows = [(value, rep, transport.seed, result.transmittance,
             result.attenuation_db_per_m)
            for (value, rep), transport, result in zip(keys, transports, results)]
    rows.sort(key=lambda row: row[:2])
    return rows


def _catalog(cfg: ExperimentConfig, planet: PlanetPreset) -> dict:
    directory = (cfg.catalog_dir or os.environ.get(CATALOG_ENV_VAR)
                 or bundled_catalog_dir())
    return atmosphere.load_catalog_dir(directory, [g for g, _ in planet.gases])


def _band_center_absorption(cfg: ExperimentConfig, planet: PlanetPreset) -> float:
    spectrum = atmosphere.absorption_coefficient(
        planet.mixture(), _catalog(cfg, planet), np.array([planet.frequency_hz]))
    return float(spectrum.k_per_m[0])


def _link_config(cfg: ExperimentConfig, planet: PlanetPreset,
                 distance_m: float | None = None) -> link.LinkConfig:
    return link.LinkConfig.for_preset(
        planet,
        distance_m=distance_m,
        tx_power_dbm=cfg.overrides.get("link.tx_power_dbm"),
        noise_psd_w_hz=cfg.overrides.get("link.noise_psd_w_hz"),
    )


def _runs_at(cfg: ExperimentConfig, planet: PlanetPreset,
             cexts: list[float]) -> list[TransportConfig]:
    template = _transport(cfg, planet)
    return [replace(template, extinction_per_m=cext) for cext in cexts]


def _fixed_medium_run(cfg: ExperimentConfig, planet: PlanetPreset) -> TransportConfig:
    f_hz = planet.frequency_hz
    cext = ensemble_extinction(_medium(cfg, planet, f_hz), f_hz).extinction_per_m
    return replace(_transport(cfg, planet), extinction_per_m=cext)


# Scenario functions: (config, planet preset, grid or None) -> CSV rows.

def _mcp_sweep(cfg, planet, grid):
    run = _fixed_medium_run(cfg, planet)
    values = [float(round(v)) for v in grid]
    return _sweep(cfg, values, [replace(run, packet_count=int(v)) for v in values])


def _visibility_sweep(cfg, planet, grid):
    f_hz = planet.frequency_hz
    cexts = [ensemble_extinction(planet.medium_from_visibility(v), f_hz).extinction_per_m
             for v in grid]
    return _sweep(cfg, grid, _runs_at(cfg, planet, cexts))


def _particle_sweep(cfg, planet, grid):
    # sweep value is the particle count on the whole path
    values = [float(round(v)) for v in grid]
    distance_m = _transport(cfg, planet).distance_m
    f_hz = planet.frequency_hz
    cexts = [ensemble_extinction(planet.medium_from_count(v / distance_m),
                                 f_hz).extinction_per_m for v in values]
    return _sweep(cfg, values, _runs_at(cfg, planet, cexts))


def _distance_sweep(cfg, planet, grid):
    run = _fixed_medium_run(cfg, planet)
    return _sweep(cfg, grid, [replace(run, distance_m=d) for d in grid])


def _frequency_sweep(cfg, planet, grid):
    cexts = [ensemble_extinction(_medium(cfg, planet, f), f).extinction_per_m
             for f in grid]
    return _sweep(cfg, grid, _runs_at(cfg, planet, cexts))


def _time_scenario(cfg, planet, grid):
    link_cfg = _link_config(cfg, planet, distance_m=1.0)
    k = _band_center_absorption(cfg, planet)
    counts = link.default_time_counts(planet, cfg.seed)
    points = link.time_scenario_points(link_cfg, planet, counts, cfg.seed, k,
                                       _transport(cfg, planet))
    return [(p.t_s, p.count, p.transmittance, p.attenuation_db_per_m,
             p.capacity_bps) for p in points]


def _capacity_distance(cfg, planet, grid):
    link_cfg = _link_config(cfg, planet)
    k = _band_center_absorption(cfg, planet)
    densities = (planet.density_range_per_m if cfg.density_lo_per_m is None
                 else (cfg.density_lo_per_m, cfg.density_hi_per_m))
    points = link.distance_sweep_points(link_cfg, planet, grid, densities,
                                        cfg.seed, k, _transport(cfg, planet))
    return [(p.distance_m, p.density_per_m, p.k_per_m, p.transmittance,
             p.h_spreading, p.h_absorption, p.h_dust, p.capacity_bps)
            for p in points]


_STORM_CONE = storm.build_beam_cone((5500.0, 0.0, 50.0), (6500.0, 0.0, 50.0),
                                    half_angle_rad=1.5e-5, disk_spacing_m=0.01)


def _storm_config(cfg: ExperimentConfig, planet: PlanetPreset) -> storm.StormConfig:
    # every storm.* key but storm.steps names a StormConfig field
    return storm.StormConfig(
        radius_range_m=(planet.size_distribution.r_min_m,
                        planet.size_distribution.r_max_m),
        seed=cfg.seed,
        **{key.removeprefix("storm."): value
           for key, value in cfg.overrides.items()
           if key.startswith("storm.") and key != "storm.steps"})


def _storm_density(cfg, planet, grid):
    series = storm.density_time_series(_storm_config(cfg, planet), _STORM_CONE,
                                       cfg.overrides.get("storm.steps", 120))
    return [(t, count) + tuple(float(v) for v in profile)
            for t, count, profile in series]


def _extinction_table(cfg, planet, grid):
    rows = []
    for f in grid:
        result = ensemble_extinction(_medium(cfg, planet, f), f)
        rows.append((f, result.extinction_per_m, result.number_density_per_m3,
                     result.wavelength_m))
    return rows


def _absorption_spectrum(cfg, planet, grid):
    spectrum = atmosphere.absorption_coefficient(
        planet.mixture(), _catalog(cfg, planet), np.array(grid))
    return [(float(f), float(k))
            for f, k in zip(spectrum.frequency_hz, spectrum.k_per_m)]


@dataclass(frozen=True)
class _Scenario:
    """A scenario function with its default grid and its CSV/plot schema."""

    run: Callable[[ExperimentConfig, PlanetPreset, list[float] | None], list[tuple]]
    header: tuple[str, ...]
    x_column: str      # sweeps plot ``value`` under this label
    y_column: str
    # planet -> default (start, stop, steps, scale); None: no grid
    default_range: Callable[[PlanetPreset], tuple] | None = None


_SWEEP_HEADER = ("value", "replicate", "seed", "T_MS", "A_dB_per_m")

_SCENARIO_TABLE = {
    "mcp_sweep": _Scenario(
        _mcp_sweep, _SWEEP_HEADER, "mcp_packets", "A_dB_per_m",
        lambda planet: (10.0, 10000.0, 7, "log")),
    "visibility_sweep": _Scenario(
        _visibility_sweep, _SWEEP_HEADER, "visibility_m", "A_dB_per_m",
        lambda planet: (10.0, 10000.0, 7, "log")),
    "particle_sweep": _Scenario(
        _particle_sweep, _SWEEP_HEADER, "particles_on_path", "A_dB_per_m",
        lambda planet: (10.0, 10000.0, 7, "log")),
    "distance_sweep": _Scenario(
        _distance_sweep, _SWEEP_HEADER, "distance_m", "A_dB_per_m",
        lambda planet: (1.0, 200.0, 8, "log")),
    "frequency_sweep": _Scenario(
        _frequency_sweep, _SWEEP_HEADER, "frequency_hz", "A_dB_per_m",
        lambda planet: (0.1e12, planet.frequency_cap_hz, 7, "log")),
    "time_scenario": _Scenario(
        _time_scenario, ("t_s", "count", "T_MS", "A_dB_per_m", "capacity_bps"),
        "t_s", "capacity_bps"),
    "capacity_distance": _Scenario(
        _capacity_distance,
        ("d_m", "density_per_m", "k_per_m", "T_MS", "H_spr", "H_abs", "H_dust",
         "capacity_bps"),
        "d_m", "capacity_bps",
        lambda planet: (1.0, 200.0, 12, "log")),
    "storm_density": _Scenario(
        _storm_density,
        ("t_s", "count") + tuple(f"density_per_m_bin_{i}"
                                 for i in range(_STORM_CONE.bin_count())),
        "t_s", "count"),
    "extinction_table": _Scenario(
        _extinction_table, ("f_hz", "C_ext_per_m", "N0_per_m3", "wavelength_m"),
        "f_hz", "C_ext_per_m",
        lambda planet: (0.1e12, 10e12, 25, "log")),
    "absorption_spectrum": _Scenario(
        _absorption_spectrum, ("f_hz", "k_per_m"), "f_hz", "k_per_m",
        lambda planet: (planet.band_lo_hz, planet.band_hi_hz, 201, "linear")),
}

SCENARIOS = tuple(_SCENARIO_TABLE)


def run_scenario(cfg: ExperimentConfig) -> ScenarioResult:
    """Run one scenario; deterministic per (config, seed)."""
    scenario = _SCENARIO_TABLE[cfg.scenario]
    planet = preset(cfg.planet)
    grid = (_grid(cfg, *scenario.default_range(planet))
            if scenario.default_range else None)
    try:
        rows = tuple(scenario.run(cfg, planet, grid))
    except DomainError as exc:
        # every object a run builds comes from config values, so a value
        # that one rejects is a config error (exit 2)
        raise ConfigError(str(exc)) from exc
    return ScenarioResult(cfg.scenario, cfg.planet, scenario.header, rows,
                          scenario.x_column, scenario.y_column)


def _plot_series(result: ScenarioResult) -> tuple[list[float], list[float]]:
    yi = result.header.index(result.y_column)
    if "replicate" in result.header:
        # aggregate replicates by median for a single plotted series
        by_value: dict[float, list[float]] = {}
        for row in result.rows:
            by_value.setdefault(row[0], []).append(row[yi])
        xs = sorted(by_value)
        return xs, [median(by_value[x]) for x in xs]
    xi = result.header.index(result.x_column)
    return [row[xi] for row in result.rows], [row[yi] for row in result.rows]


def write_outputs(result: ScenarioResult, cfg: ExperimentConfig) -> list[Path]:
    """Write the scenario CSV (and SVG when requested); returns the paths."""
    out_dir = Path(cfg.output)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DustlinkError(f"cannot create output directory {out_dir}: {exc}")
    stem = f"{result.scenario}_{result.planet}"
    paths = [write_csv(out_dir / f"{stem}.csv", list(result.header),
                       list(result.rows))]
    if cfg.plot:
        xs, ys = _plot_series(result)
        paths.append(write_svg_line(out_dir / f"{stem}.svg", xs, ys,
                                    result.x_column, result.y_column))
    return paths


def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser. Each flag but ``--config`` stores into the
    ExperimentConfig field it sets, and a flag that is not given leaves
    no attribute (``argparse.SUPPRESS``)."""
    parser = argparse.ArgumentParser(
        prog="dustlink",
        description="THz link transmittance, attenuation and capacity "
                    "through dusty atmospheres",
        argument_default=argparse.SUPPRESS)
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--config", help="path to a key=value config file")
    parser.add_argument("--seed", type=int, help="base RNG seed")
    parser.add_argument("--out", dest="output", help="output directory")
    parser.add_argument("--plot", action="store_true", help="emit SVG plots")
    parser.add_argument("--catalog", dest="catalog_dir",
                        help="spectroscopic catalog directory")
    parser.add_argument("--planet", choices=PLANETS)
    parser.add_argument("--workers", type=int, help="worker process count")
    parser.add_argument("--replicates", type=int, help="seeds per sweep point")
    return parser


def main(argv: list[str] | None = None) -> int:
    cli_fields = vars(_build_parser().parse_args(argv))
    scenario = cli_fields.pop("scenario")
    config = cli_fields.pop("config", None)
    try:
        text = ""
        if config:
            try:
                text = Path(config).read_text()
            except OSError as exc:
                raise ConfigError(f"cannot read config {config}: {exc}")
        cfg = replace(parse_config(text, override_scenario=scenario), **cli_fields)

        result = run_scenario(cfg)
        for path in write_outputs(result, cfg):
            print(path)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CatalogError, FormatError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:   # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
