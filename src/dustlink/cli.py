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
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from . import atmosphere, link, storm
from .errors import CatalogError, ConfigError, DustlinkError, FormatError
from .output import write_csv, write_svg_line
from .presets import PlanetPreset, bundled_catalog_dir, preset
from .rng import derive_seed
from .scatter import ensemble_extinction, extinction_rates
# estimate_transmittance stays bound here although unused:
# bench/test_bench.py checks that the benchmark's span recorder rebinds it
from .transport import (FixedAsymmetry, TransportConfig, UniformAsymmetry,
                        estimate_batch, estimate_transmittance)  # noqa: F401

__all__ = ["ExperimentConfig", "SweepRow", "ScenarioResult", "parse_config",
           "run_scenario", "write_outputs", "main", "SCENARIOS"]

SCENARIOS = (
    "mcp_sweep", "visibility_sweep", "particle_sweep", "distance_sweep",
    "frequency_sweep", "time_scenario", "capacity_distance", "storm_density",
    "extinction_table", "absorption_spectrum",
)

CATALOG_ENV_VAR = "DUSTLINK_CATALOG_DIR"

# key -> converter; the complete config schema
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

_DEFAULT_RANGES = {
    "mcp_sweep": (10.0, 10000.0, 7, "log"),
    "visibility_sweep": (10.0, 10000.0, 7, "log"),
    "particle_sweep": (10.0, 10000.0, 7, "log"),
    "distance_sweep": (1.0, 200.0, 8, "log"),
    "frequency_sweep": (0.1e12, None, 7, "log"),   # stop capped per planet
    "capacity_distance": (1.0, 200.0, 12, "log"),
    "extinction_table": (0.1e12, 10e12, 25, "log"),
    "absorption_spectrum": (None, None, 201, "linear"),   # band by default
}


@dataclass(frozen=True)
class SweepRow:
    """One (value, replicate) measurement of a transport sweep."""

    value: float
    replicate: int
    seed: int
    transmittance: float
    attenuation_db_per_m: float
    capacity_bps: float | None = None


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
    range_scale: str = "log"
    density_lo_per_m: float | None = None
    density_hi_per_m: float | None = None
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {self.scenario!r}; expected one of "
                + ", ".join(SCENARIOS))
        if self.planet not in ("earth", "mars"):
            raise ConfigError(f"unknown planet {self.planet!r}")
        if self.replicates < 1 or self.workers < 1:
            raise ConfigError("replicates and workers must be >= 1")
        if self.range_scale not in ("log", "linear"):
            raise ConfigError(f"unknown range scale {self.range_scale!r}")
        if (self.range_start is not None and self.range_stop is not None
                and self.range_start > self.range_stop):
            raise ConfigError("range.start must not exceed range.stop")
        if self.range_steps is not None and self.range_steps < 1:
            raise ConfigError("range.steps must be >= 1")


def parse_config(text: str, override_scenario: str | None = None) -> ExperimentConfig:
    """Parse a key-value config; unknown keys and bad numbers are errors."""
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
        else:
            values[key] = value

    if override_scenario is not None:
        values["scenario"] = override_scenario
    if "scenario" not in values:
        raise ConfigError("missing scenario")

    overrides = {k: v for k, v in values.items()
                 if k.startswith(("transport.", "medium.", "link.", "storm."))}
    return ExperimentConfig(
        scenario=values["scenario"],
        planet=values.get("planet", "earth"),
        seed=values.get("seed", 1),
        replicates=values.get("replicates", 10),
        workers=values.get("workers", 1),
        output=values.get("output", "out"),
        plot=values.get("plot", False),
        catalog_dir=values.get("catalog_dir"),
        range_start=values.get("range.start"),
        range_stop=values.get("range.stop"),
        range_steps=values.get("range.steps"),
        range_scale=values.get("range.scale", "log"),
        density_lo_per_m=values.get("density.lo_per_m"),
        density_hi_per_m=values.get("density.hi_per_m"),
        overrides=overrides,
    )


def _planet(cfg: ExperimentConfig) -> PlanetPreset:
    p = preset(cfg.planet)
    overrides = {}
    if "transport.packets" in cfg.overrides:
        overrides["packet_count"] = cfg.overrides["transport.packets"]
    if "transport.weight_threshold" in cfg.overrides:
        overrides["weight_threshold"] = cfg.overrides["transport.weight_threshold"]
    if "transport.g_lo" in cfg.overrides:
        overrides["asymmetry_lo"] = cfg.overrides["transport.g_lo"]
    if "transport.g_hi" in cfg.overrides:
        overrides["asymmetry_hi"] = cfg.overrides["transport.g_hi"]
    if "transport.distance_m" in cfg.overrides:
        overrides["distance_m"] = cfg.overrides["transport.distance_m"]
    if "medium.count_per_m" in cfg.overrides:
        overrides["dust_count_per_m"] = cfg.overrides["medium.count_per_m"]
    return p.with_overrides(**overrides) if overrides else p


def _grid(cfg: ExperimentConfig, planet: PlanetPreset) -> list[float]:
    start, stop, steps, scale = _DEFAULT_RANGES[cfg.scenario]
    if cfg.scenario == "frequency_sweep":
        stop = planet.frequency_cap_hz or 10e12
    if cfg.scenario == "absorption_spectrum":
        start, stop = planet.band_lo_hz, planet.band_hi_hz
    start = cfg.range_start if cfg.range_start is not None else start
    stop = cfg.range_stop if cfg.range_stop is not None else stop
    steps = cfg.range_steps if cfg.range_steps is not None else steps
    scale = cfg.range_scale if cfg.range_scale else scale
    if start is None or stop is None:
        raise ConfigError(f"scenario {cfg.scenario} needs range.start/stop")
    if steps == 1:
        return [float(start)]
    if scale == "log":
        if start <= 0:
            raise ConfigError("log-scaled ranges need a positive start")
        return [float(v) for v in np.geomspace(start, stop, steps)]
    return [float(v) for v in np.linspace(start, stop, steps)]


def _asymmetry(cfg: ExperimentConfig, planet: PlanetPreset):
    if "transport.g_fixed" in cfg.overrides:
        return FixedAsymmetry(cfg.overrides["transport.g_fixed"])
    return UniformAsymmetry(planet.asymmetry_lo, planet.asymmetry_hi)


def _medium_builder(cfg: ExperimentConfig, planet: PlanetPreset):
    """Medium factory for scenarios with a fixed dust population.

    Density resolves from the config overrides: an explicit visibility or
    volumetric density wins over the preset's per-meter beam count.
    """
    if "medium.visibility_m" in cfg.overrides:
        visibility = cfg.overrides["medium.visibility_m"]
        return lambda f: planet.medium_from_visibility(visibility, f)
    if "medium.n0_per_m3" in cfg.overrides:
        n0 = cfg.overrides["medium.n0_per_m3"]
        return lambda f: planet.medium_volumetric(n0, f)
    return lambda f: planet.medium_from_count(planet.dust_count_per_m, f)


def _run_sweep_points(cfg: ExperimentConfig,
                      points: list[tuple[float, int, TransportConfig]]) -> list[SweepRow]:
    """Trace every (value, replicate, config) point in one batch per worker.

    With ``workers > 1`` each worker takes a contiguous slice of the
    points; results do not depend on how the points are split.
    """
    transports = [transport for _, _, transport in points]
    if cfg.workers > 1:
        bounds = np.linspace(0, len(transports), cfg.workers + 1, dtype=int)
        slices = [transports[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])
                  if hi > lo]
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = [r for part in pool.map(estimate_batch, slices) for r in part]
    else:
        results = estimate_batch(transports)
    rows = [SweepRow(value, rep, transport.seed, result.transmittance,
                     result.attenuation_db_per_m)
            for (value, rep, transport), result in zip(points, results)]
    rows.sort(key=lambda r: (r.value, r.replicate))
    return rows


def _sweep(cfg: ExperimentConfig, values: list[float], cexts: list[float],
           m_of=None, d_of=None) -> list[SweepRow]:
    """Build the (value, replicate) grid and run it.

    ``cexts`` holds the extinction rate of each sweep value; ``m_of`` and
    ``d_of`` map a value to the packet count and distance of its runs.
    """
    planet = _planet(cfg)
    asymmetry = _asymmetry(cfg, planet)
    max_events = cfg.overrides.get("transport.max_events", 10 ** 6)
    points = []
    for vi, (value, cext) in enumerate(zip(values, cexts)):
        packets = int(m_of(value)) if m_of else planet.packet_count
        distance = d_of(value) if d_of else planet.distance_m
        for rep in range(cfg.replicates):
            points.append((value, rep, TransportConfig(
                distance_m=distance,
                packet_count=packets,
                extinction_per_m=cext,
                asymmetry=asymmetry,
                weight_threshold=planet.weight_threshold,
                seed=derive_seed(cfg.seed, cfg.scenario, vi, rep),
                launch_height_m=planet.antenna_height_m,
                max_events=max_events,
            )))
    return _run_sweep_points(cfg, points)


def _sweep_result(cfg: ExperimentConfig, rows: list[SweepRow],
                  value_name: str) -> ScenarioResult:
    return ScenarioResult(
        scenario=cfg.scenario,
        planet=cfg.planet,
        header=("value", "replicate", "seed", "T_MS", "A_dB_per_m"),
        rows=tuple((r.value, r.replicate, r.seed, r.transmittance,
                    r.attenuation_db_per_m) for r in rows),
        x_column=value_name,
        y_column="A_dB_per_m",
    )


def _resolve_catalog_dir(cfg: ExperimentConfig) -> str:
    if cfg.catalog_dir:
        return cfg.catalog_dir
    env = os.environ.get(CATALOG_ENV_VAR)
    if env:
        return env
    return bundled_catalog_dir()


def _band_center_absorption(cfg: ExperimentConfig, planet: PlanetPreset) -> float:
    catalog = atmosphere.load_catalog_dir(
        _resolve_catalog_dir(cfg), [g for g, _ in planet.gases])
    spectrum = atmosphere.absorption_coefficient(
        planet.mixture(), catalog, np.array([planet.frequency_hz]))
    return float(spectrum.k_per_m[0])


def _link_config(cfg: ExperimentConfig, planet: PlanetPreset,
                 distance_m: float | None = None) -> link.LinkConfig:
    return link.LinkConfig.for_preset(
        planet,
        distance_m=distance_m,
        tx_power_dbm=cfg.overrides.get("link.tx_power_dbm"),
        noise_psd_w_hz=cfg.overrides.get("link.noise_psd_w_hz"),
    )


def run_scenario(cfg: ExperimentConfig) -> ScenarioResult:
    """Run one scenario; deterministic per (config, seed)."""
    planet = _planet(cfg)

    if cfg.scenario == "mcp_sweep":
        medium = _medium_builder(cfg, planet)(planet.frequency_hz)
        cext = ensemble_extinction(medium, planet.frequency_hz).extinction_per_m
        values = [float(round(v)) for v in _grid(cfg, planet)]
        rows = _sweep(cfg, values, [cext] * len(values), m_of=lambda v: v)
        return _sweep_result(cfg, rows, "mcp_packets")

    if cfg.scenario == "visibility_sweep":
        values = _grid(cfg, planet)
        cexts = extinction_rates([planet.medium_from_visibility(v) for v in values],
                                 planet.frequency_hz)
        rows = _sweep(cfg, values, cexts)
        return _sweep_result(cfg, rows, "visibility_m")

    if cfg.scenario == "particle_sweep":
        # sweep value is the particle count on the whole path
        values = [float(round(v)) for v in _grid(cfg, planet)]
        cexts = extinction_rates(
            [planet.medium_from_count(v / planet.distance_m) for v in values],
            planet.frequency_hz)
        rows = _sweep(cfg, values, cexts)
        return _sweep_result(cfg, rows, "particles_on_path")

    if cfg.scenario == "distance_sweep":
        medium = _medium_builder(cfg, planet)(planet.frequency_hz)
        cext = ensemble_extinction(medium, planet.frequency_hz).extinction_per_m
        values = _grid(cfg, planet)
        rows = _sweep(cfg, values, [cext] * len(values), d_of=lambda v: v)
        return _sweep_result(cfg, rows, "distance_m")

    if cfg.scenario == "frequency_sweep":
        builder = _medium_builder(cfg, planet)
        values = _grid(cfg, planet)
        cexts = [ensemble_extinction(builder(f), f).extinction_per_m for f in values]
        rows = _sweep(cfg, values, cexts)
        return _sweep_result(cfg, rows, "frequency_hz")

    if cfg.scenario == "time_scenario":
        link_cfg = _link_config(cfg, planet, distance_m=1.0)
        k = _band_center_absorption(cfg, planet)
        counts = link.default_time_counts(planet, cfg.seed)
        points = link.run_time_scenario(link_cfg, planet, counts, cfg.seed, k)
        return ScenarioResult(
            cfg.scenario, cfg.planet,
            ("t_s", "count", "T_MS", "A_dB_per_m", "capacity_bps"),
            tuple((p.t_s, p.count, p.transmittance, p.attenuation_db_per_m,
                   p.capacity_bps) for p in points),
            "t_s", "capacity_bps")

    if cfg.scenario == "capacity_distance":
        link_cfg = _link_config(cfg, planet)
        k = _band_center_absorption(cfg, planet)
        lo = cfg.density_lo_per_m
        hi = cfg.density_hi_per_m
        if lo is None or hi is None:
            lo, hi = (100.0, 200.0) if cfg.planet == "earth" else (1000.0, 2000.0)
        points = link.run_distance_sweep(link_cfg, planet, _grid(cfg, planet),
                                         (lo, hi), cfg.seed, k)
        return ScenarioResult(
            cfg.scenario, cfg.planet,
            ("d_m", "density_per_m", "k_per_m", "T_MS", "H_spr", "H_abs",
             "H_dust", "capacity_bps"),
            tuple((p.distance_m, p.density_per_m, p.k_per_m, p.transmittance,
                   p.h_spreading, p.h_absorption, p.h_dust, p.capacity_bps)
                  for p in points),
            "d_m", "capacity_bps")

    if cfg.scenario == "storm_density":
        storm_cfg = storm.StormConfig(
            emission_rate=cfg.overrides.get("storm.emission_rate", 200),
            timestep_s=cfg.overrides.get("storm.timestep_s", 1.0),
            updraft_m_s=cfg.overrides.get("storm.updraft_m_s", 0.45),
            settling_m_s=cfg.overrides.get("storm.settling_m_s", 0.30),
            wind_speed_m_s=cfg.overrides.get("storm.wind_speed_m_s", 8.0),
            vortex_strength_rad_s=cfg.overrides.get(
                "storm.vortex_strength_rad_s", 0.5),
            radius_range_m=(planet.size_distribution.r_min_m,
                            planet.size_distribution.r_max_m),
            seed=cfg.seed,
        )
        cone = storm.build_beam_cone((5500.0, 0.0, 50.0), (6500.0, 0.0, 50.0),
                                     half_angle_rad=1.5e-5, disk_spacing_m=0.01)
        steps = cfg.overrides.get("storm.steps", 120)
        series = storm.density_time_series(storm_cfg, cone, steps)
        n_bins = len(series[0][2])
        header = ("t_s", "count") + tuple(
            f"density_per_m_bin_{i}" for i in range(n_bins))
        rows = tuple((t, count) + tuple(float(v) for v in profile)
                     for t, count, profile in series)
        return ScenarioResult(cfg.scenario, cfg.planet, header, rows,
                              "t_s", "count")

    if cfg.scenario == "extinction_table":
        builder = _medium_builder(cfg, planet)
        rows = []
        for f in _grid(cfg, planet):
            result = ensemble_extinction(builder(f), f)
            rows.append((f, result.extinction_per_m,
                         result.number_density_per_m3, result.wavelength_m))
        return ScenarioResult(
            cfg.scenario, cfg.planet,
            ("f_hz", "C_ext_per_m", "N0_per_m3", "wavelength_m"),
            tuple(rows), "f_hz", "C_ext_per_m")

    if cfg.scenario == "absorption_spectrum":
        catalog = atmosphere.load_catalog_dir(
            _resolve_catalog_dir(cfg), [g for g, _ in planet.gases])
        grid = np.array(_grid(cfg, planet))
        spectrum = atmosphere.absorption_coefficient(planet.mixture(), catalog, grid)
        return ScenarioResult(
            cfg.scenario, cfg.planet, ("f_hz", "k_per_m"),
            tuple((float(f), float(k))
                  for f, k in zip(spectrum.frequency_hz, spectrum.k_per_m)),
            "f_hz", "k_per_m")

    raise ConfigError(f"unhandled scenario {cfg.scenario!r}")


def _plot_series(result: ScenarioResult) -> tuple[list[float], list[float]]:
    xi = result.header.index(result.x_column if result.x_column in result.header
                             else "value")
    yi = result.header.index(result.y_column)
    if "replicate" in result.header:
        # aggregate replicates by median for a single plotted series
        by_value: dict[float, list[float]] = {}
        for row in result.rows:
            by_value.setdefault(row[0], []).append(row[yi])
        xs = sorted(by_value)
        return xs, [median(by_value[x]) for x in xs]
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
    parser = argparse.ArgumentParser(
        prog="dustlink",
        description="THz link transmittance, attenuation and capacity "
                    "through dusty atmospheres")
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--config", help="path to a key=value config file")
    parser.add_argument("--seed", type=int, help="base RNG seed")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--plot", action="store_true", help="emit SVG plots")
    parser.add_argument("--catalog", help="spectroscopic catalog directory")
    parser.add_argument("--planet", choices=("earth", "mars"))
    parser.add_argument("--workers", type=int, help="worker process count")
    parser.add_argument("--replicates", type=int, help="seeds per sweep point")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = ""
        if args.config:
            try:
                text = Path(args.config).read_text()
            except OSError as exc:
                raise ConfigError(f"cannot read config {args.config}: {exc}")
        cfg = parse_config(text, override_scenario=args.scenario)
        cli_fields = {}
        if args.seed is not None:
            cli_fields["seed"] = args.seed
        if args.out is not None:
            cli_fields["output"] = args.out
        if args.plot:
            cli_fields["plot"] = True
        if args.catalog is not None:
            cli_fields["catalog_dir"] = args.catalog
        if args.planet is not None:
            cli_fields["planet"] = args.planet
        if args.workers is not None:
            cli_fields["workers"] = args.workers
        if args.replicates is not None:
            cli_fields["replicates"] = args.replicates
        if cli_fields:
            from dataclasses import replace
            cfg = replace(cfg, **cli_fields)

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
