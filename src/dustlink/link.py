"""Line-of-sight channel gain composition and Shannon capacity.

The channel transfer amplitude is the product of the spreading loss
c/(4*pi*D*f), the molecular absorption amplitude exp(-k*D/2), and the
dust transfer amplitude, with the propagation phase tracked separately.
The dust amplitude 1/sqrt(10**(-0.4343*ln T)) is implemented in its
algebraically exact form sqrt(T), since 0.4343 stands for log10(e).

Capacity uses a single narrow sub-band: C = B * log2(1 + |h|^2 * P / (B * N0)).
"""

import math
from dataclasses import dataclass, replace

from .constants import SPEED_OF_LIGHT, dbm_to_watts
from .errors import DomainError
from .presets import DEFAULT_NOISE_PSD_W_HZ, DEFAULT_TX_POWER_W, PlanetPreset
from .rng import derive_seed, substream
from .scatter import ensemble_extinction
# estimate_transmittance stays bound here although unused:
# bench/test_bench.py checks that the benchmark's span recorder rebinds it
from .transport import (TransportConfig, estimate_batch,
                        estimate_transmittance)  # noqa: F401

__all__ = [
    "LinkConfig",
    "ChannelGains",
    "CapacityResult",
    "TimePoint",
    "DistancePoint",
    "h_spreading",
    "h_absorption",
    "h_dust",
    "channel_gain",
    "capacity",
    "default_time_counts",
    "transport_template",
    "time_scenario_points",
    "distance_sweep_points",
    "run_time_scenario",
    "run_distance_sweep",
]

TIME_SCENARIO_SECONDS = 21               # samples at t = 0..20 s
DROP_WINDOWS_S = ((7, 9), (15, 17))      # inclusive low-dust intervals


@dataclass(frozen=True)
class LinkConfig:
    """Band, power, noise and geometry of one link evaluation."""

    band_lo_hz: float
    band_hi_hz: float
    center_hz: float
    distance_m: float
    tx_power_w: float = DEFAULT_TX_POWER_W
    noise_psd_w_hz: float = DEFAULT_NOISE_PSD_W_HZ

    def __post_init__(self):
        for name in ("band_lo_hz", "band_hi_hz", "center_hz", "distance_m",
                     "tx_power_w", "noise_psd_w_hz"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
        if self.band_lo_hz >= self.band_hi_hz:
            raise DomainError("band must satisfy f_lo < f_hi")
        if self.tx_power_w <= 0 or self.noise_psd_w_hz <= 0:
            raise DomainError("power and noise density must be positive")
        if self.distance_m <= 0:
            raise DomainError("distance must be positive")

    @property
    def bandwidth_hz(self) -> float:
        return self.band_hi_hz - self.band_lo_hz

    @classmethod
    def for_preset(cls, planet: PlanetPreset, distance_m: float | None = None,
                   tx_power_dbm: float | None = None,
                   noise_psd_w_hz: float | None = None) -> "LinkConfig":
        return cls(
            band_lo_hz=planet.band_lo_hz,
            band_hi_hz=planet.band_hi_hz,
            center_hz=planet.frequency_hz,
            distance_m=distance_m if distance_m is not None else planet.distance_m,
            tx_power_w=(DEFAULT_TX_POWER_W if tx_power_dbm is None
                        else dbm_to_watts(tx_power_dbm)),
            noise_psd_w_hz=(DEFAULT_NOISE_PSD_W_HZ if noise_psd_w_hz is None
                            else noise_psd_w_hz),
        )


@dataclass(frozen=True)
class ChannelGains:
    """Component amplitudes of the line-of-sight transfer function."""

    h_spreading: float
    h_absorption: float
    h_dust: float
    h_los: float
    delay_s: float
    phase_rad: float

    @property
    def h_complex(self) -> complex:
        return self.h_los * complex(math.cos(self.phase_rad),
                                    math.sin(self.phase_rad))


@dataclass(frozen=True)
class CapacityResult:
    capacity_bps: float
    snr: float


def h_spreading(f_hz: float, distance_m: float) -> float:
    """Free-space spreading amplitude c/(4*pi*D*f)."""
    if not (0 < f_hz < math.inf and 0 < distance_m < math.inf):
        raise DomainError("frequency and distance must be positive and finite")
    return SPEED_OF_LIGHT / (4.0 * math.pi * distance_m * f_hz)


def h_absorption(k_per_m: float, distance_m: float) -> float:
    """Molecular absorption amplitude exp(-k*D/2)."""
    if not 0 <= k_per_m < math.inf:
        raise DomainError("absorption coefficient must be finite and >= 0")
    if not 0 < distance_m < math.inf:
        raise DomainError("distance must be positive and finite")
    return math.exp(-0.5 * k_per_m * distance_m)


def h_dust(transmittance: float) -> float:
    """Dust transfer amplitude; exactly sqrt(T)."""
    if not (0.0 <= transmittance <= 1.0):
        raise DomainError("transmittance must be in [0, 1]")
    return math.sqrt(transmittance)


def channel_gain(f_hz: float, distance_m: float, k_per_m: float,
                 transmittance: float) -> ChannelGains:
    """Compose the three loss amplitudes and the propagation delay."""
    spr = h_spreading(f_hz, distance_m)
    absn = h_absorption(k_per_m, distance_m)
    dust = h_dust(transmittance)
    delay = distance_m / SPEED_OF_LIGHT
    return ChannelGains(
        h_spreading=spr,
        h_absorption=absn,
        h_dust=dust,
        h_los=spr * absn * dust,
        delay_s=delay,
        phase_rad=-2.0 * math.pi * f_hz * delay,
    )


def capacity(cfg: LinkConfig, h_los: float) -> CapacityResult:
    """Shannon capacity of the single sub-band at amplitude ``h_los``."""
    if not 0 <= h_los < math.inf:
        raise DomainError("channel amplitude must be finite and >= 0")
    bw = cfg.bandwidth_hz
    snr = h_los * h_los * cfg.tx_power_w / (bw * cfg.noise_psd_w_hz)
    return CapacityResult(capacity_bps=bw * math.log2(1.0 + snr), snr=snr)


@dataclass(frozen=True)
class TimePoint:
    t_s: float
    count: float
    transmittance: float
    attenuation_db_per_m: float
    capacity_bps: float


@dataclass(frozen=True)
class DistancePoint:
    distance_m: float
    density_per_m: float
    k_per_m: float
    transmittance: float
    h_spreading: float
    h_absorption: float
    h_dust: float
    capacity_bps: float


def default_time_counts(planet: PlanetPreset, seed: int,
                        seconds: int = TIME_SCENARIO_SECONDS) -> list[int]:
    """Per-second dust counts with low-dust drop windows.

    Each second draws uniformly from the planet's ``storm_count_range``,
    or from its ``drop_count_range`` inside the drop windows.
    """
    rng = substream(derive_seed(seed, "time-counts"), 0)
    counts = []
    for t in range(seconds):
        in_window = any(lo <= t <= hi for lo, hi in DROP_WINDOWS_S)
        lo, hi = planet.drop_count_range if in_window else planet.storm_count_range
        counts.append(int(rng.integers(lo, hi + 1)))
    return counts


def transport_template(planet: PlanetPreset) -> TransportConfig:
    """The one transport run that every scenario run is derived from.

    A clear-sky run with seed 0 over the planet's distance with its packet
    count; every other setting is ``TransportConfig``'s default. Callers
    set Monte Carlo overrides, and scenarios their extinction, distance and
    seed (the MCP sweep its packet count), with ``dataclasses.replace``.
    """
    return TransportConfig(planet.distance_m, planet.packet_count, 0.0)


def _template(planet: PlanetPreset, packet_count: int | None) -> TransportConfig:
    if packet_count is not None:
        planet = replace(planet, packet_count=packet_count)
    return transport_template(planet)


def run_time_scenario(cfg: LinkConfig, planet: PlanetPreset,
                      counts: list[int], seed: int, k_per_m: float,
                      packet_count: int | None = None) -> list[TimePoint]:
    """``time_scenario_points`` with the preset's transport settings.

    ``packet_count``, when given, replaces the preset's packet count.
    """
    return time_scenario_points(cfg, planet, counts, seed, k_per_m,
                                _template(planet, packet_count))


def run_distance_sweep(cfg: LinkConfig, planet: PlanetPreset,
                       distances_m: list[float],
                       density_range_per_m: tuple[float, float], seed: int,
                       k_per_m: float,
                       packet_count: int | None = None) -> list[DistancePoint]:
    """``distance_sweep_points`` with the preset's transport settings.

    ``packet_count``, when given, replaces the preset's packet count.
    """
    return distance_sweep_points(cfg, planet, distances_m, density_range_per_m,
                                 seed, k_per_m, _template(planet, packet_count))


def time_scenario_points(cfg: LinkConfig, planet: PlanetPreset,
                         counts: list[int], seed: int, k_per_m: float,
                         transport: TransportConfig) -> list[TimePoint]:
    """Per-second capacity under a time-varying dust count.

    Each second's count becomes a per-meter density over the link
    distance, drives a seeded transport run derived from ``transport``
    (all seconds are traced in one batch), and the resulting dust
    amplitude composes with spreading and the fixed band-center
    absorption ``k_per_m``. Deterministic per seed.
    """
    if any(c < 0 for c in counts):
        raise DomainError("dust counts must be >= 0")
    rates = [ensemble_extinction(
        planet.medium_from_count(count / cfg.distance_m, cfg.center_hz),
        cfg.center_hz).extinction_per_m for count in counts]
    results = estimate_batch([
        replace(transport, extinction_per_m=cext, distance_m=cfg.distance_m,
                seed=derive_seed(seed, "time", t))
        for t, cext in enumerate(rates)])
    points = []
    for t, (count, result) in enumerate(zip(counts, results)):
        gains = channel_gain(cfg.center_hz, cfg.distance_m, k_per_m,
                             result.transmittance)
        points.append(TimePoint(
            t_s=float(t),
            count=count,
            transmittance=result.transmittance,
            attenuation_db_per_m=result.attenuation_db_per_m,
            capacity_bps=capacity(cfg, gains.h_los).capacity_bps,
        ))
    return points


def distance_sweep_points(cfg: LinkConfig, planet: PlanetPreset,
                          distances_m: list[float],
                          density_range_per_m: tuple[float, float], seed: int,
                          k_per_m: float,
                          transport: TransportConfig) -> list[DistancePoint]:
    """Capacity versus distance at a per-meter dust density range.

    The density at each distance is drawn uniformly from the range (a
    (0, 0) range is clear sky); each distance reruns ``transport`` with
    its own extinction and derived seed, all distances in one batch.
    Distances must be increasing.
    """
    if list(distances_m) != sorted(distances_m):
        raise DomainError("distances must be increasing")
    lo, hi = density_range_per_m
    if not 0 <= lo <= hi < math.inf:
        raise DomainError("density range must be ordered, finite and >= 0")
    rng = substream(derive_seed(seed, "distance-densities"), 0)
    densities = [float(rng.uniform(lo, hi)) if hi > 0 else 0.0
                 for _ in distances_m]
    dusty = [i for i, density in enumerate(densities) if density > 0]
    rates = [ensemble_extinction(planet.medium_from_count(densities[i], cfg.center_hz),
                                 cfg.center_hz).extinction_per_m for i in dusty]
    results = estimate_batch([
        replace(transport, extinction_per_m=cext, distance_m=distances_m[i],
                seed=derive_seed(seed, "distance", i))
        for i, cext in zip(dusty, rates)])
    transmittances = [1.0] * len(distances_m)
    for i, result in zip(dusty, results):
        transmittances[i] = result.transmittance
    points = []
    for distance, density, transmittance in zip(distances_m, densities,
                                                transmittances):
        gains = channel_gain(cfg.center_hz, distance, k_per_m, transmittance)
        points.append(DistancePoint(
            distance_m=float(distance),
            density_per_m=density,
            k_per_m=k_per_m,
            transmittance=transmittance,
            h_spreading=gains.h_spreading,
            h_absorption=gains.h_absorption,
            h_dust=gains.h_dust,
            capacity_bps=capacity(cfg, gains.h_los).capacity_bps,
        ))
    return points
