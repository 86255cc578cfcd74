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
from .errors import (DomainError, require_finite, require_int, require_nonnegative,
                     require_positive, require_vector)
from .presets import DEFAULT_NOISE_PSD_W_HZ, DEFAULT_TX_POWER_W, PlanetPreset
from .rng import derive_seed, substream
from .scatter import LinearDensity
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
        require_finite(band_lo_hz=self.band_lo_hz, band_hi_hz=self.band_hi_hz,
                       center_hz=self.center_hz)
        require_positive(distance_m=self.distance_m, tx_power_w=self.tx_power_w,
                         noise_psd_w_hz=self.noise_psd_w_hz)
        if self.band_lo_hz >= self.band_hi_hz:
            raise DomainError("band must satisfy f_lo < f_hi")
        if not self.band_lo_hz <= self.center_hz <= self.band_hi_hz:
            raise DomainError("center frequency must lie in [f_lo, f_hi]")

    @property
    def bandwidth_hz(self) -> float:
        return self.band_hi_hz - self.band_lo_hz

    @classmethod
    def for_preset(cls, planet: PlanetPreset,
                   distance_m: float = TransportConfig.distance_m,
                   tx_power_dbm: float | None = None,
                   noise_psd_w_hz: float | None = None) -> "LinkConfig":
        # power and noise density that are not given keep the field defaults
        power = {} if tx_power_dbm is None else {"tx_power_w": dbm_to_watts(tx_power_dbm)}
        noise = {} if noise_psd_w_hz is None else {"noise_psd_w_hz": noise_psd_w_hz}
        return cls(
            band_lo_hz=planet.band_lo_hz,
            band_hi_hz=planet.band_hi_hz,
            center_hz=planet.frequency_hz,
            distance_m=distance_m,
            **power, **noise,
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
    require_positive(f_hz=f_hz, distance_m=distance_m)
    return SPEED_OF_LIGHT / (4.0 * math.pi * distance_m * f_hz)


def h_absorption(k_per_m: float, distance_m: float) -> float:
    """Molecular absorption amplitude exp(-k*D/2)."""
    require_nonnegative(k_per_m=k_per_m)
    require_positive(distance_m=distance_m)
    return math.exp(-0.5 * k_per_m * distance_m)


def h_dust(transmittance: float) -> float:
    """Dust transfer amplitude; exactly sqrt(T)."""
    require_finite(transmittance=transmittance)
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
    require_nonnegative(h_los=h_los)
    bw = cfg.bandwidth_hz
    snr = h_los * h_los * cfg.tx_power_w / (bw * cfg.noise_psd_w_hz)
    return CapacityResult(capacity_bps=bw * math.log2(1.0 + snr), snr=snr)


@dataclass(frozen=True)
class TimePoint:
    t_s: float
    count: int
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


def default_time_counts(planet: PlanetPreset, seed: int) -> list[int]:
    """Per-second dust counts at t = 0..20 s with low-dust drop windows.

    Each second draws uniformly from the planet's ``storm_count_range``,
    or from its ``drop_count_range`` inside the drop windows. The seed
    is an int in [0, 2**128), as ``ExperimentConfig``'s.
    """
    require_int("seed", seed, 0, 128)
    rng = substream(derive_seed(seed, "time-counts"), 0)
    counts = []
    for t in range(TIME_SCENARIO_SECONDS):
        in_window = any(lo <= t <= hi for lo, hi in DROP_WINDOWS_S)
        lo, hi = planet.drop_count_range if in_window else planet.storm_count_range
        counts.append(int(rng.integers(lo, hi + 1)))
    return counts


def _link_points(cfg: LinkConfig, planet: PlanetPreset,
                 transport: TransportConfig, packet_count: int | None,
                 seed: int, label: str, distances_m: list[float],
                 densities_per_m: list[float], k_per_m: float) -> list[tuple]:
    """The link budget of each (distance, dust density) point.

    Each point reruns ``transport`` over its distance with the planet's
    dust extinction at its density. Every point of a scenario has the one
    seed ``derive_seed(seed, label)``, so ``estimate_batch`` traces them as
    one trace whose planes are the points' optical depths: common random
    numbers, so that the points differ only by their depths, a point's
    transmittance falls with its depth draw for draw, and the scenario
    costs one trace. A point's result does not depend on the other points.
    Its dust amplitude composes with spreading and the band-center
    absorption ``k_per_m``. Returns each point's (transport result,
    channel gains, capacity in bit/s). ``packet_count``, when given,
    replaces the packet count of ``transport``.
    """
    if packet_count is not None:
        transport = replace(transport, packet_count=packet_count)
    scenario_seed = derive_seed(seed, label)
    results = estimate_batch([
        replace(transport, distance_m=distance, seed=scenario_seed,
                extinction_per_m=planet.extinction(
                    LinearDensity(density), cfg.center_hz).extinction_per_m)
        for distance, density in zip(distances_m, densities_per_m)])
    points = []
    for distance, result in zip(distances_m, results):
        gains = channel_gain(cfg.center_hz, distance, k_per_m, result.transmittance)
        points.append((result, gains, capacity(cfg, gains.h_los).capacity_bps))
    return points


def run_time_scenario(cfg: LinkConfig, planet: PlanetPreset,
                      counts: list[int], seed: int, k_per_m: float,
                      transport: TransportConfig = TransportConfig(), *,
                      packet_count: int | None = None) -> list[TimePoint]:
    """Per-second capacity under a time-varying dust count.

    Each second's count becomes a per-meter density over the link
    distance (``_link_points`` with label "time"). Every second has the
    scenario's one seed: with common random numbers the seconds differ
    only by their dust, so per seed a higher count never gives a higher
    capacity, and a second's row does not depend on the other counts.
    Each count must be an int >= 0, and the seed an int in [0, 2**128).
    ``packet_count``, when given, replaces the packet count of
    ``transport``. Deterministic per seed.
    """
    require_int("seed", seed, 0, 128)
    for count in counts:
        require_int("dust count", count, 0)
    points = _link_points(cfg, planet, transport, packet_count, seed, "time",
                          [cfg.distance_m] * len(counts),
                          [count / cfg.distance_m for count in counts], k_per_m)
    return [TimePoint(float(t), count, result.transmittance,
                      result.attenuation_db_per_m, capacity_bps)
            for t, (count, (result, _, capacity_bps))
            in enumerate(zip(counts, points))]


def run_distance_sweep(cfg: LinkConfig, planet: PlanetPreset,
                       distances_m: list[float],
                       density_range_per_m: tuple[float, float], seed: int,
                       k_per_m: float, transport: TransportConfig = TransportConfig(),
                       *, packet_count: int | None = None) -> list[DistancePoint]:
    """Capacity versus distance at a per-meter dust density range.

    The density at each distance is drawn uniformly from the range (a
    (0, 0) range is clear sky); each distance is one ``_link_points``
    point with label "distance". Every distance has the scenario's one
    seed, so the points differ only by their optical depths (common random
    numbers) and the sweep costs one trace. Distances must be positive and
    increasing, the range two finite reals with 0 <= lo <= hi, and the seed
    an int in [0, 2**128). ``packet_count``, when given, replaces the
    packet count of ``transport``.
    """
    require_int("seed", seed, 0, 128)
    require_positive(**{f"distances_m[{k}]": d for k, d in enumerate(distances_m)})
    if any(a >= b for a, b in zip(distances_m, distances_m[1:])):
        raise DomainError("distances must be increasing")
    lo, hi = require_vector("density range", density_range_per_m, 2)
    if not 0 <= lo <= hi:
        raise DomainError("density range must be ordered and >= 0")
    rng = substream(derive_seed(seed, "distance-densities"), 0)
    densities = [float(rng.uniform(lo, hi)) for _ in distances_m]
    points = _link_points(cfg, planet, transport, packet_count, seed, "distance",
                          distances_m, densities, k_per_m)
    return [DistancePoint(float(distance), density, k_per_m, result.transmittance,
                          gains.h_spreading, gains.h_absorption, gains.h_dust,
                          capacity_bps)
            for distance, density, (result, gains, capacity_bps)
            in zip(distances_m, densities, points)]
