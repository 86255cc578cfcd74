"""Kinematic dust-storm field and cone-beam particle counting.

Particles are emitted from a line source on the X = 0 plane, advected by
a horizontal wind with an exponential spatial ramp, swirled by a
solid-body vortex about a vertical axis, lifted by a constant updraft,
pulled down by a settling rate, and dispersed by an isotropic turbulent
velocity jitter (seeded, so runs stay reproducible). Integration is
explicit Euler, which is adequate for this purely kinematic model.

The beam between transmitter and receiver is subdivided into disks at a
fixed spacing; a particle is in the beam when its distance to either of
its two nearest disk centers is within that disk's radius.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError
from .rng import substream
from .transport import _is_int

__all__ = [
    "StormConfig",
    "ParticleField",
    "BeamCone",
    "empty_field",
    "step_field",
    "build_beam_cone",
    "count_in_beam",
    "density_time_series",
]


@dataclass(frozen=True)
class StormConfig:
    """Wind-field parameters and particle bookkeeping for one storm run."""

    emission_rate: int = 200                 # particles per step
    source_y_half_span_m: float = 4.0        # line source on X=0, Z=0
    vortex_center_m: tuple[float, float, float] = (6000.0, 0.0, 0.0)
    wind_speed_m_s: float = 8.0              # advection at X=0
    ramp_length_m: float = 3000.0            # exponential ramp scale
    vortex_strength_rad_s: float = 0.5       # solid-body rotation rate
    vortex_core_radius_m: float = 200.0
    updraft_m_s: float = 0.45
    settling_m_s: float = 0.30
    turbulence_m_s: float = 0.1
    timestep_s: float = 1.0
    domain_m: tuple[float, float, float, float, float, float] = (
        0.0, 7000.0, -60.0, 60.0, 0.0, 120.0)
    radius_range_m: tuple[float, float] = (0.5e-6, 4e-6)
    seed: int = 0

    def __post_init__(self):
        if not (_is_int(self.emission_rate) and self.emission_rate >= 0):
            raise DomainError(
                f"emission_rate must be an int >= 0, got {self.emission_rate!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in ("emission_rate", "seed") and not np.isfinite(value).all():
                raise DomainError(f"{f.name} must be finite, got {value!r}")
        if self.timestep_s <= 0:
            raise DomainError("timestep must be positive")
        if self.ramp_length_m <= 0:
            raise DomainError("ramp length must be positive")
        x0, x1, y0, y1, z0, z1 = self.domain_m
        if not (x0 < x1 and y0 < y1 and z0 < z1):
            raise DomainError("domain bounds must be well ordered")
        if min(self.wind_speed_m_s, self.vortex_strength_rad_s,
               self.updraft_m_s, self.settling_m_s, self.turbulence_m_s) < 0:
            raise DomainError("rates must be >= 0")
        if not (0 < self.radius_range_m[0] <= self.radius_range_m[1]):
            raise DomainError("radius range must be positive and ordered")


@dataclass(frozen=True)
class ParticleField:
    """Particle positions (N x 3) and radii (N) at one timestamp."""

    positions_m: np.ndarray
    radii_m: np.ndarray
    timestamp_s: float = 0.0
    step_index: int = 0
    emitted: int = 0   # particles added by the producing step
    removed: int = 0   # particles dropped by the producing step

    def __post_init__(self):
        if self.positions_m.shape != (self.radii_m.shape[0], 3):
            raise DomainError("positions must be (N, 3) matching N radii")

    def count(self) -> int:
        return int(self.radii_m.shape[0])


def empty_field() -> ParticleField:
    return ParticleField(np.zeros((0, 3)), np.zeros(0))


def _velocities(positions: np.ndarray, cfg: StormConfig) -> np.ndarray:
    v = np.zeros_like(positions)
    x = positions[:, 0]
    y = positions[:, 1]
    # horizontal advection with exponential downstream ramp
    v[:, 0] = cfg.wind_speed_m_s * np.exp(x / cfg.ramp_length_m)
    # solid-body swirl about the vertical axis through the vortex center
    if cfg.vortex_strength_rad_s > 0.0:
        dx = x - cfg.vortex_center_m[0]
        dy = y - cfg.vortex_center_m[1]
        inside = dx * dx + dy * dy <= cfg.vortex_core_radius_m ** 2
        v[inside, 0] += -cfg.vortex_strength_rad_s * dy[inside]
        v[inside, 1] += cfg.vortex_strength_rad_s * dx[inside]
    v[:, 2] = cfg.updraft_m_s - cfg.settling_m_s
    return v


def step_field(fld: ParticleField, cfg: StormConfig) -> ParticleField:
    """Advance every particle one timestep, emit new ones, drop escapees.

    Deterministic for a fixed (cfg.seed, step index): emission and
    turbulence randomness come from a per-step substream.
    """
    rng = substream(cfg.seed, fld.step_index)
    velocities = _velocities(fld.positions_m, cfg)
    if cfg.turbulence_m_s > 0.0 and fld.count() > 0:
        velocities = velocities + rng.normal(
            0.0, cfg.turbulence_m_s, fld.positions_m.shape)
    positions = fld.positions_m + velocities * cfg.timestep_s

    n_new = cfg.emission_rate
    new_positions = np.zeros((n_new, 3))
    new_positions[:, 1] = rng.uniform(-cfg.source_y_half_span_m,
                                      cfg.source_y_half_span_m, n_new)
    r_lo, r_hi = cfg.radius_range_m
    new_radii = rng.uniform(r_lo, r_hi, n_new)

    positions = np.vstack([positions, new_positions])
    radii = np.concatenate([fld.radii_m, new_radii])

    x0, x1, y0, y1, z0, z1 = cfg.domain_m
    keep = ((positions[:, 0] >= x0) & (positions[:, 0] <= x1)
            & (positions[:, 1] >= y0) & (positions[:, 1] <= y1)
            & (positions[:, 2] >= z0) & (positions[:, 2] <= z1))
    removed = int(np.count_nonzero(~keep))

    return ParticleField(
        positions_m=positions[keep],
        radii_m=radii[keep],
        timestamp_s=fld.timestamp_s + cfg.timestep_s,
        step_index=fld.step_index + 1,
        emitted=n_new,
        removed=removed,
    )


@dataclass(frozen=True)
class BeamCone:
    """Cone-shaped beam subdivided into disks along the tx->rx axis."""

    tx_m: tuple[float, float, float]
    rx_m: tuple[float, float, float]
    half_angle_rad: float
    disk_spacing_m: float
    length_m: float = field(init=False)

    def __post_init__(self):
        if not 0 < self.half_angle_rad < math.pi / 2:
            raise DomainError("half angle must lie in (0, pi/2)")
        if not 0 < self.disk_spacing_m < math.inf:
            raise DomainError("disk spacing must be positive and finite")
        if not all(map(math.isfinite, (*self.tx_m, *self.rx_m))):
            raise DomainError("transmitter and receiver must be finite points")
        length = math.dist(self.tx_m, self.rx_m)
        if length == 0.0:
            raise DomainError("transmitter and receiver coincide")
        object.__setattr__(self, "length_m", length)

    def disk_count(self) -> int:
        return int(math.floor(self.length_m / self.disk_spacing_m + 1e-9))

    def bin_count(self) -> int:
        """Number of 1 m axial bins in ``count_in_beam``'s profile."""
        return max(int(math.ceil(self.length_m)), 1)

    def disk_radius(self, axial_distance_m) -> np.ndarray:
        """Disk radius grows linearly from the apex at the transmitter."""
        return np.asarray(axial_distance_m) * math.tan(self.half_angle_rad)

    def axis_unit(self) -> np.ndarray:
        tx = np.asarray(self.tx_m)
        rx = np.asarray(self.rx_m)
        return (rx - tx) / self.length_m


def build_beam_cone(tx_m, rx_m, half_angle_rad: float,
                    disk_spacing_m: float) -> BeamCone:
    """Cone with disks at every ``disk_spacing_m`` along the axis."""
    return BeamCone(tuple(map(float, tx_m)), tuple(map(float, rx_m)),
                    half_angle_rad, disk_spacing_m)


def count_in_beam(fld: ParticleField, cone: BeamCone) -> tuple[int, np.ndarray]:
    """Number of particles inside the beam and a per-meter axial profile.

    Each particle is tested against its two nearest disks: it is in the
    beam (counted once) when its distance to either disk center is at
    most that disk's radius. The profile bins in-beam particles into 1 m
    axial slots.
    """
    n_bins = cone.bin_count()
    profile = np.zeros(n_bins)
    if fld.count() == 0:
        return 0, profile

    tx = np.asarray(cone.tx_m)
    axis = cone.axis_unit()
    rel = fld.positions_m - tx
    s = rel @ axis                                  # axial coordinate
    radial2 = np.einsum("ij,ij->i", rel, rel) - s * s
    radial2 = np.maximum(radial2, 0.0)

    spacing = cone.disk_spacing_m
    n_disks = cone.disk_count()
    # nearest two disk indices (disks sit at i*spacing, i = 1..n_disks)
    lower = np.clip(np.floor(s / spacing).astype(np.int64), 1, n_disks)
    upper = np.clip(lower + 1, 1, n_disks)
    inside = np.zeros(fld.count(), dtype=bool)
    for idx in (lower, upper):
        centers = idx * spacing
        dist2 = (s - centers) ** 2 + radial2
        inside |= dist2 <= cone.disk_radius(centers) ** 2
    # particles far outside the axial span cannot be in the cone
    inside &= (s >= 0.0) & (s <= cone.length_m + spacing)

    s_in = np.clip(s[inside], 0.0, n_bins - 1e-9)
    np.add.at(profile, s_in.astype(np.int64), 1.0)
    return int(np.count_nonzero(inside)), profile


def density_time_series(cfg: StormConfig, cone: BeamCone,
                        steps: int) -> list[tuple[float, int, np.ndarray]]:
    """Run the storm and count beam particles each step.

    Returns (time, in-beam count, per-meter profile) per step;
    deterministic per seed.
    """
    if steps < 1:
        raise DomainError("need at least one step")
    fld = empty_field()
    series = []
    for _ in range(steps):
        fld = step_field(fld, cfg)
        count, profile = count_in_beam(fld, cone)
        series.append((fld.timestamp_s, count, profile))
    return series

