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

from .errors import DomainError, is_int, require_finite
from .rng import substream

__all__ = [
    "StormConfig",
    "ParticleField",
    "BeamCone",
    "empty_field",
    "step_field",
    "count_in_beam",
    "density_time_series",
]


_VECTOR_SIZES = {"vortex_center_m": 3, "domain_m": 6, "radius_range_m": 2}


def _entries(value) -> tuple:
    """The entries of a vector field, or ``(value,)`` if it has none. A
    nested entry stays one entry, for the finite check to reject."""
    try:
        return tuple(value)
    except TypeError:
        return (value,)


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
        if not (is_int(self.emission_rate) and self.emission_rate >= 0):
            raise DomainError(
                f"emission_rate must be an int >= 0, got {self.emission_rate!r}")
        if not (is_int(self.seed) and 0 <= self.seed < 1 << 128):
            raise DomainError(f"seed must be an int in [0, 2**128), got {self.seed!r}")
        for name, size in _VECTOR_SIZES.items():
            if len(_entries(getattr(self, name))) != size:
                raise DomainError(f"{name} must have {size} entries, "
                                  f"got {getattr(self, name)!r}")
        for f in fields(self):
            if f.name in ("emission_rate", "seed"):
                continue
            value = getattr(self, f.name)
            for entry in value if f.name in _VECTOR_SIZES else (value,):
                require_finite(**{f.name: entry})
        if self.timestep_s <= 0:
            raise DomainError("timestep must be positive")
        if self.ramp_length_m <= 0:
            raise DomainError("ramp length must be positive")
        x0, x1, y0, y1, z0, z1 = self.domain_m
        if not (x0 < x1 and y0 < y1 and z0 < z1):
            raise DomainError("domain bounds must be well ordered")
        for name in ("wind_speed_m_s", "vortex_strength_rad_s", "updraft_m_s",
                     "settling_m_s", "turbulence_m_s", "source_y_half_span_m",
                     "vortex_core_radius_m"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be >= 0, got {getattr(self, name)!r}")
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


def _in_box(points: np.ndarray, lo, hi) -> np.ndarray:
    """Mask of the rows of ``points`` (N x 3) inside the box [lo, hi]."""
    (x0, y0, z0), (x1, y1, z1) = lo, hi
    return ((points[:, 0] >= x0) & (points[:, 0] <= x1)
            & (points[:, 1] >= y0) & (points[:, 1] <= y1)
            & (points[:, 2] >= z0) & (points[:, 2] <= z1))


def step_field(fld: ParticleField, cfg: StormConfig) -> ParticleField:
    """Advance every particle one timestep, emit new ones, drop escapees.

    Deterministic for a fixed (cfg.seed, step index): emission and
    turbulence randomness come from a per-step substream. Old and new
    particles share one (N_old + N_new, 3) buffer: the top rows hold the
    velocities (turbulent jitter plus the wind, swirl and vertical
    terms), then the displacement and the old positions; the bottom rows
    hold the emitted particles.
    """
    rng = substream(cfg.seed, fld.step_index)
    old = fld.positions_m
    n_old = fld.count()
    n_new = cfg.emission_rate
    positions = np.zeros((n_old + n_new, 3))
    moved = positions[:n_old]
    if cfg.turbulence_m_s > 0.0 and n_old > 0:
        # the draws of rng.normal(0, turbulence, (n_old, 3)), without a copy
        rng.standard_normal(out=moved)
        moved *= cfg.turbulence_m_s
    x = old[:, 0]
    y = old[:, 1]
    # horizontal advection with exponential downstream ramp
    wind = cfg.wind_speed_m_s * np.exp(x / cfg.ramp_length_m)
    # solid-body swirl about the vertical axis through the vortex center;
    # it joins the wind before the jitter, so x sums (wind + swirl) + jitter
    if cfg.vortex_strength_rad_s > 0.0:
        dx = x - cfg.vortex_center_m[0]
        dy = y - cfg.vortex_center_m[1]
        core = np.flatnonzero(dx * dx + dy * dy <= cfg.vortex_core_radius_m ** 2)
        wind[core] += -cfg.vortex_strength_rad_s * dy[core]
        moved[core, 1] += cfg.vortex_strength_rad_s * dx[core]
    moved[:, 0] += wind
    moved[:, 2] += cfg.updraft_m_s - cfg.settling_m_s
    moved *= cfg.timestep_s
    moved += old

    positions[n_old:, 1] = rng.uniform(-cfg.source_y_half_span_m,
                                       cfg.source_y_half_span_m, n_new)
    radii = np.empty(n_old + n_new)
    radii[:n_old] = fld.radii_m
    radii[n_old:] = rng.uniform(*cfg.radius_range_m, n_new)

    keep = _in_box(positions, cfg.domain_m[0::2], cfg.domain_m[1::2])
    kept = int(np.count_nonzero(keep))

    return ParticleField(
        positions_m=positions.compress(keep, axis=0),
        radii_m=radii.compress(keep),
        timestamp_s=fld.timestamp_s + cfg.timestep_s,
        step_index=fld.step_index + 1,
        emitted=n_new,
        removed=n_old + n_new - kept,
    )


@dataclass(frozen=True)
class BeamCone:
    """Cone-shaped beam with a disk every ``disk_spacing_m`` along the
    tx->rx axis."""

    tx_m: tuple[float, float, float]
    rx_m: tuple[float, float, float]
    half_angle_rad: float
    disk_spacing_m: float
    length_m: float = field(init=False)

    def __post_init__(self):
        for name in ("tx_m", "rx_m"):
            point = _entries(getattr(self, name))
            if len(point) != 3:
                raise DomainError(f"{name} must have 3 entries, "
                                  f"got {getattr(self, name)!r}")
            for entry in point:
                require_finite(**{name: entry})
            object.__setattr__(self, name, tuple(map(float, point)))
        # named as the range checks below name them
        require_finite(**{"half angle": self.half_angle_rad,
                          "disk spacing": self.disk_spacing_m})
        if not 0 < self.half_angle_rad < math.pi / 2:
            raise DomainError("half angle must lie in (0, pi/2)")
        if self.disk_spacing_m <= 0:
            raise DomainError("disk spacing must be positive")
        length = math.dist(self.tx_m, self.rx_m)
        if length == 0.0:
            raise DomainError("transmitter and receiver coincide")
        object.__setattr__(self, "length_m", length)
        if self.disk_count() == 0:
            raise DomainError(f"disk spacing {self.disk_spacing_m!r} m leaves no "
                              f"disk on a {length!r} m beam")

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


def count_in_beam(fld: ParticleField, cone: BeamCone) -> tuple[int, np.ndarray]:
    """Number of particles inside the beam and a per-meter axial profile.

    Each particle is tested against its two nearest disks: it is in the
    beam (counted once) when its distance to either disk center is at
    most that disk's radius. The profile bins in-beam particles into 1 m
    axial slots.
    """
    n_bins = cone.bin_count()
    profile = np.zeros(n_bins)
    tx = np.asarray(cone.tx_m)
    axis = cone.axis_unit()
    spacing = cone.disk_spacing_m
    n_disks = cone.disk_count()
    # A counted particle lies within the far disk's radius of the axis
    # segment, so only the particles in the segment's bounding box, padded
    # by that radius (plus a margin for rounding), are tested.
    far = tx + (cone.length_m + spacing) * axis
    pad = float(cone.disk_radius(n_disks * spacing)) + spacing + 1.0
    lo = np.minimum(tx, far) - pad
    hi = np.maximum(tx, far) + pad
    in_box = _in_box(fld.positions_m, lo, hi)
    if not in_box.any():
        return 0, profile

    rel = fld.positions_m.compress(in_box, axis=0) - tx
    s = rel @ axis                                  # axial coordinate
    radial2 = np.einsum("ij,ij->i", rel, rel) - s * s
    radial2 = np.maximum(radial2, 0.0)

    # nearest two disk indices (disks sit at i*spacing, i = 1..n_disks)
    lower = np.clip(np.floor(s / spacing).astype(np.int64), 1, n_disks)
    upper = np.clip(lower + 1, 1, n_disks)
    inside = np.zeros(s.shape[0], dtype=bool)
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
    if not (is_int(steps) and steps >= 1):
        raise DomainError(f"steps must be an int >= 1, got {steps!r}")
    fld = empty_field()
    series = []
    for _ in range(steps):
        fld = step_field(fld, cfg)
        count, profile = count_in_beam(fld, cone)
        series.append((fld.timestamp_s, count, profile))
    return series

