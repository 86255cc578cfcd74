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

A stepped field is held as one (3, N) float block, rows x, y and z;
``ParticleField.positions_m`` is its (N, 3) transpose, so the stepping and
the beam's box test run on contiguous rows. A field built from a C-ordered
(N, 3) array gives the same results bit for bit.
"""

import math
from dataclasses import KW_ONLY, dataclass, field, fields

import numpy as np

from .errors import (DomainError, require_finite, require_int, require_nonnegative,
                     require_positive, require_vector)
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
    seed: int = 0

    def __post_init__(self):
        require_int("emission_rate", self.emission_rate, 0)
        require_int("seed", self.seed, 0, 128)
        # a vector field has as many entries as its default
        for f in fields(self):
            if isinstance(f.default, tuple):
                require_vector(f.name, getattr(self, f.name), len(f.default))
        require_positive(timestep_s=self.timestep_s, ramp_length_m=self.ramp_length_m)
        require_nonnegative(**{name: getattr(self, name) for name in (
            "source_y_half_span_m", "wind_speed_m_s", "vortex_strength_rad_s",
            "vortex_core_radius_m", "updraft_m_s", "settling_m_s", "turbulence_m_s")})
        x0, x1, y0, y1, z0, z1 = self.domain_m
        if not (x0 < x1 and y0 < y1 and z0 < z1):
            raise DomainError("domain bounds must be well ordered")


@dataclass(frozen=True)
class ParticleField:
    """Particle positions (N x 3) at one timestamp.

    ``step_field`` builds the positions as the transpose of one (3, N)
    block, rows x, y and z; a field built from any (N, 3) array works the
    same. The fields after the positions are keyword-only.
    """

    positions_m: np.ndarray
    _: KW_ONLY
    timestamp_s: float = 0.0
    step_index: int = 0
    emitted: int = 0   # particles added by the producing step
    removed: int = 0   # particles dropped by the producing step

    def __post_init__(self):
        if getattr(self.positions_m, "ndim", 0) != 2 or self.positions_m.shape[1] != 3:
            raise DomainError("positions_m must be an (N, 3) ndarray")

    def count(self) -> int:
        return int(self.positions_m.shape[0])


def empty_field() -> ParticleField:
    return ParticleField(np.zeros((0, 3)))


def _within(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return (values >= lo) & (values <= hi)


def step_field(fld: ParticleField, cfg: StormConfig) -> ParticleField:
    """Advance every particle one timestep, emit new ones, drop escapees.

    Deterministic for a fixed (cfg.seed, step index): emission and
    turbulence randomness come from a per-step substream. The new field
    is one (3, N_old + N_new) block, rows x, y and z, so every update runs
    on contiguous rows. The old particles' columns come first:
    their turbulent jitter (drawn as an (N_old, 3) array, which fixes the
    order of the draws) plus the wind, swirl and vertical terms, times the
    timestep, plus the old positions; the emitted particles' columns
    follow. The kept columns are gathered in one ``take``, skipped when
    no particle leaves the domain.
    """
    rng = substream(cfg.seed, fld.step_index)
    old_x, old_y, _ = fld.positions_m.T
    n_old = fld.count()
    n_new = cfg.emission_rate
    block = np.empty((3, n_old + n_new))
    moved = block[:, :n_old]
    if cfg.turbulence_m_s > 0.0 and n_old > 0:
        # the draws of rng.normal(0, turbulence, (n_old, 3)), laid out as rows
        np.multiply(rng.standard_normal((n_old, 3)).T, cfg.turbulence_m_s,
                    out=moved)
    else:
        moved.fill(0.0)
    x, y, z = moved
    # horizontal advection with exponential downstream ramp
    wind = np.divide(old_x, cfg.ramp_length_m)
    np.exp(wind, out=wind)
    wind *= cfg.wind_speed_m_s
    # solid-body swirl about the vertical axis through the vortex center;
    # it joins the wind before the jitter, so x sums (wind + swirl) + jitter
    if cfg.vortex_strength_rad_s > 0.0:
        dx = old_x - cfg.vortex_center_m[0]
        dy = old_y - cfg.vortex_center_m[1]
        core = np.flatnonzero(dx * dx + dy * dy <= cfg.vortex_core_radius_m ** 2)
        wind[core] += -cfg.vortex_strength_rad_s * dy[core]
        y[core] += cfg.vortex_strength_rad_s * dx[core]
    x += wind
    z += cfg.updraft_m_s - cfg.settling_m_s
    moved *= cfg.timestep_s
    moved += fld.positions_m.T

    block[:, n_old:] = 0.0
    block[1, n_old:] = rng.uniform(-cfg.source_y_half_span_m,
                                   cfg.source_y_half_span_m, n_new)

    x0, x1, y0, y1, z0, z1 = cfg.domain_m
    keep = _within(block[0], x0, x1)
    keep &= _within(block[1], y0, y1)
    keep &= _within(block[2], z0, z1)
    kept = np.flatnonzero(keep)
    if kept.size < block.shape[1]:
        # a take of the kept columns runs faster than compress(axis=1)
        block = block.take(kept, axis=1)

    return ParticleField(
        positions_m=block.T,
        timestamp_s=fld.timestamp_s + cfg.timestep_s,
        step_index=fld.step_index + 1,
        emitted=n_new,
        removed=n_old + n_new - kept.size,
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
            point = require_vector(name, getattr(self, name), 3)
            object.__setattr__(self, name, tuple(map(float, point)))
        # named as the range checks name them
        require_finite(**{"half angle": self.half_angle_rad})
        if not 0 < self.half_angle_rad < math.pi / 2:
            raise DomainError("half angle must lie in (0, pi/2)")
        require_positive(**{"disk spacing": self.disk_spacing_m})
        length = math.dist(self.tx_m, self.rx_m)
        if length == 0.0:
            raise DomainError("transmitter and receiver coincide")
        object.__setattr__(self, "length_m", length)
        if not math.isfinite(length / self.disk_spacing_m):
            raise DomainError(f"disk spacing {self.disk_spacing_m!r} m is too fine "
                              f"to count on a {length!r} m beam")
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

    Only the particles in the beam's padded bounding box are tested; the
    box test reads the x, y and z rows of the field, and the faces of the
    box count as inside.
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
    x, y, z = fld.positions_m.T
    in_box = _within(x, lo[0], hi[0])
    in_box &= _within(y, lo[1], hi[1])
    in_box &= _within(z, lo[2], hi[2])
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
                        steps: int = 120) -> list[tuple[float, int, np.ndarray]]:
    """Run the storm for ``steps`` steps and count beam particles each step.

    Returns (time, in-beam count, per-meter profile) per step;
    deterministic per seed.
    """
    require_int("steps", steps, 1)
    fld = empty_field()
    series = []
    for _ in range(steps):
        fld = step_field(fld, cfg)
        count, profile = count_in_beam(fld, cone)
        series.append((fld.timestamp_s, count, profile))
    return series

