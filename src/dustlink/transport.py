"""Monte Carlo photon-packet transport through a homogeneous dust slab.

Packets launch at (0, 0, h) heading along +X with unit energy weight.
Free paths are exponential in the extinction rate, scattering angles come
from the Henyey-Greenstein inversion, and the weight decays by the
Beer-Lambert factor of each step. A packet terminates when it crosses the
receiver plane X = D (recording the residual-attenuated weight), exits
backwards (X < 0), leaves an optional lateral bound, drops below the
weight threshold, or hits the event guard.

Receiver contributions are only ever evaluated at an actual boundary
crossing, where the step direction necessarily has a positive X
component, so the residual Beer-Lambert factor is always finite.

Two implementations share these rules. ``estimate_transmittance`` runs a
wave kernel: packets are held as arrays, and each wave advances every
live packet by one event in numpy, drawing from a few buffered Philox
blocks per packet computed by ``dustlink.rng.substream_uniforms``.
``trace_packet`` is the scalar reference, one packet in plain Python. The
kernel keeps the reference's branch order and floating-point operations,
so each packet has the same fate and event count; its contribution agrees
within rtol 1e-12, because ``np.exp``/``np.log`` may differ from ``math``
in the last bit.

Determinism: every packet draws from its own counter-based substream of
the run seed (see ``dustlink.rng``), and contributions are accumulated in
packet order with pairwise summation, so results are identical for any
number of workers.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .constants import db_from_transmittance
from .errors import DomainError
from .rng import UniformStream, substream, substream_uniforms

__all__ = [
    "FixedAsymmetry",
    "UniformAsymmetry",
    "TransportConfig",
    "PacketState",
    "FateCounts",
    "TransportResult",
    "FATES",
    "sample_step",
    "sample_scatter_angles",
    "update_direction",
    "update_weight",
    "trace_packet",
    "estimate_transmittance",
]


@dataclass(frozen=True)
class FixedAsymmetry:
    """Scattering asymmetry held constant for every event."""
    g: float

    def __post_init__(self):
        if not (0.0 <= self.g <= 1.0):
            raise DomainError("asymmetry must be in [0, 1]")


@dataclass(frozen=True)
class UniformAsymmetry:
    """Scattering asymmetry redrawn uniformly in [lo, hi] per event."""
    lo: float = 0.5
    hi: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi <= 1.0):
            raise DomainError("need 0 <= lo <= hi <= 1")


@dataclass(frozen=True)
class TransportConfig:
    """Inputs of one transport run. Immutable while the run executes."""

    distance_m: float
    packet_count: int
    extinction_per_m: float
    asymmetry: FixedAsymmetry | UniformAsymmetry = UniformAsymmetry()
    weight_threshold: float = 1e-5
    seed: int = 0
    launch_height_m: float = 50.0   # Z launch coordinate; reporting only
    lateral_bound_m: float | None = None
    max_events: int = 10 ** 6

    def __post_init__(self):
        finite = {"distance_m": self.distance_m,
                  "extinction_per_m": self.extinction_per_m,
                  "launch_height_m": self.launch_height_m}
        if self.lateral_bound_m is not None:
            finite["lateral_bound_m"] = self.lateral_bound_m
        for name, value in finite.items():
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
        if self.distance_m <= 0:
            raise DomainError("distance must be positive")
        if self.packet_count < 1:
            raise DomainError("need at least one packet")
        if self.extinction_per_m < 0:
            raise DomainError("extinction rate must be >= 0")
        if not (0.0 < self.weight_threshold < 1.0):
            raise DomainError("weight threshold must be in (0, 1)")
        if self.max_events < 1:
            raise DomainError("event guard must be >= 1")


@dataclass
class PacketState:
    """Position, direction cosines, energy weight and event count of one packet."""

    x: float = 0.0
    y: float = 0.0
    z: float = 0.0
    mu_x: float = 1.0
    mu_y: float = 0.0
    mu_z: float = 0.0
    weight: float = 1.0
    events: int = 0

    def direction_norm(self) -> float:
        return math.sqrt(self.mu_x ** 2 + self.mu_y ** 2 + self.mu_z ** 2)


FATES = ("reached", "weight_killed", "backscatter_exit", "lateral_exit", "guard_killed")
_FATE_INDEX = {name: i for i, name in enumerate(FATES)}


@dataclass(frozen=True)
class FateCounts:
    reached: int = 0
    weight_killed: int = 0
    backscatter_exit: int = 0
    lateral_exit: int = 0
    guard_killed: int = 0

    def total(self) -> int:
        return (self.reached + self.weight_killed + self.backscatter_exit
                + self.lateral_exit + self.guard_killed)


@dataclass(frozen=True)
class TransportResult:
    """Transmittance estimate with specific attenuation and packet bookkeeping."""

    transmittance: float
    attenuation_db_per_m: float
    fates: FateCounts
    mean_events: float
    seed: int


def sample_step(u: float, extinction_per_m: float) -> float:
    """Free path length -ln(u)/C for u in the open interval (0, 1).

    A zero extinction rate means free flight: returns +inf so the caller
    propagates the packet straight to the boundary.
    """
    if extinction_per_m < 0:
        raise DomainError("extinction rate must be >= 0")
    if extinction_per_m == 0.0:
        return math.inf
    if not (0.0 < u < 1.0):
        raise DomainError("step variate must be in the open interval (0, 1)")
    return -math.log(u) / extinction_per_m


def sample_scatter_angles(nu, chi, g):
    """Scattering polar/azimuth angles from two unit variates.

    Isotropic inversion theta = arccos(2*nu - 1) at g == 0, the closed-form
    Henyey-Greenstein inversion otherwise. g == 1 is treated as its
    forward-delta limit (theta = 0). Accepts scalars or arrays; returns
    (theta, phi) with theta in [0, pi] and phi in [0, 2*pi).
    """
    nu_arr = np.asarray(nu, dtype=float)
    chi_arr = np.asarray(chi, dtype=float)
    g_arr = np.asarray(g, dtype=float)
    if np.any((nu_arr < 0) | (nu_arr > 1)) or np.any((chi_arr < 0) | (chi_arr > 1)):
        raise DomainError("variates must lie in [0, 1]")
    if np.any((g_arr < 0) | (g_arr > 1)):
        raise DomainError("asymmetry must lie in [0, 1]")

    theta = np.arccos(_hg_cosine(g_arr, nu_arr))
    phi = 2.0 * math.pi * chi_arr
    if np.isscalar(nu) and np.isscalar(chi) and np.isscalar(g):
        return float(theta), float(phi)
    return theta, phi


def _hg_cosine(g, nu):
    """Scattering cosine from a unit variate, with ``_trace``'s arithmetic.

    Isotropic at g == 0, forward (1) at g == 1, the Henyey-Greenstein
    inversion clipped to [-1, 1] otherwise. ``g`` and ``nu`` broadcast.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = (1.0 - g * g) / (1.0 - g + 2.0 * g * nu)
        hg = np.clip((1.0 + g * g - frac * frac) / (2.0 * g), -1.0, 1.0)
    return np.where(g == 0.0, 2.0 * nu - 1.0, np.where(g == 1.0, 1.0, hg))


def update_direction(mu: tuple[float, float, float], theta: float,
                     phi: float) -> tuple[float, float, float]:
    """Rotate the direction cosines by a scattering event.

    Uses the general three-component update, switching to the polar-axis
    form when |mu_x| > 0.99999; the result is renormalized to unit length.
    """
    mx, my, mz = mu
    norm = math.sqrt(mx * mx + my * my + mz * mz)
    if abs(norm - 1.0) > 1e-6:
        raise DomainError("direction cosines must be unit length")
    ct = math.cos(theta)
    st = math.sin(theta)
    cp = math.cos(phi)
    sp = math.sin(phi)
    if abs(mx) > 0.99999:
        nx = math.copysign(ct, mx)
        ny = st * cp
        nz = st * sp
    else:
        root = math.sqrt(1.0 - mx * mx)
        nx = -st * cp * root + mx * ct
        ny = st * (my * mx * cp - mz * sp) / root + my * ct
        nz = st * (mz * mx * cp + my * sp) / root + mz * ct
    n = math.sqrt(nx * nx + ny * ny + nz * nz)
    return nx / n, ny / n, nz / n


def update_weight(weight: float, extinction_per_m: float, dx: float,
                  mu_x_prev: float) -> float:
    """Beer-Lambert weight decay over an X displacement dx at slope mu_x."""
    if dx == 0.0:
        return weight
    return weight * math.exp(-extinction_per_m * dx / mu_x_prev)


def trace_packet(cfg: TransportConfig, packet_index: int) -> tuple[str, float]:
    """Trace one packet to termination; returns (fate, receiver contribution).

    Pure function of (cfg.seed, packet_index). This is the scalar
    reference for the wave kernel behind ``estimate_transmittance``: it
    consumes the same substream draws in the same order, so the kernel
    gives the packet an equal fate and a contribution within rtol 1e-12.
    """
    if packet_index >= cfg.packet_count:
        raise DomainError("packet index beyond configured packet count")
    fate, contribution, _ = _trace(cfg, packet_index)
    return fate, contribution


def _trace(cfg: TransportConfig, packet_index: int) -> tuple[str, float, int]:
    cext = cfg.extinction_per_m
    if cext == 0.0:
        return "reached", 1.0, 0

    dist = cfg.distance_m
    eps_t = cfg.weight_threshold
    max_events = cfg.max_events
    lateral = cfg.lateral_bound_m
    height = cfg.launch_height_m
    asym = cfg.asymmetry
    fixed_g = asym.g if isinstance(asym, FixedAsymmetry) else None
    g_lo = g_span = 0.0
    if fixed_g is None:
        g_lo = asym.lo
        g_span = asym.hi - asym.lo

    stream = UniformStream(substream(cfg.seed, packet_index))
    draw = stream.next
    log = math.log
    exp = math.exp
    sqrt = math.sqrt
    cos = math.cos
    sin = math.sin
    two_pi = 2.0 * math.pi

    x = y = 0.0
    z = height
    mx, my, mz = 1.0, 0.0, 0.0
    w = 1.0
    events = 0

    while True:
        step = -log(draw()) / cext
        dx = step * mx
        if x + dx >= dist and mx > 0.0:
            # crossing: residual Beer-Lambert factor from the last scatter site
            return "reached", w * exp(-cext * (dist - x) / mx), events
        x += dx
        if x < 0.0:
            return "backscatter_exit", 0.0, events
        y += step * my
        z += step * mz
        if lateral is not None:
            dy = y
            dz = z - height
            if dy * dy + dz * dz > lateral * lateral:
                return "lateral_exit", 0.0, events
        events += 1
        if events >= max_events:
            return "guard_killed", 0.0, events
        # Beer-Lambert decay; dx/mx telescopes to the step length
        w *= exp(-cext * step)
        if w < eps_t:
            return "weight_killed", 0.0, events

        g = fixed_g if fixed_g is not None else g_lo + g_span * draw()
        nu = draw()
        chi = draw()
        if g == 0.0:
            ct = 2.0 * nu - 1.0
        elif g == 1.0:
            ct = 1.0
        else:
            frac = (1.0 - g * g) / (1.0 - g + 2.0 * g * nu)
            ct = (1.0 + g * g - frac * frac) / (2.0 * g)
            if ct > 1.0:
                ct = 1.0
            elif ct < -1.0:
                ct = -1.0
        st = sqrt(1.0 - ct * ct)
        phi = two_pi * chi
        cp = cos(phi)
        sp = sin(phi)
        if mx > 0.99999 or mx < -0.99999:
            nx = ct if mx > 0.0 else -ct
            ny = st * cp
            nz = st * sp
        else:
            root = sqrt(1.0 - mx * mx)
            nx = -st * cp * root + mx * ct
            ny = st * (my * mx * cp - mz * sp) / root + my * ct
            nz = st * (mz * mx * cp + my * sp) / root + mz * ct
        norm = sqrt(nx * nx + ny * ny + nz * nz)
        mx = nx / norm
        my = ny / norm
        mz = nz / norm


_WAVE_BLOCKS = 4          # Philox blocks buffered per live packet
_WAVE_PACKETS = 1 << 14   # packets traced together; bounds the kernel's memory
_DRAWS_PER_EVENT = 4      # step, g, nu, chi


class _WaveDraws:
    """Substreams of the live packets of a wave kernel, a few blocks per row.

    Row ``r`` of ``slot``, ``block`` and ``col`` belongs to the r-th live
    packet: ``slot`` is its row in the buffer (its offset from the range
    start), ``block`` the Philox block in that row's first column and
    ``col`` the column of its next draw.
    """

    def __init__(self, seed: int, start: int, count: int):
        self.seed = seed
        self.start = start
        self.width = 4 * _WAVE_BLOCKS
        self.slot = np.arange(count)
        self.block = np.ones(count, dtype=np.int64)
        self.col = np.zeros(count, dtype=np.int64)
        self.buf = substream_uniforms(seed, start + self.slot, self.block,
                                      _WAVE_BLOCKS)
        self.flat = self.buf.reshape(-1)

    def _refill(self, rows: np.ndarray) -> None:
        """Restart the buffer of ``rows`` at the block of their next draw."""
        self.block[rows] += self.col[rows] // 4
        self.col[rows] %= 4
        slots = self.slot[rows]
        self.buf[slots] = substream_uniforms(
            self.seed, self.start + slots, self.block[rows], _WAVE_BLOCKS)

    def reserve(self) -> None:
        """Make room for one event's draws in every live row."""
        low = np.flatnonzero(self.col > self.width - _DRAWS_PER_EVENT)
        if low.size:
            self._refill(low)

    def draw(self) -> np.ndarray:
        """Next draw of every live packet; zero draws are skipped per row."""
        u = self.flat[self.slot * self.width + self.col]
        self.col += 1
        while not u.all():
            rows = np.flatnonzero(u == 0.0)
            # restarting the buffer keeps room for the rest of the event
            self._refill(rows)
            u[rows] = self.flat[self.slot[rows] * self.width + self.col[rows]]
            self.col[rows] += 1
        return u

    def keep(self, live: np.ndarray) -> None:
        self.slot = self.slot[live]
        self.block = self.block[live]
        self.col = self.col[live]


def _trace_range(cfg: TransportConfig, start: int,
                 stop: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Contributions, fate codes and total events of packets [start, stop)."""
    contributions = np.zeros(stop - start)
    fates = np.zeros(stop - start, dtype=np.uint8)
    if cfg.extinction_per_m == 0.0:
        contributions[:] = 1.0   # free flight: every packet reaches
        return contributions, fates, 0
    events = 0
    for lo in range(start, stop, _WAVE_PACKETS):
        hi = min(lo + _WAVE_PACKETS, stop)
        events += _trace_waves(cfg, lo, contributions[lo - start:hi - start],
                               fates[lo - start:hi - start])
    return contributions, fates, events


def _trace_waves(cfg: TransportConfig, start: int, contributions: np.ndarray,
                 fates: np.ndarray) -> int:
    """Trace packets ``start, start + 1, ...`` together, one event per wave.

    Each wave applies ``_trace``'s loop body to every live packet, in the
    same branch order and floating-point operations, and drops the packets
    it ends. Fills the slices ``contributions`` and ``fates``, which arrive
    zeroed (fate 0 is "reached"), and returns the number of events.
    """
    cext = cfg.extinction_per_m
    dist = cfg.distance_m
    eps_t = cfg.weight_threshold
    lateral = cfg.lateral_bound_m
    height = cfg.launch_height_m
    asym = cfg.asymmetry
    two_pi = 2.0 * math.pi

    n = fates.size
    draws = _WaveDraws(cfg.seed, start, n)
    x = np.zeros(n)
    y = np.zeros(n)
    z = np.full(n, height)
    mx = np.ones(n)
    my = np.zeros(n)
    mz = np.zeros(n)
    w = np.ones(n)
    events = 0

    for wave in range(1, cfg.max_events + 1):
        draws.reserve()
        step = -np.log(draws.draw()) / cext
        slot = draws.slot
        x_next = x + step * mx
        ended = (x_next >= dist) & (mx > 0.0)
        live = ~ended
        if ended.any():
            # crossing: residual Beer-Lambert factor from the last scatter site
            contributions[slot[ended]] = w[ended] * np.exp(
                -cext * (dist - x[ended]) / mx[ended])
        x = x_next
        out = x < 0.0
        if out.any():
            fates[slot[out]] = _FATE_INDEX["backscatter_exit"]
            live &= ~out
        y = y + step * my
        z = z + step * mz
        if lateral is not None:
            dz = z - height
            out = live & (y * y + dz * dz > lateral * lateral)
            if out.any():
                fates[slot[out]] = _FATE_INDEX["lateral_exit"]
                live &= ~out
        if not live.all():
            x, y, z, mx, my, mz, w, step = (
                a[live] for a in (x, y, z, mx, my, mz, w, step))
            draws.keep(live)
        events += x.size
        if wave >= cfg.max_events:
            fates[draws.slot] = _FATE_INDEX["guard_killed"]
            break
        # Beer-Lambert decay; dx/mx telescopes to the step length
        w = w * np.exp(-cext * step)
        killed = w < eps_t
        if killed.any():
            fates[draws.slot[killed]] = _FATE_INDEX["weight_killed"]
            live = ~killed
            x, y, z, mx, my, mz, w = (a[live] for a in (x, y, z, mx, my, mz, w))
            draws.keep(live)
        if not x.size:
            break

        if isinstance(asym, FixedAsymmetry):
            g = asym.g
        else:
            g = asym.lo + (asym.hi - asym.lo) * draws.draw()
        nu = draws.draw()
        chi = draws.draw()
        ct = _hg_cosine(g, nu)
        st = np.sqrt(1.0 - ct * ct)
        phi = two_pi * chi
        cp = np.cos(phi)
        sp = np.sin(phi)
        polar = np.abs(mx) > 0.99999
        root = np.sqrt(np.where(polar, 1.0, 1.0 - mx * mx))
        nx = np.where(polar, np.where(mx > 0.0, ct, -ct),
                      -st * cp * root + mx * ct)
        ny = np.where(polar, st * cp, st * (my * mx * cp - mz * sp) / root + my * ct)
        nz = np.where(polar, st * sp, st * (mz * mx * cp + my * sp) / root + mz * ct)
        norm = np.sqrt(nx * nx + ny * ny + nz * nz)
        mx = nx / norm
        my = ny / norm
        mz = nz / norm
    return events


def estimate_transmittance(cfg: TransportConfig, workers: int = 1) -> TransportResult:
    """Ensemble transmittance over all packets, and the dB/m attenuation.

    Contributions are assembled into a packet-indexed array and reduced
    with numpy's pairwise sum, so the estimate is bit-identical for any
    worker count at a fixed seed. Transmittance 0 reports +inf dB/m.
    """
    m = cfg.packet_count
    if workers > 1 and m >= 2 * workers:
        bounds = np.linspace(0, m, workers + 1, dtype=int)
        contributions = np.empty(m)
        fates = np.empty(m, dtype=np.uint8)
        total_events = 0
        with ProcessPoolExecutor(max_workers=workers) as pool:
            jobs = [pool.submit(_trace_range, cfg, int(lo), int(hi))
                    for lo, hi in zip(bounds[:-1], bounds[1:])]
            for (lo, hi), job in zip(zip(bounds[:-1], bounds[1:]), jobs):
                part, fate_part, events = job.result()
                contributions[lo:hi] = part
                fates[lo:hi] = fate_part
                total_events += events
    else:
        contributions, fates, total_events = _trace_range(cfg, 0, m)

    transmittance = float(np.sum(contributions)) / m
    transmittance = min(transmittance, 1.0)
    counts = np.bincount(fates, minlength=len(FATES))
    return TransportResult(
        transmittance=transmittance,
        attenuation_db_per_m=db_from_transmittance(transmittance, cfg.distance_m),
        fates=FateCounts(*(int(c) for c in counts)),
        mean_events=total_events / m,
        seed=cfg.seed,
    )
