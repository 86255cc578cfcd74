"""Monte Carlo photon-packet transport through a homogeneous dust slab.

Packets launch at X = 0 heading along +X with unit energy weight.
Free paths are exponential in the extinction rate, scattering angles come
from the Henyey-Greenstein inversion, and the weight decays by the
Beer-Lambert factor of each step. A packet terminates when it crosses the
receiver plane X = D (recording the residual-attenuated weight), exits
backwards (X < 0), drops below the weight threshold, or hits the event
guard. A packet is scored only where it crosses the receiver plane, so
its state is its X coordinate, direction and weight alone.

Receiver contributions are only ever evaluated at an actual boundary
crossing, where the step direction necessarily has a positive X
component, so the residual Beer-Lambert factor is always finite.

Two implementations share these rules. ``estimate_batch`` (and
``estimate_transmittance``, a batch of one) runs a wave kernel: packets
are held as arrays, and each wave advances every live packet by one event
in numpy, drawing from a few buffered Philox blocks per packet computed by
``dustlink.rng.substream_uniforms``. The packets of many runs share the
kernel; each carries its run's seed, its index in the run, and its run's
extinction and distance. ``trace_packet`` is the scalar reference, one
packet in plain Python. The kernel keeps the reference's branch order and
floating-point operations, so each packet has the same fate and event
count; its contribution agrees within rtol 1e-12, because
``np.exp``/``np.log`` may differ from ``math`` in the last bit.

Determinism: every packet draws from its own counter-based substream of
its run's seed (see ``dustlink.rng``), and each run's contributions are
reduced in packet order with pairwise summation. A run's result therefore
does not depend on which other runs share its batch, on how the kernel
chunks the packets, or on how a caller splits runs across worker
processes.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .constants import db_from_transmittance
from .errors import DomainError
from .rng import UniformStream, substream, substream_uniforms

__all__ = [
    "FixedAsymmetry",
    "UniformAsymmetry",
    "TransportConfig",
    "FateCounts",
    "TransportResult",
    "FATES",
    "sample_scatter_angles",
    "update_direction",
    "trace_packet",
    "estimate_transmittance",
    "estimate_batch",
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


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class TransportConfig:
    """Inputs of one transport run. Immutable while the run executes."""

    distance_m: float
    packet_count: int
    extinction_per_m: float
    asymmetry: FixedAsymmetry | UniformAsymmetry = UniformAsymmetry()
    weight_threshold: float = 1e-5
    seed: int = 0
    max_events: int = 10 ** 6

    def __post_init__(self):
        if not (_is_int(self.seed) and 0 <= self.seed < 1 << 64):
            raise DomainError(f"seed must be an int in [0, 2**64), got {self.seed!r}")
        if not (_is_int(self.packet_count) and self.packet_count >= 1):
            raise DomainError(
                f"packet_count must be an int >= 1, got {self.packet_count!r}")
        for name, value in (("distance_m", self.distance_m),
                            ("extinction_per_m", self.extinction_per_m)):
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
        if self.distance_m <= 0:
            raise DomainError("distance must be positive")
        if self.extinction_per_m < 0:
            raise DomainError("extinction rate must be >= 0")
        if not (0.0 < self.weight_threshold < 1.0):
            raise DomainError("weight threshold must be in (0, 1)")
        if not (_is_int(self.max_events) and self.max_events >= 1):
            raise DomainError(
                f"event guard max_events must be an int >= 1, got {self.max_events!r}")


FATES = ("reached", "weight_killed", "backscatter_exit", "guard_killed")
_FATE_INDEX = {name: i for i, name in enumerate(FATES)}


@dataclass(frozen=True)
class FateCounts:
    reached: int = 0
    weight_killed: int = 0
    backscatter_exit: int = 0
    guard_killed: int = 0

    def total(self) -> int:
        return (self.reached + self.weight_killed + self.backscatter_exit
                + self.guard_killed)


@dataclass(frozen=True)
class TransportResult:
    """Transmittance estimate with specific attenuation and packet bookkeeping."""

    transmittance: float
    attenuation_db_per_m: float
    fates: FateCounts
    mean_events: float
    seed: int


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
    return _turn(mx, my, mz, math.cos(theta), math.sin(theta), phi)


def _turn(mx: float, my: float, mz: float, ct: float, st: float,
          phi: float) -> tuple[float, float, float]:
    """Direction cosines after scattering at polar cosine ``ct`` (sine
    ``st``) and azimuth ``phi``: the scalar form of ``_rotate``.

    Near the polar axis (|mx| > 0.99999) the new x cosine is ``ct`` about
    +X and ``-ct`` about -X; the result is renormalized to unit length.
    """
    cp = math.cos(phi)
    sp = math.sin(phi)
    if abs(mx) > 0.99999:
        nx = ct if mx > 0.0 else -ct
        ny = st * cp
        nz = st * sp
    else:
        root = math.sqrt(1.0 - mx * mx)
        nx = -st * cp * root + mx * ct
        ny = st * (my * mx * cp - mz * sp) / root + my * ct
        nz = st * (mz * mx * cp + my * sp) / root + mz * ct
    norm = math.sqrt(nx * nx + ny * ny + nz * nz)
    return nx / norm, ny / norm, nz / norm


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
    two_pi = 2.0 * math.pi

    x = 0.0
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
        mx, my, mz = _turn(mx, my, mz, ct, sqrt(1.0 - ct * ct), two_pi * chi)


_WAVE_ROWS = 8192        # live packets at most; bounds the kernel's memory
_FILL_BLOCKS = 8192      # Philox blocks per call; bounds its temporaries
_FIRST_BLOCKS = 1        # Philox blocks of a packet's first fill
_MAX_BLOCKS = 4          # blocks of the widest refill, the buffer width
_DRAWS_PER_EVENT = 4     # step, g, nu, chi


class _WaveDraws:
    """Substreams of the live packets of a wave kernel, a few blocks per row.

    Buffer row ``i`` holds draws of substream ``streams[i]`` of 64-bit run
    seed ``seeds[i]``; an admitted packet takes a free row. Row ``r`` of
    ``slot``, ``block``, ``col`` and ``fill`` belongs to the r-th live
    packet: ``slot`` is its buffer row, ``block`` the Philox block in that
    row's first column, ``col`` the column of its next draw and ``fill``
    the number of blocks in its buffer. Most packets end after a few
    events, so the first fill is one block and each refill doubles the
    last, up to the buffer width; little of the last fill of a short-lived
    packet goes unused.
    """

    def __init__(self, rows: int):
        self.width = 4 * _MAX_BLOCKS
        self.buf = np.empty((rows, self.width))
        self.flat = self.buf.reshape(-1)
        self.seeds = np.empty(rows, dtype=np.uint64)
        self.streams = np.empty(rows, dtype=np.int64)
        self.slot, self.block, self.col, self.fill = (
            np.empty(0, dtype=np.int64) for _ in range(4))

    def admit(self, seeds: np.ndarray, streams: np.ndarray) -> None:
        """Give new packets free buffer rows and their first fill.

        They become the last live rows, in the order given.
        """
        used = np.zeros(self.seeds.size, dtype=bool)
        used[self.slot] = True
        slots = np.flatnonzero(~used)[:streams.size]
        self.seeds[slots] = seeds
        self.streams[slots] = streams
        ones = np.ones(slots.size, dtype=np.int64)
        self._fill(slots, ones, _FIRST_BLOCKS)
        self.slot = np.concatenate((self.slot, slots))
        self.block = np.concatenate((self.block, ones))
        self.col = np.concatenate((self.col, np.zeros(slots.size, dtype=np.int64)))
        self.fill = np.concatenate((self.fill, np.full(slots.size, _FIRST_BLOCKS)))

    def _refill(self, rows: np.ndarray) -> None:
        """Restart the buffer of ``rows`` at the block of their next draw."""
        self.block[rows] += self.col[rows] // 4
        self.col[rows] %= 4
        fill = np.minimum(2 * self.fill[rows], _MAX_BLOCKS)
        self.fill[rows] = fill
        sizes = np.unique(fill)
        for blocks in sizes:
            part = rows if sizes.size == 1 else rows[fill == blocks]
            self._fill(self.slot[part], self.block[part], int(blocks))

    def _fill(self, slots: np.ndarray, first_blocks: np.ndarray,
              blocks: int) -> None:
        """Write ``blocks`` Philox blocks, from ``first_blocks`` on, into
        buffer rows ``slots``. At most ``_FILL_BLOCKS`` blocks per call bound
        the Philox temporaries and the copy into the buffer.
        """
        step = max(1, _FILL_BLOCKS // blocks)
        for lo in range(0, slots.size, step):
            part = slots[lo:lo + step]
            self.buf[part, :4 * blocks] = substream_uniforms(
                self.seeds[part], self.streams[part], first_blocks[lo:lo + step],
                blocks)

    def reserve(self) -> None:
        """Make room for one event's draws in every live row."""
        low = np.flatnonzero(self.col > 4 * self.fill - _DRAWS_PER_EVENT)
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

    def keep(self, live) -> None:
        """Keep the live rows selected by a boolean mask or a slice."""
        self.slot = self.slot[live]
        self.block = self.block[live]
        self.col = self.col[live]
        self.fill = self.fill[live]


def _trace_packets(cfgs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trace every packet of each run ``cfgs[r]``.

    The runs share their asymmetry, weight threshold and event guard;
    extinction, distance and seed are per packet. Packets are admitted in
    order, at most ``_WAVE_ROWS`` live at a time: whenever half the rows
    have ended, new packets take their place, so a batch has one tail of
    waves with few live rows, not one per ``_WAVE_ROWS`` packets. Each wave applies ``_trace``'s loop body to
    every live packet, in the same branch order and floating-point
    operations, and drops the packets it ends. Returns the contributions
    and fate codes of the packets, run after run, and each run's event
    total.
    """
    head = cfgs[0]
    asym = head.asymmetry
    eps_t = head.weight_threshold
    two_pi = 2.0 * math.pi
    run_cext = np.array([cfg.extinction_per_m for cfg in cfgs])
    run_dist = np.array([cfg.distance_m for cfg in cfgs])
    run_seeds = np.array([cfg.seed for cfg in cfgs], dtype=np.uint64)
    offsets = np.cumsum([0, *(cfg.packet_count for cfg in cfgs)])
    total = int(offsets[-1])

    contributions = np.zeros(total)
    fates = np.zeros(total, dtype=np.uint8)   # fate 0 is "reached"
    events = np.zeros(len(cfgs), dtype=np.int64)
    rows = min(_WAVE_ROWS, total)
    draws = _WaveDraws(rows)
    # per live packet: output index, run, wave of its first event, state
    pos, run, born = (np.empty(0, dtype=np.int64) for _ in range(3))
    x, mx, my, mz, w, cext, dist = (np.empty(0) for _ in range(7))
    admitted = 0
    wave = 0
    while admitted < total or pos.size:
        wave += 1
        if admitted < total and pos.size <= rows // 2:
            new = np.arange(admitted, min(admitted + rows - pos.size, total))
            admitted += new.size
            r = np.searchsorted(offsets, new, side="right") - 1
            flight = run_cext[r] == 0.0
            if flight.any():
                contributions[new[flight]] = 1.0   # free flight: every packet reaches
                new, r = new[~flight], r[~flight]
            draws.admit(run_seeds[r], new - offsets[r])
            pos = np.concatenate((pos, new))
            run = np.concatenate((run, r))
            born = np.concatenate((born, np.full(new.size, wave)))
            x, my, mz = (np.concatenate((a, np.zeros(new.size))) for a in (x, my, mz))
            mx, w = (np.concatenate((a, np.ones(new.size))) for a in (mx, w))
            cext = np.concatenate((cext, run_cext[r]))
            dist = np.concatenate((dist, run_dist[r]))
            if not pos.size:
                continue

        draws.reserve()
        step = -np.log(draws.draw()) / cext
        x_next = x + step * mx
        ended = (x_next >= dist) & (mx > 0.0)
        live = ~ended
        if ended.any():
            # crossing: residual Beer-Lambert factor from the last scatter site
            contributions[pos[ended]] = w[ended] * np.exp(
                -cext[ended] * (dist[ended] - x[ended]) / mx[ended])
        x = x_next
        out = x < 0.0
        if out.any():
            fates[pos[out]] = _FATE_INDEX["backscatter_exit"]
            live &= ~out
        if not live.all():
            x, mx, my, mz, w, step, cext, dist, pos, run, born = (
                a[live] for a in (x, mx, my, mz, w, step, cext, dist, pos,
                                  run, born))
            draws.keep(live)
        events += np.bincount(run, minlength=len(cfgs))
        if pos.size and wave - born[0] + 1 >= head.max_events:
            # rows are in admission order, so the guarded ones lead
            guarded = slice(np.searchsorted(born, wave + 1 - head.max_events,
                                            side="right"), None)
            fates[pos[:guarded.start]] = _FATE_INDEX["guard_killed"]
            x, mx, my, mz, w, step, cext, dist, pos, run, born = (
                a[guarded] for a in (x, mx, my, mz, w, step, cext, dist, pos,
                                     run, born))
            draws.keep(guarded)
        # Beer-Lambert decay; dx/mx telescopes to the step length
        w = w * np.exp(-cext * step)
        killed = w < eps_t
        if killed.any():
            fates[pos[killed]] = _FATE_INDEX["weight_killed"]
            live = ~killed
            x, mx, my, mz, w, cext, dist, pos, run, born = (
                a[live] for a in (x, mx, my, mz, w, cext, dist, pos, run,
                                  born))
            draws.keep(live)
        if not pos.size:
            continue

        if isinstance(asym, FixedAsymmetry):
            g = asym.g
        else:
            g = asym.lo + (asym.hi - asym.lo) * draws.draw()
        ct = _hg_cosine(g, draws.draw())
        mx, my, mz = _rotate(mx, my, mz, ct, two_pi * draws.draw())
    return contributions, fates, events


def _rotate(mx, my, mz, ct, phi):
    """Direction cosines after scattering at polar cosine ``ct`` and azimuth
    ``phi``, with ``_trace``'s arithmetic. Its temporaries end with the call.
    """
    st = np.sqrt(1.0 - ct * ct)
    cp = np.cos(phi)
    sp = np.sin(phi)
    polar = np.abs(mx) > 0.99999
    root = np.sqrt(np.where(polar, 1.0, 1.0 - mx * mx))
    nx = np.where(polar, np.where(mx > 0.0, ct, -ct), -st * cp * root + mx * ct)
    ny = np.where(polar, st * cp, st * (my * mx * cp - mz * sp) / root + my * ct)
    nz = np.where(polar, st * sp, st * (mz * mx * cp + my * sp) / root + mz * ct)
    norm = np.sqrt(nx * nx + ny * ny + nz * nz)
    return nx / norm, ny / norm, nz / norm


def _estimate_group(cfgs) -> list[TransportResult]:
    """Results of runs that share the kernel settings, traced together."""
    starts = np.cumsum([0, *(cfg.packet_count for cfg in cfgs)])
    contributions, fates, events = _trace_packets(cfgs)
    results = []
    for r, cfg in enumerate(cfgs):
        m = cfg.packet_count
        part = slice(starts[r], starts[r + 1])
        transmittance = min(float(np.sum(contributions[part])) / m, 1.0)
        fate_counts = np.bincount(fates[part], minlength=len(FATES))
        results.append(TransportResult(
            transmittance=transmittance,
            attenuation_db_per_m=db_from_transmittance(transmittance,
                                                       cfg.distance_m),
            fates=FateCounts(*(int(c) for c in fate_counts)),
            mean_events=int(events[r]) / m,
            seed=cfg.seed,
        ))
    return results


def estimate_batch(cfgs: Sequence[TransportConfig]) -> list[TransportResult]:
    """Ensemble transmittance and dB/m attenuation of many runs at once.

    Runs that share their asymmetry, weight threshold and event guard are
    traced together in one wave kernel; each packet keeps
    its run's seed and its index in its run, and each run's contributions
    are reduced in packet order with numpy's pairwise sum. So every result
    is bit-identical to that of its config traced alone, whatever the rest
    of the batch. Transmittance 0 reports +inf dB/m.
    """
    groups: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(cfgs):
        key = (cfg.asymmetry, cfg.weight_threshold, cfg.max_events)
        groups.setdefault(key, []).append(i)
    results: list[TransportResult] = [None] * len(cfgs)
    for members in groups.values():
        for i, result in zip(members, _estimate_group([cfgs[i] for i in members])):
            results[i] = result
    return results


def estimate_transmittance(cfg: TransportConfig) -> TransportResult:
    """Ensemble transmittance over all packets of one run, and the dB/m attenuation."""
    return estimate_batch([cfg])[0]
