"""Monte Carlo photon-packet transport through a homogeneous dust slab.

Packets launch at X = 0 heading along +X with unit energy weight.
Free paths are exponential in the extinction rate, scattering angles come
from the Henyey-Greenstein inversion, and the weight decays by the
Beer-Lambert factor of each step. A packet terminates when it crosses the
receiver plane X = D (recording the residual-attenuated weight), exits
backwards (X < 0), drops below the weight threshold, or hits the event
guard. A packet is scored only where it crosses the receiver plane, so
its state is its X coordinate, its X direction cosine and its weight
alone: the MCML update of the X cosine (Wang, Jacques & Zheng, 1995)
needs no other direction cosine.

Receiver contributions are only ever evaluated at an actual boundary
crossing, where the step direction necessarily has a positive X
component, so the residual Beer-Lambert factor is always finite.

Draw contract: event n (n = 1, 2, ...) of packet i of a run with seed s
reads the four draws of Philox block n of substream i, that is
``word_uniforms(philox4x64(s, i, n))``, in the order step, g, nu, chi; a
packet that ends on its step ignores the other three. A fixed asymmetry g
is ``UniformAsymmetry(g, g)``, whose g word is read and multiplied by 0.
A word that maps to 0 reads as ``dustlink.rng.ZERO_DRAW`` (2**-54).

Two implementations share these rules. ``estimate_batch`` (and
``estimate_transmittance``, a batch of one) runs a wave kernel: packets
are held as arrays, and each wave advances every live packet by one event
in numpy. While packets are still being admitted, each wave makes one
``dustlink.rng.philox4x64`` call for the next block of every live packet;
once all are admitted, one call computes the next ``_WAVE_ROWS // live``
blocks of each, and the following waves read them row by row, so the
tail of waves with few live packets shares a few calls. Every call of a
batch writes into one block buffer, and the blocks come back with each
word as a contiguous row; the wave turns the step word of every live
packet into a draw, and the g, nu and chi words, one row at a time, only
of the packets that scatter on, with ``dustlink.rng.word_uniforms``. The
packets of many runs share the kernel; a packet's state is its output
index, run, first wave, X, X cosine, weight and column in the blocks,
and it reads its run's extinction and distance each wave. A wave sets
every fate from masks, in the order crossing, backscatter, event guard,
weight threshold, and drops the ended packets in one pass; the masks are
turned into indices once, and the wave reads and writes through them.
``trace_packet`` is the scalar reference, one packet
in plain Python, reading the same draws one at a time. The kernel keeps
the reference's branch order and floating-point operations, so each
packet has the same fate and event count; its contribution agrees within
rtol 1e-12, because ``np.exp``/``np.log`` may differ from ``math`` in the
last bit.

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
from .errors import DomainError, is_int, require_finite
from . import rng
from .rng import UniformStream, substream, word_uniforms

__all__ = [
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
class UniformAsymmetry:
    """Scattering asymmetry redrawn uniformly in [lo, hi] per event.

    A fixed asymmetry g is the range (g, g): ``lo + 0.0 * u == lo``.
    """
    lo: float = 0.5
    hi: float = 1.0

    def __post_init__(self):
        require_finite(lo=self.lo, hi=self.hi)
        if not (0.0 <= self.lo <= self.hi <= 1.0):
            raise DomainError("need 0 <= lo <= hi <= 1")


@dataclass(frozen=True)
class TransportConfig:
    """Inputs of one transport run. Immutable while the run executes."""

    distance_m: float
    packet_count: int
    extinction_per_m: float
    asymmetry: UniformAsymmetry = UniformAsymmetry()
    weight_threshold: float = 1e-5
    seed: int = 0
    max_events: int = 10 ** 6

    def __post_init__(self):
        if not (is_int(self.seed) and 0 <= self.seed < 1 << 64):
            raise DomainError(f"seed must be an int in [0, 2**64), got {self.seed!r}")
        if not (is_int(self.packet_count) and self.packet_count >= 1):
            raise DomainError(
                f"packet_count must be an int >= 1, got {self.packet_count!r}")
        require_finite(distance_m=self.distance_m,
                       extinction_per_m=self.extinction_per_m,
                       weight_threshold=self.weight_threshold)
        if self.distance_m <= 0:
            raise DomainError("distance must be positive")
        if self.extinction_per_m < 0:
            raise DomainError("extinction rate must be >= 0")
        if not (0.0 < self.weight_threshold < 1.0):
            raise DomainError("weight threshold must be in (0, 1)")
        if not (is_int(self.max_events) and self.max_events >= 1):
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
    # real kinds only, as in errors.require_finite: a str or a bool once
    # converted to a variate
    for name, value in (("variates", nu), ("variates", chi), ("asymmetry", g)):
        if np.asarray(value).dtype.kind not in "iuf":
            raise DomainError(f"{name} must be real, got {value!r}")
    nu_arr = np.asarray(nu, dtype=float)
    chi_arr = np.asarray(chi, dtype=float)
    g_arr = np.asarray(g, dtype=float)
    # written so that NaN fails the test
    if not (np.all((0 <= nu_arr) & (nu_arr <= 1))
            and np.all((0 <= chi_arr) & (chi_arr <= 1))):
        raise DomainError("variates must lie in [0, 1]")
    if not np.all((0 <= g_arr) & (g_arr <= 1)):
        raise DomainError("asymmetry must lie in [0, 1]")

    theta = np.arccos(_hg_cosine(g_arr, nu_arr))
    phi = 2.0 * math.pi * chi_arr
    if np.isscalar(nu) and np.isscalar(chi) and np.isscalar(g):
        return float(theta), float(phi)
    return theta, phi


def _hg_cosine(g, nu):
    """Scattering cosine from a unit variate, in ``trace_packet``'s arithmetic.

    Isotropic at g == 0, forward (1) at g == 1, the Henyey-Greenstein
    inversion clipped to [-1, 1] otherwise. ``g`` and ``nu`` broadcast.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        g2, twice_g = g * g, 2.0 * g
        frac = (1.0 - g2) / (1.0 - g + twice_g * nu)
        hg = np.clip((1.0 + g2 - frac * frac) / twice_g, -1.0, 1.0)
    return np.where(g == 0.0, 2.0 * nu - 1.0, np.where(g == 1.0, 1.0, hg))


def update_direction(mu: tuple[float, float, float], theta: float,
                     phi: float) -> tuple[float, float, float]:
    """Rotate the direction cosines by a scattering event.

    Uses the general three-component update, switching to the polar-axis
    form when |mu_x| > 0.99999; the result is renormalized to unit length.
    Its x component is the x cosine ``_rotate`` gives the transport.
    """
    mx, my, mz = mu
    norm = math.sqrt(mx * mx + my * my + mz * mz)
    if abs(norm - 1.0) > 1e-6:
        raise DomainError("direction cosines must be unit length")
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi), math.sin(phi)
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


def trace_packet(cfg: TransportConfig,
                 packet_index: int) -> tuple[str, float, int]:
    """Trace one packet to termination.

    Returns (fate, receiver contribution, scattering events). Pure function
    of (cfg.seed, packet_index). This is the scalar reference for the wave
    kernel behind ``estimate_batch``: it consumes the same substream draws
    in the same order, four per event, so the kernel gives the packet an
    equal fate and event count and a contribution within rtol 1e-12.
    """
    if packet_index >= cfg.packet_count:
        raise DomainError("packet index beyond configured packet count")
    cext = cfg.extinction_per_m
    if cext == 0.0:
        return "reached", 1.0, 0

    dist = cfg.distance_m
    eps_t = cfg.weight_threshold
    max_events = cfg.max_events
    g_lo = cfg.asymmetry.lo
    g_span = cfg.asymmetry.hi - g_lo

    stream = UniformStream(substream(cfg.seed, packet_index))
    draw = stream.next
    log = math.log
    exp = math.exp
    sqrt = math.sqrt
    cos = math.cos
    two_pi = 2.0 * math.pi

    x = 0.0
    mx = 1.0
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

        g = g_lo + g_span * draw()
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
        # the x cosine after the turn (``_rotate``'s scalar form)
        if abs(mx) > 0.99999:
            mx = ct if mx > 0.0 else -ct
        else:
            mx = (-sqrt(1.0 - ct * ct) * cos(two_pi * chi) * sqrt(1.0 - mx * mx)
                  + mx * ct)


# live packets, and Philox blocks of one call, at most; Philox keeps its
# scratch for calls of this size
_WAVE_ROWS = rng._SCRATCH_LANES


def _trace_packets(cfgs) -> tuple[list, list, np.ndarray]:
    """Trace every packet of each run ``cfgs[r]``.

    The runs share their asymmetry, weight threshold and event guard. A
    live packet is (pos, run, born, col, x, mx, w): its output index, run,
    wave of first event, column in the Philox blocks, X, X cosine and
    weight; each wave reads extinction and distance by run. Packets are
    admitted in order, at most ``_WAVE_ROWS`` live at a time: whenever half
    the rows have ended, new packets take their place, so a batch has one
    tail of waves with few live rows, not one per ``_WAVE_ROWS`` packets.
    Event n reads block n. When the blocks of the last call are used up,
    the next call computes, for every live packet, the block of its next
    event, or, once every packet is admitted, the blocks of its next
    ``_WAVE_ROWS // live`` events; so no call exceeds ``_WAVE_ROWS`` blocks,
    every call writes into one buffer of ``_WAVE_ROWS`` blocks, and a
    packet that ends early leaves its later blocks unread. Each wave
    turns only the words a packet reads into draws, takes every live
    packet through one pass of ``trace_packet``'s loop, with the same
    floating-point operations, sets the fates from masks in its order
    (crossing, backscatter, event guard, weight threshold), reading and
    writing through the masks' indices, and compacts once. Returns each
    run's contributions and fate codes, in packet order, and each run's
    event total.
    """
    head = cfgs[0]
    asym = head.asymmetry
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
    # every refill writes its blocks here: one comes only once the blocks in
    # hand are all read, and none computes more than _WAVE_ROWS blocks, even
    # for a batch of fewer packets
    block_words = np.empty(4 * _WAVE_ROWS, dtype=np.uint64)
    pos, run, born, col = (np.empty(0, dtype=np.int64) for _ in range(4))
    x, mx, w = (np.empty(0) for _ in range(3))
    admitted = 0
    wave = 0
    ahead = read = 0   # blocks computed ahead per packet, and read
    while admitted < total or pos.size:
        wave += 1
        if admitted < total and pos.size <= rows // 2:
            new = np.arange(admitted, min(admitted + rows - pos.size, total))
            admitted += new.size
            r = np.searchsorted(offsets, new, side="right") - 1
            flight = run_cext[r] == 0.0
            contributions[new[flight]] = 1.0   # free flight: every packet reaches
            new, r = new[~flight], r[~flight]
            pos = np.concatenate((pos, new))
            run = np.concatenate((run, r))
            born = np.concatenate((born, np.full(new.size, wave)))
            x = np.concatenate((x, np.zeros(new.size)))
            mx, w = (np.concatenate((a, np.ones(new.size))) for a in (mx, w))

        event = wave - born + 1
        if read == ahead:
            # event n reads block n of the packet's substream: the next block
            # of each live packet while packets are admitted, then its next
            # _WAVE_ROWS // live (through the module, so it can be patched).
            # ``col`` is each live packet's column in these blocks.
            ahead = (1 if admitted < total or not pos.size
                     else _WAVE_ROWS // pos.size)
            blocks = rng.philox4x64(run_seeds[run], pos - offsets[run],
                                    event + np.arange(ahead)[:, None],
                                    out=block_words)
            col = np.arange(pos.size)
            read = 0
        # one contiguous row per word: step, g, nu, chi
        words = blocks[read].T
        read += 1
        cext = run_cext[run]
        dist = run_dist[run]
        # a subnormal extinction gives an infinite step: the packet crosses
        with np.errstate(over="ignore"):
            step = -np.log(word_uniforms(words[0].take(col))) / cext
        x_next = x + step * mx
        ended = (x_next >= dist) & (mx > 0.0)
        # crossing: residual Beer-Lambert factor from the last scatter site
        hit = np.flatnonzero(ended)
        contributions[pos.take(hit)] = w.take(hit) * np.exp(
            -cext.take(hit) * (dist.take(hit) - x.take(hit)) / mx.take(hit))
        x = x_next
        out = x < 0.0
        scattered = ~ended & ~out
        events += np.bincount(run.compress(scattered), minlength=len(cfgs))
        guarded = scattered & (event >= head.max_events)
        # Beer-Lambert decay; dx/mx telescopes to the step length
        w = w * np.exp(-cext * step)
        killed = scattered & ~guarded & (w < head.weight_threshold)
        for mask, fate in ((out, "backscatter_exit"), (guarded, "guard_killed"),
                           (killed, "weight_killed")):
            fates[pos.take(np.flatnonzero(mask))] = _FATE_INDEX[fate]
        keep = scattered & ~guarded & ~killed
        kept = np.flatnonzero(keep)
        pos, run, born, col, x, mx, w = (a.take(kept)
                                         for a in (pos, run, born, col, x, mx, w))
        # only the packets that scatter on turn their g, nu, chi words
        # into draws
        g, nu, chi = (word_uniforms(words[j].take(col)) for j in (1, 2, 3))
        g = asym.lo + (asym.hi - asym.lo) * g
        mx = _rotate(mx, _hg_cosine(g, nu), two_pi * chi)
    ends = offsets[1:-1]
    return np.split(contributions, ends), np.split(fates, ends), events


def _rotate(mx, ct, phi):
    """The x cosine after scattering at polar cosine ``ct`` and azimuth
    ``phi``, in ``trace_packet``'s arithmetic. The MCML update of the x
    cosine needs only the old x cosine, ``ct`` and ``phi``; it is not
    renormalized. Its temporaries end with the call.
    """
    polar = np.abs(mx) > 0.99999
    root = np.sqrt(np.where(polar, 1.0, 1.0 - mx * mx))
    turned = -np.sqrt(1.0 - ct * ct) * np.cos(phi) * root + mx * ct
    return np.where(polar, np.where(mx > 0.0, ct, -ct), turned)


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
        runs = [cfgs[i] for i in members]
        for i, cfg, contributions, fates, events in zip(
                members, runs, *_trace_packets(runs)):
            m = cfg.packet_count
            transmittance = min(float(np.sum(contributions)) / m, 1.0)
            fate_counts = np.bincount(fates, minlength=len(FATES))
            results[i] = TransportResult(
                transmittance=transmittance,
                attenuation_db_per_m=db_from_transmittance(transmittance,
                                                           cfg.distance_m),
                fates=FateCounts(*(int(c) for c in fate_counts)),
                mean_events=int(events) / m,
                seed=cfg.seed,
            )
    return results


def estimate_transmittance(cfg: TransportConfig) -> TransportResult:
    """Ensemble transmittance over all packets of one run, and the dB/m attenuation."""
    return estimate_batch([cfg])[0]
