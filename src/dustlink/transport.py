"""Monte Carlo photon-packet transport through a homogeneous dust slab.

A run depends on its extinction C and distance D only through the optical
depth tau = C * D (``TransportConfig.optical_depth``), so packets are
traced in optical units: lengths are in mean free paths. Packets launch at
X = 0 heading along +X with unit energy weight. Free paths are -log u,
scattering angles come from the Henyey-Greenstein inversion, and the
weight decays by the Beer-Lambert factor exp(-step) of each step. A packet
terminates when it crosses the receiver plane X = tau (recording the
residual-attenuated weight), exits backwards (X < 0), drops below the
weight threshold, or hits the event guard. A packet is scored only where
it crosses the receiver plane, so its state is its X coordinate, its X
direction cosine and its weight alone: the MCML update of the X cosine
(Wang, Jacques & Zheng, 1995) needs no other direction cosine.

Receiver contributions are only ever evaluated at an actual boundary
crossing, where the step direction necessarily has a positive X
component, so the residual Beer-Lambert factor is always finite. A depth
of 0 is crossed by the first step with weight 1; an infinite depth (C * D
overflows) is never crossed.

Draw contract: event n (n = 1, 2, ...) of packet i of a run with seed s
reads the four draws of Philox block n of substream i, that is
``word_uniforms(philox4x64(s, i, n))``, in the order step, g, nu, chi; a
packet that ends on its step ignores the other three. An event's
asymmetry is ``g_lo + (g_hi - g_lo) * u`` for its g draw u, so a fixed
asymmetry g is ``g_lo = g_hi = g``, whose g word is read and multiplied
by 0. A word that maps to 0 reads as ``dustlink.rng.ZERO_DRAW`` (2**-54).
No draw depends on the run's depth, so runs that differ only in depth
share every packet's path up to the first plane it passes.

Two implementations share these rules. ``estimate_batch`` (and
``estimate_transmittance``, a batch of one) runs one wave kernel per
batch: packets are held as arrays, and each wave advances every live
packet by one event in numpy. The runs that differ only in depth are
traced once, as one trace whose receiver planes are their depths in
ascending order: a live packet keeps the index of the next plane it has
not passed, and reads its run's seed, asymmetry range, weight threshold
and event guard through it; a forward step scores every plane it passes,
and the packet ends past the last one or by the usual fates. No fate
rule depends on the plane, so each run's contributions, fates and event
total are those of the run traced alone, bit for bit (common random
numbers across the runs: Glasserman & Yao, Management Science 38, 884,
1992; the depth scaling is that of condensed Monte Carlo, Graaff et al.,
Appl. Opt. 32, 426, 1993). Packets are admitted only at a refill: one
``dustlink.rng.philox4x64`` call on each live packet's plane seed, its
index in its run (its substream) and its next event computes its next
``min(_WAVE_ROWS // live, _AHEAD)`` blocks (``_WAVE_ROWS`` is 8192 and
``_AHEAD`` 8), which the following waves read row by row. While packets
are still being admitted more than half of the rows are live, so each
wave refills one block a packet; the tail of waves with few live packets
shares a few calls, and few of their blocks go unread. Every call of a
batch writes into one block buffer, and the blocks come back with each
word as a contiguous row; the wave turns the step word of every live
packet into a draw, and the g, nu and chi words, one row at a time, only
of the packets that scatter on, with ``dustlink.rng.word_uniforms``. A
wave sets every fate from masks, in the order crossing, backscatter,
event guard, weight threshold, and drops the ended packets in one pass;
the masks are turned into indices once, and the wave reads and writes
through them. ``trace_packet`` is the scalar reference, one packet of
one run in plain Python, reading the same draws one at a time. The
kernel keeps the reference's branch order and floating-point operations,
so each packet has the same fate and event count; its contribution
agrees within rtol 1e-12, because ``np.exp``/``np.log`` may differ from
``math`` in the last bit.

Determinism: every packet draws from its own counter-based substream of
its run's seed (see ``dustlink.rng``), and each run's contributions are
reduced in packet order with pairwise summation. A run's result therefore
does not depend on which other runs share its batch or its trace, on how
the kernel chunks the packets, or on how a caller splits runs across
worker processes.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .constants import db_from_transmittance
from .errors import (DomainError, require_finite, require_int, require_nonnegative,
                     require_positive)
from . import rng
from .rng import UniformStream, substream, word_uniforms

__all__ = [
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
class TransportConfig:
    """Inputs of one transport run. Immutable while the run executes.

    ``TransportConfig()`` is the run every scenario starts from, on Earth
    and Mars alike: 10^4 photon packets over a 10 m clear-sky link.
    The scattering asymmetry is redrawn uniformly in [g_lo, g_hi] at every
    event; a fixed asymmetry g is ``g_lo = g_hi = g``.
    """

    distance_m: float = 10.0
    packet_count: int = 10_000
    extinction_per_m: float = 0.0
    g_lo: float = 0.5
    g_hi: float = 1.0
    weight_threshold: float = 1e-5
    seed: int = 0
    max_events: int = 10 ** 6

    def __post_init__(self):
        require_int("seed", self.seed, 0, 64)
        require_int("packet_count", self.packet_count, 1)
        require_positive(distance_m=self.distance_m)
        require_nonnegative(extinction_per_m=self.extinction_per_m)
        require_finite(g_lo=self.g_lo, g_hi=self.g_hi)
        if not (0.0 <= self.g_lo <= self.g_hi <= 1.0):
            raise DomainError("need 0 <= g_lo <= g_hi <= 1")
        require_finite(weight_threshold=self.weight_threshold)
        if not (0.0 < self.weight_threshold < 1.0):
            raise DomainError("weight threshold must be in (0, 1)")
        require_int("event guard max_events", self.max_events, 1)

    @property
    def optical_depth(self) -> float:
        """tau = C * D, the receiver plane in mean free paths (inf when the
        product overflows)."""
        return self.extinction_per_m * self.distance_m


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
    Lengths are in mean free paths: the receiver plane is at
    ``cfg.optical_depth``.
    """
    if packet_index >= cfg.packet_count:
        raise DomainError("packet index beyond configured packet count")
    tau = cfg.optical_depth
    eps_t = cfg.weight_threshold
    max_events = cfg.max_events
    g_lo = cfg.g_lo
    g_span = cfg.g_hi - g_lo

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
        step = -log(draw())
        dx = step * mx
        if x + dx >= tau and mx > 0.0:
            # crossing: residual Beer-Lambert factor from the last scatter site
            return "reached", w * exp(-(tau - x) / mx), events
        x += dx
        if x < 0.0:
            return "backscatter_exit", 0.0, events
        events += 1
        if events >= max_events:
            return "guard_killed", 0.0, events
        # Beer-Lambert decay; dx/mx telescopes to the step length
        w *= exp(-step)
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
# blocks a refill computes ahead per live packet, at most. An event's path
# is Exp(1) in optical units and the weight is exp(-path), so at the default
# weight threshold of 1e-5 a packet has at most about ln(1e5) = 11.5 events
# left, and most packets of a tail fewer.
_AHEAD = 8


def _trace_packets(cfgs) -> tuple[list, list, np.ndarray]:
    """Trace every packet of each run ``cfgs[r]``.

    The runs that share every input but the depth are one trace, whose
    planes are their optical depths in ascending order. A live packet is
    (i, ev, col, x, mx, w, nxt): its index in its run (its substream), next
    event, column in the Philox blocks, X, X cosine, weight and next plane
    not yet passed, which holds its run's other inputs. Event n reads block
    n. A refill comes when the blocks of the last call are used up. If at
    most half of the ``_WAVE_ROWS`` rows are live, it admits packets, trace
    by trace, until all rows are, so a batch has one tail of waves with few
    live rows, not one per ``_WAVE_ROWS`` packets. Then one call computes
    the blocks of every live packet's next
    ``min(_WAVE_ROWS // live, _AHEAD)`` events: one while packets are still
    being admitted, up to ``_AHEAD`` in the tail. Every call writes into one
    buffer of ``_WAVE_ROWS`` blocks, and a packet that ends early leaves its
    later blocks unread; how far a call reads ahead changes no draw. Each wave
    turns only the words a packet reads into draws and takes every live
    packet through one pass of ``trace_packet``'s loop, with the same
    floating-point operations: a forward step scores every plane it passes,
    and the packet ends past its trace's last plane. The other fates are set
    from masks in ``trace_packet``'s order (backscatter, event guard, weight
    threshold), for every plane the packet has not passed, and the wave
    compacts once. A (run, packet) cell is written once, when its outcome is
    known. Returns each run's contributions and fate codes, in packet order,
    and each run's event total.
    """
    two_pi = 2.0 * math.pi
    offsets = np.cumsum([0, *(cfg.packet_count for cfg in cfgs)])
    traces: dict[tuple, list[int]] = {}
    for r, cfg in enumerate(cfgs):
        traces.setdefault((cfg.seed, cfg.packet_count, cfg.g_lo, cfg.g_hi,
                           cfg.weight_threshold, cfg.max_events), []).append(r)
    depths = [cfg.optical_depth for cfg in cfgs]
    # trace t's packets are admitted from the trace_offsets[t]-th on, and
    # its planes, by depth, start at first[t]; a plane holds its run's first
    # output cell and the count of its trace's planes from it on
    plane_run = np.array([r for runs in traces.values()
                          for r in sorted(runs, key=depths.__getitem__)])
    plane_tau = np.array(depths).take(plane_run)
    plane_cell = offsets.take(plane_run)
    sizes = [len(runs) for runs in traces.values()]
    plane_left = np.concatenate([np.arange(n, 0, -1) for n in sizes])
    first = np.cumsum([0, *sizes[:-1]])
    seeds, counts, *inputs = zip(*traces)
    plane_seed = np.repeat(np.array(seeds, dtype=np.uint64), sizes)
    plane_g_lo, plane_g_hi, plane_threshold, plane_guard = (
        np.repeat(column, sizes) for column in inputs)
    trace_offsets = np.cumsum([0, *counts])
    total = int(trace_offsets[-1])

    contributions = np.zeros(int(offsets[-1]))
    fates = np.zeros(contributions.size, dtype=np.uint8)   # fate 0 is "reached"
    cell_events = np.zeros(contributions.size, dtype=np.int64)
    # every refill writes its blocks here: one comes only once the blocks in
    # hand are all read, and none computes more than _WAVE_ROWS blocks, even
    # for a batch of fewer packets
    block_words = np.empty(4 * _WAVE_ROWS, dtype=np.uint64)
    i, ev, col, nxt = (np.empty(0, dtype=np.int64) for _ in range(4))
    x, mx, w = (np.empty(0) for _ in range(3))
    admitted = 0
    ahead = read = 0   # blocks computed ahead per packet, and read
    while admitted < total or i.size:
        if read == ahead:
            if admitted < total and i.size <= _WAVE_ROWS // 2:
                new = np.arange(admitted, min(admitted + _WAVE_ROWS - i.size, total))
                admitted += new.size
                t = np.searchsorted(trace_offsets, new, side="right") - 1
                i = np.concatenate((i, new - trace_offsets.take(t)))
                ev = np.concatenate((ev, np.ones(new.size, dtype=np.int64)))
                nxt = np.concatenate((nxt, first.take(t)))
                x = np.concatenate((x, np.zeros(new.size)))
                mx, w = (np.concatenate((a, np.ones(new.size))) for a in (mx, w))
            # event n reads block n of substream i of the trace's seed
            # (through the module, so it can be patched); ``col`` is each
            # live packet's column in the blocks
            ahead = min(_WAVE_ROWS // i.size, _AHEAD)
            blocks = rng.philox4x64(plane_seed.take(nxt), i,
                                    ev + np.arange(ahead)[:, None],
                                    out=block_words)
            col = np.arange(i.size)
            read = 0
        # one contiguous row per word: step, g, nu, chi
        words = blocks[read].T
        read += 1
        step = -np.log(word_uniforms(words[0].take(col)))
        x_next = x + step * mx
        # a forward step scores every plane it passes with the residual
        # Beer-Lambert factor from the last scatter site; a packet ends
        # past its last plane
        ended = np.zeros(i.size, dtype=bool)
        hit = np.flatnonzero((x_next >= plane_tau.take(nxt)) & (mx > 0.0))
        while hit.size:
            plane = nxt.take(hit)
            cells = plane_cell.take(plane) + i.take(hit)
            contributions[cells] = w.take(hit) * np.exp(
                -(plane_tau.take(plane) - x.take(hit)) / mx.take(hit))
            cell_events[cells] = ev.take(hit) - 1
            nxt[hit] = plane + 1
            last = plane_left.take(plane) == 1
            ended[hit[last]] = True
            hit = hit[~last]
            hit = hit[x_next.take(hit) >= plane_tau.take(nxt.take(hit))]
        x = x_next
        out = x < 0.0
        scattered = ~ended & ~out
        # an ended packet may point past the last plane; ``scattered`` masks it
        guarded = scattered & (ev >= plane_guard.take(nxt, mode="clip"))
        # Beer-Lambert decay; dx/mx telescopes to the step length
        w = w * np.exp(-step)
        killed = scattered & ~guarded & (w < plane_threshold.take(nxt, mode="clip"))
        # every plane a lost packet has not passed takes its fate, and its
        # event count: the scatter of this wave counts unless it backscattered
        lost = np.flatnonzero(out | guarded | killed)
        lost_out = out.take(lost)
        fate = np.where(lost_out, _FATE_INDEX["backscatter_exit"],
                        np.where(guarded.take(lost), _FATE_INDEX["guard_killed"],
                                 _FATE_INDEX["weight_killed"]))
        plane = nxt.take(lost)
        left = plane_left.take(plane)
        cells = (plane_cell.take(_spans(plane, left))
                 + np.repeat(i.take(lost), left))
        fates[cells] = np.repeat(fate, left)
        cell_events[cells] = np.repeat(ev.take(lost) - lost_out, left)
        kept = np.flatnonzero(scattered & ~guarded & ~killed)
        i, ev, col, nxt, x, mx, w = (
            a.take(kept) for a in (i, ev, col, nxt, x, mx, w))
        ev += 1
        # only the packets that scatter on turn their g, nu, chi words
        # into draws
        g, nu, chi = (word_uniforms(words[j].take(col)) for j in (1, 2, 3))
        g_lo = plane_g_lo.take(nxt)
        g = g_lo + (plane_g_hi.take(nxt) - g_lo) * g
        mx = _rotate(mx, _hg_cosine(g, nu), two_pi * chi)
    ends = offsets[1:-1]
    return (np.split(contributions, ends), np.split(fates, ends),
            np.add.reduceat(cell_events, offsets[:-1]))


def _spans(starts, counts):
    """The concatenated ``range(s, s + c)`` of each start and count."""
    shift = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return shift + np.arange(shift.size)


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

    The whole batch is one wave-kernel call, and the runs that share every
    input but the depth are one trace with a receiver plane at each run's
    optical depth. Each packet draws from the substream of its index in
    its run's seed, and each run's contributions are reduced in packet
    order with numpy's pairwise sum. So every result is bit-identical to
    that of its config traced alone, whatever the rest of the batch; and
    of runs that differ only in depth, a deeper one never transmits more.
    Transmittance 0 reports +inf dB/m.
    """
    if not cfgs:
        return []
    results = []
    for cfg, contributions, fates, events in zip(cfgs, *_trace_packets(cfgs)):
        m = cfg.packet_count
        transmittance = min(float(np.sum(contributions)) / m, 1.0)
        fate_counts = np.bincount(fates, minlength=len(FATES))
        results.append(TransportResult(
            transmittance=transmittance,
            attenuation_db_per_m=db_from_transmittance(transmittance,
                                                       cfg.distance_m),
            fates=FateCounts(*(int(c) for c in fate_counts)),
            mean_events=int(events) / m,
            seed=cfg.seed,
        ))
    return results


def estimate_transmittance(cfg: TransportConfig) -> TransportResult:
    """Ensemble transmittance over all packets of one run, and the dB/m attenuation."""
    return estimate_batch([cfg])[0]
