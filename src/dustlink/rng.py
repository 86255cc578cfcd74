"""Counter-based random streams for reproducible parallel Monte Carlo.

All randomness in the package flows through Philox, a counter-based
generator. A 64-bit run seed keys the generator and independent substreams
are obtained by placing a stream index in the third word of the 256-bit
counter, which separates streams by 2**128 blocks. Results are therefore
identical no matter how work is split across workers or batches.

Substream contract: draw ``j`` of substream ``i`` is word ``j % 4`` of
the Philox4x64-10 block with counter ``(1 + j // 4, 0, i, 0)`` under key
``(seed, 0)``, mapped to ``(x >> 11) * 2**-53``; a word that maps to 0
(probability 2**-53) reads as ``ZERO_DRAW`` = 2**-54, so every draw lies
in (0, 1) and ``log(u)`` is finite. ``substream`` + ``UniformStream``
consume it one draw at a time. ``philox4x64`` computes the words of any
blocks of many substreams, of one run seed or of one seed per row, at once
in numpy (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11), and ``word_uniforms`` maps words to draws: the four draws of block
``n`` of substream ``i`` are ``word_uniforms(philox4x64(seed, i, n))``.

Kernel layout: ``philox4x64`` ravels its broadcast inputs to 1-D lanes of
n counters and runs the ten rounds on ``(2, n)`` uint64 buffers, counter
words 0 and 2 (multiplied) as one pair of rows and words 1 and 3 (XORed
in) as another. The buffers are views of one per-thread scratch array,
kept between calls of up to ``_SCRATCH_LANES`` lanes, so a caller that
refills blocks in a loop does not fault fresh pages in on every call. It
returns the ``(n, 4)`` transpose of one contiguous ``(4, n)`` block,
written into a caller's ``out`` buffer when one is given, so word ``j`` of
every row is the contiguous ``words.T[j]`` and a caller can turn one word
into draws without touching the others.
"""

import math
import threading

import numpy as np

from .errors import DomainError, is_int

__all__ = ["substream", "derive_seed", "UniformStream", "philox4x64",
           "word_uniforms", "ZERO_DRAW"]

# What a draw that maps to 0 reads as; it stays below every other draw
# (the least is 2**-53), so draws keep the order of their words.
ZERO_DRAW = 2.0 ** -54

# Philox4x64 multipliers and Weyl key increments (Salmon et al., SC'11).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_MASK64 = (1 << 64) - 1


def _word(value: int) -> np.ndarray:
    """A 64-bit constant as a 0-d uint64 array. numpy runs its vector
    loops for a 0-d array operand but not for a numpy scalar: with numpy
    2.4 on an AVX-512 Xeon, a shift of 4096 words by ``_word(32)`` takes
    about a third of the time of one by ``np.uint64(32)``."""
    return np.array(value, dtype=np.uint64)


_LOW32, _SHIFT32, _DRAW_SHIFT = _word(0xFFFFFFFF), _word(32), _word(11)
# one row per lane (counter word 0, then word 2)
_M = np.array(_PHILOX_M, dtype=np.uint64).reshape(2, 1)
_M_LO = _M & _LOW32
_M_HI = _M >> _SHIFT32
# round r's key is (seed + r * W0, r * W1) modulo 2**64: the bump lane 0
# adds to the seed, and lane 1's whole key word
_BUMPS = [tuple(_word(r * w & _MASK64) for w in _PHILOX_W)
          for r in range(_PHILOX_ROUNDS)]

# The largest call whose limb scratch is kept per thread: the wave
# kernel's (``transport._WAVE_ROWS``). A larger call allocates its own, so
# a one-off call of many lanes does not pin its scratch.
_SCRATCH_LANES = 8192
# seven (2, n) limb buffers and the key lane
_SCRATCH_ROWS = 15
_kept = threading.local()


def substream(seed: int, stream_index: int) -> np.random.Generator:
    """Generator for one independent substream of a seeded run.

    Equivalent to ``Philox(key=seed).jumped(stream_index)`` but cheaper to
    construct. The seed is an int in [0, 2**128) and the stream index an
    int in [0, 2**64); anything else raises ``DomainError``.
    """
    if not (is_int(seed) and 0 <= seed < 1 << 128):
        raise DomainError(f"seed must be an int in [0, 2**128), got {seed!r}")
    if not (is_int(stream_index) and 0 <= stream_index <= _MASK64):
        raise DomainError(
            f"stream index must be an int in [0, 2**64), got {stream_index!r}")
    # a uint64 array: numpy reads a tuple holding an int >= 2**63 as float64
    counter = np.array([0, 0, stream_index, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def _checked(values, least: int, name: str) -> np.ndarray:
    """``values`` as an integer array whose entries lie in [least, 2**64).

    An integer array costs at most one ``min`` reduction (none for an
    unsigned one when ``least`` is 0); only an object array of Python
    ints is checked entry by entry. Raises ``ValueError`` otherwise.
    """
    values = np.asarray(values)
    kind = values.dtype.kind
    if kind in "iu":
        ok = (kind == "u" and least == 0) or not values.size or values.min() >= least
    else:
        ok = kind == "O" and all(
            is_int(v) and least <= v <= _MASK64 for v in values.flat)
    if not ok:
        raise ValueError(f"{name} must be an int in [{least}, 2**64).")
    return values


def _lane(values: np.ndarray, shape: tuple, n: int) -> np.ndarray:
    """``values`` broadcast to ``shape`` as ``n`` uint64 words, or as one
    word when it holds only one; copied only where it must be."""
    if values.size == 1:
        return values.astype(np.uint64).reshape(1)
    if values.shape == shape and values.dtype == np.uint64:
        return values.reshape(n)
    lane = np.empty(n, dtype=np.uint64)
    lane.reshape(shape)[...] = values
    return lane


def _scratch(n: int) -> np.ndarray:
    """A ``(_SCRATCH_ROWS, n)`` uint64 scratch array: a view of this
    thread's kept array when ``n <= _SCRATCH_LANES``, else a new one."""
    if n > _SCRATCH_LANES:
        return np.empty((_SCRATCH_ROWS, n), dtype=np.uint64)
    kept = getattr(_kept, "words", None)
    if kept is None:
        kept = _kept.words = np.empty(_SCRATCH_ROWS * _SCRATCH_LANES,
                                      dtype=np.uint64)
    return kept[:_SCRATCH_ROWS * n].reshape(_SCRATCH_ROWS, n)


def philox4x64(seeds, streams, blocks, *, out=None) -> np.ndarray:
    """Philox4x64-10 words of counter ``(block, 0, stream, 0)``, key ``(seed, 0)``.

    ``seeds``, ``streams`` and ``blocks`` broadcast against each other; the
    result has their broadcast shape plus a trailing axis of the 4 output
    words, which equal ``Philox(key=seed, counter=(block - 1, 0, stream,
    0)).random_raw(4)`` bit for bit. Seeds and streams must be ints in
    [0, 2**64) and blocks ints in [1, 2**64), or ``ValueError`` is
    raised. Seeds are 64-bit run seeds, so the high key word is 0.

    ``out``, if given, must be a 1-D C-contiguous uint64 array of at least
    4n words, n = prod(shape), or ``ValueError`` is raised; the words are
    written into ``out[:4 * n]`` and the result is a view of it. Without
    ``out`` the result is a new array.

    Lane layout: the n counters are raveled into 1-D lanes. Counter words
    0 and 2, the ones a round multiplies, are the rows of one ``(2, n)``
    uint64 buffer; words 1 and 3, the ones it XORs in, are rows of the
    buffer of the previous round's low products. The limb arithmetic runs
    on seven ``(2, n)`` buffers, a ufunc that treats both lanes alike on
    their flat ``(2n,)`` views. They and the round-key lane are views of
    one scratch array, which each thread keeps for calls of up to
    ``_SCRATCH_LANES`` lanes (about 960 KiB) and a larger call allocates
    anew. Since the high key word is 0, lane 1's round key is a constant
    and only lane 0 adds the Weyl bump to the seed. The result is the
    ``(n, 4)`` transpose of one contiguous ``(4, n)`` block, so each output
    word is a contiguous row (``words.T[j]``), reshaped to the broadcast
    shape.
    """
    seeds = _checked(seeds, 0, "key")
    streams = _checked(streams, 0, "stream")
    blocks = _checked(blocks, 1, "block")
    shape = np.broadcast_shapes(seeds.shape, streams.shape, blocks.shape)
    n = math.prod(shape)
    if out is None:
        out = np.empty(4 * n, dtype=np.uint64)
    elif not (isinstance(out, np.ndarray) and out.dtype == np.uint64
              and out.ndim == 1 and out.flags.c_contiguous
              and out.size >= 4 * n):
        raise ValueError(
            f"out must be a 1-D C-contiguous uint64 array of at least {4 * n} words.")
    words = out[:4 * n].reshape(4, n)
    seed = _lane(seeds, shape, n)
    scratch = _scratch(n)
    key = scratch[-1, :seed.size]
    mul, lo, spare, a_lo, a_hi, mid, t = scratch[:-1].reshape(7, 2, n)
    mul[0].reshape(shape)[...] = blocks
    mul[1].reshape(shape)[...] = streams
    f_mul, f_lo, f_hi, f_mid, f_t = (
        a.reshape(-1) for a in (mul, a_lo, a_hi, mid, t))
    for r, (bump0, bump1) in enumerate(_BUMPS):
        last = r == _PHILOX_ROUNDS - 1
        if last:
            # lo0 and lo1 are output words 3 and 1
            lo = words[3::-2]
        # 128-bit products mul * m from 32-bit limbs: lo, and hi in a_hi
        np.multiply(mul, _M, out=lo)
        np.bitwise_and(f_mul, _LOW32, out=f_lo)
        np.right_shift(f_mul, _SHIFT32, out=f_hi)
        np.multiply(a_lo, _M_LO, out=t)
        f_t >>= _SHIFT32
        np.multiply(a_hi, _M_LO, out=mid)
        f_mid += f_t
        np.multiply(a_lo, _M_HI, out=t)
        np.bitwise_and(f_mid, _LOW32, out=f_lo)
        f_t += f_lo
        a_hi *= _M_HI
        f_mid >>= _SHIFT32
        f_hi += f_mid
        f_t >>= _SHIFT32
        f_hi += f_t
        # (c0, c1, c2, c3) -> (hi2 ^ c1 ^ k0, lo2, hi0 ^ c3 ^ k1, lo0);
        # in round 0, c1, c3 and k1 are 0 and k0 is the seed
        if last:
            mul = words[0::2]
        if r == 0:
            np.bitwise_xor(a_hi[1], seed, out=mul[0])
            mul[1] = a_hi[0]
        else:
            np.bitwise_xor(a_hi[1], c1, out=mul[0])
            np.add(seed, bump0, out=key)
            mul[0] ^= key
            np.bitwise_xor(a_hi[0], c3, out=mul[1])
            mul[1] ^= bump1
        c1, c3 = lo[1], lo[0]
        lo, spare = spare, lo
    return words.T.reshape(shape + (4,))


def word_uniforms(words: np.ndarray) -> np.ndarray:
    """Draws of Philox words: ``(w >> 11) * 2**-53``, a 0 read as ``ZERO_DRAW``.

    The mapping of every draw the package computes from Philox words; a
    new float array of the words' shape.
    """
    draws = (words >> _DRAW_SHIFT) * 2.0 ** -53
    return np.maximum(draws, ZERO_DRAW, out=draws)


def derive_seed(*parts: int | str) -> int:
    """Hash a tuple of labels/indices into a 64-bit run seed.

    Parts are ints >= 0 (numpy integers included, bools not) or strs;
    anything else raises ``DomainError``. String parts are folded in as
    UTF-8 bytes so call sites can namespace streams ("time", second)
    without colliding with plain indices.
    """
    entropy: list[int] = []
    for part in parts:
        if isinstance(part, str):
            entropy.extend(part.encode("utf-8"))
        elif is_int(part) and part >= 0:
            entropy.append(int(part))
        else:
            raise DomainError(
                f"seed part must be an int >= 0 or a str, got {part!r}")
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


class UniformStream:
    """Buffered scalar draws on the open interval (0, 1).

    A zero draw reads as ``ZERO_DRAW``, so that log(u) is always finite.
    Buffering is per-stream with a fixed chunk size, which keeps the draw
    sequence a pure function of (seed, stream index).
    """

    _CHUNK = 128

    __slots__ = ("_random", "_buf", "_pos")

    def __init__(self, generator: np.random.Generator):
        self._random = generator.random
        self._buf = self._chunk()
        self._pos = 0

    def _chunk(self) -> np.ndarray:
        draws = self._random(self._CHUNK)
        return np.maximum(draws, ZERO_DRAW, out=draws)

    def next(self) -> float:
        pos = self._pos
        if pos >= self._CHUNK:
            self._buf = self._chunk()
            pos = 0
        self._pos = pos + 1
        return float(self._buf[pos])
