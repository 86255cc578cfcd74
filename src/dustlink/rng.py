"""Counter-based random streams for reproducible parallel Monte Carlo.

All randomness in the package flows through Philox, a counter-based
generator. A 64-bit run seed keys the generator and independent substreams
are obtained by placing a stream index in the third word of the 256-bit
counter, which separates streams by 2**128 blocks. Results are therefore
identical no matter how work is split across workers or batches.

Substream contract: draw ``j`` of substream ``i`` (counting every raw
word, zeros included) is word ``j % 4`` of the Philox4x64-10 block with
counter ``(1 + j // 4, 0, i, 0)`` under key ``(seed, 0)``, mapped to
``(x >> 11) * 2**-53``. ``substream`` + ``UniformStream`` consume it one
draw at a time; ``substream_uniforms`` computes any blocks of many
substreams, of one run seed or of one seed per row, at once in numpy
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).
"""

import numpy as np

__all__ = ["substream", "derive_seed", "UniformStream", "philox4x64",
           "substream_uniforms"]

# Philox4x64 multipliers and Weyl key increments (Salmon et al., SC'11).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_MASK64 = (1 << 64) - 1
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_M = np.array(_PHILOX_M, dtype=np.uint64)
_M_LO = _M & _LOW32
_M_HI = _M >> _SHIFT32
_BUMPS = np.array([[r * w & _MASK64 for w in _PHILOX_W]
                   for r in range(_PHILOX_ROUNDS)], dtype=np.uint64)


def substream(seed: int, stream_index: int) -> np.random.Generator:
    """Generator for one independent substream of a seeded run.

    Equivalent to ``Philox(key=seed).jumped(stream_index)`` but cheaper to
    construct.
    """
    bitgen = np.random.Philox(key=seed, counter=(0, 0, stream_index, 0))
    return np.random.Generator(bitgen)


def _key_words(seeds) -> tuple[np.ndarray, np.ndarray]:
    """Low and high 64-bit key words of run seeds in [0, 2**64), as uint64 arrays.

    An unsigned 64-bit array passes through; any other integers are
    checked against the range. The high key word is 0.
    """
    seeds = np.asarray(seeds)
    if seeds.dtype != np.uint64:
        seeds = seeds.astype(object)
        if not all(isinstance(s, int) and 0 <= s < 1 << 64 for s in seeds.flat):
            raise ValueError("key must be an int in [0, 2**64).")
        seeds = seeds.astype(np.uint64)
    return seeds, np.zeros_like(seeds)


def philox4x64(seeds, streams, blocks) -> np.ndarray:
    """Philox4x64-10 words of counter ``(block, 0, stream, 0)``, key ``(seed, 0)``.

    ``seeds``, ``streams`` and ``blocks`` broadcast against each other; the
    result has their broadcast shape plus a trailing axis of the 4 output
    words, which equal ``Philox(key=seed, counter=(block - 1, 0, stream,
    0)).random_raw(4)`` bit for bit. Seeds are 64-bit run seeds, so the
    high key word is 0.
    """
    k0, k1 = _key_words(seeds)
    block, stream = np.broadcast_arrays(
        np.asarray(blocks, dtype=np.uint64), np.asarray(streams, dtype=np.uint64))
    shape = np.broadcast_shapes(block.shape, k0.shape)
    block, stream = (np.broadcast_to(a, shape) for a in (block, stream))
    lanes = (2,) + (1,) * len(shape)
    m, m_lo, m_hi = (c.reshape(lanes) for c in (_M, _M_LO, _M_HI))
    key0 = np.stack((k0, k1)).reshape(
        (2,) + (1,) * (len(shape) - k0.ndim) + k0.shape)
    key = np.empty_like(key0)
    # Counter words 0 and 2 are multiplied, words 1 and 3 mixed in by XOR;
    # each pair is held as one array so a round costs one set of ufuncs,
    # all writing into buffers allocated here.
    mul = np.stack((block, stream))
    mix, lo = np.zeros_like(mul), np.empty_like(mul)
    a_lo, a_hi, mid, t = (np.empty_like(mul) for _ in range(4))
    for bump in _BUMPS:
        # the round key: the key bumped by the Weyl increments (uint64
        # addition wraps modulo 2**64)
        np.add(key0, bump.reshape(lanes), out=key)
        # 128-bit products mul * m from 32-bit limbs: lo, and hi in a_hi
        np.multiply(mul, m, out=lo)
        np.bitwise_and(mul, _LOW32, out=a_lo)
        np.right_shift(mul, _SHIFT32, out=a_hi)
        np.multiply(a_lo, m_lo, out=t)
        t >>= _SHIFT32
        np.multiply(a_hi, m_lo, out=mid)
        mid += t
        np.multiply(a_lo, m_hi, out=t)
        np.bitwise_and(mid, _LOW32, out=a_lo)
        t += a_lo
        a_hi *= m_hi
        mid >>= _SHIFT32
        a_hi += mid
        t >>= _SHIFT32
        a_hi += t
        # (c0, c1, c2, c3) -> (hi2 ^ c1 ^ k0, lo2, hi0 ^ c3 ^ k1, lo0)
        np.bitwise_xor(a_hi[::-1], mix, out=mul)
        mul ^= key
        mix, lo = lo[::-1], mix[::-1]
    return np.stack((mul[0], mix[0], mul[1], mix[1]), axis=-1)


def substream_uniforms(seeds, streams, first_blocks, blocks: int) -> np.ndarray:
    """Raw draws of many substreams: ``blocks`` Philox blocks each, as doubles.

    Row ``r`` holds draws ``4 * (first_blocks[r] - 1)`` onward of substream
    ``streams[r]`` of run seed ``seeds[r]`` (or of the one run ``seeds``),
    that is the ``4 * blocks`` values ``substream(seed, stream).random()``
    returns from that point, zeros included. The Philox temporaries hold
    a few words per block computed, so callers bound them by the rows they
    ask for at once.
    """
    seeds, streams, first_blocks = np.broadcast_arrays(
        np.asarray(seeds), np.asarray(streams), np.asarray(first_blocks))
    words = philox4x64(seeds[..., None], streams[..., None],
                       first_blocks[..., None].astype(np.uint64)
                       + np.arange(blocks, dtype=np.uint64))
    words >>= np.uint64(11)
    return words.reshape(words.shape[:-2] + (-1,)) * 2.0 ** -53


def derive_seed(*parts: int | str) -> int:
    """Hash a tuple of labels/indices into a 64-bit run seed.

    String parts are folded in as UTF-8 bytes so call sites can namespace
    streams ("time", second) without colliding with plain indices.
    """
    entropy: list[int] = []
    for part in parts:
        if isinstance(part, str):
            entropy.extend(part.encode("utf-8"))
        else:
            entropy.append(int(part))
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


class UniformStream:
    """Buffered scalar draws on the open interval (0, 1).

    Zero draws (probability 2**-53 per draw) are skipped so that log(u)
    is always finite. Buffering is per-stream with a fixed chunk size,
    which keeps the draw sequence a pure function of (seed, stream index).
    """

    _CHUNK = 128

    __slots__ = ("_random", "_buf", "_pos")

    def __init__(self, generator: np.random.Generator):
        self._random = generator.random
        self._buf = self._random(self._CHUNK)
        self._pos = 0

    def next(self) -> float:
        buf = self._buf
        pos = self._pos
        while True:
            if pos >= buf.shape[0]:
                buf = self._buf = self._random(self._CHUNK)
                pos = 0
            u = buf[pos]
            pos += 1
            if u > 0.0:
                self._pos = pos
                return float(u)
