"""Counter-based random streams for reproducible parallel Monte Carlo.

All randomness in the package flows through Philox, a counter-based
generator. A 64-bit run seed keys the generator and independent substreams
are obtained by placing a stream index in the third word of the 256-bit
counter, which separates streams by 2**128 blocks. Results are therefore
identical no matter how work is split across workers.

Substream contract: draw ``j`` of substream ``i`` (counting every raw
word, zeros included) is word ``j % 4`` of the Philox4x64-10 block with
counter ``(1 + j // 4, 0, i, 0)`` under key ``(seed, 0)``, mapped to
``(x >> 11) * 2**-53``. ``substream`` + ``UniformStream`` consume it one
draw at a time; ``substream_uniforms`` computes any blocks of many
substreams at once in numpy (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11).
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


def substream(seed: int, stream_index: int) -> np.random.Generator:
    """Generator for one independent substream of a seeded run.

    Equivalent to ``Philox(key=seed).jumped(stream_index)`` but cheaper to
    construct.
    """
    bitgen = np.random.Philox(key=seed, counter=(0, 0, stream_index, 0))
    return np.random.Generator(bitgen)


def _mulhilo(a: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products a * m, via 32-bit limbs."""
    m_lo = m & _LOW32
    m_hi = m >> _SHIFT32
    a_lo = a & _LOW32
    a_hi = a >> _SHIFT32
    lo_lo = a_lo * m_lo
    mid = a_hi * m_lo + (lo_lo >> _SHIFT32)
    mid2 = a_lo * m_hi + (mid & _LOW32)
    hi = a_hi * m_hi + (mid >> _SHIFT32) + (mid2 >> _SHIFT32)
    return hi, a * m


def philox4x64(seed: int, streams, blocks) -> np.ndarray:
    """Philox4x64-10 words of counter ``(block, 0, stream, 0)``, key ``(seed, 0)``.

    ``streams`` and ``blocks`` broadcast against each other; the result has
    their broadcast shape plus a trailing axis of the 4 output words, which
    equal ``Philox(key=seed, counter=(block - 1, 0, stream, 0)).random_raw(4)``
    bit for bit. Seeds up to 2**128 fill both key words, as in numpy.
    """
    if not 0 <= seed < 1 << 128:
        raise ValueError("key must be positive and less than 2**128.")
    block, stream = np.broadcast_arrays(np.asarray(blocks, dtype=np.uint64),
                                        np.asarray(streams, dtype=np.uint64))
    lanes = (2,) + (1,) * block.ndim
    m = np.array(_PHILOX_M, dtype=np.uint64).reshape(lanes)
    # Counter words 0 and 2 are multiplied, words 1 and 3 mixed in by XOR;
    # each pair is held as one array so a round costs one set of ufuncs.
    mul = np.stack((block, stream))
    mix = np.uint64(0)
    k0, k1 = seed & _MASK64, seed >> 64
    for _ in range(_PHILOX_ROUNDS):
        hi, lo = _mulhilo(mul, m)
        key = np.array((k0, k1), dtype=np.uint64).reshape(lanes)
        # (c0, c1, c2, c3) -> (hi2 ^ c1 ^ k0, lo2, hi0 ^ c3 ^ k1, lo0)
        mul, mix = hi[::-1] ^ mix ^ key, lo[::-1]
        k0 = (k0 + _PHILOX_W[0]) & _MASK64
        k1 = (k1 + _PHILOX_W[1]) & _MASK64
    return np.stack((mul[0], mix[0], mul[1], mix[1]), axis=-1)


def substream_uniforms(seed: int, streams, first_blocks, blocks: int) -> np.ndarray:
    """Raw draws of many substreams: ``blocks`` Philox blocks each, as doubles.

    Row ``r`` holds draws ``4 * (first_blocks[r] - 1)`` onward of substream
    ``streams[r]``, that is the ``4 * blocks`` values ``substream(seed,
    streams[r]).random()`` returns from that point, zeros included.
    """
    block_index = (np.asarray(first_blocks, dtype=np.uint64)[..., None]
                   + np.arange(blocks, dtype=np.uint64))
    words = philox4x64(seed, np.asarray(streams)[..., None], block_index)
    return (words >> np.uint64(11)).reshape(words.shape[:-2] + (-1,)) * 2.0 ** -53


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
