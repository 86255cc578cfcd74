"""Tests for the counter-based random streams."""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dustlink.errors import DomainError
from dustlink.rng import (ZERO_DRAW, UniformStream, derive_seed, philox4x64,
                          substream, word_uniforms)

seeds = st.integers(0, 2 ** 64 - 1)
streams = st.integers(0, 2 ** 63)
# block 33 onward lies past UniformStream's first 128-draw chunk
blocks = st.integers(1, 200)
# the whole counter range philox4x64 takes
all_streams = st.integers(0, 2 ** 64 - 1)
all_blocks = st.integers(1, 2 ** 64 - 1)


def numpy_words(seed, stream, block):
    """The oracle: numpy's Philox at counter ``(block - 1, 0, stream, 0)``.

    The counter is a uint64 array, as numpy reads a tuple of Python ints
    holding one >= 2**63 as float64 and rounds it.
    """
    counter = np.array([block - 1, 0, stream, 0], dtype=np.uint64)
    return np.random.Philox(key=seed, counter=counter).random_raw(4)


class TestPhilox:
    @given(seeds, all_streams, all_blocks)
    @settings(max_examples=200, deadline=None)
    def test_words_match_numpy(self, seed, stream, block):
        assert np.array_equal(philox4x64(seed, stream, block),
                              numpy_words(seed, stream, block))

    @given(seeds, st.lists(streams, min_size=1, max_size=5), blocks,
           st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_uniforms_match_substream_draws(self, seed, stream_list, first, count):
        words = philox4x64(seed, np.array(stream_list, dtype=np.uint64)[:, None],
                           first + np.arange(count))
        assert words.shape == (len(stream_list), count, 4)
        draws = word_uniforms(words).reshape(len(stream_list), 4 * count)
        for row, stream in zip(draws, stream_list):
            expected = substream(seed, stream).random(4 * (first - 1 + count))
            assert np.array_equal(row, expected[4 * (first - 1):])

    @given(st.lists(st.tuples(seeds, all_streams, all_blocks),
                    min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_per_row_keys_match_numpy(self, rows):
        seed_list, stream_list, block_list = zip(*rows)
        words = philox4x64(np.array(seed_list, dtype=object),
                           np.array(stream_list, dtype=np.uint64),
                           np.array(block_list, dtype=object))
        assert words.shape == (len(rows), 4)
        for row, (seed, stream, block) in zip(words, rows):
            assert np.array_equal(row, numpy_words(seed, stream, block))
        as_words = philox4x64(np.array(seed_list, dtype=np.uint64),
                              np.array(stream_list, dtype=np.uint64),
                              np.array(block_list, dtype=np.uint64))
        assert np.array_equal(as_words, words)

    def test_uniforms_of_per_row_seeds(self):
        seed_array = np.array([3, 2 ** 64 - 1, 2 ** 63 + 5, 11, 0], dtype=object)
        stream_array = np.array([0, 5, 2 ** 40, 7, 9])
        first = np.array([1, 3, 2, 40, 1])
        draws = word_uniforms(philox4x64(seed_array[:, None], stream_array[:, None],
                                         first[:, None] + np.arange(3))).reshape(5, 12)
        for row, seed, stream, block in zip(draws, seed_array, stream_array, first):
            expected = substream(seed, stream).random(4 * (block + 2))
            assert np.array_equal(row, expected[4 * (block - 1):])

    @pytest.mark.parametrize("blocks", [1, 3])
    def test_uniforms_of_no_rows(self, blocks):
        words = philox4x64(np.empty((0, 1), dtype=np.uint64),
                           np.empty((0, 1), dtype=np.int64), np.arange(1, blocks + 1))
        assert word_uniforms(words).shape == (0, blocks, 4)

    def test_known_words(self):
        # oracle: the ROADMAP check, seed 123456789, packet 17, draws 0-3
        raw = np.random.Philox(key=123456789, counter=(0, 0, 17, 0)).random_raw(4)
        assert np.array_equal(philox4x64(123456789, 17, 1), raw)

    def test_broadcast_shape(self):
        words = philox4x64(3, np.arange(5)[:, None], np.arange(1, 4))
        assert words.shape == (5, 3, 4)
        assert np.array_equal(words[2, 1], philox4x64(3, 2, 2))

    @pytest.mark.parametrize("seed", [-1, 2 ** 128, np.array([1, -1]),
                                      np.array([0, 2 ** 128], dtype=object),
                                      2 ** 64, np.array([0, 2 ** 64], dtype=object),
                                      1.5])
    def test_key_range(self, seed):
        with pytest.raises(ValueError):
            philox4x64(seed, 0, 1)

    @pytest.mark.parametrize("stream", [
        -1, np.array([-1]), np.array([0, -5], dtype=np.int32), 2 ** 64,
        np.array([1, 2 ** 64], dtype=object), 1.5, np.array([0.0]), True])
    def test_stream_range(self, stream):
        # an int64 -1 once read as stream 2**64 - 1
        with pytest.raises(ValueError, match="stream must be an int"):
            philox4x64(3, stream, 1)

    @pytest.mark.parametrize("block", [
        0, -1, np.array([1, 0]), np.array([3, 0], dtype=np.uint64), 2 ** 64,
        np.array([1, 2 ** 64], dtype=object), 2.0, np.array([True])])
    def test_block_range(self, block):
        # block 0 once read counter 2**64 - 1
        with pytest.raises(ValueError, match="block must be an int"):
            philox4x64(3, 0, block)

    def test_range_ends_accepted(self):
        top = 2 ** 64 - 1
        assert np.array_equal(philox4x64(top, top, top),
                              numpy_words(top, top, top))
        for first in (top - 1, 2 ** 63 - 1):
            blocks = np.array([first, first + 1], dtype=np.uint64)
            draws = word_uniforms(philox4x64(3, 4, blocks)).reshape(-1)
            words = np.concatenate([numpy_words(3, 4, first + k) for k in range(2)])
            assert np.array_equal(draws, word_uniforms(words))

    @pytest.mark.parametrize("n", [0, 1, 2, 8193])
    def test_row_counts(self, n):
        rows = np.random.default_rng(n)
        seed_list = rows.integers(0, 2 ** 64, n, dtype=np.uint64)
        stream_list = rows.integers(0, 2 ** 64, n, dtype=np.uint64)
        block_list = rows.integers(1, 2 ** 64, n, dtype=np.uint64)
        words = philox4x64(seed_list, stream_list, block_list)
        assert words.shape == (n, 4) and words.dtype == np.uint64
        for i in {0, n // 2, n - 1} if n else ():
            assert np.array_equal(words[i], numpy_words(
                int(seed_list[i]), int(stream_list[i]), int(block_list[i])))

    def test_word_order(self):
        # column j of the (n, 4) result is word j of each row's block
        words = philox4x64(7, np.arange(3), np.array([1, 9, 2 ** 40]))
        for j in range(4):
            assert np.array_equal(words[:, j], [
                numpy_words(7, stream, block)[j]
                for stream, block in ((0, 1), (1, 9), (2, 2 ** 40))])

    def test_nd_broadcast_of_all_inputs(self):
        seed_grid = np.array([[1], [2 ** 64 - 1]], dtype=np.uint64)[:, :, None]
        stream_grid = np.array([0, 2 ** 63 + 1], dtype=np.uint64)[None, :, None]
        block_grid = np.array([1, 5, 2 ** 64 - 1], dtype=np.uint64)
        words = philox4x64(seed_grid, stream_grid, block_grid)
        assert words.shape == (2, 2, 3, 4)
        for i, j, k in np.ndindex(2, 2, 3):
            assert np.array_equal(words[i, j, k], numpy_words(
                int(seed_grid[i, 0, 0]), int(stream_grid[0, j, 0]),
                int(block_grid[k])))

    def test_out_buffer(self):
        out = np.empty(70, dtype=np.uint64)
        words = philox4x64(3, np.arange(5)[:, None], np.arange(1, 4), out=out)
        assert words.shape == (5, 3, 4)
        assert np.shares_memory(words, out)
        assert np.array_equal(words, philox4x64(3, np.arange(5)[:, None],
                                                np.arange(1, 4)))

    def test_kept_scratch_over_lane_counts(self):
        # a call of fewer lanes reuses the scratch of a larger one, and a
        # call past the kept size allocates its own
        lanes = np.random.default_rng(5)
        out = np.empty(4 * 9000, dtype=np.uint64)
        for n in (8192, 3, 9000, 1):
            seed_list, stream_list = (lanes.integers(0, 2 ** 64, n, dtype=np.uint64)
                                      for _ in range(2))
            block_list = lanes.integers(1, 2 ** 64, n, dtype=np.uint64)
            expected = [numpy_words(int(seed), int(stream), int(block))
                        for seed, stream, block
                        in zip(seed_list, stream_list, block_list)]
            for given_out in (None, out):
                assert np.array_equal(philox4x64(seed_list, stream_list,
                                                 block_list, out=given_out),
                                      expected)

    @pytest.mark.parametrize("out", [
        np.empty(4 * 6 - 1, dtype=np.uint64), np.empty(4 * 6, dtype=np.int64),
        np.empty(8 * 6, dtype=np.uint64)[::2],
        np.empty((4, 6), dtype=np.uint64), list(range(4 * 6))])
    def test_bad_out_rejected(self, out):
        with pytest.raises(ValueError, match="out must be"):
            philox4x64(3, np.arange(6), 1, out=out)

    def test_threads_keep_their_scratch(self):
        # two threads at once each get the words they get alone
        calls = [(seed, np.arange(n, dtype=np.uint64), np.full(n, 7, dtype=np.uint64))
                 for seed, n in ((11, 8192), (12, 5000))]
        alone = [philox4x64(*call) for call in calls]

        def repeat(i):
            return all(np.array_equal(philox4x64(*calls[i]), alone[i])
                       for _ in range(40))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(repeat, i) for i in (0, 1)]
                assert [f.result(timeout=120) for f in futures] == [True, True]
        finally:
            sys.setswitchinterval(interval)

    def test_call_with_out_allocates_little(self):
        n = 8192
        seed_list, stream_list, block_list = (
            np.arange(1, n + 1, dtype=np.uint64) * k for k in (3, 5, 7))
        out = np.empty(4 * n, dtype=np.uint64)
        philox4x64(seed_list, stream_list, block_list, out=out)   # warm-up
        tracemalloc.start()
        try:
            philox4x64(seed_list, stream_list, block_list, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the limb scratch alone is 15 * 8192 words, 960 KiB
        assert peak < 64 * 1024

    def test_word_uniforms(self):
        words = np.array([0, 2047, 2048, 2 ** 64 - 1], dtype=np.uint64)
        draws = word_uniforms(words)
        assert draws.tolist() == [ZERO_DRAW, ZERO_DRAW, 2.0 ** -53,
                                  1.0 - 2.0 ** -53]
        assert words.tolist() == [0, 2047, 2048, 2 ** 64 - 1]


class TestSubstream:
    @pytest.mark.parametrize("stream", [0, 17, 2 ** 63 + 1, 2 ** 64 - 1,
                                        np.uint64(2 ** 64 - 1)])
    def test_words_match_philox(self, stream):
        # a tuple counter read an index >= 2**63 as float64 and rounded it,
        # and 2**64 - 1 warned of an invalid cast
        raw = substream(1, stream).bit_generator.random_raw(4)
        assert np.array_equal(raw, philox4x64(1, int(stream), 1))

    @pytest.mark.parametrize("stream", [-1, 2 ** 64, 1.0, True, "3", None])
    def test_bad_index_rejected(self, stream):
        with pytest.raises(DomainError, match="stream index must be an int"):
            substream(1, stream)

    @pytest.mark.parametrize("seed", [0, 2 ** 128 - 1, np.uint64(2 ** 64 - 1),
                                      np.int8(5)])
    def test_seed_range_ends_accepted(self, seed):
        counter = np.array([0, 0, 3, 0], dtype=np.uint64)
        raw = np.random.Philox(key=int(seed), counter=counter).random_raw(4)
        assert np.array_equal(substream(seed, 3).bit_generator.random_raw(4), raw)

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, np.bool_(True), "5", None,
                                      -1, np.int64(-1), 2 ** 128])
    def test_bad_seed_rejected(self, seed):
        # 1.5 and True once read seed 1's stream, "5" seed 5's, None OS
        # entropy, and 2**128 leaked numpy's ValueError
        with pytest.raises(DomainError, match="seed must be an int"):
            substream(seed, 0)


class TestDeriveSeed:
    def test_numpy_integers_equal_ints(self):
        assert derive_seed(np.int64(5), "time", np.uint8(3)) == derive_seed(5, "time", 3)

    def test_large_ints_accepted(self):
        assert derive_seed(2 ** 128 - 1, 0) != derive_seed(0, 0)

    @pytest.mark.parametrize("part", [1.5, 1.0, True, np.bool_(False), -1,
                                      np.int64(-2), None, b"time"])
    def test_bad_part_rejected(self, part):
        # 1.5 and True once hashed as 1; -1 leaked numpy's ValueError
        with pytest.raises(DomainError, match="seed part"):
            derive_seed(3, part)


class TestUniformStream:
    def test_zero_draws_read_as_zero_draw(self):
        class Crafted:
            """Generator stand-in whose draws hold zeros at chosen places."""

            def __init__(self):
                self.values = iter([0.0, 0.25, 0.0, 0.0, 0.5] + [0.75] * 300)

            def random(self, n):
                return np.array([next(self.values) for _ in range(n)])

        stream = UniformStream(Crafted())
        assert ZERO_DRAW == 2.0 ** -54
        assert [stream.next() for _ in range(6)] == [
            ZERO_DRAW, 0.25, ZERO_DRAW, ZERO_DRAW, 0.5, 0.75]
