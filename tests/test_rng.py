"""Tests for the counter-based random streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dustlink.rng import UniformStream, philox4x64, substream, substream_uniforms

seeds = st.integers(0, 2 ** 64 - 1)
streams = st.integers(0, 2 ** 63)
# block 33 onward lies past UniformStream's first 128-draw chunk
blocks = st.integers(1, 200)


class TestPhilox:
    @given(seeds, streams, blocks)
    @settings(max_examples=200, deadline=None)
    def test_words_match_numpy(self, seed, stream, block):
        expected = np.random.Philox(
            key=seed, counter=(block - 1, 0, stream, 0)).random_raw(4)
        assert np.array_equal(philox4x64(seed, stream, block), expected)

    @given(seeds, st.lists(streams, min_size=1, max_size=5), blocks,
           st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_uniforms_match_substream_draws(self, seed, stream_list, first, count):
        draws = substream_uniforms(seed, np.array(stream_list, dtype=np.uint64),
                                   np.full(len(stream_list), first), count)
        assert draws.shape == (len(stream_list), 4 * count)
        for row, stream in zip(draws, stream_list):
            expected = substream(seed, stream).random(4 * (first - 1 + count))
            assert np.array_equal(row, expected[4 * (first - 1):])

    @given(st.lists(st.tuples(seeds, streams, blocks), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_per_row_keys_match_numpy(self, rows):
        seed_list, stream_list, block_list = zip(*rows)
        words = philox4x64(np.array(seed_list, dtype=object),
                           np.array(stream_list, dtype=np.uint64),
                           np.array(block_list))
        for row, (seed, stream, block) in zip(words, rows):
            expected = np.random.Philox(
                key=seed, counter=(block - 1, 0, stream, 0)).random_raw(4)
            assert np.array_equal(row, expected)
        as_words = philox4x64(np.array(seed_list, dtype=np.uint64),
                              np.array(stream_list, dtype=np.uint64),
                              np.array(block_list))
        assert np.array_equal(as_words, words)

    def test_uniforms_of_per_row_seeds(self):
        seed_array = np.array([3, 2 ** 64 - 1, 2 ** 63 + 5, 11, 0], dtype=object)
        stream_array = np.array([0, 5, 2 ** 40, 7, 9])
        first = np.array([1, 3, 2, 40, 1])
        draws = substream_uniforms(seed_array, stream_array, first, 3)
        for row, seed, stream, block in zip(draws, seed_array, stream_array, first):
            expected = substream(seed, stream).random(4 * (block + 2))
            assert np.array_equal(row, expected[4 * (block - 1):])

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


class TestUniformStream:
    def test_zero_draws_skipped(self):
        class Crafted:
            """Generator stand-in whose draws hold zeros at chosen places."""

            def __init__(self):
                self.values = iter([0.0, 0.25, 0.0, 0.0, 0.5] + [0.75] * 300)

            def random(self, n):
                return np.array([next(self.values) for _ in range(n)])

        stream = UniformStream(Crafted())
        assert [stream.next() for _ in range(3)] == [0.25, 0.5, 0.75]
