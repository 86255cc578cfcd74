"""Tests for the Monte Carlo packet transport."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dustlink.link as link
import dustlink.rng as rng
import dustlink.transport as transport
from dustlink.errors import DomainError
from dustlink.link import LinkConfig, default_time_counts, run_time_scenario
from dustlink.presets import MARS
from dustlink.rng import ZERO_DRAW, philox4x64, substream, word_uniforms
from dustlink.transport import (FATES, FateCounts, TransportConfig, estimate_batch,
                                estimate_transmittance, sample_scatter_angles,
                                trace_packet, update_direction)


def config(**kwargs) -> TransportConfig:
    base = dict(distance_m=10.0, packet_count=2000, extinction_per_m=0.25,
                seed=11)
    base.update(kwargs)
    return TransportConfig(**base)


class TestScatterAngles:
    def test_isotropic_median(self):
        theta, phi = sample_scatter_angles(0.5, 0.25, 0.0)
        assert theta == pytest.approx(math.pi / 2, rel=1e-12)
        assert phi == pytest.approx(math.pi / 2, rel=1e-12)

    def test_forward_endpoint(self):
        # oracle: hand evaluation at nu=1, g=0.5 gives cos(theta)=1
        theta, _ = sample_scatter_angles(1.0, 0.0, 0.5)
        assert theta == 0.0

    def test_backward_endpoint(self):
        # oracle: hand evaluation at nu=0, g=0.5 gives cos(theta) = 1.25 - 2.25
        theta, _ = sample_scatter_angles(0.0, 0.0, 0.5)
        assert theta == pytest.approx(math.pi, rel=1e-12)

    def test_pure_forward_limit(self):
        theta, _ = sample_scatter_angles(0.3, 0.9, 1.0)
        assert theta == 0.0

    def test_array_draws_in_range(self):
        rng = substream(5, 0)
        theta, phi = sample_scatter_angles(rng.random(10_000), rng.random(10_000), 0.7)
        assert np.all((theta >= 0) & (theta <= math.pi))
        assert np.all((phi >= 0) & (phi < 2 * math.pi))

    def test_mean_cosine_matches_asymmetry(self):
        # first-moment oracle: E[cos theta] = g within 3 standard errors
        rng = substream(7, 0)
        n = 400_000
        theta, _ = sample_scatter_angles(rng.random(n), rng.random(n), 0.6)
        cos = np.cos(theta)
        se = cos.std(ddof=1) / math.sqrt(n)
        assert abs(cos.mean() - 0.6) < 3 * se

    @pytest.mark.parametrize("nu, chi, g", [
        (0.5, 0.5, math.nan), (math.nan, 0.5, 0.5), (0.5, math.nan, 0.5),
        (np.array([0.5, math.nan]), np.array([0.5, 0.5]), 0.5),
        (np.array([0.5, 0.5]), np.array([0.5, 0.5]), np.array([0.5, math.nan])),
    ], ids=["g", "nu", "chi", "nu_array", "g_array"])
    def test_nan_rejected(self, nu, chi, g):
        # a NaN once passed the range checks and came back as theta or phi
        with pytest.raises(DomainError):
            sample_scatter_angles(nu, chi, g)

    @pytest.mark.parametrize("nu, chi, g", [
        ("0.5", 0.5, 0.5), (0.5, "0.5", 0.5), (0.5, 0.5, "0.5"),
        (True, 0.5, 0.5), (0.5, False, 0.5), (0.5, 0.5, True),
        (np.array([0.5, 0.5]), np.array([True, False]), 0.5),
        (np.array(["0.5"]), np.array([0.5]), 0.5),
        (0.5, 0.5, None),
    ], ids=["str_nu", "str_chi", "str_g", "bool_nu", "bool_chi", "bool_g",
            "bool_array", "str_array", "none_g"])
    def test_non_real_kind_rejected(self, nu, chi, g):
        # ("0.5", 0.5, 0.5) once gave (0.813, pi), (True, 0.5, 0.5) (0, pi)
        with pytest.raises(DomainError, match="must be real"):
            sample_scatter_angles(nu, chi, g)

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_angles_always_in_range(self, nu, chi, g):
        theta, phi = sample_scatter_angles(nu, chi, g)
        assert 0.0 <= theta <= math.pi
        assert 0.0 <= phi <= 2 * math.pi


class TestUpdateDirection:
    def test_polar_axis_branch(self):
        assert update_direction((1.0, 0.0, 0.0), math.pi / 2, 0.0) == \
            pytest.approx((0.0, 1.0, 0.0), abs=1e-15)

    def test_identity_rotation(self):
        mu = (0.6, 0.64, 0.48)
        norm = math.sqrt(sum(c * c for c in mu))
        mu = tuple(c / norm for c in mu)
        out = update_direction(mu, 0.0, 1.3)
        assert out == pytest.approx(mu, abs=1e-12)

    def test_general_branch_hand_value(self):
        # oracle: term-by-term evaluation of the rotation at mu=(0,1,0)
        out = update_direction((0.0, 1.0, 0.0), math.pi / 2, 0.0)
        assert out == pytest.approx((-1.0, 0.0, 0.0), abs=1e-15)

    def test_non_unit_input_rejected(self):
        with pytest.raises(DomainError):
            update_direction((1.0, 1.0, 0.0), 0.1, 0.1)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("theta", [math.pi / 2 + 0.1, 2 * math.pi / 3,
                                       0.9 * math.pi, math.pi])
    def test_polar_axis_backscatter(self, sign, theta):
        # a scatter past 90 degrees about +-X once came out forward again
        out = update_direction((sign, 0.0, 0.0), theta, 0.7)
        assert out[0] == pytest.approx(sign * math.cos(theta), rel=1e-12)

    @given(polar=st.one_of(st.sampled_from([0.0, math.pi]),
                           st.floats(0.0, math.pi)),
           azimuth=st.floats(0.0, 2 * math.pi),
           theta=st.floats(0.1, math.pi - 0.1),
           phi=st.floats(0.0, 2 * math.pi))
    @example(polar=0.0, azimuth=0.0, theta=3.0, phi=1.0)
    @settings(deadline=None)
    def test_agrees_with_wave_kernel_rotation(self, polar, azimuth, theta, phi):
        # the kernel's x cosine is the 3D update's, whatever (my, mz) are
        mu = (math.cos(polar), math.sin(polar) * math.cos(azimuth),
              math.sin(polar) * math.sin(azimuth))
        kernel = transport._rotate(np.array([mu[0]]), np.array([math.cos(theta)]),
                                   np.array([phi]))
        assert update_direction(mu, theta, phi)[0] == pytest.approx(
            float(kernel[0]), rel=0.0, abs=1e-12)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_norm_preserved_over_chain(self, seed):
        rng = substream(seed, 0)
        mu = (1.0, 0.0, 0.0)
        for _ in range(50):
            theta = float(rng.random() * math.pi)
            phi = float(rng.random() * 2 * math.pi)
            mu = update_direction(mu, theta, phi)
            assert abs(math.sqrt(sum(c * c for c in mu)) - 1.0) < 1e-9


class TestTracePacket:
    def test_free_flight(self):
        assert trace_packet(config(extinction_per_m=0.0), 0) == ("reached", 1.0, 0)

    def test_forward_scattering_telescopes_to_beer_lambert(self):
        cfg = config(extinction_per_m=0.3, g_lo=1.0, g_hi=1.0)
        for i in range(50):
            fate, contribution, _ = trace_packet(cfg, i)
            assert fate == "reached"
            assert contribution == pytest.approx(math.exp(-3.0), abs=1e-12)

    def test_deterministic_per_packet(self):
        cfg = config()
        assert trace_packet(cfg, 17) == trace_packet(cfg, 17)

    def test_contribution_in_unit_interval(self):
        cfg = config(extinction_per_m=1.0)
        for i in range(200):
            _, contribution, _ = trace_packet(cfg, i)
            assert 0.0 <= contribution <= 1.0

    def test_index_beyond_count_rejected(self):
        with pytest.raises(DomainError):
            trace_packet(config(packet_count=10), 10)


class TestEstimateTransmittance:
    def test_clear_sky_identity(self):
        result = estimate_transmittance(config(extinction_per_m=0.0))
        assert result.transmittance == 1.0
        assert result.attenuation_db_per_m == 0.0

    def test_forward_limit(self):
        result = estimate_transmittance(config(
            extinction_per_m=0.3, g_lo=1.0, g_hi=1.0))
        assert result.transmittance == pytest.approx(math.exp(-3.0), abs=1e-9)
        assert result.attenuation_db_per_m == pytest.approx(1.3029, abs=1e-4)
        # attenuation identity recomputed along the same path
        assert result.attenuation_db_per_m == -4.343 * math.log(
            result.transmittance) / 10.0

    def test_fate_counts_sum_to_packets(self):
        result = estimate_transmittance(config(extinction_per_m=1.5))
        assert result.fates.total() == 2000

    def test_opaque_slab_reports_infinite_attenuation(self):
        result = estimate_transmittance(config(extinction_per_m=50.0))
        assert result.transmittance == 0.0
        assert result.attenuation_db_per_m == math.inf

    @pytest.mark.filterwarnings("error")
    def test_subnormal_extinction_crosses(self):
        # the free path overflows to inf, and every packet crosses, as in
        # trace_packet
        result = estimate_transmittance(TransportConfig(10.0, 5, 1e-310))
        assert result.transmittance == 1.0
        assert result.fates.reached == 5

    def test_batch_split_invariance(self):
        cfgs = [config(packet_count=600, seed=s, extinction_per_m=c)
                for s, c in ((1, 0.25), (2, 1.0), (3, 0.0), (4, 2.5))]
        whole = estimate_batch(cfgs)
        assert whole == estimate_batch(cfgs[:1]) + estimate_batch(cfgs[1:])
        assert whole == estimate_batch(cfgs[::-1])[::-1]
        assert whole == [estimate_transmittance(cfg) for cfg in cfgs]

    def test_statistical_monotonicity(self):
        # averaged over seeds, transmittance falls with extinction and distance
        def mean_t(cext, distance):
            values = [estimate_transmittance(config(
                extinction_per_m=cext, distance_m=distance,
                packet_count=1000, seed=s)).transmittance for s in range(10)]
            return sum(values) / len(values)

        assert mean_t(0.1, 10.0) > mean_t(0.4, 10.0) > mean_t(1.0, 10.0)
        assert mean_t(0.3, 5.0) > mean_t(0.3, 10.0) > mean_t(0.3, 20.0)

    def test_seed_echo_and_mean_events(self):
        result = estimate_transmittance(config(seed=99))
        assert result.seed == 99
        assert result.mean_events > 0


class TestWaveKernel:
    """The wave kernel against the scalar reference ``trace_packet``, packet
    by packet.

    ``np.exp``/``np.log`` may differ from ``math`` in the last bit, so
    contributions agree within float64 eps times the event bound; fates and
    event counts are equal.
    """

    @staticmethod
    def assert_matches_reference(cfg):
        (contributions,), (fates,), events = transport._trace_packets([cfg])
        reference = [trace_packet(cfg, i) for i in range(cfg.packet_count)]
        assert [FATES[f] for f in fates] == [fate for fate, _, _ in reference]
        assert events[0] == sum(n for _, _, n in reference)
        np.testing.assert_allclose(
            contributions, [c for _, c, _ in reference], rtol=1e-12, atol=0.0)

    # each asymmetry is the (g_lo, g_hi) keywords; {} is the default range
    @pytest.mark.parametrize("asymmetry", [
        {}, dict(g_lo=0.0, g_hi=1.0), dict(g_lo=0.0, g_hi=0.0),
        dict(g_lo=0.7, g_hi=0.7), dict(g_lo=1.0, g_hi=1.0),
        dict(g_lo=0.3, g_hi=0.3), dict(g_lo=0.6, g_hi=0.6),
        dict(g_lo=0.9, g_hi=0.9)])
    @pytest.mark.parametrize("cext", [0.05, 0.25, 2.5, 50.0])
    def test_matches_reference(self, asymmetry, cext):
        self.assert_matches_reference(config(
            packet_count=300, extinction_per_m=cext, **asymmetry))

    def test_all_fates_covered(self):
        # a small event guard and a high weight threshold
        cfg = config(packet_count=400, extinction_per_m=0.4, max_events=6,
                     weight_threshold=0.01, g_lo=0.0, g_hi=1.0)
        self.assert_matches_reference(cfg)
        fates = estimate_transmittance(cfg).fates
        assert min(vars(fates).values()) > 0

    def test_range_split_into_wave_batches(self, monkeypatch):
        cfg = config(packet_count=100, extinction_per_m=1.0)
        whole = estimate_transmittance(cfg)
        monkeypatch.setattr(transport, "_WAVE_ROWS", 7)
        assert estimate_transmittance(cfg) == whole

    @pytest.mark.parametrize("wave_rows", [None, 7, 64])
    def test_every_refill_follows_the_lookahead_rule(self, monkeypatch, wave_rows):
        # a trace of 1000 packets, one of 400 at two depths and one of 300;
        # None keeps the default _WAVE_ROWS, where all 1700 are admitted at
        # once, and the small ones admit packets over many refills
        cfgs = [config(packet_count=1000, seed=3),
                config(packet_count=400, extinction_per_m=0.25, seed=5),
                config(packet_count=400, extinction_per_m=1.0, seed=5),
                config(packet_count=300, seed=7)]
        whole = estimate_batch(cfgs)
        if wave_rows is not None:
            monkeypatch.setattr(transport, "_WAVE_ROWS", wave_rows)
        calls = []
        # the draw contract: each (seed, stream) asks for blocks 1, 2, 3, ...
        # in order, each once, and its stream is below its run's packet count
        packets = {cfg.seed: cfg.packet_count for cfg in cfgs}
        next_block = {}

        def counted(seeds, streams, blocks, out=None):
            words = philox4x64(seeds, streams, blocks, out=out)
            calls.append((words.shape[0], len(streams)))
            for seed, stream, asked in zip(seeds.tolist(), streams.tolist(),
                                           blocks.T.tolist()):
                assert 0 <= stream < packets[seed]
                start = next_block.get((seed, stream), 1)
                assert asked == list(range(start, start + len(asked)))
                next_block[seed, stream] = start + len(asked)
            return words

        monkeypatch.setattr(rng, "philox4x64", counted)
        assert estimate_batch(cfgs) == whole
        assert calls
        for ahead, live in calls:
            assert ahead == min(transport._WAVE_ROWS // live, transport._AHEAD)
        assert set(next_block) == {(seed, i) for seed, m in packets.items()
                                   for i in range(m)}

    def test_zero_words_read_as_zero_draw(self, monkeypatch):
        # Words that map to draw 0 (probability 2**-53) are planted below
        # the zero rule, as Philox words (0 and 2047 >> 11 are both 0), at
        # each of an event's step, g, nu and chi words. Event n reads
        # block n; ``zeros`` maps (stream, block) to {word index: word}.
        zeros = {(0, 1): {0: 0}, (1, 1): {1: 2047}, (2, 2): {2: 0},
                 (3, 1): {3: 0}, (3, 3): {3: 2047}, (4, 2): {1: 0, 2: 0, 3: 0}}

        def planted(seeds, streams, blocks, out=None):
            words = philox4x64(seeds, streams, blocks, out=out)
            streams, blocks = (np.broadcast_to(a, words.shape[:-1])
                               for a in (streams, blocks))
            for (stream, block), cols in zeros.items():
                hit = (streams == stream) & (blocks == block)
                for col, word in cols.items():
                    words[hit, col] = word
            return words

        class PlantedGenerator:
            """``substream`` stand-in: raw draws, zeros and all."""

            def __init__(self, seed, stream):
                self.seed, self.stream, self.block = seed, stream, 1

            def random(self, n):
                blocks = np.arange(self.block, self.block + n // 4)
                self.block += n // 4
                words = planted(self.seed, self.stream, blocks)
                return (words >> np.uint64(11)).reshape(-1) * 2.0 ** -53

        monkeypatch.setattr(rng, "philox4x64", planted)
        monkeypatch.setattr(transport, "substream", PlantedGenerator)
        draws = word_uniforms(rng.philox4x64(11, np.arange(6)[:, None],
                                             np.arange(1, 4))).reshape(6, 12)
        planted_at = [(stream, 4 * (block - 1) + col)
                      for (stream, block), cols in zeros.items() for col in cols]
        for stream, j in planted_at:
            assert draws[stream, j] == ZERO_DRAW
        assert np.count_nonzero(draws == ZERO_DRAW) == len(planted_at)
        for asymmetry in (dict(g_lo=0.7, g_hi=0.7), {}):
            cfg = config(packet_count=6, extinction_per_m=2.5, **asymmetry)
            self.assert_matches_reference(cfg)
            # a zero step word is a free path of 54 ln 2 / C = 15 m > D
            assert trace_packet(cfg, 0) == ("reached", math.exp(-25.0), 0)


    def test_zero_turn_words_read_as_zero_draw(self, monkeypatch):
        # Zero g, nu and chi words in every packet's first block. At g in
        # [0, 1] a g draw of ZERO_DRAW takes the Henyey-Greenstein branch
        # (cosine 0 at nu = ZERO_DRAW) and a raw 0 the isotropic one
        # (cosine -1), so a kernel that skips the zero rule on these words
        # leaves the reference's path.
        def planted(seeds, streams, blocks, out=None):
            words = philox4x64(seeds, streams, blocks, out=out)
            first = np.broadcast_to(blocks, words.shape[:-1]) == 1
            words[first, 1:] = 0
            return words

        class PlantedGenerator:
            """``substream`` stand-in: raw draws, zeros and all."""

            def __init__(self, seed, stream):
                self.seed, self.stream, self.block = seed, stream, 1

            def random(self, n):
                blocks = np.arange(self.block, self.block + n // 4)
                self.block += n // 4
                words = planted(self.seed, self.stream, blocks)
                return (words >> np.uint64(11)).reshape(-1) * 2.0 ** -53

        monkeypatch.setattr(rng, "philox4x64", planted)
        monkeypatch.setattr(transport, "substream", PlantedGenerator)
        self.assert_matches_reference(config(
            packet_count=50, extinction_per_m=2.5, g_lo=0.0, g_hi=1.0))


class TestEstimateBatch:
    """A batch of runs against each run alone and against the scalar reference."""

    @staticmethod
    def mixed_configs():
        # two asymmetry ranges and two event guards, each seed under both
        # ranges, seeds up to 2**64 - 1, zero extinction and per-run
        # distances and packet counts
        rows = [
            (dict(seed=0, extinction_per_m=0.25), {}),
            (dict(seed=2 ** 64 - 1, extinction_per_m=0.0, packet_count=40), {}),
            (dict(seed=2 ** 63 + 7, extinction_per_m=2.5, distance_m=3.0), {}),
            (dict(seed=12345, extinction_per_m=0.7, packet_count=95), {}),
            (dict(seed=9, extinction_per_m=40.0, distance_m=0.2), {}),
            (dict(seed=77, extinction_per_m=0.4, packet_count=130),
             dict(max_events=6)),
            (dict(seed=2 ** 64 - 2, extinction_per_m=1.2), dict(max_events=6)),
            (dict(seed=5, extinction_per_m=0.0), dict(max_events=6)),
        ]
        out = []
        for g_lo, g_hi in ((0.0, 1.0), (0.6, 0.6)):
            for run, kernel in rows:
                out.append(config(**{"packet_count": 120, "g_lo": g_lo, "g_hi": g_hi,
                                     **run, **kernel}))
        return out

    def test_equals_each_run_alone(self):
        cfgs = self.mixed_configs()
        batch = estimate_batch(cfgs)
        for cfg, result in zip(cfgs, batch):
            alone = estimate_transmittance(cfg)
            assert result.transmittance == alone.transmittance
            assert result.fates == alone.fates
            assert result.mean_events == alone.mean_events
            assert result == alone

    def test_one_kernel_call_per_batch(self, monkeypatch):
        # the batch mixes asymmetry ranges and event guards, and repeats
        # seeds across them, yet is one call; each run still gives what it
        # gives traced alone
        cfgs = self.mixed_configs()
        alone = [estimate_transmittance(cfg) for cfg in cfgs]
        trace_packets, calls = transport._trace_packets, []

        def counted(runs):
            calls.append(len(runs))
            return trace_packets(runs)

        monkeypatch.setattr(transport, "_trace_packets", counted)
        assert estimate_batch(cfgs) == alone
        assert calls == [len(cfgs)]

    def test_matches_scalar_reference(self):
        cfgs = self.mixed_configs()
        for cfg, result in zip(cfgs, estimate_batch(cfgs)):
            reference = [trace_packet(cfg, i) for i in range(cfg.packet_count)]
            counts = [sum(fate == name for fate, _, _ in reference) for name in FATES]
            assert list(vars(result.fates).values()) == counts
            assert result.mean_events == sum(n for _, _, n in reference) / cfg.packet_count
            assert result.transmittance == pytest.approx(
                sum(c for _, c, _ in reference) / cfg.packet_count, rel=1e-12, abs=0.0)

    def test_row_cap_crosses_runs(self, monkeypatch):
        # 7 live rows admit packets of several runs together
        cfgs = self.mixed_configs()
        whole = estimate_batch(cfgs)
        monkeypatch.setattr(transport, "_WAVE_ROWS", 7)
        assert estimate_batch(cfgs) == whole

    def test_blocks_read_ahead_keep_every_result(self, monkeypatch):
        # An opaque run and a thin one whose tail spans many waves with few
        # live packets. However many blocks a call computes ahead, every
        # result is that of any other row cap, and no call exceeds the cap.
        cfgs = [config(packet_count=150, extinction_per_m=40.0, seed=3),
                config(packet_count=150, extinction_per_m=0.1, distance_m=30.0,
                       seed=4)]
        shapes = []

        def counting(seeds, streams, blocks, out=None):
            words = philox4x64(seeds, streams, blocks, out=out)
            shapes.append(words.shape[:-1])   # (blocks ahead, live packets)
            return words

        monkeypatch.setattr(rng, "philox4x64", counting)
        whole = estimate_batch(cfgs)
        assert max(math.prod(shape) for shape in shapes) <= transport._WAVE_ROWS
        # every packet is admitted in wave 1, and a packet reads one block a
        # wave: n + 1 if it ends on its step after n events, else n
        waves = max(n + (fate in ("reached", "backscatter_exit"))
                    for cfg in cfgs for fate, _, n in (
                        trace_packet(cfg, i) for i in range(cfg.packet_count)))
        assert len(shapes) < waves
        for rows in (1, 3, 64):
            shapes.clear()
            monkeypatch.setattr(transport, "_WAVE_ROWS", rows)
            assert estimate_batch(cfgs) == whole
            assert max(math.prod(shape) for shape in shapes) <= rows
            if rows == 64:
                assert max(ahead for ahead, _ in shapes) > 1

    @pytest.mark.parametrize("rows", [None, 64])
    def test_refills_share_one_block_buffer(self, rows, monkeypatch):
        # a row cap of 64 admits packets over many waves before the tail
        cfgs = [config(packet_count=1000, extinction_per_m=1.0, seed=4)]
        whole = estimate_batch(cfgs)
        if rows:
            monkeypatch.setattr(transport, "_WAVE_ROWS", rows)
        outs = []

        def counting(seeds, streams, blocks, out=None):
            outs.append(out)
            return philox4x64(seeds, streams, blocks, out=out)

        monkeypatch.setattr(rng, "philox4x64", counting)
        assert estimate_batch(cfgs) == whole
        assert len(outs) > 1
        assert all(np.shares_memory(out, outs[0]) for out in outs)
        assert outs[0].size == 4 * transport._WAVE_ROWS

    @pytest.mark.parametrize("case", ["opaque_run", "mars_time_scenario"])
    def test_refills_compute_little_past_the_blocks_read(self, case, monkeypatch):
        # Once every packet is admitted, a refill computes at most 8 blocks
        # ahead per live packet, not _WAVE_ROWS // live. Event n reads block
        # n, and a packet that ends on its step reads one more, so a trace's
        # packets read its deepest run's events plus its reached and
        # backscattered packets. _WAVE_ROWS // live blocks a refill computed
        # 2.11 and 2.19 times that.
        computed = []
        batches = []

        def counting(seeds, streams, blocks, out=None):
            words = philox4x64(seeds, streams, blocks, out=out)
            computed.append(math.prod(words.shape[:-1]))
            return words

        def recording(cfgs):
            results = estimate_batch(cfgs)
            batches.append((cfgs, results))
            return results

        monkeypatch.setattr(rng, "philox4x64", counting)
        monkeypatch.setattr(link, "estimate_batch", recording)
        if case == "opaque_run":   # tau = 20
            recording([config(packet_count=1000, extinction_per_m=2.0)])
        else:
            run_time_scenario(LinkConfig.for_preset(MARS), MARS,
                              default_time_counts(MARS, 1001), 1001, 0.0,
                              TransportConfig(packet_count=1000))
        [(cfgs, results)] = batches
        assert len({(cfg.seed, cfg.packet_count) for cfg in cfgs}) == 1
        cfg, deepest = max(zip(cfgs, results), key=lambda r: r[0].optical_depth)
        read = (round(deepest.mean_events * cfg.packet_count)
                + deepest.fates.reached + deepest.fates.backscatter_exit)
        assert sum(computed) <= 1.6 * read

    def test_empty_batch(self):
        assert estimate_batch([]) == []

    @given(runs=st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
                                   st.floats(0.0, 50.0, exclude_min=True)),
                         min_size=1, max_size=4),
           asymmetry=st.one_of(
               st.floats(0.0, 1.0).map(lambda g: (g, g)),
               st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted)),
           threshold=st.floats(1e-9, 0.9),
           max_events=st.integers(1, 10 ** 6),
           seed=st.integers(0, 2 ** 64 - 5))
    @settings(max_examples=25, deadline=None)
    def test_no_run_beats_beer_lambert(self, runs, asymmetry, threshold,
                                       max_events, seed):
        # a packet reaching X = D has travelled at least D, so every
        # contribution, and so every run's mean, is at most exp(-C*D)
        cfgs = [config(extinction_per_m=cext, distance_m=distance,
                       packet_count=100, g_lo=asymmetry[0], g_hi=asymmetry[1],
                       weight_threshold=threshold, max_events=max_events,
                       seed=seed + i)
                for i, (cext, distance) in enumerate(runs)]
        for cfg, result in zip(cfgs, estimate_batch(cfgs)):
            bound = math.exp(-cfg.extinction_per_m * cfg.distance_m)
            assert result.transmittance <= bound * (1 + 1e-9)
            if cfg.extinction_per_m == 0.0:
                assert result.transmittance == 1.0


    @pytest.mark.parametrize("asymmetry", [
        {}, dict(g_lo=0.0, g_hi=1.0), dict(g_lo=0.0, g_hi=0.0)])
    def test_mean_above_unscattered_bound(self, asymmetry):
        # a packet that never scatters (probability exp(-C*D)) contributes
        # exp(-C*D) and no contribution is negative, so E[T] >= exp(-2*C*D);
        # the sample mean holds it within 3 standard errors. C*D stays
        # <= 2.5: an opaque run's T = 0 has a standard error of 0.
        for cext in (0.05, 0.25, 2.5, 13.8):
            for depth in (0.5, 2.5):
                for seed in (1, 2, 3):
                    cfg = config(extinction_per_m=cext, distance_m=depth / cext,
                                 seed=seed, **asymmetry)
                    (contributions,), _, _ = transport._trace_packets([cfg])
                    se = contributions.std(ddof=1) / math.sqrt(cfg.packet_count)
                    assert contributions.mean() + 3 * se >= math.exp(-2 * depth)


class TestScaleInvariance:
    def test_power_of_two_rescaling_is_exact(self):
        # (C*2^k, D*2^-k) scales every length, step and quotient by a power
        # of two and leaves each extinction product alone, so the kernel
        # gives bit-identical results; a length that is not homogeneous in
        # the rules breaks this
        results = estimate_batch([config(extinction_per_m=0.25 * 2.0 ** k,
                                         distance_m=10.0 * 2.0 ** -k, seed=5)
                                  for k in (-3, 0, 1, 4)])
        for result in results:
            assert result.transmittance == 0.0439394702220736
            assert result.fates == FateCounts(1577, 60, 363, 0)
            assert result.mean_events == 3.9085


class TestDepthEdges:
    """Runs whose optical depth C * D is not an ordinary positive float."""

    def test_overflowed_depth_is_never_crossed(self):
        # C * D overflows to inf: no packet reaches the receiver, and the
        # packets end as they do at any depth the weight threshold cuts off
        cfg = config(extinction_per_m=1e300, distance_m=1e10)
        assert cfg.extinction_per_m * cfg.distance_m == math.inf
        result = estimate_transmittance(cfg)
        assert result.transmittance == 0.0
        assert result.fates == FateCounts(0, 1467, 533, 0)
        assert result.mean_events == 10.8115
        TestWaveKernel.assert_matches_reference(replace(cfg, packet_count=200))
        # beside a finite depth of the same seed, it keeps its result
        thin = config(extinction_per_m=0.25)
        assert estimate_batch([cfg, thin]) == [result, estimate_transmittance(thin)]

    def test_subnormal_depth_rounds_to_free_flight(self):
        # 5e-324 * 0.1 rounds to 0: every packet crosses on its first step
        cfg = config(extinction_per_m=5e-324, distance_m=0.1)
        assert cfg.extinction_per_m * cfg.distance_m == 0.0
        result = estimate_transmittance(cfg)
        assert result.transmittance == 1.0
        assert result.fates == FateCounts(reached=2000)
        assert result.mean_events == 0.0
        assert all(trace_packet(cfg, i) == ("reached", 1.0, 0) for i in range(20))


class TestSharedTraces:
    """Runs that differ only in depth are planes of one trace, and each
    gives what it gives traced alone."""

    @given(runs=st.lists(
               # a subnormal depth over a scale of 3 underflows to a
               # distance of 0, which no run takes (TestDepthEdges covers
               # subnormal depths)
               st.tuples(st.one_of(st.just(0.0),
                                   st.floats(0.0, 30.0, allow_subnormal=False)),
                         st.sampled_from([1.0, 0.25, 3.0, 0.7])),
               min_size=1, max_size=6),
           packets=st.integers(1, 150),
           seed=st.integers(0, 2 ** 64 - 2),
           asymmetry=st.sampled_from([{}, dict(g_lo=0.0, g_hi=1.0),
                                      dict(g_lo=0.9, g_hi=0.9)]))
    @settings(max_examples=30, deadline=None)
    def test_each_plane_is_its_run_alone(self, runs, packets, seed, asymmetry):
        # a depth tau is a run at C = scale and D = tau / scale (C = 0 for
        # tau = 0), so C = 1 runs sit next to C != 1 ones; the first run is
        # repeated, and a second seed makes a second trace in the batch
        cfgs = [config(extinction_per_m=scale if depth else 0.0,
                       distance_m=depth / scale if depth else 1.0,
                       packet_count=packets, seed=s, **asymmetry)
                for s in (seed, seed + 1)
                for depth, scale in [*runs, runs[0]]]
        shared = transport._trace_packets(cfgs)
        for r, cfg in enumerate(cfgs):
            (contributions,), (fates,), events = transport._trace_packets([cfg])
            assert np.array_equal(shared[0][r], contributions)
            assert np.array_equal(shared[1][r], fates)
            assert shared[2][r] == events[0]
        batch = estimate_batch(cfgs)
        assert batch == [estimate_batch([cfg])[0] for cfg in cfgs]
        # per seed, a deeper run never transmits more
        for s in (seed, seed + 1):
            ordered = sorted((cfg.extinction_per_m * cfg.distance_m, result.transmittance)
                             for cfg, result in zip(cfgs, batch) if cfg.seed == s)
            assert all(t1 >= t2 for (_, t1), (_, t2) in zip(ordered, ordered[1:]))


class TestConfigValidation:
    @pytest.mark.parametrize("seed", [-1, 2 ** 128, 1.5, 3.0, "3", None, True,
                                      np.int64(-2), 2 ** 64])
    def test_bad_seed(self, seed):
        with pytest.raises(DomainError, match="seed"):
            config(seed=seed)

    @pytest.mark.parametrize("count", [0, -5, 10.5, 10.0, "10", None, True])
    def test_bad_packet_count(self, count):
        with pytest.raises(DomainError, match="packet_count"):
            config(packet_count=count)

    @pytest.mark.parametrize("guard", [0, -1, 2.5, 6.0, "6", None, True])
    def test_bad_max_events(self, guard):
        with pytest.raises(DomainError, match="max_events"):
            config(max_events=guard)

    @pytest.mark.parametrize("seed", [0, 2 ** 63, 2 ** 64 - 1, np.uint64(2 ** 64 - 1)])
    def test_seed_range_accepted(self, seed):
        result = estimate_transmittance(config(seed=seed, packet_count=20))
        assert result.seed == seed


    @pytest.mark.parametrize("field", ["distance_m", "extinction_per_m"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(DomainError, match=field):
            config(**{field: value})

    def test_bad_distance(self):
        with pytest.raises(DomainError):
            config(distance_m=0.0)

    def test_bad_threshold(self):
        with pytest.raises(DomainError):
            config(weight_threshold=0.0)

    def test_bad_asymmetry(self):
        for g_lo, g_hi in ((1.5, 1.5), (0.8, 0.2), (-0.1, 0.5), (0.5, 1.1)):
            with pytest.raises(DomainError, match=r"^need 0 <= g_lo <= g_hi <= 1$"):
                config(g_lo=g_lo, g_hi=g_hi)

    @pytest.mark.parametrize("asymmetry", [5, None, (0.2, 0.8)])
    def test_asymmetry_must_be_uniform_asymmetry(self, asymmetry):
        # the asymmetry range is the g_lo and g_hi fields: a stale
        # asymmetry= argument of any value fails at construction
        with pytest.raises(TypeError, match="asymmetry"):
            config(asymmetry=asymmetry)
