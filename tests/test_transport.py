"""Tests for the Monte Carlo packet transport."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dustlink.transport as transport
from dustlink.errors import DomainError
from dustlink.rng import UniformStream, substream, substream_uniforms
from dustlink.transport import (FATES, FixedAsymmetry, PacketState,
                                TransportConfig, UniformAsymmetry,
                                estimate_transmittance, sample_scatter_angles,
                                sample_step, trace_packet, update_direction,
                                update_weight)


def config(**kwargs) -> TransportConfig:
    base = dict(distance_m=10.0, packet_count=2000, extinction_per_m=0.25,
                seed=11)
    base.update(kwargs)
    return TransportConfig(**base)


class TestSampleStep:
    def test_near_one_gives_tiny_step(self):
        assert sample_step(1.0 - 1e-12, 0.5) < 1e-11

    def test_closed_form_inversion(self):
        # oracle: -ln(e^-1)/0.1 = 10
        assert sample_step(math.exp(-1.0), 0.1) == pytest.approx(10.0, rel=1e-12)

    def test_exponential_mean(self):
        # oracle: mean of Exp(rate C) is 1/C, checked within 3 standard errors
        rng = substream(123, 0)
        u = rng.random(1_000_000)
        u = u[u > 0.0]
        samples = np.array([sample_step(v, 0.5) for v in u])
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - 2.0) < 3 * se

    def test_zero_extinction_signals_free_flight(self):
        assert sample_step(0.5, 0.0) == math.inf

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sample_step(0.0, 0.5)
        with pytest.raises(DomainError):
            sample_step(1.0, 0.5)
        with pytest.raises(DomainError):
            sample_step(0.5, -1.0)


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

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_angles_always_in_range(self, nu, chi, g):
        theta, phi = sample_scatter_angles(nu, chi, g)
        assert 0.0 <= theta <= math.pi
        assert 0.0 <= phi <= 2 * math.pi


class TestPacketState:
    def test_launch_defaults(self):
        state = PacketState(z=50.0)
        assert (state.mu_x, state.mu_y, state.mu_z) == (1.0, 0.0, 0.0)
        assert state.weight == 1.0
        assert state.events == 0
        assert state.direction_norm() == 1.0

    def test_norm_after_manual_update(self):
        state = PacketState(z=50.0)
        mu = update_direction((state.mu_x, state.mu_y, state.mu_z),
                              0.4, 1.1)
        state.mu_x, state.mu_y, state.mu_z = mu
        assert abs(state.direction_norm() - 1.0) < 1e-9


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


class TestUpdateWeight:
    def test_no_displacement(self):
        assert update_weight(0.7, 0.2, 0.0, 0.5) == 0.7

    def test_unit_slope(self):
        # oracle: e^-1
        assert update_weight(1.0, 0.2, 5.0, 1.0) == pytest.approx(
            math.exp(-1.0), rel=1e-12)

    def test_inclined_step(self):
        # oracle: 0.5 * e^-0.4
        assert update_weight(0.5, 0.1, 2.0, 0.5) == pytest.approx(
            0.5 * math.exp(-0.4), rel=1e-12)
        assert update_weight(0.5, 0.1, 2.0, 0.5) == pytest.approx(0.335160, abs=1e-6)


class TestTracePacket:
    def test_free_flight(self):
        fate, contribution = trace_packet(config(extinction_per_m=0.0), 0)
        assert fate == "reached"
        assert contribution == 1.0

    def test_forward_scattering_telescopes_to_beer_lambert(self):
        cfg = config(extinction_per_m=0.3, asymmetry=FixedAsymmetry(1.0))
        for i in range(50):
            fate, contribution = trace_packet(cfg, i)
            assert fate == "reached"
            assert contribution == pytest.approx(math.exp(-3.0), abs=1e-12)

    def test_deterministic_per_packet(self):
        cfg = config()
        assert trace_packet(cfg, 17) == trace_packet(cfg, 17)

    def test_contribution_in_unit_interval(self):
        cfg = config(extinction_per_m=1.0)
        for i in range(200):
            _, contribution = trace_packet(cfg, i)
            assert 0.0 <= contribution <= 1.0

    def test_index_beyond_count_rejected(self):
        with pytest.raises(DomainError):
            trace_packet(config(packet_count=10), 10)

    def test_lateral_bound_kills(self):
        cfg = config(extinction_per_m=2.0, lateral_bound_m=1e-6,
                     asymmetry=UniformAsymmetry(0.0, 0.5))
        fates = {trace_packet(cfg, i)[0] for i in range(100)}
        assert "lateral_exit" in fates


class TestEstimateTransmittance:
    def test_clear_sky_identity(self):
        result = estimate_transmittance(config(extinction_per_m=0.0))
        assert result.transmittance == 1.0
        assert result.attenuation_db_per_m == 0.0

    def test_forward_limit(self):
        result = estimate_transmittance(config(
            extinction_per_m=0.3, asymmetry=FixedAsymmetry(1.0)))
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

    def test_worker_count_invariance(self):
        cfg = config(packet_count=600)
        serial = estimate_transmittance(cfg, workers=1)
        parallel = estimate_transmittance(cfg, workers=4)
        assert serial.transmittance == parallel.transmittance
        assert serial.fates == parallel.fates

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
    """The wave kernel against the scalar reference ``_trace``, packet by packet.

    ``np.exp``/``np.log`` may differ from ``math`` in the last bit, so
    contributions agree within float64 eps times the event bound; fates and
    event counts are equal.
    """

    @staticmethod
    def assert_matches_reference(cfg, start=0, stop=None):
        stop = cfg.packet_count if stop is None else stop
        contributions, fates, events = transport._trace_range(cfg, start, stop)
        reference = [transport._trace(cfg, i) for i in range(start, stop)]
        assert [FATES[f] for f in fates] == [fate for fate, _, _ in reference]
        assert events == sum(n for _, _, n in reference)
        np.testing.assert_allclose(
            contributions, [c for _, c, _ in reference], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("asymmetry", [
        UniformAsymmetry(), UniformAsymmetry(0.0, 1.0), UniformAsymmetry(0.0, 0.0),
        UniformAsymmetry(0.7, 0.7), UniformAsymmetry(1.0, 1.0),
        FixedAsymmetry(0.0), FixedAsymmetry(0.7), FixedAsymmetry(1.0)])
    @pytest.mark.parametrize("cext", [0.05, 0.25, 2.5, 50.0])
    def test_matches_reference(self, asymmetry, cext):
        self.assert_matches_reference(config(
            packet_count=300, extinction_per_m=cext, asymmetry=asymmetry))

    def test_all_fates_covered(self):
        # a lateral bound, a small event guard and a high weight threshold
        cfg = config(packet_count=400, extinction_per_m=0.4, max_events=6,
                     lateral_bound_m=4.0, weight_threshold=0.01,
                     asymmetry=UniformAsymmetry(0.0, 1.0))
        self.assert_matches_reference(cfg)
        fates = estimate_transmittance(cfg).fates
        assert min(vars(fates).values()) > 0

    def test_sub_ranges_give_identical_arrays(self):
        cfg = config(packet_count=500, extinction_per_m=1.0)
        whole = transport._trace_range(cfg, 0, 500)
        parts = [transport._trace_range(cfg, lo, hi)
                 for lo, hi in ((0, 1), (1, 173), (173, 499), (499, 500))]
        assert np.array_equal(whole[0], np.concatenate([p[0] for p in parts]))
        assert np.array_equal(whole[1], np.concatenate([p[1] for p in parts]))
        assert whole[2] == sum(p[2] for p in parts)
        self.assert_matches_reference(cfg, 173, 499)

    def test_range_split_into_wave_batches(self, monkeypatch):
        cfg = config(packet_count=100, extinction_per_m=1.0)
        whole = transport._trace_range(cfg, 0, 100)
        monkeypatch.setattr(transport, "_WAVE_PACKETS", 7)
        batched = transport._trace_range(cfg, 0, 100)
        for a, b in zip(whole, batched):
            assert np.array_equal(a, b)

    def test_zero_draws_skipped_like_uniform_stream(self, monkeypatch):
        # Raw draws that are exactly 0.0 are vanishingly rare (2**-53), so
        # zeros are planted: as the first draw, three in a row, across a
        # buffer boundary, and as the first draw of an event that starts
        # with exactly one event's draws left in the buffer.
        width = 4 * transport._WAVE_BLOCKS
        zeros = {0: [0], 1: [width - 1, width], 2: [2, 3, 4],
                 3: [width - 2, 2 * width - 1], 4: [width - 4]}

        def planted(seed, streams, first_blocks, blocks):
            draws = substream_uniforms(seed, streams, first_blocks, blocks)
            for row, (stream, first) in enumerate(zip(streams, first_blocks)):
                for j in zeros.get(int(stream), ()):
                    col = j - 4 * (int(first) - 1)
                    if 0 <= col < draws.shape[1]:
                        draws[row, col] = 0.0
            return draws

        class PlantedGenerator:
            def __init__(self, seed, stream):
                self.seed, self.stream, self.block = seed, stream, 1

            def random(self, n):
                out = planted(self.seed, [self.stream], [self.block], n // 4)[0]
                self.block += n // 4
                return out

        monkeypatch.setattr(transport, "substream_uniforms", planted)
        monkeypatch.setattr(transport, "substream", PlantedGenerator)
        for g in (FixedAsymmetry(0.7), UniformAsymmetry()):
            cfg = config(packet_count=6, extinction_per_m=2.5, asymmetry=g)
            self.assert_matches_reference(cfg)
        draws = transport._WaveDraws(5, 0, 5)
        streams = [UniformStream(PlantedGenerator(5, i)) for i in range(5)]
        for _ in range(2 * width):
            draws.reserve()
            for _ in range(transport._DRAWS_PER_EVENT):
                assert np.array_equal(draws.draw(), [s.next() for s in streams])


class TestConfigValidation:
    @pytest.mark.parametrize("field", [
        "distance_m", "extinction_per_m", "launch_height_m", "lateral_bound_m"])
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
        with pytest.raises(DomainError):
            FixedAsymmetry(1.5)
        with pytest.raises(DomainError):
            UniformAsymmetry(0.8, 0.2)
