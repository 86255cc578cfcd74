"""Tests for channel gain composition, capacity, and the link scenarios."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dustlink.cli import (CONFIG_KEYS, ExperimentConfig, _SCENARIO_TABLE,
                          _transport)
from dustlink.constants import (SPEED_OF_LIGHT, db_from_transmittance,
                                dbm_to_watts)
from dustlink.errors import DomainError
from dustlink.link import (DROP_WINDOWS_S, DistancePoint, LinkConfig, TimePoint,
                           capacity, channel_gain, default_time_counts,
                           h_absorption, h_dust, h_spreading,
                           run_distance_sweep, run_time_scenario,
                           transport_template)
from dustlink.presets import (DEFAULT_NOISE_PSD_W_HZ, DEFAULT_TX_POWER_W, EARTH,
                              MARS)
from dustlink.transport import TransportConfig, UniformAsymmetry


def link_config(**kwargs) -> LinkConfig:
    base = dict(band_lo_hz=0.22e12, band_hi_hz=0.24e12, center_hz=0.24e12,
                tx_power_w=0.01, noise_psd_w_hz=4.0039e-21, distance_m=10.0)
    base.update(kwargs)
    return LinkConfig(**base)


class TestSpreading:
    def test_hand_value(self):
        # oracle: c / (4 pi * 10 m * 0.24 THz)
        value = h_spreading(0.24e12, 10.0)
        assert value == pytest.approx(
            SPEED_OF_LIGHT / (4 * math.pi * 10.0 * 0.24e12), rel=1e-12)
        assert value == pytest.approx(9.94e-6, rel=1e-3)

    def test_inverse_distance(self):
        assert h_spreading(0.24e12, 20.0) == pytest.approx(
            h_spreading(0.24e12, 10.0) / 2.0, rel=1e-12)

    def test_db_identity_with_path_loss(self):
        f, d = 0.3e12, 42.0
        lhs = -20.0 * math.log10(h_spreading(f, d))
        rhs = 20.0 * math.log10(4 * math.pi * d * f / SPEED_OF_LIGHT)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("f_hz, distance_m", [(math.nan, 10.0),
                                                  (0.24e12, math.nan)])
    def test_nan_rejected(self, f_hz, distance_m):
        with pytest.raises(DomainError):
            h_spreading(f_hz, distance_m)


class TestAbsorptionGain:
    def test_transparent(self):
        assert h_absorption(0.0, 10.0) == 1.0

    def test_direct_exponential(self):
        assert h_absorption(0.1, 10.0) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_beer_lambert_identity(self):
        k, d = 0.037, 55.0
        assert h_absorption(k, d) ** 2 * math.exp(k * d) == pytest.approx(
            1.0, rel=1e-12)

    @pytest.mark.parametrize("k_per_m, distance_m", [(math.nan, 10.0),
                                                     (0.1, math.nan)])
    def test_nan_rejected(self, k_per_m, distance_m):
        with pytest.raises(DomainError):
            h_absorption(k_per_m, distance_m)


class TestDustGain:
    def test_unit_transmittance(self):
        assert h_dust(1.0) == 1.0

    def test_quarter_transmittance(self):
        # identity: 10^(-0.4343 ln T) is exactly 1/T, so the gain is sqrt(T)
        assert h_dust(0.25) == pytest.approx(0.5, rel=1e-12)

    def test_opaque_limit(self):
        assert h_dust(0.0) == 0.0

    def test_consistency_identity_over_log_grid(self):
        for t in np.logspace(-6, 0, 25):
            assert h_dust(float(t)) ** 2 * (1.0 / t) == pytest.approx(
                1.0, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            h_dust(1.5)


class TestChannelGain:
    def test_product_composition(self):
        gains = channel_gain(0.24e12, 10.0, 0.02, 0.5)
        assert gains.h_los == pytest.approx(
            gains.h_spreading * gains.h_absorption * gains.h_dust, abs=1e-12)

    def test_delay(self):
        # oracle: 10 m / c = 33.36 ns
        gains = channel_gain(0.24e12, 10.0, 0.0, 1.0)
        assert gains.delay_s == pytest.approx(10.0 / SPEED_OF_LIGHT, rel=1e-12)
        assert gains.delay_s == pytest.approx(33.36e-9, rel=1e-3)

    def test_phase_tracked_but_magnitude_used(self):
        gains = channel_gain(0.24e12, 10.0, 0.0, 1.0)
        assert abs(gains.h_complex) == pytest.approx(gains.h_los, rel=1e-12)

    @given(st.floats(1e9, 1e13), st.floats(0.1, 1e4),
           st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=100, deadline=None)
    def test_composition_invariant(self, f, d, k, t):
        gains = channel_gain(f, d, k, t)
        assert gains.h_los == pytest.approx(
            gains.h_spreading * gains.h_absorption * gains.h_dust,
            abs=1e-12, rel=1e-12)


class TestCapacity:
    def test_unit_snr_gives_bandwidth(self):
        cfg = link_config()
        h = math.sqrt(cfg.bandwidth_hz * cfg.noise_psd_w_hz / cfg.tx_power_w)
        result = capacity(cfg, h)
        assert result.snr == pytest.approx(1.0, rel=1e-12)
        assert result.capacity_bps == pytest.approx(cfg.bandwidth_hz, rel=1e-12)

    def test_zero_gain_zero_capacity(self):
        assert capacity(link_config(), 0.0).capacity_bps == 0.0

    def test_closed_form_snr(self):
        # oracle: bandwidth 20 GHz at SNR 2^10 - 1 gives 200 Gbit/s
        cfg = link_config()
        snr = 2 ** 10 - 1
        h = math.sqrt(snr * cfg.bandwidth_hz * cfg.noise_psd_w_hz / cfg.tx_power_w)
        assert capacity(cfg, h).capacity_bps == pytest.approx(200e9, rel=1e-9)

    def test_monotone_in_power_and_gain(self):
        cfg = link_config()
        caps_h = [capacity(cfg, h).capacity_bps for h in (0.0, 1e-6, 1e-5, 1e-4)]
        assert caps_h == sorted(caps_h)
        for p1, p2 in ((0.001, 0.01), (0.01, 0.1)):
            c1 = capacity(link_config(tx_power_w=p1), 1e-5).capacity_bps
            c2 = capacity(link_config(tx_power_w=p2), 1e-5).capacity_bps
            assert c2 > c1

    def test_nan_gain_rejected(self):
        with pytest.raises(DomainError):
            capacity(link_config(), math.nan)

    def test_exact_dbm_conversion(self):
        assert dbm_to_watts(10.0) == pytest.approx(0.01, rel=1e-15)
        assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)

    def test_overflowing_dbm_rejected(self):
        # 10.0 ** 397 once leaked OverflowError
        with pytest.raises(DomainError, match="power 4000.0 dBm"):
            dbm_to_watts(4000.0)


@pytest.mark.parametrize("call", [
    lambda: h_spreading("1e11", 10.0),
    lambda: h_spreading(1e11, None),
    lambda: h_spreading(math.inf, 10.0),
    lambda: h_absorption("0.1", 10.0),
    lambda: h_absorption(0.1, "10"),
    lambda: h_dust("0.5"),
    lambda: h_dust(True),
    lambda: capacity(link_config(), "1"),
], ids=["spreading_str", "spreading_none", "spreading_inf", "absorption_str",
        "absorption_distance_str", "dust_str", "dust_bool", "capacity_str"])
def test_non_number_argument_raises_domain_error(call):
    # these once leaked TypeError
    with pytest.raises(DomainError):
        call()


class TestDbFromTransmittance:
    @pytest.mark.parametrize("transmittance, distance_m", [
        (0.5, 0.0), (0.5, -1.0), (0.5, math.inf), (math.nan, 1.0),
        (1.5, 1.0), (-0.1, 1.0)])
    def test_bad_input_rejected(self, transmittance, distance_m):
        with pytest.raises(DomainError):
            db_from_transmittance(transmittance, distance_m)


class TestLinkConfig:
    def test_preset_defaults(self):
        cfg = LinkConfig.for_preset(EARTH)
        assert cfg.noise_psd_w_hz == DEFAULT_NOISE_PSD_W_HZ
        assert cfg.tx_power_w == DEFAULT_TX_POWER_W
        assert cfg.distance_m == EARTH.distance_m

    def test_distance_is_required(self):
        with pytest.raises(TypeError, match="distance_m"):
            LinkConfig(band_lo_hz=0.22e12, band_hi_hz=0.24e12, center_hz=0.24e12)

    def test_zero_noise_rejected(self):
        with pytest.raises(DomainError, match="noise"):
            LinkConfig.for_preset(EARTH, noise_psd_w_hz=0.0)

    @pytest.mark.parametrize("center_hz", [-5.0, 5e11])
    def test_center_outside_band_rejected(self, center_hz):
        with pytest.raises(DomainError, match="center frequency"):
            LinkConfig(band_lo_hz=1e11, band_hi_hz=2e11, center_hz=center_hz,
                       distance_m=10.0)

    @pytest.mark.parametrize("center_hz", [1e11, 2e11])
    def test_band_edges_accepted(self, center_hz):
        # Earth's centre is its band top and Mars's its band bottom
        cfg = LinkConfig(band_lo_hz=1e11, band_hi_hz=2e11, center_hz=center_hz,
                         distance_m=10.0)
        assert cfg.center_hz == center_hz

    @pytest.mark.parametrize("name, value", [
        ("tx_power_w", math.nan), ("distance_m", math.nan),
        ("band_hi_hz", math.inf), ("center_hz", math.nan),
        ("noise_psd_w_hz", math.inf)])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(DomainError, match=name):
            link_config(**{name: value})


class TestTransportTemplate:
    def test_planet_values_and_transport_defaults(self):
        # the preset sets distance and packet count; TransportConfig the rest
        template = transport_template(MARS)
        assert template == TransportConfig(MARS.distance_m, MARS.packet_count, 0.0)
        assert template.seed == 0

    def test_every_transport_key_routed_once(self):
        # each sets one TransportConfig field or asymmetry bound
        transport_fields = {f.name for f in fields(TransportConfig)}
        targets = {key: (spec.owner, spec.field) for key, spec in CONFIG_KEYS.items()
                   if key.startswith("transport.")}
        assert len(set(targets.values())) == len(targets) == 6
        assert all(name in transport_fields if owner is TransportConfig
                   else owner is UniformAsymmetry and name in ("lo", "hi")
                   for owner, name in targets.values())

    @pytest.mark.parametrize("overrides, field, value", [
        ({}, "asymmetry", UniformAsymmetry()),
        ({"transport.packets": 50}, "packet_count", 50),
        ({"transport.distance_m": 4.0}, "distance_m", 4.0),
        ({"transport.weight_threshold": 0.01}, "weight_threshold", 0.01),
        ({"transport.max_events": 5}, "max_events", 5),
        ({"transport.g_lo": 0.2}, "asymmetry", UniformAsymmetry(lo=0.2)),
        ({"transport.g_hi": 0.7}, "asymmetry", UniformAsymmetry(hi=0.7)),
        ({"transport.g_lo": 0.1, "transport.g_hi": 0.3}, "asymmetry",
         UniformAsymmetry(0.1, 0.3)),
        ({"transport.g_lo": 0.3, "transport.g_hi": 0.3}, "asymmetry",
         UniformAsymmetry(0.3, 0.3)),
    ], ids=["unset", "packets", "distance_m", "weight_threshold", "max_events", "g_lo", "g_hi", "g_lo_hi",
            "g_fixed"])
    def test_cli_key_sets_field(self, overrides, field, value):
        cfg = ExperimentConfig("mcp_sweep", planet="mars", overrides=overrides)
        assert _transport(cfg, MARS) == replace(transport_template(MARS),
                                                **{field: value})


class TestTimeScenario:
    def test_default_counts_have_drop_windows(self):
        counts = default_time_counts(EARTH, seed=4)
        assert len(counts) == 21
        for t, c in enumerate(counts):
            if any(lo <= t <= hi for lo, hi in DROP_WINDOWS_S):
                assert c <= 30
            else:
                assert 100 <= c <= 200

    def test_zero_dust_constant_capacity(self):
        cfg = link_config(distance_m=1.0)
        points = run_time_scenario(cfg, EARTH, [0] * 21, seed=5, k_per_m=0.004,
                                   packet_count=500)
        caps = {p.capacity_bps for p in points}
        assert len(caps) == 1
        assert all(p.transmittance == 1.0 for p in points)

    def test_drop_windows_beat_storm_seconds(self):
        cfg = link_config(distance_m=1.0)
        counts = default_time_counts(EARTH, seed=6)
        points = run_time_scenario(cfg, EARTH, counts, seed=6, k_per_m=0.004,
                                   packet_count=2000)
        inside = [p.capacity_bps for p in points
                  if any(lo <= p.t_s <= hi for lo, hi in DROP_WINDOWS_S)]
        outside = [p.capacity_bps for p in points
                   if not any(lo <= p.t_s <= hi for lo, hi in DROP_WINDOWS_S)]
        assert min(inside) > max(outside)

    def test_deterministic(self):
        cfg = link_config(distance_m=1.0)
        counts = default_time_counts(MARS, seed=7)
        a = run_time_scenario(cfg, MARS, counts, 7, 0.0, packet_count=300)
        b = run_time_scenario(cfg, MARS, counts, 7, 0.0, packet_count=300)
        assert a == b


class TestDistanceSweep:
    DISTANCES = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0]

    def test_clear_sky_strictly_decreasing(self):
        cfg = link_config()
        points = run_distance_sweep(cfg, EARTH, self.DISTANCES, (0.0, 0.0),
                                    seed=8, k_per_m=0.004)
        caps = [p.capacity_bps for p in points]
        assert all(a > b for a, b in zip(caps, caps[1:]))
        assert all(p.transmittance == 1.0 for p in points)

    def test_higher_density_lower_capacity_pointwise(self):
        # coupled-seed comparison: disjoint density ranges, same seed; the
        # low range stays transparent over the grid so the gap is strict
        cfg = link_config()
        low = run_distance_sweep(cfg, EARTH, self.DISTANCES, (1.0, 2.0),
                                 seed=9, k_per_m=0.004, packet_count=2000)
        high = run_distance_sweep(cfg, EARTH, self.DISTANCES, (100.0, 200.0),
                                  seed=9, k_per_m=0.004, packet_count=2000)
        for lo, hi in zip(low, high):
            assert hi.capacity_bps < lo.capacity_bps

    def test_storm_capacity_collapses_at_finite_distance(self):
        # a 100-200/m storm drives capacity below 1% of clear sky somewhere
        # on the grid (cutoff existence; the exact distance is model-scale)
        cfg = link_config()
        grid = [1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0]
        clear = run_distance_sweep(cfg, EARTH, grid, (0.0, 0.0), seed=12,
                                   k_per_m=0.004, packet_count=2000)
        dusty = run_distance_sweep(cfg, EARTH, grid, (100.0, 200.0), seed=12,
                                   k_per_m=0.004, packet_count=2000)
        ratios = [d.capacity_bps / c.capacity_bps
                  for c, d in zip(clear, dusty)]
        assert any(r < 0.01 for r in ratios)

    def test_unordered_distances_rejected(self):
        with pytest.raises(DomainError):
            run_distance_sweep(link_config(), EARTH, [10.0, 5.0], (0.0, 0.0),
                               seed=1, k_per_m=0.0)

    @pytest.mark.parametrize("density_range", [(math.nan, math.nan),
                                               (1.0, math.inf)])
    def test_non_finite_density_range_rejected(self, density_range):
        # a nan range would draw no density, and an infinite one overflows
        with pytest.raises(DomainError, match="density range"):
            run_distance_sweep(link_config(), EARTH, [5.0], density_range,
                               seed=1, k_per_m=0.0)

    def test_gain_columns_consistent(self):
        cfg = link_config()
        points = run_distance_sweep(cfg, EARTH, [5.0, 25.0], (0.0, 0.0),
                                    seed=2, k_per_m=0.01)
        for p in points:
            assert p.h_dust == 1.0
            assert p.h_spreading == pytest.approx(
                h_spreading(cfg.center_hz, p.distance_m), rel=1e-12)
            assert p.h_absorption == pytest.approx(
                h_absorption(0.01, p.distance_m), rel=1e-12)


class TestLinkBudget:
    """Both capacity scenarios compose a dusty point the same way."""

    @pytest.mark.parametrize("planet", [EARTH, MARS], ids=["earth", "mars"])
    def test_dusty_points_composed_alike(self, planet):
        k = 0.004
        time_cfg = LinkConfig.for_preset(planet, distance_m=1.0)
        counts = default_time_counts(planet, seed=3)
        time_points = run_time_scenario(time_cfg, planet, counts, seed=3,
                                        k_per_m=k, packet_count=400)
        distance_cfg = LinkConfig.for_preset(planet)
        distance_points = run_distance_sweep(
            distance_cfg, planet, [0.5, 1.0, 2.0, 4.0], (1.0, 20.0), seed=3,
            k_per_m=k, packet_count=400)
        cases = ([(time_cfg, time_cfg.distance_m, p) for p in time_points]
                 + [(distance_cfg, p.distance_m, p) for p in distance_points])
        assert any(0.0 < p.transmittance < 1.0 for _, _, p in cases)
        for cfg, distance, p in cases:
            gains = channel_gain(cfg.center_hz, distance, k, p.transmittance)
            assert p.capacity_bps == capacity(cfg, gains.h_los).capacity_bps
        for p in time_points:
            assert p.attenuation_db_per_m == db_from_transmittance(
                p.transmittance, time_cfg.distance_m)

    @pytest.mark.parametrize("scenario, record", [
        ("time_scenario", TimePoint), ("capacity_distance", DistancePoint)])
    def test_csv_has_one_column_per_record_field(self, scenario, record):
        # the CLI writes each record as ``dataclasses.astuple``
        assert len(_SCENARIO_TABLE[scenario].header) == len(fields(record))


class TestPlanetComparison:
    def test_mars_clear_sky_beats_earth_at_high_snr(self):
        # Mars outranks Earth under identical power and noise only in the
        # high-SNR regime; at a thermal noise floor the 1/f spreading
        # advantage of the lower Earth carrier dominates instead.
        noise = 1e-28
        earth_cfg = LinkConfig.for_preset(EARTH, distance_m=1.0,
                                          noise_psd_w_hz=noise)
        mars_cfg = LinkConfig.for_preset(MARS, distance_m=1.0,
                                         noise_psd_w_hz=noise)
        k_earth = 0.004   # band-center absorption, earth preset scale
        k_mars = 0.0
        earth = capacity(earth_cfg,
                         channel_gain(earth_cfg.center_hz, 1.0, k_earth, 1.0).h_los)
        mars = capacity(mars_cfg,
                        channel_gain(mars_cfg.center_hz, 1.0, k_mars, 1.0).h_los)
        assert mars.capacity_bps > earth.capacity_bps
