"""Tests for the storm field stepping and cone-beam counting."""

import math

import numpy as np
import pytest

from dustlink.errors import DomainError
from dustlink.output import write_csv
from dustlink.rng import substream
from dustlink.storm import (BeamCone, ParticleField, StormConfig,
                            build_beam_cone, count_in_beam,
                            density_time_series, empty_field, step_field)


def quiet_config(**kwargs) -> StormConfig:
    base = dict(emission_rate=0, wind_speed_m_s=1.0, vortex_strength_rad_s=0.0,
                updraft_m_s=0.0, settling_m_s=0.0, turbulence_m_s=0.0, seed=3)
    base.update(kwargs)
    return StormConfig(**base)


def field_at(positions, radii=None, step_index=0) -> ParticleField:
    positions = np.asarray(positions, dtype=float)
    if radii is None:
        radii = np.full(len(positions), 1e-6)
    return ParticleField(positions, np.asarray(radii, dtype=float),
                         step_index=step_index)


class TestStepField:
    def test_no_emission_empty_field(self):
        out = step_field(empty_field(), quiet_config())
        assert out.count() == 0
        assert out.timestamp_s == 1.0

    def test_pure_advection_moves_only_x(self):
        fld = field_at([[10.0, 2.0, 5.0], [100.0, -3.0, 7.0]])
        out = step_field(fld, quiet_config())
        assert np.all(out.positions_m[:, 0] > fld.positions_m[:, 0])
        assert np.array_equal(out.positions_m[:, 1], fld.positions_m[:, 1])
        assert np.array_equal(out.positions_m[:, 2], fld.positions_m[:, 2])

    def test_count_conservation(self):
        cfg = quiet_config(emission_rate=50)
        fld = step_field(empty_field(), cfg)
        assert fld.count() == fld.emitted - fld.removed
        nxt = step_field(fld, cfg)
        assert nxt.count() == fld.count() + nxt.emitted - nxt.removed

    def test_out_of_bounds_removed(self):
        cfg = quiet_config(domain_m=(0.0, 50.0, -10.0, 10.0, 0.0, 20.0),
                           wind_speed_m_s=100.0)
        fld = field_at([[49.0, 0.0, 5.0]])
        out = step_field(fld, cfg)
        assert out.count() == 0
        assert out.removed == 1

    def test_deterministic_per_seed(self):
        cfg = quiet_config(emission_rate=25)
        a = step_field(empty_field(), cfg)
        b = step_field(empty_field(), cfg)
        assert np.array_equal(a.positions_m, b.positions_m)
        assert np.array_equal(a.radii_m, b.radii_m)

    def test_settling_only_shrinks_population(self):
        cfg = quiet_config(settling_m_s=2.0,
                           domain_m=(0.0, 1000.0, -10.0, 10.0, 0.0, 20.0))
        fld = field_at([[5.0, 0.0, 1.0], [5.0, 0.0, 5.0], [5.0, 0.0, 19.0]])
        counts = [fld.count()]
        for _ in range(12):
            fld = step_field(fld, cfg)
            counts.append(fld.count())
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] == 0

    def test_radii_within_configured_range(self):
        cfg = quiet_config(emission_rate=500, radius_range_m=(2e-6, 3e-6))
        fld = step_field(empty_field(), cfg)
        assert np.all(fld.radii_m >= 2e-6)
        assert np.all(fld.radii_m <= 3e-6)


class TestStormConfig:
    @pytest.mark.parametrize("name, value", [
        ("timestep_s", math.nan), ("wind_speed_m_s", math.nan),
        ("ramp_length_m", math.inf), ("vortex_center_m", (math.nan, 0.0, 0.0)),
        ("domain_m", (0.0, math.inf, -60.0, 60.0, 0.0, 120.0))])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(DomainError, match=name):
            StormConfig(**{name: value})

    @pytest.mark.parametrize("ramp", [0.0, -5.0])
    def test_non_positive_ramp_rejected(self, ramp):
        # the advection velocity divides by the ramp length
        with pytest.raises(DomainError, match="ramp"):
            StormConfig(ramp_length_m=ramp)

    @pytest.mark.parametrize("rate", [2.5, 3.0, "3", True, -1])
    def test_non_int_emission_rate_rejected(self, rate):
        with pytest.raises(DomainError, match="emission_rate"):
            StormConfig(emission_rate=rate)


class TestBeamCone:
    def test_paper_scale_geometry(self):
        cone = build_beam_cone((0.0, 0.0, 50.0), (10_000.0, 0.0, 50.0),
                               half_angle_rad=1.5e-5, disk_spacing_m=0.01)
        assert cone.disk_count() == 1_000_000
        assert float(cone.disk_radius(10_000.0)) == pytest.approx(0.15, rel=1e-3)

    def test_degenerate_geometry_rejected(self):
        with pytest.raises(DomainError):
            build_beam_cone((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), 0.01, 0.01)

    @pytest.mark.parametrize("half_angle", [math.nan, math.pi / 2, 2.0, 0.0])
    def test_bad_half_angle_rejected(self, half_angle):
        with pytest.raises(DomainError, match="half angle"):
            build_beam_cone((0.0, 0.0, 0.0), (10.0, 0.0, 0.0), half_angle, 0.1)

    @pytest.mark.parametrize("spacing", [math.inf, math.nan, 0.0])
    def test_bad_disk_spacing_rejected(self, spacing):
        with pytest.raises(DomainError, match="disk spacing"):
            build_beam_cone((0.0, 0.0, 0.0), (10.0, 0.0, 0.0), 0.01, spacing)

    @pytest.mark.parametrize("rx", [(math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0)])
    def test_non_finite_endpoint_rejected(self, rx):
        with pytest.raises(DomainError, match="finite"):
            build_beam_cone((0.0, 0.0, 0.0), rx, 0.01, 0.1)

    def test_radius_linear_from_apex(self):
        cone = build_beam_cone((0.0, 0.0, 0.0), (100.0, 0.0, 0.0), 0.02, 0.05)
        assert float(cone.disk_radius(50.0)) == pytest.approx(
            2 * float(cone.disk_radius(25.0)), rel=1e-12)


class TestCountInBeam:
    CONE = BeamCone((0.0, 0.0, 0.0), (100.0, 0.0, 0.0), 0.02, 0.05)

    def test_empty_field(self):
        count, profile = count_in_beam(empty_field(), self.CONE)
        assert count == 0
        assert profile.shape == (100,)
        assert np.all(profile == 0)

    def test_axis_particle_counted_once(self):
        count, profile = count_in_beam(field_at([[50.0, 0.0, 0.0]]), self.CONE)
        assert count == 1
        assert profile[50] == 1
        assert profile.sum() == 1

    def test_far_particle_not_counted(self):
        count, _ = count_in_beam(field_at([[50.0, 10.0, 0.0]]), self.CONE)
        assert count == 0

    def test_uniform_cylinder_against_cone_volume_oracle(self):
        # oracle: expected in-beam count = N * V_cone / V_cylinder
        n = 200_000
        rng = substream(2024, 0)
        length = 100.0
        cyl_radius = 2.5
        xs = rng.uniform(0.0, length, n)
        rr = cyl_radius * np.sqrt(rng.random(n))
        az = rng.uniform(0.0, 2 * math.pi, n)
        pts = np.column_stack([xs, rr * np.cos(az), rr * np.sin(az)])
        count, _ = count_in_beam(field_at(pts), self.CONE)
        end_radius = length * math.tan(0.02)
        v_cone = math.pi / 3 * end_radius ** 2 * length
        v_cyl = math.pi * cyl_radius ** 2 * length
        p = v_cone / v_cyl
        expected = n * p
        # each point lands in the cone with probability p: binomial count
        standard_error = math.sqrt(n * p * (1 - p))
        assert abs(count - expected) < 4 * standard_error

    def test_count_monotone_in_half_angle(self):
        rng = substream(5, 0)
        pts = np.column_stack([rng.uniform(0, 100, 5000),
                               rng.uniform(-2, 2, 5000),
                               rng.uniform(-2, 2, 5000)])
        fld = field_at(pts)
        counts = [count_in_beam(fld, BeamCone((0, 0, 0), (100, 0, 0), a, 0.05))[0]
                  for a in (0.005, 0.01, 0.02, 0.04)]
        assert counts == sorted(counts)

    def test_order_invariance(self):
        rng = substream(6, 0)
        pts = np.column_stack([rng.uniform(0, 100, 2000),
                               rng.uniform(-1, 1, 2000),
                               rng.uniform(-1, 1, 2000)])
        fld = field_at(pts)
        permuted = field_at(pts[::-1])
        c1, p1 = count_in_beam(fld, self.CONE)
        c2, p2 = count_in_beam(permuted, self.CONE)
        assert c1 == c2
        assert np.array_equal(p1, p2)


class TestDensityTimeSeries:
    BEAM = BeamCone((0.0, -4.0, 2.0), (60.0, 4.0, 2.0), 0.08, 0.05)

    def series_config(self, emission_rate):
        return StormConfig(
            emission_rate=emission_rate, wind_speed_m_s=3.0,
            ramp_length_m=1e6, vortex_strength_rad_s=0.0,
            updraft_m_s=1.0, settling_m_s=0.0, turbulence_m_s=0.05,
            timestep_s=0.5, domain_m=(0.0, 80.0, -10.0, 10.0, 0.0, 10.0),
            seed=12)

    def test_zero_emission_all_zero(self):
        series = density_time_series(self.series_config(0), self.BEAM, 20)
        assert all(count == 0 for _, count, _ in series)

    def test_emission_doubling_doubles_mean_count(self):
        # linearity-in-source oracle over >= 100 steps
        base = density_time_series(self.series_config(150), self.BEAM, 120)
        double = density_time_series(self.series_config(300), self.BEAM, 120)
        counts_base = [c for _, c, _ in base[20:]]
        counts_double = [c for _, c, _ in double[20:]]
        mean_base = np.mean(counts_base)
        mean_double = np.mean(counts_double)
        assert mean_base > 5
        # Poisson counts, one per step: the variance of a mean of N counts
        # is mean / N
        standard_error = math.sqrt(mean_double / len(counts_double)
                                   + 4 * mean_base / len(counts_base))
        assert abs(mean_double - 2 * mean_base) < 4 * standard_error

    def test_deterministic(self):
        a = density_time_series(self.series_config(40), self.BEAM, 10)
        b = density_time_series(self.series_config(40), self.BEAM, 10)
        assert [(t, c) for t, c, _ in a] == [(t, c) for t, c, _ in b]

    def test_density_csv_export(self, tmp_path):
        series = density_time_series(self.series_config(40), self.BEAM, 3)
        path = tmp_path / "series.csv"
        header = ["t_s", "count"] + [f"density_per_m_bin_{i}"
                                     for i in range(len(series[0][2]))]
        write_csv(path, header, [(t, count) + tuple(profile)
                                 for t, count, profile in series])
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("t_s,count,density_per_m_bin_0")
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == series[0][0]
        assert int(float(first[1])) == series[0][1]

    def test_snapshot_csv_export(self, tmp_path):
        fld = field_at([[1.0, 2.0, 3.0]], radii=[2e-6])
        path = tmp_path / "snap.csv"
        write_csv(path, ["x", "y", "z", "r"],
                  [(*xyz, r) for xyz, r in zip(fld.positions_m, fld.radii_m)])
        assert path.read_text() == "x,y,z,r\n1.0,2.0,3.0,2e-06\n"

    def test_default_configuration_reaches_the_beam(self):
        # Steady-state beam fraction for the built-in storm geometry with
        # the antenna-apexed 10 km counting cone. Absolute in-beam ratios
        # depend entirely on the wind model, so this pins the achievable
        # order (~1e-5) as a stability check, not a physical constant.
        cfg = StormConfig(seed=9)
        cone = build_beam_cone((0.0, 0.0, 50.0), (10_000.0, 0.0, 50.0),
                               half_angle_rad=1.5e-5, disk_spacing_m=0.01)
        fld = empty_field()
        counts, totals = [], []
        for i in range(460):
            fld = step_field(fld, cfg)
            if i >= 400:
                counts.append(count_in_beam(fld, cone)[0])
                totals.append(fld.count())
        mean_count = float(np.mean(counts))
        fraction = mean_count / float(np.mean(totals))
        assert mean_count > 0.2
        assert 1e-6 <= fraction <= 2e-2
