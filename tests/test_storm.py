"""Tests for the storm field stepping and cone-beam counting."""

import hashlib
import math

import numpy as np
import pytest

from dustlink.errors import DomainError
from dustlink.output import write_csv
from dustlink.presets import EARTH
from dustlink.rng import substream
from dustlink.storm import (BeamCone, ParticleField, StormConfig,
                            count_in_beam, density_time_series, empty_field,
                            step_field)


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

    @pytest.mark.parametrize("name, value", [
        ("wind_speed_m_s", "8"), ("timestep_s", None), ("updraft_m_s", True),
        ("turbulence_m_s", np.bool_(True)), ("ramp_length_m", 1j),
        ("domain_m", (0.0, "7000", -60.0, 60.0, 0.0, 120.0)),
        ("vortex_center_m", (6000.0, None, 0.0)),
        ("radius_range_m", (0.5e-6, False))])
    def test_non_real_rejected(self, name, value):
        # numpy's isfinite once raised TypeError on these
        with pytest.raises(DomainError, match=f"{name} must be real"):
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

    @pytest.mark.parametrize("name, value", [
        # a squared radius once made -200 act as 200
        ("vortex_core_radius_m", -200.0),
        # numpy raised "high - low < 0" on the first step
        ("source_y_half_span_m", -1.0),
        # unpacking raised "not enough values to unpack"
        ("domain_m", (0.0, 7000.0, -60.0, 60.0, 0.0)),
        ("vortex_center_m", (6000.0, 0.0)),
        ("radius_range_m", (0.5e-6, 1e-6, 4e-6)),
        ("turbulence_m_s", -0.1)])
    def test_bad_shape_or_sign_rejected(self, name, value):
        with pytest.raises(DomainError, match=name):
            StormConfig(**{name: value})

    @pytest.mark.parametrize("name, value, message", [
        # numpy's shape check raised "inhomogeneous shape" on these
        ("vortex_center_m", (1.0, (2.0, 3.0), 0.0), "must be real"),
        ("radius_range_m", ([0.5e-6], 4e-6), "must be real"),
        ("domain_m", 5.0, "must have 6 entries")])
    def test_ragged_or_scalar_vector_rejected(self, name, value, message):
        with pytest.raises(DomainError, match=f"{name} {message}"):
            StormConfig(**{name: value})

    @pytest.mark.parametrize("seed", [1.5, True, "3", -1, 2 ** 128])
    def test_bad_seed_rejected(self, seed):
        # these once constructed; the last two failed only inside numpy
        with pytest.raises(DomainError, match="seed must be an int"):
            StormConfig(seed=seed)


class TestBeamCone:
    def test_paper_scale_geometry(self):
        cone = BeamCone((0.0, 0.0, 50.0), (10_000.0, 0.0, 50.0),
                        half_angle_rad=1.5e-5, disk_spacing_m=0.01)
        assert cone.disk_count() == 1_000_000
        assert float(cone.disk_radius(10_000.0)) == pytest.approx(0.15, rel=1e-3)

    def test_degenerate_geometry_rejected(self):
        with pytest.raises(DomainError):
            BeamCone((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), 0.01, 0.01)

    @pytest.mark.parametrize("half_angle", [math.nan, math.pi / 2, 2.0, 0.0])
    def test_bad_half_angle_rejected(self, half_angle):
        with pytest.raises(DomainError, match="half angle"):
            BeamCone((0.0, 0.0, 0.0), (10.0, 0.0, 0.0), half_angle, 0.1)

    @pytest.mark.parametrize("spacing", [math.inf, math.nan, 0.0])
    def test_bad_disk_spacing_rejected(self, spacing):
        with pytest.raises(DomainError, match="disk spacing"):
            BeamCone((0.0, 0.0, 0.0), (10.0, 0.0, 0.0), 0.01, spacing)

    @pytest.mark.parametrize("rx", [(math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0)])
    def test_non_finite_endpoint_rejected(self, rx):
        with pytest.raises(DomainError, match="finite"):
            BeamCone((0.0, 0.0, 0.0), rx, 0.01, 0.1)

    @pytest.mark.parametrize("tx, message", [
        # numpy's shape check raised "inhomogeneous shape" on the first
        ((0.0, [1.0, 2.0], 0.0), "tx_m must be real"),
        (5.0, "tx_m must have 3 entries")])
    def test_ragged_or_scalar_point_rejected(self, tx, message):
        with pytest.raises(DomainError, match=message):
            BeamCone(tx, (1.0, 0.0, 0.0), 0.1, 0.1)

    def test_cone_without_disks_rejected(self):
        # the first disk sits one spacing from the apex, past this 5 mm beam
        with pytest.raises(DomainError, match="no disk"):
            BeamCone((0.0, 0.0, 0.0), (0.005, 0.0, 0.0), 0.5, 0.01)

    def test_radius_linear_from_apex(self):
        cone = BeamCone((0.0, 0.0, 0.0), (100.0, 0.0, 0.0), 0.02, 0.05)
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


def scalar_count(points, cone):
    """Brute-force reference for ``count_in_beam``, one particle at a time.

    A particle within [0, length + spacing] along the axis is in the beam
    when it lies inside either of its two nearest disks (disk i sits at
    i * spacing, i = 1..n_disks, with radius i * spacing * tan(half angle)).
    """
    tx = cone.tx_m
    axis = [(b - a) / cone.length_m for a, b in zip(tx, cone.rx_m)]
    spacing = cone.disk_spacing_m
    n_disks = math.floor(cone.length_m / spacing + 1e-9)
    n_bins = max(math.ceil(cone.length_m), 1)
    count, profile = 0, [0.0] * n_bins
    for point in points:
        rel = [p - t for p, t in zip(point, tx)]
        s = rel[0] * axis[0] + rel[1] * axis[1] + rel[2] * axis[2]
        radial2 = max(rel[0] * rel[0] + rel[1] * rel[1] + rel[2] * rel[2] - s * s,
                      0.0)
        if not 0.0 <= s <= cone.length_m + spacing:
            continue
        lower = min(max(math.floor(s / spacing), 1), n_disks)
        for i in (lower, min(lower + 1, n_disks)):
            center = i * spacing
            if (s - center) ** 2 + radial2 <= (center * math.tan(cone.half_angle_rad)) ** 2:
                count += 1
                profile[int(min(max(s, 0.0), n_bins - 1e-9))] += 1.0
                break
    return count, profile


def cloud_around(cone, n, seed):
    """Points spread along and around a cone, past both of its ends."""
    rng = substream(seed, 0)
    tx = np.asarray(cone.tx_m)
    axis = cone.axis_unit()
    s = rng.uniform(-0.2, 1.3, n) * cone.length_m
    perp = rng.normal(size=(n, 3))
    perp -= np.outer(perp @ axis, axis)
    perp /= np.linalg.norm(perp, axis=1)[:, None]
    r = rng.uniform(0.0, 1.5, n) * np.maximum(s, 0.1) * math.tan(cone.half_angle_rad)
    return tx + np.outer(s, axis) + perp * r[:, None]


class TestCountInBeamOracle:
    # tan(atan(0.25)) is exactly 0.25, so points on this cone's disk rims,
    # and its counting arithmetic, are exact binary fractions
    TAN = 0.25
    AXIAL = BeamCone((1.0, 2.0, 3.0), (9.0, 2.0, 3.0), math.atan(TAN), 0.5)

    def check(self, points, cone):
        count, profile = count_in_beam(field_at(points), cone)
        assert (count, profile.tolist()) == scalar_count(np.asarray(points).tolist(),
                                                         cone)
        return count

    def test_points_on_disk_rims(self):
        assert math.tan(self.AXIAL.half_angle_rad) == self.TAN
        tx = np.asarray(self.AXIAL.tx_m)
        offsets = [(0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.0, -1.0, 0.0),
                   (0.0, 0.0, -1.0)]
        rims, outside = [], []
        for i in range(1, self.AXIAL.disk_count() + 1):
            center = i * self.AXIAL.disk_spacing_m
            radius = center * self.TAN
            for off in offsets:
                rims.append(tx + (center, 0.0, 0.0) + np.multiply(off, radius))
                outside.append(tx + (center, 0.0, 0.0)
                               + np.multiply(off, radius + 2.0 ** -20))
        assert self.check(rims, self.AXIAL) == len(rims)
        # past a rim, a point can still lie in the next, wider disk; past
        # the first and the last disk's rims it lies in no disk
        self.check(outside, self.AXIAL)
        assert self.check(outside[:4] + outside[-4:], self.AXIAL) == 0

    def test_points_at_the_box_padding(self):
        # the box is the axis segment out to length + spacing, padded by
        # the far disk's radius, plus the spacing, plus 1 m
        cone = self.AXIAL
        tx = np.asarray(cone.tx_m)
        far = cone.length_m + cone.disk_spacing_m
        pad = float(cone.disk_radius(cone.length_m)) + cone.disk_spacing_m + 1.0
        points = []
        for eps in (-2.0 ** -10, 2.0 ** -10):
            points += [tx + (far + pad + eps, 0.0, 0.0), tx + (-pad - eps, 0.0, 0.0),
                       tx + (cone.length_m, pad + eps, 0.0),
                       tx + (cone.length_m, 0.0, -pad - eps)]
        # in the last half spacing, beyond the last disk, inside its rim
        points += [tx + (far, 1.5, 0.0), tx + (cone.length_m + 0.25, 0.0, 1.9)]
        assert self.check(points, cone) == 2

    @pytest.mark.parametrize("cone", [
        BeamCone((0.0, 0.0, 0.0), (100.0, 0.0, 0.0), 0.02, 0.05),
        BeamCone((5.0, -3.0, 2.0), (-40.0, 17.0, 31.0), 0.05, 0.1),
        BeamCone((0.0, 0.0, 0.0), (3.0, -4.0, 12.0), 1.2, 0.3),
        BeamCone((10.0, 10.0, 10.0), (10.0, 10.0, -50.0), 0.3, 0.07)],
        ids=["axial", "tilted", "wide", "downward"])
    def test_matches_scalar_count(self, cone):
        assert self.check(cloud_around(cone, 3000, 8), cone) > 100


class TestDensityTimeSeries:
    BEAM = BeamCone((0.0, -4.0, 2.0), (60.0, 4.0, 2.0), 0.08, 0.05)

    def series_config(self, emission_rate):
        return StormConfig(
            emission_rate=emission_rate, wind_speed_m_s=3.0,
            ramp_length_m=1e6, vortex_strength_rad_s=0.0,
            updraft_m_s=1.0, settling_m_s=0.0, turbulence_m_s=0.05,
            timestep_s=0.5, domain_m=(0.0, 80.0, -10.0, 10.0, 0.0, 10.0),
            seed=12)

    @pytest.mark.parametrize("steps", [0, -1, True, 2.0, "3", None])
    def test_bad_steps_rejected(self, steps):
        # True once ran one step, and 2.0 raised a bare TypeError
        with pytest.raises(DomainError, match="steps must be an int"):
            density_time_series(self.series_config(10), self.BEAM, steps)

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
        cone = BeamCone((0.0, 0.0, 50.0), (10_000.0, 0.0, 50.0),
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


def sha256(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


class TestPinnedRuns:
    """Bit-level pins of whole storm runs, recorded before the one-buffer
    ``step_field`` and the bounding-box ``count_in_beam``: positions and
    radii digests, emitted and removed totals, and the in-beam count on
    the 10 km demo cone every 20 steps."""

    CONE = BeamCone((0.0, 0.0, 50.0), (10_000.0, 0.0, 50.0),
                    half_angle_rad=1.5e-5, disk_spacing_m=0.01)

    @pytest.mark.parametrize("cfg, steps, positions, radii, emitted, removed, counts", [
        (StormConfig(seed=1003, radius_range_m=(EARTH.size_distribution.r_min_m,
                                                EARTH.size_distribution.r_max_m)),
         120, "0a2c4a1dfa419e9887cf672a793d749ffca35ea44071cd14bb48e105e9386fcb",
         "8df4ffd50b7698f78996cea31764b5944075be631a57bf8f77c5068e59d70e1b",
         24000, 1812, [0] * 6),
        (StormConfig(seed=20), 460,
         "6973ee5a6909796ce7c50714f2ff65e89e1a57127f379cbd4ccc0cd50dc2dc92",
         "11ad7a388353141ed9c81c0fcea6e0cb11c53610b898e5fa2f1af88907887022",
         92000, 32161, [0] * 15 + [1, 0, 1, 0, 2, 0, 2, 4]),
        (StormConfig(seed=7, turbulence_m_s=0.0, vortex_strength_rad_s=0.0), 460,
         "f8f5c1197495a6d4de6aa9cc2b773485dfcc3deca257132dcb45da962e7b8736",
         "74c59969adda5a6b81a39e0a3188ce4b79fa9aeb4b81b93f857341bb4fce9402",
         92000, 24000, [0] * 16 + [9, 5, 6, 4, 4, 8, 3]),
        # a slow vortex near the source: in the default storm every particle
        # that enters the core is flung out of the domain, so no pin above
        # sees the swirl terms' rounding
        (StormConfig(seed=11, vortex_center_m=(300.0, 0.0, 0.0),
                     vortex_core_radius_m=150.0, vortex_strength_rad_s=0.05,
                     domain_m=(0.0, 7000.0, -500.0, 500.0, 0.0, 120.0)), 120,
         "3d7aa77cbf5de30a1ab40550c256dba20981ec6344ce2873cef9aceda9b70581",
         "f06151e1f550ea8a1113d8b25e23bc3b3d60fc8b4562ebae9d37e8bdbf8f6ad5",
         24000, 1776, [0] * 6)],
        ids=["earth_seed1003", "default_seed20", "still_seed7", "swirl_seed11"])
    def test_run_is_bit_identical(self, cfg, steps, positions, radii, emitted,
                                  removed, counts):
        fld = empty_field()
        totals = [0, 0]
        beam = []
        for i in range(1, steps + 1):
            fld = step_field(fld, cfg)
            totals[0] += fld.emitted
            totals[1] += fld.removed
            if i % 20 == 0:
                beam.append(count_in_beam(fld, self.CONE)[0])
        assert (sha256(fld.positions_m), sha256(fld.radii_m)) == (positions, radii)
        assert totals == [emitted, removed]
        assert beam == counts
