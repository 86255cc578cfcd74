"""Tests for dust size distributions, cross sections and ensemble extinction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from dustlink.errors import DomainError
from dustlink.presets import EARTH, MARS
from dustlink.scatter import (DustPermittivity, LinearDensity, MediumSpec,
                              SizeDistribution, VolumetricDensity,
                              Visibility, dust_permittivity,
                              ensemble_extinction, extinction_efficiency,
                              extinction_rates,
                              linear_density_to_volumetric, mie_cext,
                              mie_coefficients, number_density_from_visibility,
                              physical_cross_section, rayleigh_cext, size_pdf)

EARTH_DIST = SizeDistribution.log_normal(10e-6, 2.0, 1e-6, 150e-6)


class TestSizeDistribution:
    def test_point_mass_unit_mass(self):
        dist = SizeDistribution.point_mass(50e-6)
        assert dist.expectation(lambda r: 1.0) == 1.0
        assert size_pdf(dist, 50e-6) == math.inf

    def test_lognormal_normalization(self):
        dist = SizeDistribution.log_normal(10e-6, 2.0, 1e-6, 150e-6)
        assert dist.expectation(lambda r: 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_mode_against_grid_argmax(self):
        # oracle: dense grid search for the density maximum
        dist = SizeDistribution.log_normal(10e-6, 2.0, 1e-6, 150e-6)
        grid = np.linspace(1e-6, 40e-6, 200_001)
        dens = [dist.pdf(r) for r in grid]
        oracle = grid[int(np.argmax(dens))]
        s = math.log(2.0)
        assert dist.mode_radius() == pytest.approx(10e-6 * math.exp(-s * s), rel=1e-12)
        assert dist.mode_radius() == pytest.approx(oracle, abs=grid[1] - grid[0])

    def test_pdf_outside_bounds_rejected(self):
        dist = SizeDistribution.log_normal(10e-6, 2.0, 1e-6, 150e-6)
        with pytest.raises(DomainError):
            size_pdf(dist, 0.5e-6)
        with pytest.raises(DomainError):
            size_pdf(dist, 200e-6)

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            SizeDistribution.log_normal(10e-6, 1.0, 1e-6, 150e-6)
        with pytest.raises(DomainError):
            SizeDistribution.log_normal(10e-6, 2.0, 150e-6, 1e-6)
        with pytest.raises(DomainError):
            SizeDistribution.point_mass(0.0)


class TestPermittivity:
    def test_earth_at_240_ghz(self):
        # oracle: direct evaluation of 18.256 / 240
        eps = dust_permittivity("earth-frequency-dependent", 0.24e12)
        assert eps.eps_real == pytest.approx(3.0, rel=1e-15)
        assert eps.eps_imag == pytest.approx(18.256 / 240.0, rel=1e-12)

    def test_earth_high_frequency_limit(self):
        eps = dust_permittivity("earth-frequency-dependent", 1e18)
        assert eps.eps_real == 3.0
        assert eps.eps_imag < 1e-7

    def test_mars_constant(self):
        # oracle: squaring 1.52 + 0.01i by hand
        eps = dust_permittivity("mars-constant")
        assert eps.eps_real == pytest.approx(1.52 ** 2 - 0.01 ** 2, abs=1e-12)
        assert eps.eps_imag == pytest.approx(2 * 1.52 * 0.01, abs=1e-12)
        assert abs(eps.eps - complex(1.52, 0.01) ** 2) < 1e-12

    def test_earth_requires_frequency(self):
        with pytest.raises(DomainError):
            dust_permittivity("earth-frequency-dependent", 0.0)

    def test_negative_imaginary_rejected(self):
        with pytest.raises(DomainError):
            DustPermittivity("user", 3.0, -0.1)


class TestMie:
    def test_first_coefficient_hand_value(self):
        # oracle: hand evaluation 6*eps''/((eps'+2)^2 + eps''^2)
        epp = 18.256 / 240.0
        c1, _, _ = mie_coefficients(complex(3.0, epp))
        assert c1 == pytest.approx(6 * epp / (25.0 + epp ** 2), rel=1e-12)
        assert c1 == pytest.approx(1.8253e-2, rel=1e-3)

    def test_lossless_particle_has_zero_c1(self):
        c1, _, _ = mie_coefficients(complex(3.0, 0.0))
        assert c1 == 0.0

    def test_series_term_ratio_scales_with_radius_squared(self):
        # doubling r multiplies the (kr)^2-to-constant term ratio by 4
        eps = dust_permittivity("earth-frequency-dependent", 0.24e12)
        c1, c2, _ = mie_coefficients(eps.eps)
        f = 0.24e12
        k = 2 * math.pi * f / 2.99792458e8
        r = 10e-6
        ratio = (c2 * (k * r) ** 2 / c1) if c1 else 0.0
        ratio2 = (c2 * (k * 2 * r) ** 2 / c1)
        assert ratio2 == pytest.approx(4 * ratio, rel=1e-12)

    def test_printed_form_and_normalized_form(self):
        eps = dust_permittivity("earth-frequency-dependent", 0.24e12)
        raw = mie_cext(0.24e12, 10e-6, eps)
        norm = mie_cext(0.24e12, 10e-6, eps, normalized=True)
        assert norm == pytest.approx(raw * math.pi * (10e-6) ** 2, rel=1e-12)
        assert raw > 0

    def test_c1_nonnegative_for_physical_permittivity(self):
        for epp in (0.0, 0.01, 1.0, 20.0):
            c1, _, _ = mie_coefficients(complex(3.0, epp))
            assert c1 >= 0


class TestRayleigh:
    def test_zero_charge_term(self):
        eps = dust_permittivity("mars-constant")
        total = rayleigh_cext(1.64e12, 1.5e-6, eps)
        # oracle: explicit two-term sum
        k = 2 * math.pi * 1.64e12 / 2.99792458e8
        er = eps.eps
        scattering = (8 / 3) * math.pi * k ** 4 * (1.5e-6) ** 6 * abs((er - 1) / (er + 2)) ** 2
        absorption = 12 * math.pi * k * er.imag * (1.5e-6) ** 3 / abs(er + 2) ** 2
        assert total == pytest.approx(scattering + absorption, rel=1e-12)

    def test_mars_polarizability_factor(self):
        # oracle: complex arithmetic for |(eps-1)/(eps+2)|^2
        er = dust_permittivity("mars-constant").eps
        val = abs((er - 1) / (er + 2)) ** 2
        assert val == pytest.approx(9.246e-2, rel=1e-3)

    def test_scattering_term_radius_scaling(self):
        eps = DustPermittivity("user", 2.3103, 0.0, approximation="rayleigh")
        # pure scattering (eps''=0): doubling r multiplies by 64
        small = rayleigh_cext(1.64e12, 1e-6, eps)
        large = rayleigh_cext(1.64e12, 2e-6, eps)
        assert large == pytest.approx(64 * small, rel=1e-12)

    def test_charged_grain_needs_field_scale(self):
        eps = DustPermittivity("mars-constant", 2.3103, 0.0304,
                               charge_density=1e-6, field_scale=0.0)
        with pytest.raises(DomainError):
            rayleigh_cext(1.64e12, 1e-6, eps)

    def test_charge_term_increases_extinction(self):
        neutral = dust_permittivity("mars-constant")
        charged = DustPermittivity("mars-constant", neutral.eps_real,
                                   neutral.eps_imag, charge_density=1e-5,
                                   field_scale=1.0)
        assert rayleigh_cext(1.64e12, 1e-6, charged) > rayleigh_cext(
            1.64e12, 1e-6, neutral)


class TestVisibilityLaw:
    def test_point_mass_hand_value(self):
        # oracle: direct evaluation with pi r^2 = 7.854e-9 m^2
        dist = SizeDistribution.point_mass(50e-6)
        n0 = number_density_from_visibility(dist, 1000.0)
        oracle = 15.0 / (0.034744 * 1000.0 * math.pi * (50e-6) ** 2)
        assert n0 == pytest.approx(oracle, rel=1e-12)
        assert n0 == pytest.approx(5.497e7, rel=1e-3)

    def test_inverse_proportionality(self):
        dist = SizeDistribution.point_mass(50e-6)
        assert number_density_from_visibility(dist, 2000.0) == pytest.approx(
            number_density_from_visibility(dist, 1000.0) / 2.0, rel=1e-12)

    def test_lognormal_against_simpson_oracle(self):
        # oracle: fixed-grid Simpson quadrature of pi r^2 P(r)
        dist = EARTH_DIST
        grid = np.linspace(dist.r_min_m, dist.r_max_m, 10_001)
        pdf = np.array([dist.pdf(r) for r in grid])
        integral = simpson(math.pi * grid ** 2 * pdf, x=grid)
        oracle = 15.0 / (0.034744 * 10_000.0 * integral)
        assert number_density_from_visibility(dist, 10_000.0) == pytest.approx(
            oracle, rel=1e-6)

    def test_nonpositive_visibility_rejected(self):
        with pytest.raises(DomainError):
            number_density_from_visibility(EARTH_DIST, 0.0)

    @given(st.floats(min_value=1.0, max_value=1e6))
    @settings(max_examples=25, deadline=None)
    def test_density_visibility_product_invariant(self, visibility):
        dist = SizeDistribution.point_mass(20e-6)
        product = number_density_from_visibility(dist, visibility) * visibility
        reference = number_density_from_visibility(dist, 1.0)
        assert product == pytest.approx(reference, rel=1e-12)


class TestLinearDensity:
    def test_paper_beam_counts(self):
        assert linear_density_to_volumetric(10.0, 1e-6) == pytest.approx(1e7)

    def test_zero_counts(self):
        assert linear_density_to_volumetric(0.0, 1e-6) == 0.0

    def test_unit_conversion_oracle(self):
        # 100 particles per 10 m at 0.01 cm^2 face -> 1e7 per m^3
        assert linear_density_to_volumetric(100.0 / 10.0, 1e-6) == pytest.approx(1e7)

    def test_bad_beam_area(self):
        with pytest.raises(DomainError):
            linear_density_to_volumetric(1.0, 0.0)


class TestEnsembleExtinction:
    def test_zero_density(self):
        medium = MediumSpec(EARTH_DIST,
                            dust_permittivity("earth-frequency-dependent", 0.24e12),
                            VolumetricDensity(0.0))
        assert ensemble_extinction(medium, 0.24e12).extinction_per_m == 0.0

    def test_point_mass_reduction_volumetric(self):
        eps = dust_permittivity("earth-frequency-dependent", 0.24e12)
        medium = MediumSpec(SizeDistribution.point_mass(20e-6), eps,
                            VolumetricDensity(5e6))
        result = ensemble_extinction(medium, 0.24e12)
        single = physical_cross_section(0.24e12, 20e-6, eps)
        assert result.extinction_per_m == pytest.approx(5e6 * single, rel=1e-12)

    def test_point_mass_reduction_beam_counts(self):
        eps = dust_permittivity("mars-constant")
        medium = MediumSpec(SizeDistribution.point_mass(1.5e-6), eps,
                            LinearDensity(100.0))
        result = ensemble_extinction(medium, 1.64e12)
        single = extinction_efficiency(1.64e12, 1.5e-6, eps)
        assert result.extinction_per_m == pytest.approx(100.0 * single, rel=1e-12)

    def test_earth_preset_against_simpson_oracle(self):
        # dual-quadrature: adaptive (module) vs 1e4-node fixed-grid Simpson
        medium = EARTH.medium_from_count(10.0)
        result = ensemble_extinction(medium, 0.24e12)
        dist = medium.distribution
        grid = np.linspace(dist.r_min_m, dist.r_max_m, 10_001)
        pdf = np.array([dist.pdf(r) for r in grid])
        eff = extinction_efficiency(0.24e12, grid, medium.permittivity)
        oracle = 10.0 * simpson(pdf * eff, x=grid)
        assert result.extinction_per_m == pytest.approx(oracle, rel=1e-6)

    def test_mars_preset_against_simpson_oracle(self):
        medium = MARS.medium_from_count(1000.0)
        result = ensemble_extinction(medium, 1.64e12)
        dist = medium.distribution
        grid = np.linspace(dist.r_min_m, dist.r_max_m, 10_001)
        pdf = np.array([dist.pdf(r) for r in grid])
        eff = extinction_efficiency(1.64e12, grid, medium.permittivity)
        oracle = 1000.0 * simpson(pdf * eff, x=grid)
        assert result.extinction_per_m == pytest.approx(oracle, rel=1e-6)

    def test_monotone_in_density(self):
        eps = dust_permittivity("earth-frequency-dependent", 0.24e12)
        values = [ensemble_extinction(
            MediumSpec(EARTH_DIST, eps, VolumetricDensity(n0)),
            0.24e12).extinction_per_m for n0 in (0.0, 1e6, 1e7, 1e8)]
        assert values == sorted(values)

    def test_wavenumber_wavelength_identity(self):
        medium = EARTH.medium_from_count(10.0)
        result = ensemble_extinction(medium, 0.24e12)
        assert result.wavenumber_per_m * result.wavelength_m == pytest.approx(
            2 * math.pi, abs=1e-12)

    def test_visibility_spec_uses_physical_cross_sections(self):
        medium = EARTH.medium_from_visibility(1000.0)
        result = ensemble_extinction(medium, 0.24e12)
        assert result.coupling == "volumetric"
        n0 = number_density_from_visibility(medium.distribution, 1000.0)
        assert result.number_density_per_m3 == pytest.approx(n0, rel=1e-12)

    def test_beam_count_spec_uses_blockage_coupling(self):
        result = ensemble_extinction(EARTH.medium_from_count(10.0), 0.24e12)
        assert result.coupling == "beam-blockage"
        assert result.number_density_per_m3 == pytest.approx(1e7)

    def test_sample_cross_sections_nonnegative(self):
        for medium, f in ((EARTH.medium_from_count(10.0), 0.24e12),
                          (MARS.medium_from_visibility(500.0), 1.64e12)):
            result = ensemble_extinction(medium, f)
            assert all(c >= 0 for _, c in result.c_ext_samples)


class TestExtinctionRates:
    """Rates of many densities from one set of size-distribution integrals."""

    @staticmethod
    def media():
        # the Mars time-scenario counts and Earth storm densities, visibility
        # and volumetric specs, and a second population mixed in
        out = [MARS.medium_from_count(c / 10.0, 1.64e12)
               for c in (*range(0, 27_000, 1000), 50, 299, 12_345, 19_999)]
        out += [EARTH.medium_from_count(c, 0.24e12)
                for c in (0, 5, 30, 100, 101, 150, 199, 200, 10.0, 1.0)]
        out += [EARTH.medium_from_visibility(v, 0.24e12) for v in (10.0, 316.2, 1e4)]
        out += [EARTH.medium_volumetric(n0, 0.24e12) for n0 in (0.0, 1e7)]
        out += [MediumSpec(SizeDistribution.point_mass(20e-6), EARTH.permittivity(),
                           density) for density in (LinearDensity(3.0), Visibility(50.0))]
        return out

    def test_equal_to_the_integral_per_medium(self):
        media = self.media()
        for model, f in (("mars-constant", 1.64e12),
                         ("earth-frequency-dependent", 0.24e12)):
            chosen = [m for m in media if m.permittivity.model == model]
            for medium, rate in zip(chosen, extinction_rates(chosen, f)):
                dist, eps, density = (medium.distribution, medium.permittivity,
                                      medium.density)
                if isinstance(density, LinearDensity):
                    expected = density.count_per_m * dist.expectation(
                        lambda r: extinction_efficiency(f, r, eps))
                else:
                    n0 = (number_density_from_visibility(dist, density.meters)
                          if isinstance(density, Visibility) else density.per_m3)
                    expected = n0 * dist.expectation(
                        lambda r: physical_cross_section(f, r, eps))
                assert rate == expected
                assert rate == ensemble_extinction(medium, f).extinction_per_m

    def test_each_integral_evaluated_once(self, monkeypatch):
        calls = []
        original = SizeDistribution.expectation

        def counting(self, fn):
            calls.append(self)
            return original(self, fn)

        monkeypatch.setattr(SizeDistribution, "expectation", counting)
        counts = [MARS.medium_from_count(c, 1.64e12) for c in range(0, 27_000, 1000)]
        extinction_rates(counts, 1.64e12)
        assert len(calls) == 1
        calls.clear()
        extinction_rates([EARTH.medium_from_visibility(v) for v in (10.0, 100.0, 1e3)],
                         EARTH.frequency_hz)
        assert len(calls) == 2    # the visibility area and the mean cross section

    def test_bad_frequency(self):
        with pytest.raises(DomainError):
            extinction_rates([EARTH.medium_from_count(10.0)], 0.0)
