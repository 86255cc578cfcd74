"""Tests for dust size distributions, cross sections and ensemble extinction."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson

import dustlink
from dustlink.constants import VACUUM_PERMITTIVITY
from dustlink.errors import DomainError
from dustlink.presets import EARTH, MARS
from dustlink.scatter import (DustPermittivity, LinearDensity, MediumSpec,
                              SizeDistribution, VolumetricDensity,
                              Visibility, dust_permittivity,
                              ensemble_extinction, extinction_efficiency,
                              mie_coefficients, number_density_from_visibility,
                              physical_cross_section)

EARTH_DIST = SizeDistribution.log_normal(10e-6, 2.0, 1e-6, 150e-6)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def quad_mean(dist, fn):
    """Oracle: E[fn(r)] by adaptive quadrature in u = ln r, where the
    untruncated log-normal is the Gaussian N(ln median, ln(sigma)**2)."""
    if dist.kind == "point-mass":
        return float(fn(dist.median_radius_m))
    mu, s = math.log(dist.median_radius_m), math.log(dist.geometric_sigma)
    lo, hi = math.log(dist.r_min_m), math.log(dist.r_max_m)

    def integral(g):
        value, _ = quad(lambda u: g(math.exp(u)) * math.exp(-0.5 * ((u - mu) / s) ** 2),
                        lo, hi, points=[mu], epsabs=0.0, epsrel=1e-13, limit=500)
        return value

    return integral(fn) / integral(lambda r: 1.0)


class TestSizeDistribution:
    def test_point_mass_unit_mass(self):
        dist = SizeDistribution.point_mass(50e-6)
        assert dist.moment(0) == 1.0
        assert dist.pdf(50e-6) == math.inf

    def test_lognormal_normalization(self):
        dist = SizeDistribution.log_normal(10e-6, 2.0, 1e-6, 150e-6)
        assert dist.moment(0) == pytest.approx(1.0, abs=1e-15)
        mass, _ = quad(dist.pdf, dist.r_min_m, dist.r_max_m, epsabs=0.0,
                       epsrel=1e-13, limit=500)
        assert mass == pytest.approx(1.0, rel=1e-10)

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
            dist.pdf(0.5e-6)
        with pytest.raises(DomainError):
            dist.pdf(200e-6)

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            SizeDistribution.log_normal(10e-6, 1.0, 1e-6, 150e-6)
        with pytest.raises(DomainError):
            SizeDistribution.log_normal(10e-6, 2.0, 150e-6, 1e-6)
        with pytest.raises(DomainError):
            SizeDistribution.point_mass(0.0)

    @given(st.sampled_from(["median_radius_m", "geometric_sigma", "r_min_m",
                            "r_max_m"]),
           NON_FINITE, st.sampled_from(["log-normal", "point-mass"]))
    def test_non_finite_parameter_rejected(self, name, value, kind):
        params = dict(kind=kind, median_radius_m=10e-6, geometric_sigma=2.0,
                      r_min_m=1e-6, r_max_m=150e-6)
        params[name] = value
        with pytest.raises(DomainError):
            SizeDistribution(**params)


class TestClosedFormMoments:
    """The closed-form truncated moments against adaptive quadrature."""

    @pytest.mark.parametrize("dist", [EARTH.size_distribution,
                                      MARS.size_distribution,
                                      SizeDistribution.point_mass(20e-6)],
                             ids=["earth", "mars", "point-mass"])
    def test_moments_match_quadrature(self, dist):
        for n in range(7):
            assert dist.moment(n) == pytest.approx(
                quad_mean(dist, lambda r: r ** n), rel=1e-10)

    @given(median=st.floats(min_value=0.1e-6, max_value=100e-6),
           sigma=st.floats(min_value=1.05, max_value=3.0),
           below=st.floats(min_value=1.01, max_value=100.0),
           above=st.floats(min_value=1.01, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_drawn_moments_match_quadrature(self, median, sigma, below, above):
        dist = SizeDistribution.log_normal(median, sigma, median / below,
                                           median * above)
        for n in range(7):
            assert dist.moment(n) == pytest.approx(
                quad_mean(dist, lambda r: r ** n), rel=1e-10)

    @pytest.mark.parametrize("dist, eps, f_hz", [
        (EARTH.size_distribution, EARTH.permittivity(), EARTH.frequency_hz),
        # an extinction-table grid point where adaptive quadrature at
        # epsrel 1e-8 was 1.4e-10 off
        (EARTH.size_distribution, EARTH.permittivity(681292069057.9622),
         681292069057.9622),
        (MARS.size_distribution, MARS.permittivity(), MARS.frequency_hz),
        (MARS.size_distribution,
         DustPermittivity("rayleigh", MARS.permittivity().eps_real,
                          MARS.permittivity().eps_imag, charge_density=1e-5,
                          field_scale=1.0), MARS.frequency_hz),
    ], ids=["earth-mie", "earth-mie-0.68THz", "mars-rayleigh", "charged-rayleigh"])
    def test_population_means_match_quadrature(self, dist, eps, f_hz):
        # a unit beam count gives the mean efficiency, a unit volumetric
        # density the mean cross section
        for density, per_radius in ((LinearDensity(1.0), extinction_efficiency),
                                    (VolumetricDensity(1.0), physical_cross_section)):
            rate = ensemble_extinction(MediumSpec(dist, eps, density),
                                       f_hz).extinction_per_m
            assert rate == pytest.approx(
                quad_mean(dist, lambda r: per_radius(f_hz, r, eps)), rel=1e-10)


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
            DustPermittivity("mie", 3.0, -0.1)

    @given(st.sampled_from(["eps_real", "eps_imag", "charge_density",
                            "field_scale"]), NON_FINITE)
    def test_non_finite_field_rejected(self, name, value):
        params = {"eps_real": 3.0, "eps_imag": 0.1, name: value}
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            DustPermittivity("mie", **params)

    @given(st.sampled_from(["earth-frequency-dependent", "mars-constant"]),
           NON_FINITE)
    def test_non_finite_frequency_rejected(self, model, f_hz):
        # nan once gave eps_imag = nan, and inf gave a lossless Earth grain
        with pytest.raises(DomainError, match="f_hz must be finite"):
            dust_permittivity(model, f_hz)

    @given(st.text().filter(lambda text: text not in ("mie", "rayleigh")))
    @example("Mie")
    @example("mars-constant")
    @example("user")
    def test_unknown_approximation_rejected(self, approximation):
        # "Mie" once fell through to the Rayleigh model; a permittivity
        # model name is not an approximation
        with pytest.raises(DomainError, match="unknown approximation"):
            DustPermittivity(approximation, 3.0, 0.1)


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
        raw = extinction_efficiency(0.24e12, 10e-6, eps)
        norm = physical_cross_section(0.24e12, 10e-6, eps)
        assert norm == pytest.approx(raw * math.pi * (10e-6) ** 2, rel=1e-12)
        assert raw > 0

    def test_printed_series_oracle(self):
        # oracle: the printed series written out term by term
        f = 0.24e12
        eps = dust_permittivity("earth-frequency-dependent", f)
        c1, c2, c3 = mie_coefficients(eps.eps)
        lam = 2.99792458e8 / f
        k = 2 * math.pi / lam
        radii = np.array([1e-6, 10e-6, 150e-6])
        printed = (k ** 3 * radii * lam ** 2 / 2) * (
            c1 + c2 * (k * radii) ** 2 + c3 * (k * radii) ** 3)
        np.testing.assert_allclose(extinction_efficiency(f, radii, eps), printed,
                                   rtol=1e-12)
        assert extinction_efficiency(f, 10e-6, eps) == pytest.approx(printed[1],
                                                                     rel=1e-12)

    def test_c1_nonnegative_for_physical_permittivity(self):
        for epp in (0.0, 0.01, 1.0, 20.0):
            c1, _, _ = mie_coefficients(complex(3.0, epp))
            assert c1 >= 0


class TestApproximation:
    def test_kept_functions_follow_the_label(self):
        # oracle: the printed Mie efficiency and the two-term Rayleigh cross
        # section, each written out, for one permittivity under both labels
        f, r = 1.64e12, 1.5e-6
        mie = DustPermittivity("mie", 2.3103, 0.0304)
        rayleigh = DustPermittivity("rayleigh", 2.3103, 0.0304)
        lam = 2.99792458e8 / f
        k = 2 * math.pi / lam
        c1, c2, c3 = mie_coefficients(mie.eps)
        printed = (k ** 3 * r * lam ** 2 / 2) * (c1 + c2 * (k * r) ** 2
                                                 + c3 * (k * r) ** 3)
        er = rayleigh.eps
        two_term = (12 * math.pi * k * er.imag * r ** 3 / abs(er + 2) ** 2
                    + (8 / 3) * math.pi * k ** 4 * r ** 6
                    * abs((er - 1) / (er + 2)) ** 2)
        assert extinction_efficiency(f, r, mie) == pytest.approx(printed, rel=1e-12)
        assert physical_cross_section(f, r, rayleigh) == pytest.approx(two_term,
                                                                       rel=1e-12)
        assert extinction_efficiency(f, r, mie) != pytest.approx(
            extinction_efficiency(f, r, rayleigh), rel=1e-3)


class TestRayleigh:
    def test_zero_charge_term(self):
        eps = dust_permittivity("mars-constant")
        total = physical_cross_section(1.64e12, 1.5e-6, eps)
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
        eps = DustPermittivity("rayleigh", 2.3103, 0.0)
        # pure scattering (eps''=0): doubling r multiplies by 64
        small = physical_cross_section(1.64e12, 1e-6, eps)
        large = physical_cross_section(1.64e12, 2e-6, eps)
        assert large == pytest.approx(64 * small, rel=1e-12)

    def test_charged_grain_needs_field_scale(self):
        eps = DustPermittivity("rayleigh", 2.3103, 0.0304,
                               charge_density=1e-6, field_scale=0.0)
        with pytest.raises(DomainError):
            physical_cross_section(1.64e12, 1e-6, eps)

    def test_charge_term_oracle(self):
        # oracle: the charge term written out, added to the neutral sum
        neutral = dust_permittivity("mars-constant")
        charged = DustPermittivity("rayleigh", neutral.eps_real,
                                   neutral.eps_imag, charge_density=1e-5,
                                   field_scale=2.0)
        k = 2 * math.pi * 1.64e12 / 2.99792458e8
        r = 1.5e-6
        charge = ((math.pi / 6) * k ** 4 * r ** 6 * 1e-10 * abs(neutral.eps - 1) ** 2
                  / (4.0 * VACUUM_PERMITTIVITY ** 2))
        assert physical_cross_section(1.64e12, r, charged) == pytest.approx(
            physical_cross_section(1.64e12, r, neutral) + charge, rel=1e-12)

    def test_charge_term_increases_extinction(self):
        neutral = dust_permittivity("mars-constant")
        charged = DustPermittivity("rayleigh", neutral.eps_real,
                                   neutral.eps_imag, charge_density=1e-5,
                                   field_scale=1.0)
        assert (physical_cross_section(1.64e12, 1e-6, charged)
                > physical_cross_section(1.64e12, 1e-6, neutral))


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


def volumetric(density: LinearDensity) -> float:
    """The number density ``ensemble_extinction`` records for beam counts."""
    medium = MediumSpec(EARTH_DIST, dust_permittivity("earth-frequency-dependent", 0.24e12),
                        density)
    return ensemble_extinction(medium, 0.24e12).number_density_per_m3


class TestLinearDensity:
    def test_paper_beam_counts(self):
        assert volumetric(LinearDensity(10.0, 1e-6)) == pytest.approx(1e7)

    def test_zero_counts(self):
        assert volumetric(LinearDensity(0.0, 1e-6)) == 0.0

    def test_unit_conversion_oracle(self):
        # 100 particles per 10 m at 0.01 cm^2 face -> 1e7 per m^3
        assert volumetric(LinearDensity(100.0 / 10.0)) == pytest.approx(1e7)

    def test_bad_beam_area(self):
        with pytest.raises(DomainError, match="beam area"):
            LinearDensity(1.0, beam_area_m2=0.0)

    @given(st.sampled_from(["count_per_m", "beam_area_m2"]), NON_FINITE)
    def test_non_finite_field_rejected(self, name, value):
        params = {"count_per_m": 10.0, "beam_area_m2": 1e-6, name: value}
        with pytest.raises(DomainError):
            LinearDensity(**params)


class TestDensityValidation:
    @given(NON_FINITE)
    def test_non_finite_visibility_rejected(self, value):
        with pytest.raises(DomainError):
            Visibility(value)

    @given(NON_FINITE)
    def test_non_finite_volumetric_density_rejected(self, value):
        with pytest.raises(DomainError):
            VolumetricDensity(value)


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
        medium = MediumSpec(EARTH.size_distribution, EARTH.permittivity(),
                            LinearDensity(10.0))
        result = ensemble_extinction(medium, 0.24e12)
        dist = medium.distribution
        grid = np.linspace(dist.r_min_m, dist.r_max_m, 10_001)
        pdf = np.array([dist.pdf(r) for r in grid])
        eff = extinction_efficiency(0.24e12, grid, medium.permittivity)
        oracle = 10.0 * simpson(pdf * eff, x=grid)
        assert result.extinction_per_m == pytest.approx(oracle, rel=1e-6)

    def test_mars_preset_against_simpson_oracle(self):
        medium = MediumSpec(MARS.size_distribution, MARS.permittivity(),
                            LinearDensity(1000.0))
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
        result = EARTH.extinction(LinearDensity(10.0), 0.24e12)
        assert result.wavenumber_per_m * result.wavelength_m == pytest.approx(
            2 * math.pi, abs=1e-12)

    def test_visibility_spec_uses_physical_cross_sections(self):
        result = EARTH.extinction(Visibility(1000.0), 0.24e12)
        assert result.coupling == "volumetric"
        n0 = number_density_from_visibility(EARTH.size_distribution, 1000.0)
        assert result.number_density_per_m3 == pytest.approx(n0, rel=1e-12)

    def test_beam_count_spec_uses_blockage_coupling(self):
        result = EARTH.extinction(LinearDensity(10.0), 0.24e12)
        assert result.coupling == "beam-blockage"
        assert result.number_density_per_m3 == pytest.approx(1e7)

    def test_sample_cross_sections_nonnegative(self):
        for planet in (EARTH, MARS):
            dist = planet.size_distribution
            radii = np.geomspace(dist.r_min_m, dist.r_max_m, 33)
            eps = planet.permittivity()
            assert np.all(physical_cross_section(planet.frequency_hz, radii, eps) >= 0)


class TestExtinctionRates:
    """Rates of many media against quadrature of the per-particle models."""

    @staticmethod
    def media():
        # (medium, frequency) pairs: the Mars time-scenario counts and Earth
        # storm densities, visibility and volumetric specs, and a second
        # population mixed in
        def at(planet, density):
            return (MediumSpec(planet.size_distribution, planet.permittivity(),
                               density), planet.frequency_hz)
        out = [at(MARS, LinearDensity(c / 10.0))
               for c in (*range(0, 27_000, 1000), 50, 299, 12_345, 19_999)]
        out += [at(EARTH, LinearDensity(c))
                for c in (0, 5, 30, 100, 101, 150, 199, 200, 10.0, 1.0)]
        out += [at(EARTH, Visibility(v)) for v in (10.0, 316.2, 1e4)]
        out += [at(EARTH, VolumetricDensity(n0)) for n0 in (0.0, 1e7)]
        out += [(MediumSpec(SizeDistribution.point_mass(20e-6), EARTH.permittivity(),
                            density), 0.24e12)
                for density in (LinearDensity(3.0), Visibility(50.0))]
        return out

    def test_equal_to_the_integral_per_medium(self):
        means = {}
        for medium, f in self.media():
            dist, eps, density = (medium.distribution, medium.permittivity,
                                  medium.density)
            blockage = isinstance(density, LinearDensity)
            key = (dist, eps, blockage)
            if key not in means:
                per_radius = extinction_efficiency if blockage else physical_cross_section
                means[key] = quad_mean(dist, lambda r: per_radius(f, r, eps))
            if blockage:
                expected = density.count_per_m * means[key]
            else:
                n0 = (number_density_from_visibility(dist, density.meters)
                      if isinstance(density, Visibility) else density.per_m3)
                expected = n0 * means[key]
            rate = ensemble_extinction(medium, f).extinction_per_m
            assert rate == pytest.approx(expected, rel=1e-10, abs=0.0)

    def test_bad_frequency(self):
        for f_hz in (0.0, -1e12, math.nan, math.inf):
            with pytest.raises(DomainError):
                ensemble_extinction(MediumSpec(EARTH.size_distribution,
                                               EARTH.permittivity(),
                                               LinearDensity(10.0)), f_hz)


class TestPresetExtinction:
    """``PlanetPreset.extinction`` takes the permittivity and the wavenumber
    at one frequency."""

    @pytest.mark.parametrize("planet, density, model", [
        (EARTH, LinearDensity(10.0), "earth-frequency-dependent"),
        (MARS, Visibility(500.0), "mars-constant"),
    ], ids=["earth", "mars"])
    def test_equal_to_the_medium_built_by_hand(self, planet, density, model):
        # 1 THz is off both carriers; the Earth permittivity follows f
        medium = MediumSpec(planet.size_distribution, dust_permittivity(model, 1e12),
                            density)
        assert planet.extinction(density, 1e12) == ensemble_extinction(medium, 1e12)

    @pytest.mark.parametrize("planet, density", [
        (EARTH, LinearDensity(10.0)), (MARS, Visibility(500.0))],
        ids=["earth", "mars"])
    def test_frequency_defaults_to_the_carrier(self, planet, density):
        assert planet.extinction(density) == planet.extinction(
            density, planet.frequency_hz)


def test_import_loads_no_scipy():
    # scipy is a test-only dependency: importing the package must not load it
    src = Path(dustlink.__file__).resolve().parents[1]
    code = ("import sys, dustlink, dustlink.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
