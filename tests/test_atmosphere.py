"""Tests for catalog parsing, line shapes and the absorption coefficient."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from dustlink import atmosphere as atm
from dustlink.constants import (AVOGADRO, ATM_PA, BOLTZMANN, C2_CM_K,
                                HZ_PER_INVCM, LN2, SPEED_OF_LIGHT)
from dustlink.errors import CatalogError, DomainError, FormatError
from dustlink.output import write_csv
from dustlink.presets import EARTH, MARS, bundled_catalog_dir

# A hand-assembled 160-column record: H2O line at 7.5 1/cm. Column spans:
# mol 1-2, iso 3, center 4-15, intensity 16-25, (skipped 26-35),
# gamma_air 36-40, gamma_self 41-45, E'' 46-55, n_air 56-59, shift 60-67.
CRAFTED = (" 1" + "1" + "    7.500000" + " 1.234E-21" + " " * 10
           + ".0880" + ".4100" + "  300.0000" + "0.70" + " .000020"
           + " " * 93)


def make_line(**kwargs) -> atm.SpectralLine:
    base = dict(molecule_id=1, isotopologue_id=1, line_center_invcm=7.5,
                intensity_ref=1.234e-21, gamma_air_invcm_atm=0.0880,
                gamma_self_invcm_atm=0.4100, lower_state_energy_invcm=300.0,
                temperature_exponent=0.70, pressure_shift_invcm_atm=2e-5,
                molar_mass_kg_mol=18.010565e-3)
    base.update(kwargs)
    return atm.SpectralLine(**base)


class TestParser:
    def test_crafted_record_field_exact(self):
        line = atm.parse_par_record(CRAFTED)
        assert line.molecule_id == 1
        assert line.isotopologue_id == 1
        assert line.line_center_invcm == 7.5
        assert line.intensity_ref == 1.234e-21
        assert line.gamma_air_invcm_atm == 0.0880
        assert line.gamma_self_invcm_atm == 0.4100
        assert line.lower_state_energy_invcm == 300.0
        assert line.temperature_exponent == 0.70
        assert line.pressure_shift_invcm_atm == 2e-5
        assert line.molar_mass_kg_mol == 18.010565e-3

    def test_center_frequency_conversion(self):
        # oracle: 7.5 (1/cm) * c * 100 = 224.844 GHz
        line = atm.parse_par_record(CRAFTED)
        assert line.center_hz == pytest.approx(7.5 * SPEED_OF_LIGHT * 100,
                                               rel=1e-9)
        assert line.center_hz == pytest.approx(224.844e9, rel=1e-4)

    def test_wrong_length_rejected(self):
        with pytest.raises(FormatError, match="record 7"):
            atm.parse_par_record(CRAFTED[:159], record_number=7)

    def test_bad_field_names_column_span(self):
        broken = CRAFTED[:3] + "      x     " + CRAFTED[15:]
        with pytest.raises(FormatError, match="columns 4-15"):
            atm.parse_par_record(broken)

    def test_rejected_value_names_record(self):
        # once a bare DomainError, which the CLI reported as a runtime error
        broken = CRAFTED[:15] + "-1.000E-20" + CRAFTED[25:]
        with pytest.raises(FormatError,
                           match="record 4: line intensity must be >= 0"):
            atm.parse_par_record(broken, record_number=4)

    def test_direct_line_still_domain_error(self):
        with pytest.raises(DomainError, match="line intensity"):
            make_line(intensity_ref=-1e-20)

    def test_unknown_isotopologue_rejected(self):
        broken = "99" + CRAFTED[2:]
        with pytest.raises(FormatError, match="molar mass"):
            atm.parse_par_record(broken)

    def test_round_trip_is_byte_identical(self):
        rendered = atm.render_par_record(atm.parse_par_record(CRAFTED))
        assert rendered == CRAFTED
        assert atm.parse_par_record(rendered) == atm.parse_par_record(CRAFTED)

    def test_round_trip_negative_shift(self):
        line = make_line(pressure_shift_invcm_atm=-1.7e-5)
        assert atm.parse_par_record(atm.render_par_record(line)) == line

    def test_parse_order_independence(self):
        text = "\n".join([CRAFTED, atm.render_par_record(make_line(
            line_center_invcm=12.5, lower_state_energy_invcm=10.0))])
        first = atm.parse_catalog(text)
        second = atm.parse_catalog(text)
        assert first == second
        assert len(first) == 2

    def test_bundled_catalog_loads(self):
        catalog = atm.load_catalog_dir(bundled_catalog_dir(),
                                       [g for g, _ in EARTH.gases])
        assert all(lines for lines in catalog.values())

    def test_missing_files_listed(self, tmp_path):
        with pytest.raises(CatalogError, match="XY.par"):
            atm.load_catalog_dir(tmp_path, ["XY"])


class TestLineIntensity:
    def test_reference_temperature_identity(self):
        line = make_line()
        assert atm.line_intensity_at_temperature(line, 296.0) == line.intensity_ref

    def test_term_by_term_oracle(self):
        # oracle: independent evaluation of the three rescaling factors for
        # a linear molecule (CO) at 210 K with E'' = 100 1/cm
        line = make_line(molecule_id=5, lower_state_energy_invcm=100.0,
                         line_center_invcm=3.845033,
                         molar_mass_kg_mol=27.994915e-3)
        t, t0 = 210.0, 296.0
        partition = t0 / t
        boltzmann = math.exp(-C2_CM_K * 100.0 / t) / math.exp(-C2_CM_K * 100.0 / t0)
        stimulated = ((1 - math.exp(-C2_CM_K * 3.845033 / t))
                      / (1 - math.exp(-C2_CM_K * 3.845033 / t0)))
        oracle = line.intensity_ref * partition * boltzmann * stimulated
        assert atm.line_intensity_at_temperature(line, 210.0) == pytest.approx(
            oracle, rel=1e-12)

    def test_cold_intensity_decreasing_in_lower_state_energy(self):
        # sign-analysis oracle on a grid of E'' values at T < 296
        values = [atm.line_intensity_at_temperature(
            make_line(lower_state_energy_invcm=e), 210.0)
            for e in (0.0, 50.0, 100.0, 200.0, 400.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestLorentz:
    def test_air_broadening_at_reference(self):
        line = make_line()
        gamma = atm.lorentz_halfwidth(line, 0.8, 0.0, 296.0)
        assert gamma == pytest.approx(0.0880 * 0.8 * HZ_PER_INVCM, rel=1e-12)

    def test_temperature_power_law(self):
        # oracle: (296/148)^0.5 = sqrt(2)
        line = make_line(temperature_exponent=0.5)
        gamma = atm.lorentz_halfwidth(line, 1.0, 0.0, 148.0)
        assert gamma == pytest.approx(0.0880 * math.sqrt(2.0) * HZ_PER_INVCM,
                                      rel=1e-12)

    def test_self_broadening_limit(self):
        line = make_line()
        gamma = atm.lorentz_halfwidth(line, 0.6, 0.6, 250.0)
        oracle = 0.4100 * 0.6 * (296.0 / 250.0) ** 0.70 * HZ_PER_INVCM
        assert gamma == pytest.approx(oracle, rel=1e-12)

    def test_peak_value(self):
        line = make_line(pressure_shift_invcm_atm=0.0)
        gamma = 2.5e9
        peak = atm.lorentz_shape(line.center_hz, line, gamma, 1.0)
        assert peak == pytest.approx(1.0 / (math.pi * gamma), rel=1e-12)

    def test_half_maximum_identity(self):
        line = make_line(pressure_shift_invcm_atm=0.0)
        gamma = 2.5e9
        peak = atm.lorentz_shape(line.center_hz, line, gamma, 1.0)
        half = atm.lorentz_shape(line.center_hz + gamma, line, gamma, 1.0)
        assert half == pytest.approx(peak / 2.0, rel=1e-12)

    def test_shifted_center(self):
        line = make_line(pressure_shift_invcm_atm=0.01)
        gamma = 1e9
        shifted = line.center_hz + 0.01 * 0.5 * HZ_PER_INVCM
        assert atm.lorentz_shape(shifted, line, gamma, 0.5) == pytest.approx(
            1.0 / (math.pi * gamma), rel=1e-12)

    def test_normalization(self):
        line = make_line(pressure_shift_invcm_atm=0.0)
        gamma = 1e9
        value, _ = quad(lambda f: atm.lorentz_shape(f, line, gamma, 1.0),
                        line.center_hz - 1e4 * gamma,
                        line.center_hz + 1e4 * gamma, limit=200)
        assert value == pytest.approx(1.0, abs=1e-3)


class TestDoppler:
    def test_constant_by_constant_oracle(self):
        # oracle: rebuild alpha_D from the constants for CO2 at 210 K
        line = make_line(molecule_id=2, line_center_invcm=54.85,
                         molar_mass_kg_mol=43.98983e-3)
        alpha = atm.doppler_halfwidth(line, 210.0)
        oracle = (line.center_hz / SPEED_OF_LIGHT) * math.sqrt(
            2 * AVOGADRO * BOLTZMANN * 210.0 * LN2 / 43.98983e-3)
        assert alpha == pytest.approx(oracle, rel=1e-12)

    def test_linear_in_center_frequency(self):
        a1 = atm.doppler_halfwidth(make_line(line_center_invcm=10.0), 250.0)
        a2 = atm.doppler_halfwidth(make_line(line_center_invcm=20.0), 250.0)
        assert a2 == pytest.approx(2 * a1, rel=1e-12)

    def test_sqrt_temperature_scaling(self):
        line = make_line()
        a1 = atm.doppler_halfwidth(line, 100.0)
        a2 = atm.doppler_halfwidth(line, 400.0)
        assert a2 == pytest.approx(2 * a1, rel=1e-12)

    def test_peak_and_half_maximum(self):
        line = make_line()
        alpha = 2e6
        peak = atm.doppler_shape(line.center_hz, line, alpha)
        assert peak == pytest.approx(math.sqrt(LN2 / math.pi) / alpha, rel=1e-12)
        assert atm.doppler_shape(line.center_hz + alpha, line, alpha) == \
            pytest.approx(peak / 2.0, rel=1e-12)

    def test_symmetry(self):
        line = make_line()
        alpha = 2e6
        for dx in (0.3e6, 1.7e6, 5e6):
            assert atm.doppler_shape(line.center_hz + dx, line, alpha) == \
                atm.doppler_shape(line.center_hz - dx, line, alpha)

    def test_normalization(self):
        line = make_line()
        alpha = 2e6
        value, _ = quad(lambda f: atm.doppler_shape(f, line, alpha),
                        line.center_hz - 10 * alpha,
                        line.center_hz + 10 * alpha, limit=200)
        assert value == pytest.approx(1.0, abs=1e-3)


class TestAbsorptionCoefficient:
    def test_empty_catalog(self):
        spectrum = atm.absorption_coefficient(EARTH.mixture(), {},
                                              np.array([0.22e12, 0.24e12]))
        assert np.all(spectrum.k_per_m == 0.0)

    def test_single_line_center_composition(self):
        # oracle: hand-composed n * S(T) * F(center) for one line of one gas
        line = make_line(pressure_shift_invcm_atm=0.0)
        mixture = atm.GasMixture((("H2O", 0.01),), 288.0, 1.0)
        spectrum = atm.absorption_coefficient(
            mixture, {"H2O": [line]}, np.array([line.center_hz]),
            shape_model="lorentz")
        n = 0.01 * ATM_PA / (BOLTZMANN * 288.0)
        s = atm.line_intensity_at_temperature(line, 288.0) * SPEED_OF_LIGHT * 1e-2
        gamma = atm.lorentz_halfwidth(line, 1.0, 0.01, 288.0)
        oracle = n * s / (math.pi * gamma)
        assert spectrum.k_per_m[0] == pytest.approx(oracle, rel=1e-9)

    def test_pressure_regime_selects_shape(self):
        earth = atm.absorption_coefficient(EARTH.mixture(), {},
                                           np.array([0.23e12]))
        mars = atm.absorption_coefficient(MARS.mixture(), {},
                                          np.array([1.64e12]))
        assert earth.shape_model == "lorentz"
        assert mars.shape_model == "doppler"

    def test_earth_absorbs_far_more_than_mars_in_its_band(self):
        catalog = atm.load_catalog_dir(bundled_catalog_dir(),
                                       list(atm.MOLECULE_IDS))
        grid = np.array([0.24e12])
        k_earth = atm.absorption_coefficient(EARTH.mixture(), catalog, grid)
        k_mars = atm.absorption_coefficient(MARS.mixture(), catalog, grid)
        assert k_earth.k_per_m[0] > 0.0
        assert k_mars.k_per_m[0] < 1e-3 * k_earth.k_per_m[0]

    def test_linear_in_mixing_ratio(self):
        line = make_line()
        grid = np.array([line.center_hz - 1e6, line.center_hz, line.center_hz + 1e6])
        low = atm.absorption_coefficient(
            atm.GasMixture((("H2O", 1e-4),), 210.0, 0.006),
            {"H2O": [line]}, grid)
        high = atm.absorption_coefficient(
            atm.GasMixture((("H2O", 2e-4),), 210.0, 0.006),
            {"H2O": [line]}, grid)
        assert low.shape_model == "doppler"
        assert np.allclose(high.k_per_m, 2 * low.k_per_m, rtol=1e-12)

    def test_lines_outside_cutoff_are_skipped(self):
        line = make_line()   # 224.8 GHz center
        grid = np.array([1.64e12, 1.65e12])
        spectrum = atm.absorption_coefficient(
            atm.GasMixture((("H2O", 1e-4),), 210.0, 0.006),
            {"H2O": [line]}, grid)
        assert np.all(spectrum.k_per_m == 0.0)

    def test_non_monotone_grid_rejected(self):
        with pytest.raises(DomainError):
            atm.absorption_coefficient(EARTH.mixture(), {},
                                       np.array([2e12, 1e12]))

    def test_nonnegative_everywhere(self):
        catalog = atm.load_catalog_dir(bundled_catalog_dir(),
                                       [g for g, _ in EARTH.gases])
        grid = np.linspace(0.05e12, 1.2e12, 400)
        spectrum = atm.absorption_coefficient(EARTH.mixture(), catalog, grid)
        assert np.all(spectrum.k_per_m >= 0.0)

    def test_spectrum_csv_round_trip(self, tmp_path):
        line = make_line()
        grid = np.array([line.center_hz - 1e9, line.center_hz, line.center_hz + 1e9])
        spectrum = atm.absorption_coefficient(
            atm.GasMixture((("H2O", 0.01),), 288.0, 1.0), {"H2O": [line]}, grid)
        path = write_csv(tmp_path / "spec.csv", ["f_hz", "k_per_m"],
                         list(zip(spectrum.frequency_hz, spectrum.k_per_m)))
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "f_hz,k_per_m"
        values = [tuple(map(float, row.split(","))) for row in rows[1:]]
        assert values == [(float(f), float(k)) for f, k in
                          zip(spectrum.frequency_hz, spectrum.k_per_m)]


class TestGasMixture:
    def test_ratio_sum_guard(self):
        with pytest.raises(DomainError):
            atm.GasMixture((("N2", 0.9), ("O2", 0.2)), 288.0, 1.0)

    def test_unknown_gas(self):
        with pytest.raises(DomainError):
            atm.GasMixture((("XE", 0.1),), 288.0, 1.0)

    def test_ideal_gas_density(self):
        mixture = atm.GasMixture((("N2", 0.5),), 300.0, 1.0)
        oracle = 0.5 * ATM_PA / (BOLTZMANN * 300.0)
        assert mixture.number_density_m3("N2") == pytest.approx(oracle, rel=1e-12)
        assert mixture.number_density_m3("O2") == 0.0
