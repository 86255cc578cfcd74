"""Tests for catalog parsing, line shapes and the absorption coefficient."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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


def replace_field(record: str, name: str, text: str) -> str:
    """``record`` with field ``name`` set to ``text``, right-justified."""
    _, start, width, _ = next(f for f in atm._FIELDS if f[0] == name)
    return record[:start - 1] + text.rjust(width) + record[start - 1 + width:]


FLOAT_FIELDS = ["line_center_invcm", "intensity_ref", "gamma_air_invcm_atm",
                "gamma_self_invcm_atm", "lower_state_energy_invcm",
                "temperature_exponent", "pressure_shift_invcm_atm",
                "molar_mass_kg_mol"]
COLUMNS = ["molecule_id", "isotopologue_id"] + FLOAT_FIELDS


@st.composite
def drawn_lines(draw) -> atm.SpectralLine:
    """A line whose every field fits its record width."""
    return atm.SpectralLine(
        molecule_id=draw(st.sampled_from(sorted(atm.MOLECULE_IDS.values()))),
        isotopologue_id=draw(st.integers(1, 2)),
        line_center_invcm=draw(st.integers(1, 10**11 - 1)) / 1e6,
        intensity_ref=draw(st.integers(0, 9999)) / 1000 * 10.0 ** -draw(st.integers(0, 30)),
        gamma_air_invcm_atm=draw(st.integers(1, 9999)) / 1e4,
        gamma_self_invcm_atm=draw(st.integers(0, 9999)) / 1e4,
        lower_state_energy_invcm=draw(st.integers(0, 10**9 - 1)) / 1e4,
        temperature_exponent=draw(st.integers(0, 999)) / 100,
        pressure_shift_invcm_atm=draw(st.integers(-999_999, 999_999)) / 1e6,
        molar_mass_kg_mol=1.0)


# Characters a damaged record may hold: numerals of two scripts, parts of
# numbers, letters, blanks, NUL and a non-ASCII letter.
GARBAGE = st.sampled_from(list("0123456789+-._eEinfaINFx \t\xa0\x00é١"))
NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", "-Infinity", "+nan"])


@st.composite
def damaged_records(draw) -> str:
    """A rendered record, maybe with one field or span spoiled."""
    record = atm.render_par_record(draw(drawn_lines()))
    name, start, width, conv = draw(st.sampled_from(atm._FIELDS))
    damage = draw(st.sampled_from(["none", "none", "blank", "garbage", "non-finite",
                                   "negative intensity", "isotopologue", "length",
                                   "trailing NUL", "unparsed"]))
    if damage == "blank":
        record = replace_field(record, name, "")
    elif damage == "garbage":
        record = replace_field(record, name,
                               draw(st.text(GARBAGE, min_size=width, max_size=width)))
    elif damage == "non-finite" and conv is float:
        record = replace_field(record, name, draw(NON_FINITE.filter(lambda t: len(t) <= width)))
    elif damage == "negative intensity":
        record = replace_field(record, "intensity_ref", f"{-draw(st.floats(1e-30, 1e-18)):10.3E}")
    elif damage == "isotopologue":
        record = replace_field(record, "isotopologue_id", str(draw(st.integers(4, 9))))
    elif damage == "length":
        cut = draw(st.integers(1, 5))
        record = record[:-cut] if draw(st.booleans()) else record + " " * cut
    elif damage == "trailing NUL":   # numpy alone would read "1.5\0" as 1.5
        end = start - 1 + width
        record = record[:end - 1] + "\x00" + record[end:]
    elif damage == "unparsed":   # a column no field reads
        column = draw(st.sampled_from([26, 35, 68, 160]))
        record = record[:column - 1] + draw(st.sampled_from(["\x00", "é", "x"])) + record[column:]
    return record


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

    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_line_value_rejected(self, name, value):
        # nan <= 0 is False, so a range check alone lets nan through
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            make_line(**{name: value})

    @pytest.mark.parametrize("name,text", [("line_center_invcm", "nan"),
                                           ("intensity_ref", "inf"),
                                           ("temperature_exponent", "nan")])
    def test_non_finite_record_names_record(self, name, text):
        broken = replace_field(CRAFTED, name, text)
        message = f"record 3: {name} must be finite"
        with pytest.raises(FormatError, match=message):
            atm.parse_par_record(broken, record_number=3)
        with pytest.raises(FormatError, match=message):
            atm.parse_catalog("\n".join([CRAFTED, "", broken, CRAFTED]))

    def test_table_rows_are_lines(self):
        records = [CRAFTED, atm.render_par_record(make_line(
            molecule_id=2, line_center_invcm=12.5, temperature_exponent=0.75))]
        lines = [atm.parse_par_record(r) for r in records]
        table = atm.parse_catalog("\n".join(records))
        assert len(table) == 2
        assert list(table) == lines
        assert table[1] == lines[1]
        assert table[np.array([False, True])] == atm.parse_catalog(records[1])
        assert atm.LineTable.from_lines(lines) == table
        assert table != atm.parse_catalog(records[0])
        with pytest.raises(ValueError):
            table.line_center_invcm[0] = 1.0

    @given(st.lists(st.tuples(damaged_records(),
                              st.sampled_from([None, None, "", "   ", "\t"])),
                    max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_catalog_parse_matches_record_parser(self, entries):
        lines = []
        for record, blank in entries:
            lines += [record] if blank is None else [record, blank]
        text = "\n".join(lines)
        numbered = [(n, r) for n, r in enumerate(text.splitlines(), start=1)
                    if r.strip()]
        try:
            expected = [atm.parse_par_record(r, n) for n, r in numbered]
        except FormatError as exc:
            with pytest.raises(FormatError) as caught:
                atm.parse_catalog(text)
            assert str(caught.value) == str(exc)
            return
        table = atm.parse_catalog(text)
        for name in COLUMNS:
            column = getattr(table, name)
            assert column.tobytes() == np.array(
                [getattr(line, name) for line in expected], dtype=column.dtype).tobytes()

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


def oracle_absorption(mixture, catalog, grid, shape_model):
    """The line-by-line loop of the scalar functions: each line's window is
    every grid point with |f - center| <= cutoff."""
    k = np.zeros_like(grid)
    pressure, temperature = mixture.pressure_atm, mixture.temperature_k
    for gas, _ratio in mixture.species:
        lines = list(catalog.get(gas, []))
        if not lines:
            continue
        density = mixture.number_density_m3(gas)
        if density == 0.0:
            continue
        partial = mixture.mixing_ratio(gas) * pressure
        for line in lines:
            if shape_model == "lorentz":
                halfwidth = atm.lorentz_halfwidth(line, pressure, partial, temperature)
                cutoff = atm.LORENTZ_WING_CUTOFF_HZ
                center = atm._shifted_center_hz(line, pressure)
            else:
                halfwidth = atm.doppler_halfwidth(line, temperature)
                cutoff = atm.DOPPLER_WING_CUTOFF_HALFWIDTHS * halfwidth
                center = line.center_hz
            if center + cutoff < grid[0] or center - cutoff > grid[-1]:
                continue
            strength = density * atm._intensity_si(line, temperature)
            window = np.abs(grid - center) <= cutoff
            if not np.any(window):
                continue
            if shape_model == "lorentz":
                shape = atm.lorentz_shape(grid[window], line, halfwidth, pressure)
            else:
                shape = atm.doppler_shape(grid[window], line, halfwidth)
            k[window] += strength * shape
    return k


def assert_matches_oracle(mixture, catalog, grid, shape_model):
    spectrum = atm.absorption_coefficient(mixture, catalog, grid, shape_model)
    oracle = oracle_absorption(mixture, catalog, grid, shape_model)
    assert spectrum.k_per_m.tobytes() == oracle.tobytes()
    return oracle


GENERATED_GASES = ("H2O", "CO2", "O2", "CO")   # bent and linear molecules


def generated_catalog(n_lines: int, seed: int) -> dict[str, atm.LineTable]:
    """``n_lines`` seeded random lines near 7.5 1/cm, rendered and parsed."""
    rng = np.random.default_rng(seed)
    records = {gas: [] for gas in GENERATED_GASES}
    for _ in range(n_lines):
        gas = GENERATED_GASES[rng.integers(len(GENERATED_GASES))]
        line = make_line(
            molecule_id=atm.MOLECULE_IDS[gas],
            isotopologue_id=int(rng.integers(1, 3)),
            line_center_invcm=round(rng.uniform(5.0, 10.0), 6),
            intensity_ref=round(rng.uniform(1.0, 9.999), 3) * 10.0 ** -int(rng.integers(19, 25)),
            gamma_air_invcm_atm=round(rng.uniform(0.01, 0.1), 4),
            gamma_self_invcm_atm=round(rng.uniform(0.1, 0.5), 4),
            lower_state_energy_invcm=round(rng.uniform(0.0, 3000.0), 4),
            temperature_exponent=round(rng.uniform(0.5, 0.8), 2),
            pressure_shift_invcm_atm=round(rng.uniform(-5e-5, 5e-5), 6))
        records[gas].append(atm.render_par_record(line))
    return {gas: atm.parse_catalog("\n".join(r)) for gas, r in records.items()}


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

    @pytest.mark.parametrize("planet", [EARTH, MARS], ids=["earth", "mars"])
    def test_bundled_catalog_matches_oracle(self, planet):
        catalog = atm.load_catalog_dir(bundled_catalog_dir(), list(atm.MOLECULE_IDS))
        for grid in (np.array([planet.frequency_hz]),
                     np.linspace(0.05e12, 2.0e12, 2001)):
            for shape_model in ("lorentz", "doppler"):
                assert_matches_oracle(planet.mixture(), catalog, grid, shape_model)

    @pytest.mark.parametrize("shape_model,pressure_atm",
                             [("lorentz", 1.0), ("doppler", 0.006)])
    @pytest.mark.parametrize("temperature_k", [296.0, 250.0])
    def test_generated_catalog_matches_oracle(self, shape_model, pressure_atm,
                                              temperature_k):
        catalog = generated_catalog(2000, seed=11)
        mixture = atm.GasMixture((("H2O", 0.01), ("CO2", 4e-4), ("O2", 0.2),
                                  ("CO", 1e-7)), temperature_k, pressure_atm)
        grid = np.linspace(0.222e12, 0.228e12, 2001)
        oracle = assert_matches_oracle(mixture, catalog, grid, shape_model)
        assert np.count_nonzero(oracle) > 200

    @pytest.mark.parametrize("shape_model", ["lorentz", "doppler"])
    def test_window_edges_match_oracle(self, shape_model):
        mixture = atm.GasMixture((("H2O", 0.01),), 296.0, 1.0)

        def line_at(f_hz):
            line = make_line(line_center_invcm=round(f_hz / HZ_PER_INVCM, 6),
                             pressure_shift_invcm_atm=0.0)
            if shape_model == "lorentz":
                return line, line.center_hz, atm.LORENTZ_WING_CUTOFF_HZ
            halfwidth = atm.doppler_halfwidth(line, 296.0)
            return line, line.center_hz, atm.DOPPLER_WING_CUTOFF_HALFWIDTHS * halfwidth

        def ulps_around(f):   # f and the 4 floats on either side
            return f + np.arange(-4, 5) * np.spacing(f)

        def window(grid, center, cutoff):
            return np.flatnonzero(np.abs(grid - center) <= cutoff).tolist()

        line, center, cutoff = line_at(0.4e12)
        edge = center + cutoff      # only the first grid point is in reach
        grid = np.array([edge - 1e3, edge + 1e3, edge + 2e3])
        assert window(grid, center, cutoff) == [0]
        assert_matches_oracle(mixture, {"H2O": [line]}, grid, shape_model)

        line, center, cutoff = line_at(2.1e12)
        edge = center - cutoff      # only the last grid point is in reach
        grid = np.array([edge - 2e3, edge - 1e3, edge + 1e3])
        assert window(grid, center, cutoff) == [2]
        assert_matches_oracle(mixture, {"H2O": [line]}, grid, shape_model)

        line, center, cutoff = line_at(1.3e12)
        grid = np.array([center - cutoff - 1e3, center + cutoff + 1e3])
        assert window(grid, center, cutoff) == []   # within the grid's span
        assert_matches_oracle(mixture, {"H2O": [line]}, grid, shape_model)

        # grid points within a few ulps of center -/+ cutoff, where f - center
        # rounds differently from center -/+ cutoff. (The Doppler profile
        # underflows to 0 there; test_windows_follow_the_rule covers its edges.)
        for f_hz in (0.6e12, 0.9e12, 1.7e12):
            line, center, cutoff = line_at(f_hz)
            edges = [center - cutoff, center + cutoff]
            grid = np.concatenate([ulps_around(f) for f in edges if f > 0]
                                  + [[center]])
            grid.sort()
            assert 0 < len(window(grid, center, cutoff)) < grid.size
            assert_matches_oracle(mixture, {"H2O": [line]}, grid, shape_model)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20, unique=True),
           st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(0.0, 1e3)), max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_windows_follow_the_rule(self, points, lines):
        # each line's [lo, hi) holds exactly the points with
        # |f - center| <= cutoff; the grid also has the floats next to
        # every center -/+ cutoff
        for center, cutoff in lines:
            for edge in (center - cutoff, center + cutoff):
                points += (edge + np.arange(-2, 3) * np.spacing(edge)).tolist()
        grid = np.unique(points)
        center = np.array([c for c, _ in lines])
        cutoff = np.array([w for _, w in lines])
        lo, hi = atm._windows(grid, center, cutoff)
        for c, w, a, b in zip(center, cutoff, lo, hi):
            assert list(range(a, b)) == np.flatnonzero(np.abs(grid - c) <= w).tolist()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_grid_rejected(self, bad):
        # np.diff(grid) <= 0 is False next to a nan, and inf is increasing
        with pytest.raises(DomainError, match="finite"):
            atm.absorption_coefficient(EARTH.mixture(), {}, np.array([1e11, bad]))

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

    @pytest.mark.parametrize("ratio", [1.0005, 1.001, -0.01])
    def test_ratio_outside_unit_interval_rejected(self, ratio):
        # a single ratio in (1, 1.001] is within the sum guard's slack,
        # but its partial pressure would exceed the total
        with pytest.raises(DomainError, match="mixing ratio"):
            atm.GasMixture((("CO2", ratio),), 210.0, 0.006)

    def test_unknown_gas(self):
        with pytest.raises(DomainError):
            atm.GasMixture((("XE", 0.1),), 288.0, 1.0)

    def test_ideal_gas_density(self):
        mixture = atm.GasMixture((("N2", 0.5),), 300.0, 1.0)
        oracle = 0.5 * ATM_PA / (BOLTZMANN * 300.0)
        assert mixture.number_density_m3("N2") == pytest.approx(oracle, rel=1e-12)
        assert mixture.number_density_m3("O2") == 0.0

    @pytest.mark.parametrize("species,temperature_k,pressure_atm", [
        ((("H2O", math.nan),), 288.0, 1.0),
        ((("H2O", math.inf),), 288.0, 1.0),
        ((("H2O", 0.01),), math.nan, 1.0),
        ((("H2O", 0.01),), 288.0, math.inf),
    ])
    def test_non_finite_rejected(self, species, temperature_k, pressure_atm):
        with pytest.raises(DomainError, match="finite"):
            atm.GasMixture(species, temperature_k, pressure_atm)
