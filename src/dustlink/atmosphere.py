"""Line-by-line molecular absorption from fixed-width spectroscopic catalogs.

Catalog records use the 2004-era 160-column fixed-width layout: molecule
number, isotopologue number, line center (1/cm), reference intensity at
296 K, air- and self-broadened half widths, lower-state energy,
temperature exponent and pressure shift, parsed at exact column offsets.

The absorption coefficient k(f) sums, over species and lines,
(number density) * S(T) * F(f) with a Lorentz (pressure-broadened) or
Doppler (Gaussian) line shape. Line intensities are rescaled from 296 K
with the power-law partition-sum approximation (exponent 1 for linear
molecules, 1.5 otherwise), which is good to a few percent down to about
210 K. Line wings are cut off at +/-750 GHz (Lorentz) or 50 Doppler
half-widths; there is no continuum term.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constants import AVOGADRO, ATM_PA, BOLTZMANN, C2_CM_K, HZ_PER_INVCM, LN2, SPEED_OF_LIGHT
from .errors import CatalogError, DomainError, FormatError

__all__ = [
    "SpectralLine",
    "GasMixture",
    "AbsorptionSpectrum",
    "MOLECULE_IDS",
    "parse_par_record",
    "parse_catalog",
    "load_catalog_dir",
    "render_par_record",
    "line_intensity_at_temperature",
    "lorentz_halfwidth",
    "lorentz_shape",
    "doppler_halfwidth",
    "doppler_shape",
    "absorption_coefficient",
]

RECORD_LENGTH = 160
REFERENCE_TEMPERATURE_K = 296.0
LORENTZ_WING_CUTOFF_HZ = 750e9
DOPPLER_WING_CUTOFF_HALFWIDTHS = 50.0
# Pressure regimes at or above this total pressure are pressure-broadened.
LORENTZ_PRESSURE_THRESHOLD_ATM = 0.1

# Catalog molecule numbers for the gases handled here.
MOLECULE_IDS = {
    "H2O": 1, "CO2": 2, "O3": 3, "N2O": 4, "CO": 5, "CH4": 6,
    "O2": 7, "NO": 8, "SO2": 9, "NH3": 11, "N2": 22,
}

# Linear molecules use partition-sum exponent 1, the rest 1.5.
_LINEAR_MOLECULES = {2, 4, 5, 7, 8, 22}

# Isotopologue molar masses in kg/mol, keyed by (molecule, isotopologue).
_MOLAR_MASS_KG_MOL = {
    (1, 1): 18.010565e-3, (1, 2): 20.014811e-3, (1, 3): 19.014780e-3,
    (2, 1): 43.989830e-3, (2, 2): 44.993185e-3, (2, 3): 45.994076e-3,
    (3, 1): 47.984745e-3, (3, 2): 49.988991e-3, (3, 3): 49.988991e-3,
    (4, 1): 44.001062e-3, (4, 2): 44.998096e-3, (4, 3): 44.998096e-3,
    (5, 1): 27.994915e-3, (5, 2): 28.998270e-3, (5, 3): 29.999161e-3,
    (6, 1): 16.031300e-3, (6, 2): 17.034655e-3, (6, 3): 17.037475e-3,
    (7, 1): 31.989830e-3, (7, 2): 33.994076e-3, (7, 3): 32.994045e-3,
    (8, 1): 29.997989e-3, (8, 2): 30.995023e-3, (8, 3): 32.002234e-3,
    (9, 1): 63.961901e-3, (9, 2): 65.957695e-3,
    (11, 1): 17.026549e-3, (11, 2): 18.023583e-3,
    (22, 1): 28.006148e-3, (22, 2): 29.003182e-3,
}

# (name, 1-based start column, width, converter)
_FIELDS = (
    ("molecule_id", 1, 2, int),
    ("isotopologue_id", 3, 1, int),
    ("line_center_invcm", 4, 12, float),
    ("intensity_ref", 16, 10, float),
    ("gamma_air_invcm_atm", 36, 5, float),
    ("gamma_self_invcm_atm", 41, 5, float),
    ("lower_state_energy_invcm", 46, 10, float),
    ("temperature_exponent", 56, 4, float),
    ("pressure_shift_invcm_atm", 60, 8, float),
)


@dataclass(frozen=True)
class SpectralLine:
    """One catalog transition with the fields the line shapes consume."""

    molecule_id: int
    isotopologue_id: int
    line_center_invcm: float
    intensity_ref: float            # (1/cm) / (molecule/cm**2) at 296 K
    gamma_air_invcm_atm: float
    gamma_self_invcm_atm: float
    lower_state_energy_invcm: float
    temperature_exponent: float
    pressure_shift_invcm_atm: float
    molar_mass_kg_mol: float

    def __post_init__(self):
        if self.line_center_invcm <= 0:
            raise DomainError("line center must be positive")
        if self.intensity_ref < 0:
            raise DomainError("line intensity must be >= 0")
        if self.gamma_air_invcm_atm <= 0:
            raise DomainError("air-broadened half width must be positive")
        if self.lower_state_energy_invcm < 0:
            raise DomainError("lower-state energy must be >= 0")
        if self.molar_mass_kg_mol <= 0:
            raise DomainError("molar mass must be positive")

    @property
    def center_hz(self) -> float:
        return self.line_center_invcm * HZ_PER_INVCM


def parse_par_record(record: str, record_number: int = 1) -> SpectralLine:
    """Parse one fixed-width catalog record into a SpectralLine.

    The record must be exactly 160 characters after stripping the line
    terminator; parse failures name the offending column span, and a value
    that ``SpectralLine`` rejects is a FormatError naming the record.
    """
    record = record.rstrip("\r\n")
    if len(record) != RECORD_LENGTH:
        raise FormatError(
            f"record {record_number}: expected {RECORD_LENGTH} characters, "
            f"got {len(record)}")
    values = {}
    for name, start, width, conv in _FIELDS:
        span = record[start - 1:start - 1 + width]
        try:
            values[name] = conv(span)
        except ValueError:
            raise FormatError(
                f"record {record_number}: cannot parse {name} from columns "
                f"{start}-{start + width - 1} ({span!r})") from None
    key = (values["molecule_id"], values["isotopologue_id"])
    mass = _MOLAR_MASS_KG_MOL.get(key)
    if mass is None:
        raise FormatError(
            f"record {record_number}: no molar mass for molecule/isotopologue {key}")
    try:
        return SpectralLine(molar_mass_kg_mol=mass, **values)
    except DomainError as exc:
        raise FormatError(f"record {record_number}: {exc}") from None


def render_par_record(line: SpectralLine) -> str:
    """Serialize the consumed fields back into a 160-column record.

    Unparsed spans are blank. Fractional fields drop the leading zero the
    way native catalogs do (".0740" rather than "0.0740").
    """
    def frac(value: float, width: int, decimals: int) -> str:
        text = f"{value:.{decimals}f}"
        if text.startswith("0."):
            text = text[1:]
        elif text.startswith("-0."):
            text = "-" + text[2:]
        return text.rjust(width)

    chars = [" "] * RECORD_LENGTH
    rendered = {
        "molecule_id": f"{line.molecule_id:2d}",
        "isotopologue_id": f"{line.isotopologue_id:1d}",
        "line_center_invcm": f"{line.line_center_invcm:12.6f}",
        "intensity_ref": f"{line.intensity_ref:10.3E}",
        "gamma_air_invcm_atm": frac(line.gamma_air_invcm_atm, 5, 4),
        "gamma_self_invcm_atm": frac(line.gamma_self_invcm_atm, 5, 4),
        "lower_state_energy_invcm": f"{line.lower_state_energy_invcm:10.4f}",
        "temperature_exponent": f"{line.temperature_exponent:4.2f}",
        "pressure_shift_invcm_atm": frac(line.pressure_shift_invcm_atm, 8, 6),
    }
    for name, start, width, _ in _FIELDS:
        text = rendered[name]
        if len(text) != width:
            raise FormatError(f"{name} value {text!r} does not fit width {width}")
        chars[start - 1:start - 1 + width] = text
    return "".join(chars)


def parse_catalog(text: str) -> list[SpectralLine]:
    """Parse catalog text, one record per line; blank lines are skipped."""
    lines = []
    for number, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        lines.append(parse_par_record(raw, record_number=number))
    return lines


def load_catalog_dir(directory: str | Path,
                     gases: list[str]) -> dict[str, list[SpectralLine]]:
    """Load ``<GAS>.par`` files for the requested gases from a directory.

    Raises CatalogError listing every expected path that is missing.
    """
    directory = Path(directory)
    paths = {gas: directory / f"{gas}.par" for gas in gases}
    missing = [str(p) for p in paths.values() if not p.is_file()]
    if missing:
        raise CatalogError(
            "missing catalog files: " + ", ".join(sorted(missing)))
    return {gas: parse_catalog(path.read_text()) for gas, path in paths.items()}


@dataclass(frozen=True)
class GasMixture:
    """Gas species with volume mixing ratios at one temperature/pressure."""

    species: tuple[tuple[str, float], ...]
    temperature_k: float
    pressure_atm: float

    def __post_init__(self):
        if self.temperature_k <= 0 or self.pressure_atm <= 0:
            raise DomainError("temperature and pressure must be positive")
        total = 0.0
        for name, ratio in self.species:
            if name not in MOLECULE_IDS:
                raise DomainError(f"unknown gas {name!r}")
            if ratio < 0:
                raise DomainError(f"negative mixing ratio for {name}")
            total += ratio
        if total > 1.001:
            raise DomainError(f"mixing ratios sum to {total}, above 1.001")

    def total_number_density_m3(self) -> float:
        return self.pressure_atm * ATM_PA / (BOLTZMANN * self.temperature_k)

    def number_density_m3(self, gas: str) -> float:
        return self.mixing_ratio(gas) * self.total_number_density_m3()

    def mixing_ratio(self, gas: str) -> float:
        for name, ratio in self.species:
            if name == gas:
                return ratio
        return 0.0


@dataclass(frozen=True)
class AbsorptionSpectrum:
    """Absorption coefficient k(f) on a frequency grid, in 1/m."""

    frequency_hz: np.ndarray
    k_per_m: np.ndarray
    mixture: GasMixture
    shape_model: str


def line_intensity_at_temperature(line: SpectralLine, temperature_k: float) -> float:
    """Line intensity rescaled from the 296 K reference.

    Combines the partition-sum power law, the Boltzmann factor of the
    lower state, and the stimulated-emission factor; exactly S_ref at the
    reference temperature.
    """
    if temperature_k <= 0:
        raise DomainError("temperature must be positive")
    t = temperature_k
    t0 = REFERENCE_TEMPERATURE_K
    if t == t0:
        return line.intensity_ref
    exponent = 1.0 if line.molecule_id in _LINEAR_MOLECULES else 1.5
    partition = (t0 / t) ** exponent
    boltzmann = math.exp(-C2_CM_K * line.lower_state_energy_invcm / t) \
        / math.exp(-C2_CM_K * line.lower_state_energy_invcm / t0)
    stimulated = (1.0 - math.exp(-C2_CM_K * line.line_center_invcm / t)) \
        / (1.0 - math.exp(-C2_CM_K * line.line_center_invcm / t0))
    return line.intensity_ref * partition * boltzmann * stimulated


def lorentz_halfwidth(line: SpectralLine, pressure_atm: float,
                      partial_pressure_atm: float, temperature_k: float) -> float:
    """Pressure-broadened HWHM in Hz."""
    if temperature_k <= 0:
        raise DomainError("temperature must be positive")
    if not (0.0 <= partial_pressure_atm <= pressure_atm):
        raise DomainError("partial pressure must lie in [0, total pressure]")
    gamma_invcm = ((REFERENCE_TEMPERATURE_K / temperature_k) ** line.temperature_exponent
                   * (line.gamma_air_invcm_atm * (pressure_atm - partial_pressure_atm)
                      + line.gamma_self_invcm_atm * partial_pressure_atm))
    return gamma_invcm * HZ_PER_INVCM


def _shifted_center_hz(line: SpectralLine, pressure_atm: float) -> float:
    """Line center moved by the pressure shift at ``pressure_atm``."""
    return line.center_hz + line.pressure_shift_invcm_atm * pressure_atm * HZ_PER_INVCM


def lorentz_shape(f_hz, line: SpectralLine, halfwidth_hz: float,
                  pressure_atm: float):
    """Lorentz profile (1/Hz) about the pressure-shifted line center."""
    if halfwidth_hz <= 0:
        raise DomainError("half width must be positive")
    center = _shifted_center_hz(line, pressure_atm)
    f = np.asarray(f_hz, dtype=float)
    out = (halfwidth_hz / math.pi) / (halfwidth_hz ** 2 + (f - center) ** 2)
    return float(out) if np.isscalar(f_hz) else out


def doppler_halfwidth(line: SpectralLine, temperature_k: float) -> float:
    """Thermal (Gaussian) HWHM in Hz."""
    if temperature_k <= 0:
        raise DomainError("temperature must be positive")
    return (line.center_hz / SPEED_OF_LIGHT) * math.sqrt(
        2.0 * AVOGADRO * BOLTZMANN * temperature_k * LN2 / line.molar_mass_kg_mol)


def doppler_shape(f_hz, line: SpectralLine, halfwidth_hz: float):
    """Gaussian profile (1/Hz) with HWHM ``halfwidth_hz``."""
    if halfwidth_hz <= 0:
        raise DomainError("half width must be positive")
    f = np.asarray(f_hz, dtype=float)
    out = math.sqrt(LN2 / (math.pi * halfwidth_hz ** 2)) * np.exp(
        -((f - line.center_hz) ** 2) * LN2 / halfwidth_hz ** 2)
    return float(out) if np.isscalar(f_hz) else out


def _intensity_si(line: SpectralLine, temperature_k: float) -> float:
    # S in (1/cm)/(molecule/cm**2) -> Hz m**2 / molecule
    return line_intensity_at_temperature(line, temperature_k) * SPEED_OF_LIGHT * 1e-2


def absorption_coefficient(mixture: GasMixture,
                           catalog: dict[str, list[SpectralLine]],
                           frequency_hz,
                           shape_model: str | None = None) -> AbsorptionSpectrum:
    """Absorption coefficient of a gas mixture on a frequency grid.

    ``shape_model`` defaults by pressure regime: Lorentz at or above
    0.1 atm, Doppler below. Lines whose wing cutoff does not reach the
    grid contribute nothing.
    """
    grid = np.atleast_1d(np.asarray(frequency_hz, dtype=float))
    if grid.size == 0:
        raise DomainError("frequency grid is empty")
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise DomainError("frequency grid must be strictly increasing")
    if shape_model is None:
        shape_model = ("lorentz"
                       if mixture.pressure_atm >= LORENTZ_PRESSURE_THRESHOLD_ATM
                       else "doppler")
    if shape_model not in ("lorentz", "doppler"):
        raise DomainError(f"unknown line shape model {shape_model!r}")

    k = np.zeros_like(grid)
    f_lo = grid[0]
    f_hi = grid[-1]
    for gas, _ratio in mixture.species:
        lines = catalog.get(gas, [])
        if not lines:
            continue
        density = mixture.number_density_m3(gas)
        if density == 0.0:
            continue
        partial = mixture.mixing_ratio(gas) * mixture.pressure_atm
        for line in lines:
            if shape_model == "lorentz":
                halfwidth = lorentz_halfwidth(
                    line, mixture.pressure_atm, partial, mixture.temperature_k)
                cutoff = LORENTZ_WING_CUTOFF_HZ
                center = _shifted_center_hz(line, mixture.pressure_atm)
            else:
                halfwidth = doppler_halfwidth(line, mixture.temperature_k)
                cutoff = DOPPLER_WING_CUTOFF_HALFWIDTHS * halfwidth
                center = line.center_hz
            if center + cutoff < f_lo or center - cutoff > f_hi:
                continue
            strength = density * _intensity_si(line, mixture.temperature_k)
            window = np.abs(grid - center) <= cutoff
            if not np.any(window):
                continue
            if shape_model == "lorentz":
                shape = lorentz_shape(grid[window], line, halfwidth,
                                      mixture.pressure_atm)
            else:
                shape = doppler_shape(grid[window], line, halfwidth)
            k[window] += strength * shape

    return AbsorptionSpectrum(frequency_hz=grid, k_per_m=k, mixture=mixture,
                              shape_model=shape_model)

