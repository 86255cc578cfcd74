"""Line-by-line molecular absorption from fixed-width spectroscopic catalogs.

Catalog records use the 2004-era 160-column fixed-width layout: molecule
number, isotopologue number, line center (1/cm), reference intensity at
296 K, air- and self-broadened half widths, lower-state energy,
temperature exponent and pressure shift, parsed at exact column offsets.
A catalog is held as a ``LineTable``, one 1-D numpy column per field in record
order. The loaders cast the fields of all records together through one
structured record dtype. The cast declines every batch with a bad record,
and may decline a valid one (a non-ASCII character or a NUL anywhere);
``parse_par_record`` then parses every record of the batch, and decides.

The absorption coefficient k(f) sums, over species and lines,
(number density) * S(T) * F(f) with a Lorentz (pressure-broadened) or
Doppler (Gaussian) line shape. Line intensities are rescaled from 296 K
with the power-law partition-sum approximation (exponent 1 for linear
molecules, 1.5 otherwise), which is good to a few percent down to about
210 K. Line wings are cut off at +/-750 GHz (Lorentz) or 50 Doppler
half-widths; there is no continuum term. A line adds to the grid points f
with |f - center| <= cutoff, a contiguous window found by binary search on
the sorted grid; each point sums its lines in catalog order. The per-line
formulas take a ``SpectralLine`` or a ``LineTable``, and give the same bits
for a table row as for the line alone.
"""

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .constants import AVOGADRO, ATM_PA, BOLTZMANN, C2_CM_K, HZ_PER_INVCM, LN2, SPEED_OF_LIGHT
from .errors import (CatalogError, DomainError, FormatError, require_finite, require_int,
                     require_positive)

__all__ = [
    "SpectralLine",
    "LineTable",
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
_LINEAR_MOLECULES = (2, 4, 5, 7, 8, 22)

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
_FLOAT_FIELDS = tuple(name for name, _, _, conv in _FIELDS if conv is float) \
    + ("molar_mass_kg_mol",)

# A record's fields as byte strings at their columns, for ``_cast_records``.
_RECORD = np.dtype({"names": [name for name, _, _, _ in _FIELDS],
                    "formats": [f"S{width}" for _, _, width, _ in _FIELDS],
                    "offsets": [start - 1 for _, start, _, _ in _FIELDS],
                    "itemsize": RECORD_LENGTH})

# (field, test, message): the range checks on a line. Each test takes a
# value or a column; a value must also be finite.
_RANGE_CHECKS = (
    ("line_center_invcm", lambda v: v > 0, "line center must be positive"),
    ("intensity_ref", lambda v: v >= 0, "line intensity must be >= 0"),
    ("gamma_air_invcm_atm", lambda v: v > 0,
     "air-broadened half width must be positive"),
    ("lower_state_energy_invcm", lambda v: v >= 0,
     "lower-state energy must be >= 0"),
    ("molar_mass_kg_mol", lambda v: v > 0, "molar mass must be positive"),
)


def _center_hz(line) -> float:
    return line.line_center_invcm * HZ_PER_INVCM


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
        require_int("molecule_id", self.molecule_id)
        require_int("isotopologue_id", self.isotopologue_id)
        require_finite(**{name: getattr(self, name) for name in _FLOAT_FIELDS})
        for name, test, message in _RANGE_CHECKS:
            if not test(getattr(self, name)):
                raise DomainError(message)

    center_hz = property(_center_hz)


_COLUMN_TYPES = {f.name: f.type for f in fields(SpectralLine)}
_COLUMNS = tuple(_COLUMN_TYPES)


@dataclass(frozen=True, eq=False)
class LineTable:
    """Catalog lines as columns: one read-only 1-D numpy array per
    ``SpectralLine`` field, all of one length, in record order.

    ``len`` counts the lines; an integer index, and iteration, give
    ``SpectralLine`` objects; any other numpy index gives a LineTable of
    those rows.
    """

    molecule_id: np.ndarray
    isotopologue_id: np.ndarray
    line_center_invcm: np.ndarray
    intensity_ref: np.ndarray
    gamma_air_invcm_atm: np.ndarray
    gamma_self_invcm_atm: np.ndarray
    lower_state_energy_invcm: np.ndarray
    temperature_exponent: np.ndarray
    pressure_shift_invcm_atm: np.ndarray
    molar_mass_kg_mol: np.ndarray

    def __post_init__(self):
        columns = self._columns()
        for name, column in zip(_COLUMNS, columns):
            if not isinstance(column, np.ndarray):
                raise DomainError(f"{name} must be an ndarray, got {column!r}")
        if any(column.ndim != 1 or column.shape != columns[0].shape for column in columns):
            raise DomainError("columns must be 1-D and of one length, got shapes "
                              + str({n: c.shape for n, c in zip(_COLUMNS, columns)}))
        for column in columns:
            column.setflags(write=False)

    @classmethod
    def from_lines(cls, lines) -> "LineTable":
        lines = list(lines)
        return cls(*(np.array([getattr(line, name) for line in lines], dtype=kind)
                     for name, kind in _COLUMN_TYPES.items()))

    center_hz = property(_center_hz)

    def _columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in _COLUMNS)

    def __len__(self) -> int:
        return len(self.molecule_id)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return SpectralLine(*(column[index].item() for column in self._columns()))
        return LineTable(*(column[index] for column in self._columns()))

    def __iter__(self):
        for row in zip(*(column.tolist() for column in self._columns())):
            yield SpectralLine(*row)

    def __eq__(self, other):
        if not isinstance(other, LineTable):
            return NotImplemented
        return all(np.array_equal(a, b)
                   for a, b in zip(self._columns(), other._columns()))


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


def _cast_records(records: list[str]) -> LineTable:
    """The records' fields as columns, or ValueError to decline the batch.

    The cast declines every batch that holds a record ``parse_par_record``
    rejects, and a batch it accepts gets the values that parser gives. It
    may also decline a valid batch: one with a non-ASCII character or a NUL
    anywhere in a record (numpy casts bytes by Python's int() and float(),
    but drops a field's trailing NULs, which those reject).
    """
    if not set(map(len, records)) <= {RECORD_LENGTH}:
        raise ValueError("record length")
    try:
        chars = np.array(records, dtype=f"S{RECORD_LENGTH}")
    except UnicodeEncodeError:
        raise ValueError("non-ASCII character") from None
    if not chars.view(np.uint8).all():
        raise ValueError("NUL in a record")
    cells = chars.view(_RECORD)
    columns = {name: cells[name].astype(conv) for name, _, _, conv in _FIELDS}
    keys = (10 * columns["molecule_id"] + columns["isotopologue_id"]).tolist()
    # divmod(key, 10) is the pair (an isotopologue number is one digit); an
    # unknown pair's NaN mass declines. np.unique would add ~0.4 MiB peak RSS.
    masses = {key: _MOLAR_MASS_KG_MOL.get(divmod(key, 10), math.nan) for key in set(keys)}
    table = LineTable(**columns, molar_mass_kg_mol=np.fromiter(map(masses.get, keys), float,
                                                               len(keys)))
    for name in _FLOAT_FIELDS:
        if not np.isfinite(getattr(table, name)).all():
            raise ValueError(f"{name} not finite")
    for name, test, _ in _RANGE_CHECKS:
        if not test(getattr(table, name)).all():
            raise ValueError(f"{name} out of range")
    return table


def _parse_texts(texts: list[str]) -> list[LineTable]:
    """One table per catalog text; the records of all texts are cast at once.

    If the cast declines, ``parse_par_record`` parses every record: a bad
    record raises the FormatError it gives, numbered by its line in its
    text, and the first bad record wins.
    """
    lines = [text.splitlines() for text in texts]
    records = [[raw for raw in text_lines if raw.strip()] for text_lines in lines]
    try:
        table = _cast_records([record for text_records in records for record in text_records])
    except ValueError:
        return [LineTable.from_lines(parse_par_record(raw, number)
                                     for number, raw in enumerate(text_lines, 1) if raw.strip())
                for text_lines in lines]
    ends = np.cumsum([len(text_records) for text_records in records]).tolist()
    return [table[start:end] for start, end in zip([0] + ends, ends)]


def parse_catalog(text: str) -> LineTable:
    """Parse catalog text, one record per line; blank lines are skipped.

    A bad record raises the FormatError that ``parse_par_record`` gives it,
    numbered by its line in ``text``; the first bad record wins.
    """
    return _parse_texts([text])[0]


def load_catalog_dir(directory: str | Path,
                     gases: list[str]) -> dict[str, LineTable]:
    """Load ``<GAS>.par`` files for the requested gases from a directory.

    Raises CatalogError listing every expected path that is missing,
    CatalogError for the first file that cannot be read or decoded, and
    FormatError for the first bad record of the first file that has one.
    """
    directory = Path(directory)
    paths = {gas: directory / f"{gas}.par" for gas in gases}
    missing = [str(p) for p in paths.values() if not p.is_file()]
    if missing:
        raise CatalogError(
            "missing catalog files: " + ", ".join(sorted(missing)))
    return dict(zip(paths, _parse_texts([_read_catalog(path)
                                         for path in paths.values()])))


def _read_catalog(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CatalogError(f"cannot read catalog file {path}: {exc}") from exc


@dataclass(frozen=True)
class GasMixture:
    """Gas species with volume mixing ratios at one temperature/pressure."""

    species: tuple[tuple[str, float], ...]
    temperature_k: float
    pressure_atm: float

    def __post_init__(self):
        require_positive(temperature_k=self.temperature_k, pressure_atm=self.pressure_atm)
        if not isinstance(self.species, (tuple, list)):
            raise DomainError(f"species must be a tuple or list, got {self.species!r}")
        for entry in self.species:
            if not (isinstance(entry, (tuple, list)) and len(entry) == 2
                    and isinstance(entry[0], str)):
                raise DomainError(f"each species must be a (name, ratio) pair, "
                                  f"got {entry!r}")
        names = [name for name, _ in self.species]
        if len(set(names)) < len(names):
            raise DomainError(f"each gas may be listed once, got {names}")
        total = 0.0
        for name, ratio in self.species:
            if name not in MOLECULE_IDS:
                raise DomainError(f"unknown gas {name!r}")
            require_finite(**{f"mixing ratio for {name}": ratio})
            if not 0 <= ratio <= 1:
                raise DomainError(f"mixing ratio for {name} outside [0, 1]")
            total += ratio
        if total > 1.001:
            raise DomainError(f"mixing ratios sum to {total}, above 1.001")

    def total_number_density_m3(self) -> float:
        return self.pressure_atm * ATM_PA / (BOLTZMANN * self.temperature_k)

    def number_density_m3(self, gas: str) -> float:
        return self.mixing_ratio(gas) * self.total_number_density_m3()

    def mixing_ratio(self, gas: str) -> float:
        return dict(self.species).get(gas, 0.0)


@dataclass(frozen=True)
class AbsorptionSpectrum:
    """Absorption coefficient k(f) on a frequency grid, in 1/m."""

    frequency_hz: np.ndarray
    k_per_m: np.ndarray
    mixture: GasMixture
    shape_model: str


def _libm(fn, x):
    """``fn``, a ``math`` function, of a float or of each element of an array.

    numpy's own exp and power differ from libm's in the last bit for a few
    percent of inputs; this way a table row gives the bits of its line.
    """
    if isinstance(x, np.ndarray):
        return np.fromiter(map(fn, x.tolist()), dtype=float, count=x.size)
    return fn(x)


def line_intensity_at_temperature(line, temperature_k: float):
    """Line intensity rescaled from the 296 K reference.

    Combines the partition-sum power law, the Boltzmann factor of the
    lower state, and the stimulated-emission factor; exactly S_ref at the
    reference temperature. ``line`` is a SpectralLine or a LineTable.
    """
    require_positive(temperature_k=temperature_k)
    t = temperature_k
    t0 = REFERENCE_TEMPERATURE_K
    if t == t0:
        return line.intensity_ref
    partition = np.where(np.equal.outer(line.molecule_id, _LINEAR_MOLECULES).any(-1),
                         (t0 / t) ** 1.0, (t0 / t) ** 1.5)
    energy = line.lower_state_energy_invcm
    center = line.line_center_invcm
    boltzmann = _libm(math.exp, -C2_CM_K * energy / t) \
        / _libm(math.exp, -C2_CM_K * energy / t0)
    stimulated = (1.0 - _libm(math.exp, -C2_CM_K * center / t)) \
        / (1.0 - _libm(math.exp, -C2_CM_K * center / t0))
    return line.intensity_ref * partition * boltzmann * stimulated


def lorentz_halfwidth(line, pressure_atm: float,
                      partial_pressure_atm: float, temperature_k: float):
    """Pressure-broadened HWHM in Hz; ``line`` is a SpectralLine or a LineTable."""
    require_positive(temperature_k=temperature_k)
    require_finite(pressure_atm=pressure_atm, partial_pressure_atm=partial_pressure_atm)
    if not (0.0 <= partial_pressure_atm <= pressure_atm):
        raise DomainError("partial pressure must lie in [0, total pressure]")
    ratio = REFERENCE_TEMPERATURE_K / temperature_k
    gamma_invcm = (_libm(lambda n: ratio ** n, line.temperature_exponent)
                   * (line.gamma_air_invcm_atm * (pressure_atm - partial_pressure_atm)
                      + line.gamma_self_invcm_atm * partial_pressure_atm))
    return gamma_invcm * HZ_PER_INVCM


def _shifted_center_hz(line, pressure_atm: float):
    """Line center moved by the pressure shift at ``pressure_atm``."""
    return line.center_hz + line.pressure_shift_invcm_atm * pressure_atm * HZ_PER_INVCM


def _lorentz(f: np.ndarray, center_hz: float, halfwidth_hz: float) -> np.ndarray:
    return (halfwidth_hz / math.pi) / (halfwidth_hz ** 2 + (f - center_hz) ** 2)


def lorentz_shape(f_hz, line: SpectralLine, halfwidth_hz: float,
                  pressure_atm: float):
    """Lorentz profile (1/Hz) about the pressure-shifted line center."""
    require_positive(halfwidth_hz=halfwidth_hz)
    require_finite(pressure_atm=pressure_atm)
    out = _lorentz(np.asarray(f_hz, dtype=float),
                   _shifted_center_hz(line, pressure_atm), halfwidth_hz)
    return float(out) if np.isscalar(f_hz) else out


def doppler_halfwidth(line, temperature_k: float):
    """Thermal (Gaussian) HWHM in Hz; ``line`` is a SpectralLine or a LineTable."""
    require_positive(temperature_k=temperature_k)
    return (line.center_hz / SPEED_OF_LIGHT) * _libm(math.sqrt,
        2.0 * AVOGADRO * BOLTZMANN * temperature_k * LN2 / line.molar_mass_kg_mol)


def _doppler(f: np.ndarray, center_hz: float, halfwidth_hz: float) -> np.ndarray:
    return math.sqrt(LN2 / (math.pi * halfwidth_hz ** 2)) * np.exp(
        -((f - center_hz) ** 2) * LN2 / halfwidth_hz ** 2)


def doppler_shape(f_hz, line: SpectralLine, halfwidth_hz: float):
    """Gaussian profile (1/Hz) with HWHM ``halfwidth_hz``."""
    require_positive(halfwidth_hz=halfwidth_hz)
    out = _doppler(np.asarray(f_hz, dtype=float), line.center_hz, halfwidth_hz)
    return float(out) if np.isscalar(f_hz) else out


def _intensity_si(line, temperature_k: float):
    # S in (1/cm)/(molecule/cm**2) -> Hz m**2 / molecule
    return line_intensity_at_temperature(line, temperature_k) * SPEED_OF_LIGHT * 1e-2


def _windows(grid: np.ndarray, center: np.ndarray, cutoff) -> tuple[np.ndarray, np.ndarray]:
    """Per line, the bounds [lo, hi) of the grid points f with
    |f - center| <= cutoff.

    ``f - center`` rounds differently from ``center -/+ cutoff``, so each
    binary-search bound is moved until it meets that rule exactly: lo
    counts the points with f - center < -cutoff, n - hi those with
    f - center > cutoff.
    """
    n = grid.size
    lo = np.searchsorted(grid, center - cutoff, side="left")
    hi = np.searchsorted(grid, center + cutoff, side="right")

    def below(i):
        return grid.take(i, mode="clip") - center < -cutoff

    def above(i):
        return grid.take(i, mode="clip") - center > cutoff

    while (step := (lo > 0) & ~below(lo - 1)).any():
        lo -= step
    while (step := (lo < n) & below(lo)).any():
        lo += step
    while (step := (hi < n) & ~above(hi)).any():
        hi += step
    while (step := (hi > 0) & above(hi - 1)).any():
        hi -= step
    return lo, hi


def absorption_coefficient(mixture: GasMixture,
                           catalog: dict[str, LineTable | list[SpectralLine]],
                           frequency_hz,
                           shape_model: str | None = None) -> AbsorptionSpectrum:
    """Absorption coefficient of a gas mixture on a frequency grid.

    ``shape_model`` defaults by pressure regime: Lorentz at or above
    0.1 atm, Doppler below. Lines whose wing cutoff does not reach the
    grid contribute nothing. A catalog entry may be a LineTable or a
    list of SpectralLines. The grid (a scalar is one point) must be 1-D,
    non-empty, real, finite, positive and strictly increasing.
    """
    try:
        grid = np.atleast_1d(np.asarray(frequency_hz))
    except ValueError:   # a ragged nesting
        grid = np.empty(0)
    real = grid.ndim == 1 and grid.dtype.kind in "iuf"
    grid = grid.astype(float) if real else np.empty(0)
    if not (grid.size and np.isfinite(grid).all() and grid[0] > 0
            and (np.diff(grid) > 0).all()):
        raise DomainError("frequency grid must be a non-empty 1-D array of "
                          "finite, positive, strictly increasing reals")
    if shape_model is None:
        shape_model = ("lorentz"
                       if mixture.pressure_atm >= LORENTZ_PRESSURE_THRESHOLD_ATM
                       else "doppler")
    if shape_model not in ("lorentz", "doppler"):
        raise DomainError(f"unknown line shape model {shape_model!r}")
    tables = {gas: lines if isinstance(lines, LineTable) else LineTable.from_lines(lines)
              for gas, lines in catalog.items()}

    k = np.zeros_like(grid)
    for gas, _ratio in mixture.species:
        lines = tables.get(gas)
        if not lines:
            continue
        density = mixture.number_density_m3(gas)
        if density == 0.0:
            continue
        partial = mixture.mixing_ratio(gas) * mixture.pressure_atm
        if shape_model == "lorentz":
            cutoff = LORENTZ_WING_CUTOFF_HZ
            center = _shifted_center_hz(lines, mixture.pressure_atm)
        else:
            halfwidth = doppler_halfwidth(lines, mixture.temperature_k)
            cutoff = DOPPLER_WING_CUTOFF_HALFWIDTHS * halfwidth
            center = lines.center_hz
        lo, hi = _windows(grid, center, cutoff)
        hit = lo < hi
        hits = lines[hit]
        if shape_model == "lorentz":
            halfwidth = lorentz_halfwidth(hits, mixture.pressure_atm, partial,
                                          mixture.temperature_k)
            shape = _lorentz
        else:
            halfwidth = halfwidth[hit]
            shape = _doppler
        if not (halfwidth > 0).all():
            raise DomainError("half width must be positive")
        strength = density * _intensity_si(hits, mixture.temperature_k)
        for a, b, c, w, s in zip(lo[hit].tolist(), hi[hit].tolist(),
                                 center[hit].tolist(), halfwidth.tolist(),
                                 strength.tolist()):
            k[a:b] += s * shape(grid[a:b], c, w)

    return AbsorptionSpectrum(frequency_hz=grid, k_per_m=k, mixture=mixture,
                              shape_model=shape_model)
