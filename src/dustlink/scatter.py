"""Dust particle populations and their ensemble extinction.

Single-particle extinction uses the small-particle Mie series for Earth
dust and the Rayleigh approximation for Mars dust; a ``DustPermittivity``
names the one that reads it. Each model is written once, as a short sum
of terms ``coefficient * r**n`` in the particle radius. Populations are
truncated log-normal (or degenerate point-mass) size distributions whose
moments ``E[r**n]`` have a closed form, so the population mean of a model
is the same sum with ``r**n`` replaced by ``E[r**n]``: no numerical
quadrature is involved. The medium density can be given as
meteorological visibility, a volumetric number density, or a per-meter
count of particles inside the beam tube. An extinction call works at one
frequency, which must be the one its permittivity was taken at;
``PlanetPreset.extinction`` passes the same frequency to both.

Units and coupling conventions
------------------------------
The Mie series is evaluated exactly as its source prints it, in which
form it is dimensionless (an extinction efficiency).
``extinction_efficiency`` and ``physical_cross_section`` each follow
``DustPermittivity.approximation``; the cross section is the efficiency
times the geometric cross section ``pi*r**2``.
``ensemble_extinction`` produces a per-meter extinction rate through one
of two documented couplings:

* visibility / volumetric density: classic radiative transfer,
  ``C = N0 * <cross section in m**2>``;
* per-meter beam counts: beam-blockage coupling,
  ``C = (count per meter) * <extinction efficiency>``,
  i.e. each particle removes an efficiency-sized fraction of the narrow
  beam it sits in.

The Earth permittivity law takes frequency in GHz (``18.256 / f_GHz``);
the visibility law constant 0.034744 takes visibility in meters. Both
conventions are exposed here as named constants.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import SPEED_OF_LIGHT, VACUUM_PERMITTIVITY
from .errors import DomainError, require_finite, require_nonnegative, require_positive

__all__ = [
    "SizeDistribution",
    "DustPermittivity",
    "Visibility",
    "VolumetricDensity",
    "LinearDensity",
    "MediumSpec",
    "ExtinctionResult",
    "dust_permittivity",
    "mie_coefficients",
    "extinction_efficiency",
    "physical_cross_section",
    "number_density_from_visibility",
    "ensemble_extinction",
]

# Frequency unit convention of the Earth permittivity law.
EARTH_PERMITTIVITY_FREQ_UNIT_HZ = 1e9
# Empirical visibility-extinction constant; visibility in meters.
VISIBILITY_LAW_CONSTANT = 0.034744


def _phi(z: float) -> float:
    """Standard normal cumulative distribution function."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


@dataclass(frozen=True)
class SizeDistribution:
    """Particle radius distribution, truncated and renormalized.

    ``kind`` is "log-normal" or "point-mass". For the point-mass case the
    support degenerates to the single radius ``median_radius_m``.
    """

    kind: str
    median_radius_m: float
    geometric_sigma: float
    r_min_m: float
    r_max_m: float
    _norm: float = field(init=False, repr=False, compare=False, default=1.0)

    def __post_init__(self):
        if self.kind not in ("log-normal", "point-mass"):
            raise DomainError(f"unknown size distribution kind {self.kind!r}")
        require_finite(median_radius_m=self.median_radius_m,
                       geometric_sigma=self.geometric_sigma,
                       r_min_m=self.r_min_m, r_max_m=self.r_max_m)
        if self.kind == "point-mass":
            require_positive(median_radius_m=self.median_radius_m)
            object.__setattr__(self, "r_min_m", self.median_radius_m)
            object.__setattr__(self, "r_max_m", self.median_radius_m)
            return
        if not (0 < self.r_min_m < self.r_max_m):
            raise DomainError("need 0 < r_min < r_max")
        if self.geometric_sigma <= 1.0:
            raise DomainError("geometric sigma must exceed 1 for log-normal")
        if not (self.r_min_m <= self.median_radius_m <= self.r_max_m):
            raise DomainError("median radius outside truncation bounds")
        object.__setattr__(self, "_norm", self._tilted_mass(0))

    @classmethod
    def log_normal(cls, median_radius_m: float, geometric_sigma: float,
                   r_min_m: float, r_max_m: float) -> "SizeDistribution":
        return cls("log-normal", median_radius_m, geometric_sigma, r_min_m, r_max_m)

    @classmethod
    def point_mass(cls, radius_m: float) -> "SizeDistribution":
        return cls("point-mass", radius_m, 1.0, radius_m, radius_m)

    def _raw_pdf(self, r):
        s = math.log(self.geometric_sigma)
        return (np.exp(-0.5 * (np.log(r / self.median_radius_m) / s) ** 2)
                / (r * s * math.sqrt(2.0 * math.pi)))

    def _tilted_mass(self, order: int) -> float:
        """Phi(b - n*s) - Phi(a - n*s): the untruncated log-normal's mass on
        the support under the density tilted by r**n, with a and b the
        standardised log bounds and s = ln(geometric sigma)."""
        s = math.log(self.geometric_sigma)
        mu = math.log(self.median_radius_m)
        a = (math.log(self.r_min_m) - mu) / s
        b = (math.log(self.r_max_m) - mu) / s
        return _phi(b - order * s) - _phi(a - order * s)

    def pdf(self, r: float) -> float:
        """Renormalized density at radius ``r`` (1/m); point-mass returns
        inf at its atom."""
        if not (self.r_min_m <= r <= self.r_max_m):
            raise DomainError(
                f"radius {r} outside support [{self.r_min_m}, {self.r_max_m}]")
        if self.kind == "point-mass":
            return math.inf
        return float(self._raw_pdf(r)) / self._norm

    def mode_radius(self) -> float:
        """Radius of maximum density (log-normal analytic mode)."""
        if self.kind == "point-mass":
            return self.median_radius_m
        s = math.log(self.geometric_sigma)
        return self.median_radius_m * math.exp(-s * s)

    def moment(self, order: int) -> float:
        """E[r**order] under the truncated distribution, in closed form.

        For the log-normal, E[r**n] = median**n * exp(n**2 s**2 / 2)
        * [Phi(b - n*s) - Phi(a - n*s)] / [Phi(b) - Phi(a)].
        """
        if self.kind == "point-mass":
            return self.median_radius_m ** order
        s = math.log(self.geometric_sigma)
        return (self.median_radius_m ** order * math.exp(0.5 * (order * s) ** 2)
                * self._tilted_mass(order) / self._norm)


@dataclass(frozen=True)
class DustPermittivity:
    """Complex relative permittivity of dust grains, the approximation
    that reads it ("mie" or "rayleigh"), and charge parameters.

    ``charge_density`` (C/m**2) and ``field_scale`` (V/m) feed the charge
    term of the Rayleigh cross section; the defaults disable it. Every
    numeric field must be finite.
    """

    approximation: str
    eps_real: float
    eps_imag: float
    charge_density: float = 0.0
    field_scale: float = 1.0

    def __post_init__(self):
        require_finite(eps_real=self.eps_real, charge_density=self.charge_density,
                       field_scale=self.field_scale)
        require_nonnegative(eps_imag=self.eps_imag)
        if self.approximation not in ("mie", "rayleigh"):
            raise DomainError(f"unknown approximation {self.approximation!r}; "
                              "expected 'mie' or 'rayleigh'")

    @property
    def eps(self) -> complex:
        return complex(self.eps_real, self.eps_imag)


# Refractive index of Mars dust; permittivity is its square.
MARS_REFRACTIVE_INDEX = complex(1.52, 0.01)


def dust_permittivity(model: str, f_hz: float = 0.0) -> DustPermittivity:
    """Built-in permittivity models, each with its approximation.

    Earth dust ("earth-frequency-dependent", Mie) is dispersive,
    eps = 3 + i*18.256/f_GHz (the square of the refractive index
    sqrt(3 + i*18.256/f_GHz)); Mars dust ("mars-constant", Rayleigh) is
    the constant (1.52 + 0.01i)**2. ``f_hz`` must be finite, and positive
    for the Earth model.
    """
    require_finite(f_hz=f_hz)
    if model == "earth-frequency-dependent":
        require_positive(f_hz=f_hz)
        f_ghz = f_hz / EARTH_PERMITTIVITY_FREQ_UNIT_HZ
        return DustPermittivity("mie", 3.0, 18.256 / f_ghz)
    if model == "mars-constant":
        eps = MARS_REFRACTIVE_INDEX ** 2
        return DustPermittivity("rayleigh", eps.real, eps.imag)
    raise DomainError(f"unknown permittivity model {model!r}")


@dataclass(frozen=True)
class Visibility:
    """Meteorological range in meters."""
    meters: float

    def __post_init__(self):
        require_positive(meters=self.meters)


@dataclass(frozen=True)
class VolumetricDensity:
    """Particles per cubic meter."""
    per_m3: float

    def __post_init__(self):
        require_nonnegative(per_m3=self.per_m3)


@dataclass(frozen=True)
class LinearDensity:
    """Particles per meter of beam path, with the beam face area used to
    convert to a volumetric density."""
    count_per_m: float
    beam_area_m2: float = 1e-6   # 0.01 cm**2 beam face

    def __post_init__(self):
        require_nonnegative(count_per_m=self.count_per_m)
        require_positive(beam_area_m2=self.beam_area_m2)


@dataclass(frozen=True)
class MediumSpec:
    """A dust population plus exactly one density specification."""

    distribution: SizeDistribution
    permittivity: DustPermittivity
    density: Visibility | VolumetricDensity | LinearDensity

    def __post_init__(self):
        if not isinstance(self.density, (Visibility, VolumetricDensity, LinearDensity)):
            raise DomainError("density must be a Visibility, VolumetricDensity or "
                              f"LinearDensity, got {self.density!r}")


@dataclass(frozen=True)
class ExtinctionResult:
    """Ensemble extinction at one frequency."""

    extinction_per_m: float
    wavenumber_per_m: float
    wavelength_m: float
    number_density_per_m3: float
    coupling: str   # "volumetric" or "beam-blockage"


# A single-particle model: (power n, coefficient c) pairs, meaning the
# sum of c * r**n over the pairs.
_Terms = tuple[tuple[int, float], ...]


def _wavenumber(f_hz: float) -> float:
    require_positive(f_hz=f_hz)
    return 2.0 * math.pi * f_hz / SPEED_OF_LIGHT


def mie_coefficients(eps: complex) -> tuple[float, float, float]:
    """Series coefficients of the small-particle Mie expansion."""
    ep = eps.real
    epp = eps.imag
    d = (ep + 2.0) ** 2 + epp ** 2
    c1 = 6.0 * epp / d
    c2 = (epp * (6.0 / 5.0) * (7.0 * ep ** 2 + 7.0 * epp ** 2 + 4.0 * ep - 20.0) / d ** 2
          + 1.0 / 15.0
          + 5.0 / (3.0 * ((2.0 * ep + 3.0) ** 2 + 4.0 * epp ** 2) ** 2))
    c3 = (4.0 / 3.0) * (((ep - 1.0) ** 2 * (ep + 2.0)
                         + (2.0 * (ep - 1.0) * (ep + 2.0) - 9.0)
                         + epp ** 4) / d ** 2)
    return c1, c2, c3


def _mie_terms(f_hz: float, eps: DustPermittivity) -> _Terms:
    """Cross section of the printed Mie series: r**3, r**5 and r**6 terms.

    The printed efficiency is (k**3 * r * lambda**2 / 2) * (c1 + c2*(kr)**2
    + c3*(kr)**3), whose leading factor is 2*pi**2*k*r; times the geometric
    pi*r**2 it becomes a cross section.
    """
    k = _wavenumber(f_hz)
    c1, c2, c3 = mie_coefficients(eps.eps)
    lead = 2.0 * math.pi ** 3 * k
    return ((3, lead * c1), (5, lead * c2 * k ** 2), (6, lead * c3 * k ** 3))


def _rayleigh_terms(f_hz: float, eps: DustPermittivity) -> _Terms:
    """Rayleigh cross section: absorption r**3, dipole scattering r**6 and,
    for charged grains, a charge term r**6 scaling with
    (sigma_q / (E0*eps0))**2."""
    k = _wavenumber(f_hz)
    er = eps.eps
    if abs(er + 2.0) == 0.0:
        raise DomainError("permittivity at the resonance eps_r = -2")
    terms = [(3, 12.0 * math.pi * k * er.imag / abs(er + 2.0) ** 2),
             (6, (8.0 / 3.0) * math.pi * k ** 4 * abs((er - 1.0) / (er + 2.0)) ** 2)]
    if eps.charge_density != 0.0:
        if eps.field_scale == 0.0:
            raise DomainError("charge term singular: field scale E0 is zero")
        terms.append((6, (math.pi / 6.0) * k ** 4 * eps.charge_density ** 2
                      * abs(er - 1.0) ** 2
                      / (eps.field_scale ** 2 * VACUUM_PERMITTIVITY ** 2)))
    return tuple(terms)


def _cross_section_terms(f_hz: float, eps: DustPermittivity) -> _Terms:
    terms = _mie_terms if eps.approximation == "mie" else _rayleigh_terms
    try:
        return terms(f_hz, eps)
    except OverflowError:   # a power of the wavenumber
        raise DomainError(f"frequency {f_hz!r} Hz overflows the "
                          f"{eps.approximation} cross section") from None


def _efficiency(terms: _Terms) -> _Terms:
    """Cross-section terms divided by the geometric cross section pi*r**2."""
    return tuple((n - 2, c / math.pi) for n, c in terms)


def _at_radius(terms: _Terms, r_m):
    try:
        r = np.asarray(r_m)
    except ValueError:   # a ragged nesting
        r = np.asarray(math.nan)
    if r.dtype.kind not in "iuf" or not np.all(np.isfinite(r) & (r > 0)):
        raise DomainError(f"radius must be finite and positive, got {r_m!r}")
    r = r.astype(float)
    out = sum(c * r ** n for n, c in terms)
    return float(out) if np.isscalar(r_m) else out


def _population_mean(terms: _Terms, dist: SizeDistribution) -> float:
    return sum(c * dist.moment(n) for n, c in terms)


def extinction_efficiency(f_hz: float, r_m, eps: DustPermittivity):
    """Dimensionless extinction efficiency under ``eps.approximation``.

    The Mie series is already an efficiency in its printed form; the
    Rayleigh cross section is divided by the geometric cross section.
    Accepts scalar or array radii, each finite and positive.
    """
    return _at_radius(_efficiency(_cross_section_terms(f_hz, eps)), r_m)


def physical_cross_section(f_hz: float, r_m, eps: DustPermittivity):
    """Per-particle extinction cross section in m**2 under
    ``eps.approximation``: ``pi*r**2`` times the printed Mie efficiency,
    or the Rayleigh sum of absorption, dipole scattering and charge
    terms. Accepts scalar or array radii, each finite and positive.
    """
    return _at_radius(_cross_section_terms(f_hz, eps), r_m)


def number_density_from_visibility(dist: SizeDistribution, visibility_m: float) -> float:
    """Volumetric number density (1/m**3) implied by a visibility.

    N0 = 15 / (0.034744 * V * integral of pi*r**2*P(r) over the support),
    with visibility in meters.
    """
    require_positive(visibility_m=visibility_m)
    return 15.0 / (VISIBILITY_LAW_CONSTANT * visibility_m * math.pi * dist.moment(2))


def ensemble_extinction(medium: MediumSpec, f_hz: float) -> ExtinctionResult:
    """Per-meter extinction rate of a dust population at one frequency.

    Averages the per-particle extinction over the size distribution and
    scales by the population density. Visibility and volumetric density
    specs use physical cross sections (m**2); per-meter beam counts use
    the beam-blockage coupling (count/m times mean efficiency), with the
    equivalent volumetric density recorded for reference.
    """
    dist = medium.distribution
    density = medium.density
    terms = _cross_section_terms(f_hz, medium.permittivity)

    if isinstance(density, LinearDensity):
        coupling = "beam-blockage"
        n0 = density.count_per_m / density.beam_area_m2
        rate = density.count_per_m * _population_mean(_efficiency(terms), dist)
    else:
        coupling = "volumetric"
        n0 = (number_density_from_visibility(dist, density.meters)
              if isinstance(density, Visibility) else density.per_m3)
        rate = n0 * _population_mean(terms, dist)

    return ExtinctionResult(
        extinction_per_m=float(rate),
        wavenumber_per_m=_wavenumber(f_hz),
        wavelength_m=SPEED_OF_LIGHT / f_hz,
        number_density_per_m3=float(n0),
        coupling=coupling,
    )
