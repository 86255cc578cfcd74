"""Dust particle populations and their ensemble extinction.

Single-particle extinction uses the small-particle Mie series for Earth
dust and the Rayleigh approximation for Mars dust. Populations are
truncated log-normal (or degenerate point-mass) size distributions, and
the medium density can be given as meteorological visibility, a
volumetric number density, or a per-meter count of particles inside the
beam tube.

Units and coupling conventions
------------------------------
The Mie series is evaluated exactly as its source prints it, in which
form it is dimensionless (an extinction efficiency); ``normalized=True``
multiplies by the geometric cross section ``pi*r**2`` to obtain m**2.
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
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import quad

from .constants import SPEED_OF_LIGHT, VACUUM_PERMITTIVITY
from .errors import DomainError

__all__ = [
    "SizeDistribution",
    "DustPermittivity",
    "Visibility",
    "VolumetricDensity",
    "LinearDensity",
    "MediumSpec",
    "ExtinctionResult",
    "size_pdf",
    "dust_permittivity",
    "mie_coefficients",
    "mie_cext",
    "rayleigh_cext",
    "extinction_efficiency",
    "physical_cross_section",
    "number_density_from_visibility",
    "linear_density_to_volumetric",
    "ensemble_extinction",
    "extinction_rates",
]

# Frequency unit convention of the Earth permittivity law.
EARTH_PERMITTIVITY_FREQ_UNIT_HZ = 1e9
# Empirical visibility-extinction constant; visibility in meters.
VISIBILITY_LAW_CONSTANT = 0.034744

# Adaptive quadrature settings: relative tolerance 1e-8, evaluation budget
# capped at ~2e5 (21-point Gauss-Kronrod panels).
_QUAD_EPSREL = 1e-8
_QUAD_LIMIT = 9500


def _quad(fn, lo: float, hi: float) -> float:
    # epsabs=0: SI-unit integrands here are ~1e-10, far below QUADPACK's
    # default absolute tolerance, which would otherwise stop refinement
    value, _ = quad(fn, lo, hi, epsabs=0.0, epsrel=_QUAD_EPSREL, limit=_QUAD_LIMIT)
    return value


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
        if self.kind == "point-mass":
            if self.median_radius_m <= 0:
                raise DomainError("point-mass radius must be positive")
            object.__setattr__(self, "r_min_m", self.median_radius_m)
            object.__setattr__(self, "r_max_m", self.median_radius_m)
            return
        if not (0 < self.r_min_m < self.r_max_m):
            raise DomainError("need 0 < r_min < r_max")
        if self.geometric_sigma <= 1.0:
            raise DomainError("geometric sigma must exceed 1 for log-normal")
        if not (self.r_min_m <= self.median_radius_m <= self.r_max_m):
            raise DomainError("median radius outside truncation bounds")
        norm = _quad(self._raw_pdf, self.r_min_m, self.r_max_m)
        object.__setattr__(self, "_norm", norm)

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

    def expectation(self, fn) -> float:
        """E[fn(r)] under the truncated distribution (adaptive quadrature)."""
        if self.kind == "point-mass":
            return float(fn(self.median_radius_m))
        return _quad(lambda r: self.pdf(r) * fn(r), self.r_min_m, self.r_max_m)

    def moment(self, order: int) -> float:
        return self.expectation(lambda r: r ** order)


def size_pdf(dist: SizeDistribution, r: float) -> float:
    """Truncated-renormalized size density at radius ``r``."""
    return dist.pdf(r)


@dataclass(frozen=True)
class DustPermittivity:
    """Complex relative permittivity of dust grains plus charge parameters.

    ``charge_density`` (C/m**2) and ``field_scale`` (V/m) feed the charge
    term of the Rayleigh cross section; the defaults disable it.
    ``approximation`` selects the single-particle model for ``model="user"``
    permittivities ("mie" or "rayleigh"); the built-in models imply one.
    """

    model: str
    eps_real: float
    eps_imag: float
    charge_density: float = 0.0
    field_scale: float = 1.0
    vacuum_permittivity: float = VACUUM_PERMITTIVITY
    approximation: str | None = None

    def __post_init__(self):
        if self.eps_imag < 0:
            raise DomainError("imaginary permittivity must be >= 0")
        if self.model not in ("earth-frequency-dependent", "mars-constant", "user"):
            raise DomainError(f"unknown permittivity model {self.model!r}")

    @property
    def eps(self) -> complex:
        return complex(self.eps_real, self.eps_imag)

    def resolved_approximation(self) -> str:
        if self.approximation is not None:
            return self.approximation
        if self.model == "earth-frequency-dependent":
            return "mie"
        if self.model == "mars-constant":
            return "rayleigh"
        raise DomainError("user permittivity needs an explicit approximation")


# Refractive index of Mars dust; permittivity is its square.
MARS_REFRACTIVE_INDEX = complex(1.52, 0.01)


def dust_permittivity(model: str, f_hz: float = 0.0) -> DustPermittivity:
    """Built-in permittivity models.

    Earth dust is dispersive, eps = 3 + i*18.256/f_GHz (the square of
    the refractive index sqrt(3 + i*18.256/f_GHz)); Mars dust is the
    constant (1.52 + 0.01i)**2.
    """
    if model == "earth-frequency-dependent":
        if f_hz <= 0:
            raise DomainError("earth permittivity needs a positive frequency")
        f_ghz = f_hz / EARTH_PERMITTIVITY_FREQ_UNIT_HZ
        return DustPermittivity(model, 3.0, 18.256 / f_ghz)
    if model == "mars-constant":
        eps = MARS_REFRACTIVE_INDEX ** 2
        return DustPermittivity(model, eps.real, eps.imag)
    raise DomainError(f"unknown permittivity model {model!r}")


@dataclass(frozen=True)
class Visibility:
    """Meteorological range in meters."""
    meters: float

    def __post_init__(self):
        if self.meters <= 0:
            raise DomainError("visibility must be positive")


@dataclass(frozen=True)
class VolumetricDensity:
    """Particles per cubic meter."""
    per_m3: float

    def __post_init__(self):
        if self.per_m3 < 0:
            raise DomainError("number density must be >= 0")


@dataclass(frozen=True)
class LinearDensity:
    """Particles per meter of beam path, with the beam face area used to
    convert to a volumetric density."""
    count_per_m: float
    beam_area_m2: float = 1e-6   # 0.01 cm**2 beam face

    def __post_init__(self):
        if self.count_per_m < 0:
            raise DomainError("linear particle density must be >= 0")
        if self.beam_area_m2 <= 0:
            raise DomainError("beam area must be positive")


@dataclass(frozen=True)
class MediumSpec:
    """A dust population plus exactly one density specification."""

    distribution: SizeDistribution
    permittivity: DustPermittivity
    density: Visibility | VolumetricDensity | LinearDensity


@dataclass(frozen=True)
class ExtinctionResult:
    """Ensemble extinction at one frequency.

    ``c_ext_samples`` holds (radius, effective per-particle cross section
    in m**2) pairs on a diagnostic grid over the population support.
    """

    extinction_per_m: float
    c_ext_samples: tuple[tuple[float, float], ...]
    wavenumber_per_m: float
    wavelength_m: float
    number_density_per_m3: float
    coupling: str   # "volumetric" or "beam-blockage"


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


def mie_cext(f_hz: float, r_m, eps: DustPermittivity, normalized: bool = False):
    """Small-particle Mie extinction, as printed in its source form.

    The printed leading factor ``k**3 * r * lambda**2 / 2`` makes the raw
    value dimensionless; it is consumed directly as an extinction
    efficiency. ``normalized=True`` returns ``pi*r**2`` times the raw
    value, i.e. a cross section in m**2. Accepts scalar or array radii.
    """
    if f_hz <= 0:
        raise DomainError("frequency must be positive")
    r = np.asarray(r_m, dtype=float)
    if np.any(r <= 0):
        raise DomainError("radius must be positive")
    lam = SPEED_OF_LIGHT / f_hz
    k = 2.0 * math.pi / lam
    c1, c2, c3 = mie_coefficients(eps.eps)
    kr = k * r
    raw = (k ** 3 * r * lam ** 2 / 2.0) * (c1 + c2 * kr ** 2 + c3 * kr ** 3)
    out = raw * (math.pi * r ** 2) if normalized else raw
    return float(out) if np.isscalar(r_m) else out


def rayleigh_cext(f_hz: float, r_m, eps: DustPermittivity):
    """Rayleigh extinction cross section in m**2.

    Sum of the dipole scattering term, the absorption term and, for
    charged grains, a charge term scaling with (sigma_q / (E0*eps0))**2.
    Accepts scalar or array radii.
    """
    if f_hz <= 0:
        raise DomainError("frequency must be positive")
    r = np.asarray(r_m, dtype=float)
    if np.any(r <= 0):
        raise DomainError("radius must be positive")
    er = eps.eps
    if abs(er + 2.0) == 0.0:
        raise DomainError("permittivity at the resonance eps_r = -2")
    k = 2.0 * math.pi * f_hz / SPEED_OF_LIGHT
    polar = abs((er - 1.0) / (er + 2.0)) ** 2
    scattering = (8.0 / 3.0) * math.pi * k ** 4 * r ** 6 * polar
    absorption = 12.0 * math.pi * k * er.imag * r ** 3 / abs(er + 2.0) ** 2
    if eps.charge_density != 0.0:
        if eps.field_scale == 0.0:
            raise DomainError("charge term singular: field scale E0 is zero")
        charge = ((math.pi / 6.0) * k ** 4 * r ** 6 * eps.charge_density ** 2
                  * abs(er - 1.0) ** 2
                  / (eps.field_scale ** 2 * eps.vacuum_permittivity ** 2))
    else:
        charge = 0.0
    out = scattering + absorption + charge
    return float(out) if np.isscalar(r_m) else out


def extinction_efficiency(f_hz: float, r_m, eps: DustPermittivity):
    """Dimensionless extinction efficiency for the particle's model.

    The Mie series is already an efficiency in its printed form; the
    Rayleigh cross section is divided by the geometric cross section.
    """
    r = np.asarray(r_m, dtype=float)
    if eps.resolved_approximation() == "mie":
        out = mie_cext(f_hz, r, eps, normalized=False)
    else:
        out = rayleigh_cext(f_hz, r, eps) / (math.pi * r ** 2)
    return float(out) if np.isscalar(r_m) else out


def physical_cross_section(f_hz: float, r_m, eps: DustPermittivity):
    """Per-particle extinction cross section in m**2 for the particle's model."""
    if eps.resolved_approximation() == "mie":
        return mie_cext(f_hz, r_m, eps, normalized=True)
    return rayleigh_cext(f_hz, r_m, eps)


def number_density_from_visibility(dist: SizeDistribution, visibility_m: float) -> float:
    """Volumetric number density (1/m**3) implied by a visibility.

    N0 = 15 / (0.034744 * V * integral of pi*r**2*P(r) over the support),
    with visibility in meters.
    """
    return _visibility_density(visibility_m, _geometric_area(dist))


def _geometric_area(dist: SizeDistribution) -> float:
    return dist.expectation(lambda r: math.pi * r ** 2)


def _visibility_density(visibility_m: float, area: float) -> float:
    if visibility_m <= 0:
        raise DomainError("visibility must be positive")
    return 15.0 / (VISIBILITY_LAW_CONSTANT * visibility_m * area)


def linear_density_to_volumetric(count_per_m: float, beam_area_m2: float) -> float:
    """Per-meter beam counts to particles per cubic meter."""
    if count_per_m < 0:
        raise DomainError("count per meter must be >= 0")
    if beam_area_m2 <= 0:
        raise DomainError("beam area must be positive")
    return count_per_m / beam_area_m2


_SAMPLE_POINTS = 33


class _Population:
    """Size-distribution integrals of one dust population at one frequency.

    Extinction is linear in the density: a rate is the density times one
    of these integrals, so each is evaluated once, on first use, for every
    density it scales.
    """

    def __init__(self, dist: SizeDistribution, eps: DustPermittivity, f_hz: float):
        if f_hz <= 0:
            raise DomainError("frequency must be positive")
        self.dist = dist
        self.eps = eps
        self.f_hz = f_hz

    @cached_property
    def mean_efficiency(self) -> float:
        return self.dist.expectation(
            lambda r: extinction_efficiency(self.f_hz, r, self.eps))

    @cached_property
    def mean_cross_section(self) -> float:
        return self.dist.expectation(
            lambda r: physical_cross_section(self.f_hz, r, self.eps))

    @cached_property
    def area(self) -> float:
        return _geometric_area(self.dist)

    def number_density(self, density) -> float:
        if isinstance(density, LinearDensity):
            return linear_density_to_volumetric(density.count_per_m,
                                                density.beam_area_m2)
        if isinstance(density, Visibility):
            return _visibility_density(density.meters, self.area)
        return density.per_m3

    def rate(self, density) -> float:
        """Per-meter extinction under the density's coupling rule."""
        if isinstance(density, LinearDensity):
            return density.count_per_m * self.mean_efficiency
        return self.number_density(density) * self.mean_cross_section


def ensemble_extinction(medium: MediumSpec, f_hz: float) -> ExtinctionResult:
    """Per-meter extinction rate of a dust population at one frequency.

    Integrates the per-particle extinction over the size distribution and
    scales by the population density. Visibility and volumetric density
    specs use physical cross sections (m**2); per-meter beam counts use
    the beam-blockage coupling (count/m times mean efficiency), with the
    equivalent volumetric density recorded for reference.
    """
    dist = medium.distribution
    eps = medium.permittivity
    density = medium.density
    population = _Population(dist, eps, f_hz)
    lam = SPEED_OF_LIGHT / f_hz

    if isinstance(density, LinearDensity):
        coupling = "beam-blockage"
        # effective per-particle area implied by the blockage coupling
        per_particle = lambda r: extinction_efficiency(f_hz, r, eps) * density.beam_area_m2
    else:
        coupling = "volumetric"
        per_particle = lambda r: physical_cross_section(f_hz, r, eps)

    if dist.kind == "point-mass":
        radii = np.array([dist.median_radius_m])
    else:
        radii = np.geomspace(dist.r_min_m, dist.r_max_m, _SAMPLE_POINTS)
    samples = tuple((float(r), float(per_particle(r))) for r in radii)

    return ExtinctionResult(
        extinction_per_m=float(population.rate(density)),
        c_ext_samples=samples,
        wavenumber_per_m=2.0 * math.pi / lam,
        wavelength_m=lam,
        number_density_per_m3=float(population.number_density(density)),
        coupling=coupling,
    )


def extinction_rates(media: Sequence[MediumSpec], f_hz: float) -> list[float]:
    """Per-meter extinction rate of each medium at one frequency.

    Equal, float for float, to ``ensemble_extinction(medium,
    f_hz).extinction_per_m`` of each medium, but each size-distribution
    integral is evaluated once per (distribution, permittivity) and scaled
    by every density that shares it.
    """
    populations: dict[tuple, _Population] = {}
    rates = []
    for medium in media:
        key = (medium.distribution, medium.permittivity)
        if key not in populations:
            populations[key] = _Population(*key, f_hz)
        rates.append(float(populations[key].rate(medium.density)))
    return rates
