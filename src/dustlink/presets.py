"""Built-in Earth and Mars channel presets.

Earth runs 0.24 THz links through 1-150 micron dust under a 288 K /
1013 mb atmosphere; Mars runs 1.64 THz through 0.5-4 micron dust at
210 K / 6.1 mb. The log-normal shape parameters (Earth: median 10 um,
sigma 2.0; Mars: median 1.5 um, sigma 1.5) are modeling choices and
overridable everywhere. ``PlanetPreset.extinction`` takes a dust
extinction's permittivity and wavenumber at one and the same frequency.

A preset holds only what a planet or its scenario table sets. The Monte
Carlo settings both planets share (the packet count, the link length,
the 0.5-1 asymmetry range, the 1e-5 weight threshold, the event guard)
are the defaults of ``TransportConfig``, and transmit power and noise
density are the defaults below, which are ``LinkConfig``'s field
defaults.
"""

from dataclasses import dataclass
from importlib import resources

from .atmosphere import GasMixture
from .constants import BOLTZMANN, MB_PER_ATM, dbm_to_watts
from .errors import DomainError
from .scatter import (DustPermittivity, ExtinctionResult, LinearDensity,
                      MediumSpec, SizeDistribution, Visibility,
                      VolumetricDensity, dust_permittivity, ensemble_extinction)

__all__ = ["PlanetPreset", "EARTH", "MARS", "PLANETS", "preset",
           "bundled_catalog_dir", "DEFAULT_NOISE_PSD_W_HZ", "DEFAULT_TX_POWER_W"]

# Thermal noise floor at 290 K (-174 dBm/Hz). Absolute capacities scale
# with this choice; override it to model other receivers.
DEFAULT_NOISE_PSD_W_HZ = BOLTZMANN * 290.0
DEFAULT_TX_POWER_W = dbm_to_watts(10.0)


@dataclass(frozen=True)
class PlanetPreset:
    """Band, atmosphere, dust and scenario ranges of one planet."""

    name: str
    frequency_hz: float
    band_lo_hz: float
    band_hi_hz: float
    temperature_k: float
    pressure_atm: float
    dust_count_per_m: float
    size_distribution: SizeDistribution
    permittivity_model: str
    gases: tuple[tuple[str, float], ...]
    frequency_cap_hz: float                 # top of the frequency sweep
    # capacity_distance's default per-meter dust density range
    density_range_per_m: tuple[float, float]
    # time_scenario's per-second dust counts, outside and inside the drop
    # windows (inclusive ranges)
    storm_count_range: tuple[int, int]
    drop_count_range: tuple[int, int]

    def permittivity(self, f_hz: float | None = None) -> DustPermittivity:
        return dust_permittivity(self.permittivity_model,
                                 f_hz if f_hz is not None else self.frequency_hz)

    def mixture(self) -> GasMixture:
        return GasMixture(self.gases, self.temperature_k, self.pressure_atm)

    def extinction(self, density: LinearDensity | Visibility | VolumetricDensity,
                   f_hz: float | None = None) -> ExtinctionResult:
        """Dust extinction at ``density``, with the permittivity and the
        wavenumber both at ``f_hz`` (default: the carrier)."""
        f = f_hz if f_hz is not None else self.frequency_hz
        medium = MediumSpec(self.size_distribution, self.permittivity(f), density)
        return ensemble_extinction(medium, f)


EARTH = PlanetPreset(
    name="earth",
    frequency_hz=0.24e12,
    band_lo_hz=0.22e12,
    band_hi_hz=0.24e12,
    temperature_k=288.0,
    pressure_atm=1013.0 / MB_PER_ATM,
    dust_count_per_m=10.0,     # 100 particles per 10 m path
    size_distribution=SizeDistribution.log_normal(10e-6, 2.0, 1e-6, 150e-6),
    permittivity_model="earth-frequency-dependent",
    gases=(
        ("N2", 0.78084), ("O2", 0.20946), ("H2O", 0.01),
        ("CO2", 0.00003), ("CH4", 1.5e-6), ("SO2", 1e-6),
        ("O3", 0.05e-6), ("N2O", 0.02e-6), ("CO", 0.01e-6),
        ("NH3", 0.01e-6),
    ),
    frequency_cap_hz=4e12,
    density_range_per_m=(100.0, 200.0),
    storm_count_range=(100, 200),
    drop_count_range=(5, 30),
)

MARS = PlanetPreset(
    name="mars",
    frequency_hz=1.64e12,
    band_lo_hz=1.64e12,
    band_hi_hz=1.67e12,
    temperature_k=210.0,
    pressure_atm=6.1 / MB_PER_ATM,
    dust_count_per_m=1000.0,   # 10**4 particles per 10 m path
    size_distribution=SizeDistribution.log_normal(1.5e-6, 1.5, 0.5e-6, 4e-6),
    permittivity_model="mars-constant",
    gases=(
        ("CO2", 0.9532), ("N2", 0.027), ("O2", 0.0013),
        ("H2O", 200e-6), ("O3", 0.1e-6), ("CO", 0.0008),
        ("NO", 100e-6),
    ),
    frequency_cap_hz=10e12,
    density_range_per_m=(1000.0, 2000.0),
    storm_count_range=(10_000, 20_000),
    drop_count_range=(50, 300),
)

_PRESETS = {"earth": EARTH, "mars": MARS}
PLANETS = tuple(_PRESETS)


def preset(name: str) -> PlanetPreset:
    try:
        return _PRESETS[name.lower()]
    except KeyError:
        raise DomainError(f"unknown planet preset {name!r}") from None


def bundled_catalog_dir() -> str:
    """Directory of the bundled synthetic spectroscopic catalog."""
    return str(resources.files("dustlink") / "data")
