"""Physical constants and unit helpers (SI unless noted)."""

import math

from .errors import DomainError

SPEED_OF_LIGHT = 2.99792458e8           # m/s (exact)
BOLTZMANN = 1.380649e-23                # J/K (exact)
AVOGADRO = 6.02214076e23                # 1/mol (exact)
VACUUM_PERMITTIVITY = 8.8541878128e-12  # F/m
PLANCK = 6.62607015e-34                 # J s (exact)

# Second radiation constant h*c/k_B in cm*K; used with line energies in 1/cm.
C2_CM_K = PLANCK * SPEED_OF_LIGHT * 100.0 / BOLTZMANN

# Conversion factor from wavenumber (1/cm) to frequency (Hz).
HZ_PER_INVCM = SPEED_OF_LIGHT * 100.0

ATM_PA = 101325.0                       # Pa per standard atmosphere
MB_PER_ATM = 1013.25                    # millibar per standard atmosphere

# dB conversion constant of the attenuation formula: 10*log10(e) rounded
# to four significant digits, kept at that rounding so reported dB/m
# values match the conventional form.
DB_PER_NEPER = 4.343

LN2 = math.log(2.0)


def db_from_transmittance(transmittance: float, distance_m: float) -> float:
    """Specific attenuation in dB/m; +inf when nothing is transmitted."""
    if not 0.0 <= transmittance <= 1.0:
        raise DomainError(f"transmittance {transmittance} outside [0, 1]")
    if not 0.0 < distance_m < math.inf:
        raise DomainError(f"distance must be positive and finite, got {distance_m}")
    if transmittance == 0.0:
        return math.inf
    if transmittance == 1.0:
        return 0.0
    return -DB_PER_NEPER * math.log(transmittance) / distance_m


def dbm_to_watts(dbm: float) -> float:
    """Exact dBm -> W conversion."""
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        raise DomainError(f"power {dbm!r} dBm overflows in watts") from None
