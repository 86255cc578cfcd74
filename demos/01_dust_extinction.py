"""Dust populations and ensemble extinction.

Walks through the scatter layer: complex permittivities of Earth and Mars
dust, single-particle extinction from the small-particle Mie series and
the Rayleigh approximation, and how visibility or beam particle counts
become a per-meter extinction rate.
"""

import numpy as np

from dustlink import (EARTH, MARS, LinearDensity, SizeDistribution,
                      dust_permittivity, extinction_efficiency,
                      number_density_from_visibility, physical_cross_section)

# --- permittivities ---------------------------------------------------------
earth_eps = dust_permittivity("earth-frequency-dependent", 0.24e12)
mars_eps = dust_permittivity("mars-constant")
print("Earth dust permittivity at 0.24 THz:", earth_eps.eps)
print("Mars dust permittivity (constant):  ", mars_eps.eps)

# --- single particles -------------------------------------------------------
print("\nSingle-particle extinction at the preset carriers")
print(f"{'radius':>10} {'Earth Mie (efficiency)':>24} {'Mars Rayleigh (m^2)':>22}")
for r in (1e-6, 5e-6, 10e-6, 50e-6):
    q = extinction_efficiency(0.24e12, r, earth_eps)
    sigma = physical_cross_section(1.64e12, min(r, 4e-6), mars_eps)
    print(f"{r * 1e6:8.1f} um {q:24.4e} {sigma:22.4e}")

# --- populations ------------------------------------------------------------
print("\nTruncated log-normal populations (Table-style presets)")
for planet in (EARTH, MARS):
    d = planet.size_distribution
    print(f"  {planet.name}: median {d.median_radius_m * 1e6:.1f} um, "
          f"sigma_g {d.geometric_sigma}, support "
          f"[{d.r_min_m * 1e6:.1f}, {d.r_max_m * 1e6:.1f}] um, "
          f"mode {d.mode_radius() * 1e6:.2f} um")

# --- visibility to number density -------------------------------------------
print("\nVisibility -> volumetric number density (Earth population)")
for vb in (10.0, 100.0, 1000.0, 10000.0):
    n0 = number_density_from_visibility(EARTH.size_distribution, vb)
    print(f"  V = {vb:7.0f} m  ->  N0 = {n0:.3e} per m^3")

# point-mass sanity anchor: 50 um grains at 1 km visibility
pm = SizeDistribution.point_mass(50e-6)
print(f"  point-mass 50 um, V = 1000 m -> N0 = "
      f"{number_density_from_visibility(pm, 1000.0):.4e} per m^3")

# --- ensemble extinction ----------------------------------------------------
print("\nEnsemble extinction at the preset defaults")
for planet, count in ((EARTH, 10.0), (MARS, 1000.0)):
    res = planet.extinction(LinearDensity(count))
    print(f"  {planet.name}: {count:g} particles/m of beam -> "
          f"C_ext = {res.extinction_per_m:.4f} per m ({res.coupling} coupling)")

print("\nEarth extinction rate vs frequency (fixed default dust)")
for f in np.geomspace(0.1e12, 4e12, 6):
    res = EARTH.extinction(LinearDensity(EARTH.dust_count_per_m), f)
    q = extinction_efficiency(f, 10e-6, dust_permittivity(
        "earth-frequency-dependent", f))
    print(f"  f = {f / 1e12:5.2f} THz: C_ext = {res.extinction_per_m:9.4f} per m"
          f"   (10 um efficiency {q:.3e})")
