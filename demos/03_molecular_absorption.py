"""Line-by-line molecular absorption for the two planetary atmospheres.

Loads the bundled synthetic catalog, compares its Lorentz (Earth) and
Doppler (Mars) regimes, and writes band spectra as CSV.
"""

from pathlib import Path

import numpy as np

from dustlink import EARTH, MARS, bundled_catalog_dir, load_catalog_dir
from dustlink.atmosphere import absorption_coefficient
from dustlink.output import write_csv

out_dir = Path(__file__).parent / "out"
out_dir.mkdir(exist_ok=True)

catalog_dir = bundled_catalog_dir()
print("catalog directory:", catalog_dir)

for planet in (EARTH, MARS):
    gases = [g for g, _ in planet.gases]
    catalog = load_catalog_dir(catalog_dir, gases)
    n_lines = sum(len(v) for v in catalog.values())
    print(f"\n{planet.name}: {len(gases)} gases, {n_lines} catalog lines, "
          f"T = {planet.temperature_k} K, P = {planet.pressure_atm:.4f} atm")

    mixture = planet.mixture()
    grid = np.linspace(planet.band_lo_hz, planet.band_hi_hz, 601)
    spectrum = absorption_coefficient(mixture, catalog, grid)
    print(f"  line shape regime: {spectrum.shape_model}")
    print(f"  k at band edges: {spectrum.k_per_m[0]:.3e} / "
          f"{spectrum.k_per_m[-1]:.3e} per m")
    print(f"  band maximum:    {spectrum.k_per_m.max():.3e} per m at "
          f"{grid[spectrum.k_per_m.argmax()] / 1e12:.4f} THz")
    path = write_csv(out_dir / f"absorption_{planet.name}.csv", ["f_hz", "k_per_m"],
                     list(zip(spectrum.frequency_hz, spectrum.k_per_m)))
    print(f"  wrote {path}")

# Carrier-frequency comparison: the headline asymmetry between the planets
earth_catalog = load_catalog_dir(catalog_dir, [g for g, _ in EARTH.gases])
mars_catalog = load_catalog_dir(catalog_dir, [g for g, _ in MARS.gases])
k_earth = absorption_coefficient(EARTH.mixture(), earth_catalog,
                                 np.array([0.24e12])).k_per_m[0]
k_mars = absorption_coefficient(MARS.mixture(), mars_catalog,
                                np.array([0.24e12])).k_per_m[0]
print("\nAt 0.24 THz (identical frequency, different atmospheres):")
print(f"  k_earth = {k_earth:.3e} per m")
print(f"  k_mars  = {k_mars:.3e} per m")
print("  the thin, dry Martian atmosphere is effectively transparent here")
