"""Channel capacity under dust: the two headline scenarios.

Scenario one tracks per-second capacity while the dust count on a 1 m
link fluctuates, with two low-dust drop windows. Scenario two sweeps
transmitter-receiver distance in clear sky and in a dust storm.
"""

import numpy as np

from dustlink import EARTH, MARS, LinkConfig, bundled_catalog_dir, load_catalog_dir
from dustlink.atmosphere import absorption_coefficient
from dustlink.link import (DROP_WINDOWS_S, default_time_counts,
                           run_distance_sweep, run_time_scenario)
from dustlink.transport import TransportConfig


def band_center_absorption(planet) -> float:
    catalog = load_catalog_dir(bundled_catalog_dir(), [g for g, _ in planet.gases])
    spectrum = absorption_coefficient(planet.mixture(), catalog,
                                      np.array([planet.frequency_hz]))
    return float(spectrum.k_per_m[0])


# --- scenario one: time-varying dust over a 1 m link --------------------------
print("Time scenario: dust count per second with drop windows",
      DROP_WINDOWS_S)
for planet in (EARTH, MARS):
    cfg = LinkConfig.for_preset(planet, distance_m=1.0)
    k = band_center_absorption(planet)
    counts = default_time_counts(planet, seed=100)
    transport = TransportConfig(packet_count=4000)
    points = run_time_scenario(cfg, planet, counts, seed=100, k_per_m=k,
                               transport=transport)
    print(f"\n  {planet.name} (k = {k:.2e} per m at "
          f"{cfg.center_hz / 1e12:.2f} THz)")
    print(f"  {'t':>3} {'count':>6} {'T_MS':>10} {'capacity (bit/s)':>18}")
    for p in points:
        window = any(lo <= p.t_s <= hi for lo, hi in DROP_WINDOWS_S)
        mark = " <- drop window" if window else ""
        print(f"  {p.t_s:3.0f} {p.count:6.0f} {p.transmittance:10.2e} "
              f"{p.capacity_bps:18.4e}{mark}")

# --- scenario two: capacity vs distance ---------------------------------------
print("\nDistance sweep: clear sky vs storm (10 dBm transmitter)")
distances = [float(d) for d in np.geomspace(1, 200, 10)]
for planet, storm_range in ((EARTH, (100.0, 200.0)), (MARS, (1000.0, 2000.0))):
    cfg = LinkConfig.for_preset(planet)
    k = band_center_absorption(planet)
    transport = TransportConfig(packet_count=4000)
    clear = run_distance_sweep(cfg, planet, distances, (0.0, 0.0), seed=7,
                               k_per_m=k, transport=transport)
    dusty = run_distance_sweep(cfg, planet, distances, storm_range, seed=7,
                               k_per_m=k, transport=transport)
    print(f"\n  {planet.name}: storm density {storm_range[0]:.0f}-"
          f"{storm_range[1]:.0f} particles per meter")
    print(f"  {'D (m)':>7} {'clear C (bit/s)':>16} {'storm C (bit/s)':>16}")
    for c, d in zip(clear, dusty):
        print(f"  {c.distance_m:7.1f} {c.capacity_bps:16.4e} "
              f"{d.capacity_bps:16.4e}")
