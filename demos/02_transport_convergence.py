"""Monte Carlo transport: convergence and bookkeeping.

Shows the analytic forward-scattering limit, convergence of the
transmittance estimate as the packet count grows, and how packets end
their lives (receiver, weight threshold, backscatter).
"""

import math

from dustlink import (EARTH, FixedAsymmetry, TransportConfig,
                      ensemble_extinction, estimate_batch,
                      estimate_transmittance)

# --- analytic check: pure forward scattering telescopes to Beer-Lambert ------
cfg = TransportConfig(distance_m=10.0, packet_count=10_000,
                      extinction_per_m=0.3, asymmetry=FixedAsymmetry(1.0),
                      seed=1)
result = estimate_transmittance(cfg)
print("Forward-scattering limit (g = 1, C = 0.3/m, D = 10 m)")
print(f"  T = {result.transmittance:.12f}")
print(f"  e^-3 = {math.exp(-3):.12f}")
print(f"  |difference| = {abs(result.transmittance - math.exp(-3)):.2e}\n")

# --- convergence in the packet count -----------------------------------------
medium = EARTH.medium_from_count(EARTH.dust_count_per_m)
cext = ensemble_extinction(medium, EARTH.frequency_hz).extinction_per_m
print(f"Earth default dust: C_ext = {cext:.4f} per m over 10 m")
print(f"{'packets':>8} {'T_MS':>12} {'A (dB/m)':>10} {'mean events':>12}")
for m in (10, 100, 1000, 10_000, 100_000):
    r = estimate_transmittance(TransportConfig(
        distance_m=10.0, packet_count=m, extinction_per_m=cext, seed=2))
    print(f"{m:8d} {r.transmittance:12.5f} {r.attenuation_db_per_m:10.3f} "
          f"{r.mean_events:12.2f}")

# --- packet fates at increasing optical depth --------------------------------
print("\nPacket fates vs optical depth (10k packets, 10 m slab)")
print(f"{'C_ext':>7} {'reached':>8} {'weight':>8} {'backscatter':>12} {'A (dB/m)':>10}")
for cext in (0.05, 0.25, 0.5, 1.0, 2.0):
    r = estimate_transmittance(TransportConfig(
        distance_m=10.0, packet_count=10_000, extinction_per_m=cext, seed=3))
    a = r.attenuation_db_per_m
    print(f"{cext:7.2f} {r.fates.reached:8d} {r.fates.weight_killed:8d} "
          f"{r.fates.backscatter_exit:12d} "
          f"{a if math.isfinite(a) else float('inf'):10.3f}")

# --- reproducibility across batches ------------------------------------------
# A run's result does not depend on the other runs traced in its batch.
cfgs = [TransportConfig(distance_m=10.0, packet_count=4000,
                        extinction_per_m=c, seed=4) for c in (0.25, 1.0, 2.0)]
together = estimate_batch(cfgs)
alone = [estimate_transmittance(c) for c in cfgs]
print("\nthree runs in one batch vs each alone, same seeds:",
      "identical" if together == alone else "MISMATCH")
