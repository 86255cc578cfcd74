"""Storm simulation and cone-beam particle counting.

Steps the kinematic storm until the plume reaches antenna height, counts
particles inside the disk-subdivided beam cone, and validates the counter
against a uniform-cloud analytic oracle.
"""

import math

import numpy as np

from dustlink import BeamCone, StormConfig, count_in_beam
from dustlink.rng import substream
from dustlink.storm import ParticleField, empty_field, step_field

# --- beam geometry: a 10 km cone subdivided into a million disks -------------
cone = BeamCone((0.0, 0.0, 50.0), (10_000.0, 0.0, 50.0),
                half_angle_rad=1.5e-5, disk_spacing_m=0.01)
print(f"beam cone: {cone.disk_count():,} disks, end radius "
      f"{float(cone.disk_radius(cone.length_m)) * 100:.0f} cm")

# --- run the storm to a filled state -----------------------------------------
cfg = StormConfig(seed=20)
fld = empty_field()
print("\nstepping the default storm (plume rides the updraft toward 50 m)")
for step in range(1, 461):
    fld = step_field(fld, cfg)
    if step % 90 == 0:
        count, profile = count_in_beam(fld, cone)
        z_mean = fld.positions_m[:, 2].mean() if fld.count() else 0.0
        print(f"  t = {fld.timestamp_s:5.0f} s: {fld.count():6d} particles, "
              f"mean height {z_mean:5.1f} m, in-beam {count}")

count, profile = count_in_beam(fld, cone)
occupied = np.nonzero(profile)[0]
if occupied.size:
    print(f"\nin-beam particles sit between {occupied.min()} m and "
          f"{occupied.max()} m from the transmitter")
print(f"in-beam fraction of the whole field: {count / fld.count():.2e}")
print("(absolute in-beam ratios depend entirely on the wind model; this")
print(" parametric field disperses dust widely, so only the order matters)")

# --- analytic oracle: uniform cloud in a cylinder around the cone ------------
n = 300_000
rng = substream(21, 0)
length, half_angle, cyl_radius = 100.0, 0.02, 2.5
oracle_cone = BeamCone((0.0, 0.0, 0.0), (length, 0.0, 0.0), half_angle, 0.05)
xs = rng.uniform(0.0, length, n)
rr = cyl_radius * np.sqrt(rng.random(n))
az = rng.uniform(0.0, 2 * math.pi, n)
cloud = ParticleField(np.column_stack([xs, rr * np.cos(az), rr * np.sin(az)]))
count, _ = count_in_beam(cloud, oracle_cone)
end_radius = length * math.tan(half_angle)
expected = n * ((math.pi / 3) * end_radius ** 2) / (math.pi * cyl_radius ** 2)
print(f"\nuniform-cloud oracle: counted {count}, analytic expectation "
      f"{expected:.0f} ({abs(count - expected) / expected:.2%} apart)")
