"""Speed probe: a fixed kernel that does not touch dustlink.

On a shared host the machine's speed drifts by tens of percent within
minutes. Timing this probe next to every measured interval lets each
interval be scaled to one reference speed.
"""

import math
import time

import numpy as np

# Median of probe_s() on the reference machine (2-core Intel Xeon, Python
# 3.11, numpy 2.4); scaled times read as seconds on that machine.
PROBE_REF_S = 0.035


def probe_s() -> float:
    """Seconds taken by scalar float math in the interpreter plus numpy on
    small arrays, the mix the workloads spend their time in."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, 40_000):
        x = i * 1e-4
        acc += math.log(x) * math.cos(x) + math.exp(-x) * math.sqrt(x)
    a = np.linspace(0.0, 1.0, 2000)
    for _ in range(200):
        acc += float((np.exp(-a) * np.sqrt(a)).sum())
    return time.perf_counter() - t0


def normalise(times, probes) -> list[float]:
    """Scale each time by the reference over the mean probe around it."""
    return [t * 2.0 * PROBE_REF_S / (before + after)
            for t, before, after in zip(times, probes, probes[1:])]
