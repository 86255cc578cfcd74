"""Acceptance suite.

Each test runs one acceptance criterion at its stated tolerance and prints
a single pass/fail line. Only criterion 9d is red; why, and how 11d's
cutoff window follows from criterion 10, is set out below.

Criterion 11d (Earth, 100-200 particles/m, cutoff = first grid distance
where capacity falls below 1% of clear sky). Its window is derived from
criterion 10's anchor (``ATTENUATION_ANCHOR_DB_PER_M``) and four
properties of the model:

1. beam-count extinction is linear in the per-metre count,
   ``C = count/m x mean efficiency`` (``dustlink.scatter``);
2. a reached packet contributes ``exp(-C*path)`` with path >= D, so
   ``T_hat <= exp(-C*D)`` on every run;
3. packets that never scatter give ``E[T_hat] >= exp(-2*C*D)``;
4. ``link.capacity`` is monotone in T.

A >= 1 dB/m at 10/m and point 3 give C(10/m) >= 1/(2*4.343) = 0.115 /m,
so C >= 1.15 /m at 100/m. Point 2 and the link budget then hold the
capacity ratio below 0.0078 at 4.24 m on 11d's grid
(``geomspace(1, 200, 12)``): the cutoff is at or before 4.24 m. The
11 dB/m edge only bounds it below by the grid's first point, 1 m. At
seed 5 the model's cutoff is 1.62 m.

Criterion 9d (Mars attenuation flat in frequency) stays red, unsettled.
The Mars model has a constant permittivity (1.52+0.01i)**2, Rayleigh
extinction and beam-count coupling, so the dominant absorption
efficiency grows in proportion to frequency. At 1000/m, C rises from
0.066 /m at 0.1 THz to 13.8 /m at 10 THz, Spearman rho is 0.991, no
packet reaches at 4.6 and 10 THz (A = inf), and at 10 THz the size
parameter 2*pi*r/lambda reaches 0.84, outside the Rayleigh regime. The
paper's abstract says Mars attenuation varies around a constant value,
but the repository holds neither the paper's Mars sweep range nor a
dispersive Mars permittivity, so it cannot tell whether the model or
the expectation is wrong. The test is asserted as stated until it can.
"""

import math
import time
from dataclasses import replace

import numpy as np
from scipy.integrate import quad
from scipy.stats import spearmanr

from dustlink import atmosphere as atm
from dustlink.cli import ExperimentConfig, run_scenario, write_outputs
from dustlink.constants import DB_PER_NEPER, HZ_PER_INVCM
from dustlink.link import (DROP_WINDOWS_S, LinkConfig, capacity, channel_gain,
                           default_time_counts, h_dust, run_distance_sweep,
                           run_time_scenario)
from dustlink.presets import EARTH, MARS
from dustlink.rng import substream
from dustlink.scatter import (LinearDensity, SizeDistribution, Visibility,
                              number_density_from_visibility)
from dustlink.storm import BeamCone, ParticleField, count_in_beam
from dustlink.transport import (TransportConfig, estimate_transmittance,
                                sample_scatter_angles, update_direction)

# Criterion 10's median specific attenuation window (dB/m) for the default
# Earth and Mars runs; criterion 11d derives its cutoff window from it.
ATTENUATION_ANCHOR_DB_PER_M = (1.0, 11.0)


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def default_run(planet, seed: int, extinction_per_m: float | None = None,
                **kwargs):
    if extinction_per_m is None:
        extinction_per_m = planet.extinction(
            LinearDensity(planet.dust_count_per_m)).extinction_per_m
    return estimate_transmittance(TransportConfig(
        extinction_per_m=extinction_per_m, seed=seed, **kwargs))


def test_criterion_01_forward_limit():
    start = time.perf_counter()
    result = default_run(EARTH, seed=20240101, extinction_per_m=0.3,
                         g_lo=1.0, g_hi=1.0)
    elapsed = time.perf_counter() - start
    error = abs(result.transmittance - math.exp(-3.0))
    check("criterion 1 (forward-limit equivalence)",
          error < 1e-9 and elapsed < 1.0,
          f"|T - e^-3| = {error:.3e}, runtime {elapsed:.2f} s")


def test_criterion_02_clear_sky_identity():
    result = default_run(EARTH, seed=1, extinction_per_m=0.0)
    check("criterion 2 (clear-sky identity)",
          result.transmittance == 1.0 and result.attenuation_db_per_m == 0.0,
          f"T = {result.transmittance}, A = {result.attenuation_db_per_m}")


def test_criterion_03_hg_sampler_moment():
    details = []
    ok = True
    for g in (0.3, 0.7, 0.95):
        rng = substream(314159, 0)
        start = time.perf_counter()
        n = 1_000_000
        theta, _ = sample_scatter_angles(rng.random(n), rng.random(n), g)
        cos = np.cos(theta)
        elapsed = time.perf_counter() - start
        se = cos.std(ddof=1) / math.sqrt(n)
        deviation = abs(float(cos.mean()) - g)
        ok = ok and deviation < 3 * se and elapsed < 5.0
        details.append(f"g={g}: |mean-g|={deviation:.2e} (3SE={3*se:.2e}, "
                       f"{elapsed:.2f} s)")
    check("criterion 3 (HG sampler first moment)", ok, "; ".join(details))


def test_criterion_04_direction_cosine_norm():
    rng = substream(271828, 0)
    n = 1_000_000
    thetas = rng.random(n) * math.pi
    phis = rng.random(n) * 2.0 * math.pi
    mu = (1.0, 0.0, 0.0)
    worst = 0.0
    for i in range(n):
        mu = update_direction(mu, float(thetas[i]), float(phis[i]))
        deviation = abs(math.sqrt(mu[0] ** 2 + mu[1] ** 2 + mu[2] ** 2) - 1.0)
        if deviation > worst:
            worst = deviation
    check("criterion 4 (direction-cosine norm)", worst < 1e-9,
          f"max | |mu| - 1 | = {worst:.3e} over 1e6 chained updates")


def test_criterion_05_dust_transfer_identity():
    worst = 0.0
    for t in np.logspace(-6, 0, 31):
        worst = max(worst, abs(h_dust(float(t)) ** 2 * (1.0 / float(t)) - 1.0))
    check("criterion 5 (dust transfer identity)", worst < 1e-12,
          f"max |h(T)^2 / T - 1| = {worst:.3e}")


def test_criterion_06_line_shape_normalization():
    line = atm.SpectralLine(1, 1, 7.5, 1e-22, 0.08, 0.4, 100.0, 0.7, 0.0,
                            18.010565e-3)
    gamma = 2.4e9
    lorentz, _ = quad(lambda f: atm.lorentz_shape(f, line, gamma, 1.0),
                      line.center_hz - 1e4 * gamma,
                      line.center_hz + 1e4 * gamma, limit=200)
    alpha = atm.doppler_halfwidth(line, 250.0)
    doppler, _ = quad(lambda f: atm.doppler_shape(f, line, alpha),
                      line.center_hz - 10 * alpha,
                      line.center_hz + 10 * alpha, limit=200)
    ok = abs(lorentz - 1.0) < 1e-3 and abs(doppler - 1.0) < 1e-3
    check("criterion 6 (line-shape normalization)", ok,
          f"Lorentz integral = {lorentz:.6f}, Doppler integral = {doppler:.6f}")


def test_criterion_07_doppler_halfwidth():
    center_invcm = 1.64e12 / HZ_PER_INVCM
    line = atm.SpectralLine(2, 1, center_invcm, 1e-25, 0.07, 0.09, 100.0,
                            0.7, 0.0, 43.98983e-3)
    alpha = atm.doppler_halfwidth(line, 210.0)
    ok = abs(alpha - 1.283e6) / 1.283e6 < 0.01
    check("criterion 7 (Doppler halfwidth)", ok,
          f"alpha_D = {alpha:.4e} Hz vs 1.283 MHz")


def test_criterion_08_visibility_law_point_mass():
    dist = SizeDistribution.point_mass(50e-6)
    value = number_density_from_visibility(dist, 1000.0)
    oracle = 15.0 / (0.034744 * 1000.0 * math.pi * (50e-6) ** 2)
    rel = abs(value - oracle) / oracle
    ok = rel < 1e-6 and abs(value - 5.497e7) / 5.497e7 < 1e-3
    check("criterion 8 (visibility-law point mass)", ok,
          f"N0 = {value:.6e} per m^3, oracle deviation {rel:.2e}")


def _sweep_medians(scenario: str, planet: str, **kwargs):
    cfg = ExperimentConfig(scenario=scenario, planet=planet, seed=7,
                           replicates=10, **kwargs)
    result = run_scenario(cfg)
    by_value: dict[float, list[float]] = {}
    for row in result.rows:
        by_value.setdefault(row[0], []).append(row[4])
    values = sorted(by_value)
    medians = [float(np.median(by_value[v])) for v in values]
    return values, medians, result


def test_criterion_09a_visibility_trend():
    values, medians, _ = _sweep_medians("visibility_sweep", "earth")
    rho = spearmanr(values, medians).statistic
    check("criterion 9a (earth attenuation falls with visibility)",
          rho < -0.9, f"spearman rho = {rho:.3f}, medians = "
          + ", ".join(f"{m:.3g}" for m in medians))


def test_criterion_09b_particle_count_trend():
    details = []
    ok = True
    for planet in ("earth", "mars"):
        values, medians, _ = _sweep_medians("particle_sweep", planet)
        rho = spearmanr(values, medians).statistic
        ok = ok and rho > 0.9
        details.append(f"{planet}: rho = {rho:.3f}")
    check("criterion 9b (attenuation rises with particle count)", ok,
          "; ".join(details))


def test_criterion_09c_earth_frequency_trend():
    values, medians, _ = _sweep_medians("frequency_sweep", "earth")
    rho = spearmanr(values, medians).statistic
    check("criterion 9c (earth attenuation rises with frequency)",
          rho > 0.9, f"spearman rho = {rho:.3f} over 0.1-4 THz")


def test_criterion_09d_mars_frequency_flatness():
    values, medians, _ = _sweep_medians("frequency_sweep", "mars")
    rho = spearmanr(values, medians).statistic
    finite = [m for m in medians if math.isfinite(m)]
    mean = float(np.mean(medians))
    constant = float(np.median(medians))
    flat = abs(rho) < 0.5
    near_constant = (math.isfinite(mean) and math.isfinite(constant)
                     and constant > 0 and 0.5 <= mean / constant <= 2.0)
    check("criterion 9d (mars attenuation flat in frequency)",
          flat and near_constant,
          f"spearman rho = {rho:.3f}, mean = {mean:.3g}, "
          f"run median = {constant:.3g}, finite medians = "
          + ", ".join(f"{m:.3g}" for m in finite))


def test_criterion_10_order_of_magnitude_anchor():
    lo, hi = ATTENUATION_ANCHOR_DB_PER_M
    details = []
    ok = True
    for planet in (EARTH, MARS):
        values = [default_run(planet, seed=s).attenuation_db_per_m
                  for s in range(10)]
        median = float(np.median(values))
        ok = ok and lo <= median <= hi
        details.append(f"{planet.name}: median A = {median:.2f} dB/m")
    check(f"criterion 10 (attenuation anchor in [{lo:g}, {hi:g}] dB/m)", ok,
          "; ".join(details))


def test_criterion_11a_unit_snr_capacity():
    cfg = LinkConfig.for_preset(EARTH)
    h = math.sqrt(cfg.bandwidth_hz * cfg.noise_psd_w_hz / cfg.tx_power_w)
    result = capacity(cfg, h)
    ok = abs(result.capacity_bps - cfg.bandwidth_hz) / cfg.bandwidth_hz < 1e-12
    check("criterion 11a (unit-SNR capacity equals bandwidth)", ok,
          f"C = {result.capacity_bps:.6e} vs bandwidth {cfg.bandwidth_hz:.6e}")


def test_criterion_11b_clear_sky_capacity_decreasing():
    cfg = LinkConfig.for_preset(EARTH)
    distances = [float(d) for d in np.geomspace(1.0, 200.0, 12)]
    points = run_distance_sweep(cfg, EARTH, distances, (0.0, 0.0), seed=3,
                                k_per_m=0.004)
    caps = [p.capacity_bps for p in points]
    ok = all(a > b for a, b in zip(caps, caps[1:]))
    check("criterion 11b (clear-sky capacity strictly decreasing)", ok,
          f"capacity falls {caps[0]:.3e} -> {caps[-1]:.3e} bit/s")


def test_criterion_11c_drop_window_capacity():
    cfg = LinkConfig.for_preset(EARTH, distance_m=1.0)
    counts = default_time_counts(EARTH, seed=11)
    points = run_time_scenario(cfg, EARTH, counts, seed=11, k_per_m=0.004)
    inside = [p.capacity_bps for p in points
              if any(lo <= p.t_s <= hi for lo, hi in DROP_WINDOWS_S)]
    outside = [p.capacity_bps for p in points
               if not any(lo <= p.t_s <= hi for lo, hi in DROP_WINDOWS_S)]
    ok = min(inside) > max(outside)
    check("criterion 11c (drop windows strictly raise capacity)", ok,
          f"min window C = {min(inside):.3e}, max storm C = {max(outside):.3e}")


def _capacity_ratio(cfg: LinkConfig, distance_m: float, k_per_m: float,
                    transmittance: float) -> float:
    """Capacity at dust transmittance T over clear-sky capacity, same link."""
    link = replace(cfg, distance_m=distance_m)

    def cap(t: float) -> float:
        gain = channel_gain(cfg.center_hz, distance_m, k_per_m, t)
        return capacity(link, gain.h_los).capacity_bps

    return cap(transmittance) / cap(1.0)


def _earth_cutoff_window(cfg: LinkConfig, distances: list[float],
                         density_range: tuple[float, float],
                         k_per_m: float) -> tuple[float, float]:
    """Grid window for 11d's cutoff implied by criterion 10's anchor.

    With the numbered properties of the module docstring, the extinction
    per particle e = C/n at criterion 10's count n10 obeys
    e >= A_lo / (2 * DB_PER_NEPER * n10) (point 3, reading criterion
    10's median as the expectation) and e <= A_hi / (DB_PER_NEPER * n10)
    (point 2). The latest edge is the first grid distance where
    T = exp(-e_lo * n_lo * d) already gives under 1% of clear sky; the
    earliest is the first where E[T] >= exp(-2 * e_hi * n_hi * d) may.
    On 11d's grid the earliest edge is the first point (T >= e^-101 at
    1 m), which says nothing; the anchor gives no tighter one.
    """
    a_lo, a_hi = ATTENUATION_ANCHOR_DB_PER_M
    n10 = EARTH.dust_count_per_m
    c_lo = a_lo / (2.0 * DB_PER_NEPER * n10) * density_range[0]
    c_hi = a_hi / (DB_PER_NEPER * n10) * density_range[1]
    earliest = next((d for d in distances
                     if _capacity_ratio(cfg, d, k_per_m,
                                        math.exp(-2.0 * c_hi * d)) < 0.01),
                    math.inf)
    latest = next((d for d in distances
                   if _capacity_ratio(cfg, d, k_per_m,
                                      math.exp(-c_lo * d)) < 0.01),
                  math.inf)
    return earliest, latest


def test_criterion_11d_earth_cutoff_distance():
    cfg = LinkConfig.for_preset(EARTH)
    distances = [float(d) for d in np.geomspace(1.0, 200.0, 12)]
    density_range = (100.0, 200.0)
    k_per_m = 0.004
    clear = run_distance_sweep(cfg, EARTH, distances, (0.0, 0.0), seed=5,
                               k_per_m=k_per_m)
    dusty = run_distance_sweep(cfg, EARTH, distances, density_range, seed=5,
                               k_per_m=k_per_m)
    # premise of the window: T_hat <= exp(-C*d) at each drawn density, up
    # to rounding in the per-step Beer-Lambert products
    violations = []
    for d in dusty:
        cext = EARTH.extinction(LinearDensity(d.density_per_m),
                                cfg.center_hz).extinction_per_m
        if d.transmittance > math.exp(-cext * d.distance_m) * (1.0 + 1e-9):
            violations.append(d.distance_m)
    cutoff = None
    for c, d in zip(clear, dusty):
        if d.capacity_bps < 0.01 * c.capacity_bps:
            cutoff = d.distance_m
            break
    earliest, latest = _earth_cutoff_window(cfg, distances, density_range,
                                            k_per_m)
    ok = (not violations and cutoff is not None
          and earliest <= cutoff <= latest)
    check(f"criterion 11d (earth 100-200/m cutoff in [{earliest:.3g}, "
          f"{latest:.3g}] m)", ok,
          f"first distance below 1% of clear sky: {cutoff} m; "
          "premise T <= exp(-C d) "
          + (f"fails at {violations} m" if violations else "holds"))


def test_criterion_12_parallel_determinism(tmp_path):
    base = ExperimentConfig(scenario="visibility_sweep", planet="earth",
                            seed=99, replicates=2, range_steps=4,
                            overrides={"transport.packets": 500})
    serial = replace(base, workers=1, output=str(tmp_path / "w1"))
    parallel = replace(base, workers=8, output=str(tmp_path / "w8"))
    path_serial = write_outputs(run_scenario(serial), serial)[0]
    path_parallel = write_outputs(run_scenario(parallel), parallel)[0]
    identical = path_serial.read_bytes() == path_parallel.read_bytes()
    check("criterion 12 (1 vs 8 workers byte-identical)", identical,
          f"{path_serial.name}: {path_serial.stat().st_size} bytes both ways"
          if identical else "outputs differ")


def test_criterion_13_storm_counting_oracle():
    start = time.perf_counter()
    n = 1_000_000
    rng = substream(777, 0)
    length, half_angle, cyl_radius = 100.0, 0.02, 2.5
    cone = BeamCone((0.0, 0.0, 0.0), (length, 0.0, 0.0), half_angle, 0.05)
    xs = rng.uniform(0.0, length, n)
    rr = cyl_radius * np.sqrt(rng.random(n))
    az = rng.uniform(0.0, 2 * math.pi, n)
    pts = np.column_stack([xs, rr * np.cos(az), rr * np.sin(az)])
    fld = ParticleField(pts)
    count, _ = count_in_beam(fld, cone)
    elapsed = time.perf_counter() - start
    end_radius = length * math.tan(half_angle)
    expected = n * ((math.pi / 3) * end_radius ** 2 * length) \
        / (math.pi * cyl_radius ** 2 * length)
    rel = abs(count - expected) / expected
    check("criterion 13 (storm counting oracle)",
          rel < 0.05 and elapsed < 10.0,
          f"count {count} vs {expected:.0f} expected ({rel:.2%}), "
          f"{elapsed:.1f} s")


def test_criterion_14_parser_and_single_line_absorption():
    crafted = (" 1" + "1" + "    7.500000" + " 1.234E-21" + " " * 10
               + ".0880" + ".4100" + "  300.0000" + "0.70" + " .000000"
               + " " * 93)
    line = atm.parse_par_record(crafted)
    field_exact = (line.molecule_id == 1 and line.line_center_invcm == 7.5
                   and line.intensity_ref == 1.234e-21
                   and line.gamma_air_invcm_atm == 0.088
                   and line.gamma_self_invcm_atm == 0.41
                   and line.lower_state_energy_invcm == 300.0
                   and line.temperature_exponent == 0.70
                   and line.pressure_shift_invcm_atm == 0.0)
    try:
        atm.parse_par_record(crafted[:159])
        rejected = False
    except atm.FormatError:
        rejected = True
    except Exception:
        rejected = False

    mixture = atm.GasMixture((("H2O", 0.01),), 288.0, 1.0)
    spectrum = atm.absorption_coefficient(mixture, {"H2O": [line]},
                                          np.array([line.center_hz]),
                                          shape_model="lorentz")
    n = mixture.number_density_m3("H2O")
    s = atm.line_intensity_at_temperature(line, 288.0) * 2.99792458e8 * 1e-2
    gamma = atm.lorentz_halfwidth(line, 1.0, 0.01, 288.0)
    oracle = n * s * atm.lorentz_shape(line.center_hz, line, gamma, 1.0)
    rel = abs(spectrum.k_per_m[0] - oracle) / oracle
    ok = field_exact and rejected and rel < 1e-9
    check("criterion 14 (parser and single-line absorption)", ok,
          f"fields exact: {field_exact}, 159-char rejected: {rejected}, "
          f"line-center deviation {rel:.2e}")


def test_criterion_15_weak_storms_hurt_earth_more_than_mars():
    # A sweep point's seed does not depend on the planet, and at a fixed
    # seed and packet count T never rises with tau, so Earth's larger
    # extinction at equal visibility bounds its T by Mars's in every cell.
    rows = {planet: run_scenario(ExperimentConfig(
                scenario="visibility_sweep", planet=planet, seed=7)).rows
            for planet in ("earth", "mars")}
    cells = list(zip(rows["earth"], rows["mars"]))
    # the same (visibility, replicate, seed) on both planets
    same_cells = bool(cells) and all(e[:3] == m[:3] for e, m in cells)
    higher = [(e[0], e[1]) for e, m in cells if e[3] > m[3]]
    ratios = [EARTH.extinction(Visibility(v)).extinction_per_m
              / MARS.extinction(Visibility(v)).extinction_per_m
              for v in sorted({e[0] for e, _ in cells})]
    check("criterion 15 (weak storms hurt earth more than mars)",
          same_cells and not higher,
          f"earth T <= mars T in {len(cells) - len(higher)} of {len(cells)} "
          "(visibility, replicate) cells; earth/mars extinction = "
          + ", ".join(f"{r:.5g}" for r in ratios))


def test_criterion_16_attenuation_increases_with_distance():
    details = []
    ok = True
    for planet in ("earth", "mars"):
        result = run_scenario(ExperimentConfig(scenario="distance_sweep",
                                               planet=planet, seed=7))
        # attenuation over the path, A x d: inf where T = 0
        by_distance: dict[float, list[float]] = {}
        for d, _rep, _seed, _t, a in result.rows:
            by_distance.setdefault(d, []).append(a * d)
        medians = [float(np.median(by_distance[d])) for d in sorted(by_distance)]
        ok = ok and len(medians) > 1 and all(
            b >= a for a, b in zip(medians, medians[1:]))
        details.append(f"{planet}: " + ", ".join(f"{m:.3g}" for m in medians)
                       + " dB")
    check("criterion 16 (attenuation increases with distance)", ok,
          "; ".join(details))


def test_criterion_17_mars_cutoff_distance():
    # 11d's twin at Mars's default density range; the clear and dusty
    # sweeps share k, so k = 0 leaves the dust alone to cut the capacity
    cfg = LinkConfig.for_preset(MARS)
    distances = [float(d) for d in np.geomspace(1.0, 200.0, 12)]
    clear = run_distance_sweep(cfg, MARS, distances, (0.0, 0.0), seed=5,
                               k_per_m=0.0)
    dusty = run_distance_sweep(cfg, MARS, distances, MARS.density_range_per_m,
                               seed=5, k_per_m=0.0)
    # T_hat <= exp(-C*d) at each drawn density, up to rounding in the
    # per-step Beer-Lambert products
    violations = []
    for d in dusty:
        cext = MARS.extinction(LinearDensity(d.density_per_m),
                               cfg.center_hz).extinction_per_m
        if d.transmittance > math.exp(-cext * d.distance_m) * (1.0 + 1e-9):
            violations.append(d.distance_m)
    cutoff = next((d.distance_m for c, d in zip(clear, dusty)
                   if d.capacity_bps < 0.01 * c.capacity_bps), None)
    lo, hi = MARS.density_range_per_m
    check(f"criterion 17 (mars {lo:g}-{hi:g}/m cutoff on the grid)",
          not violations and cutoff is not None,
          f"first distance below 1% of clear sky: {cutoff} m; "
          "premise T <= exp(-C d) "
          + (f"fails at {violations} m" if violations else "holds"))
