"""Exact Lorenz-Mie extinction as an oracle for ``extinction_efficiency``.

``bhmie_qext`` is the extinction part of BHMIE (Bohren & Huffman, Absorption
and Scattering of Light by Small Particles, 1983, Appendix A). The tests
characterize where each approximation label's efficiency, and its cross
section against ``pi r**2`` times exact Mie, holds against it: Mars Rayleigh stays within 6 % below exact Mie up to 10 THz, and Earth's
printed series is pi**2 above exact Mie as x -> 0 and diverges past x = 1.
"""

import cmath
import math

import numpy as np
import pytest

from dustlink.constants import SPEED_OF_LIGHT
from dustlink.scatter import (MARS_REFRACTIVE_INDEX, dust_permittivity,
                              extinction_efficiency, physical_cross_section)


def bhmie_qext(x: float, m: complex) -> float:
    """Exact extinction efficiency of a sphere of size parameter ``x`` and
    relative refractive index ``m``, summed to BHMIE's stopping order."""
    nstop = int(x + 4.0 * x ** (1.0 / 3.0) + 2.0)
    y = m * x
    nmx = int(max(nstop, abs(y))) + 15
    # logarithmic derivative D_n(mx), by downward recurrence from D_nmx = 0
    d = np.zeros(nmx + 1, dtype=complex)
    for n in range(nmx, 1, -1):
        d[n - 1] = n / y - 1.0 / (d[n] + n / y)
    # Riccati-Bessel functions psi_n(x) and chi_n(x), by upward recurrence
    psi0, psi1 = math.cos(x), math.sin(x)
    chi0, chi1 = -math.sin(x), math.cos(x)
    xi1 = complex(psi1, -chi1)
    total = 0.0
    for n in range(1, nstop + 1):
        psi = (2 * n - 1) * psi1 / x - psi0
        chi = (2 * n - 1) * chi1 / x - chi0
        xi = complex(psi, -chi)
        da = d[n] / m + n / x
        db = m * d[n] + n / x
        an = (da * psi - psi1) / (da * xi - xi1)
        bn = (db * psi - psi1) / (db * xi - xi1)
        total += (2 * n + 1) * (an + bn).real
        psi0, psi1, chi0, chi1 = psi1, psi, chi1, chi
        xi1 = complex(psi1, -chi1)
    return 2.0 * total / x ** 2


def wavenumber(f_hz: float) -> float:
    return 2.0 * math.pi * f_hz / SPEED_OF_LIGHT


def earth_case(f_hz: float):
    """Earth's permittivity at ``f_hz`` and its refractive index."""
    eps = dust_permittivity("earth-frequency-dependent", f_hz)
    return eps, cmath.sqrt(eps.eps)


class TestOracle:
    def test_bohren_huffman_example(self):
        # Appendix A's sample run: m = 1.55, radius 0.525 um at 0.6328 um
        x = 2.0 * math.pi * 0.525 / 0.6328
        assert bhmie_qext(x, 1.55 + 0j) == pytest.approx(3.10543, abs=5e-6)

    @pytest.mark.parametrize("x", [1e-3, 1e-2])
    def test_small_sphere_limit(self, x):
        # Q_ext -> 4 x Im((m**2 - 1) / (m**2 + 2)), up to terms in x**2
        m = MARS_REFRACTIVE_INDEX
        lead = 4.0 * x * ((m * m - 1.0) / (m * m + 2.0)).imag
        assert bhmie_qext(x, m) == pytest.approx(lead, rel=2 * x * x)


class TestMarsRayleigh:
    """Mars dust (1.52 + 0.01i) at its largest radius, 4 um, from 0.1 to
    10 THz: size parameters 0.0084 to 0.84."""

    R_M = 4e-6

    def deviations(self, f_hz):
        eps = dust_permittivity("mars-constant")
        return np.array([extinction_efficiency(f, self.R_M, eps)
                         / bhmie_qext(wavenumber(f) * self.R_M, MARS_REFRACTIVE_INDEX)
                         - 1.0 for f in f_hz])

    def test_size_parameter_range(self):
        assert wavenumber(10e12) * self.R_M == pytest.approx(0.8383, abs=1e-4)

    def test_below_exact_mie_by_at_most_six_percent(self):
        # measured: -5.99 % at x = 0.554 (f = 6.61 THz), the largest gap
        deviations = self.deviations(np.geomspace(0.1e12, 10e12, 201))
        assert np.all((-0.0600 < deviations) & (deviations < 0.0))
        assert deviations.min() < -0.0595

    def test_gap_at_the_ends(self):
        # 3.11 % at 10 THz; at 0.1 THz (x = 0.0084) the gap is 4.1e-5
        low, high = self.deviations([0.1e12, 10e12])
        assert high == pytest.approx(-0.03111, abs=1e-4)
        assert low == pytest.approx(-4.09e-5, rel=1e-2)


class TestEarthPrintedSeries:
    @pytest.mark.parametrize("x", [1e-4, 1e-3])
    def test_pi_squared_above_exact_mie_as_x_goes_to_zero(self, x):
        # the series' leading term is 2 pi**2 x c1, exact Mie's 2 x c1
        f = 0.1e12
        eps, m = earth_case(f)
        ratio = extinction_efficiency(f, x / wavenumber(f), eps) / bhmie_qext(x, m)
        assert ratio == pytest.approx(math.pi ** 2, rel=2e-6)

    def test_diverges_past_x_of_one(self):
        # 1 THz, r = 150 um (x = 3.14): the series gives 170 where exact Mie
        # gives 4.8; past x = 1.5 the ratio grows with x
        f = 1e12
        eps, m = earth_case(f)
        k = wavenumber(f)
        assert extinction_efficiency(f, 150e-6, eps) == pytest.approx(170.006, rel=1e-5)
        assert bhmie_qext(k * 150e-6, m) == pytest.approx(4.8162, rel=1e-4)
        ratios = [extinction_efficiency(f, x / k, eps) / bhmie_qext(x, m)
                  for x in (1.0, 1.5, 2.0, 3.0)]
        assert ratios[0] == pytest.approx(5.954, rel=1e-3)
        assert ratios[1] < ratios[2] < ratios[3]
        assert ratios[3] > 30.0


class TestPhysicalCrossSection:
    """The cross section of each label against pi r**2 times exact Mie, at
    the ratios the efficiency pins above hold."""

    def test_mars_rayleigh_below_exact_mie_by_at_most_six_percent(self):
        eps = dust_permittivity("mars-constant")
        r = TestMarsRayleigh.R_M
        deviations = np.array([
            physical_cross_section(f, r, eps)
            / (math.pi * r * r * bhmie_qext(wavenumber(f) * r, MARS_REFRACTIVE_INDEX))
            - 1.0 for f in np.geomspace(0.1e12, 10e12, 201)])
        assert np.all((-0.0600 < deviations) & (deviations < 0.0))
        assert deviations.min() < -0.0595

    @pytest.mark.parametrize("x", [1e-4, 1e-3])
    def test_earth_series_pi_squared_above_exact_mie_as_x_goes_to_zero(self, x):
        f = 0.1e12
        eps, m = earth_case(f)
        r = x / wavenumber(f)
        ratio = physical_cross_section(f, r, eps) / (math.pi * r * r * bhmie_qext(x, m))
        assert ratio == pytest.approx(math.pi ** 2, rel=2e-6)
