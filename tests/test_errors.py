"""Tests for the one check of what a valid config number is."""

import math
from dataclasses import fields

import numpy as np
import pytest

from dustlink.atmosphere import GasMixture, SpectralLine
from dustlink.cli import ExperimentConfig
from dustlink.errors import ConfigError, DomainError, is_int, require_finite
from dustlink.link import LinkConfig
from dustlink.scatter import (DustPermittivity, LinearDensity, SizeDistribution,
                              Visibility, VolumetricDensity)
from dustlink.storm import BeamCone, StormConfig
from dustlink.transport import TransportConfig, UniformAsymmetry

# every config class with valid arguments that set each numeric field
VALID = {
    TransportConfig: dict(distance_m=8.0, packet_count=10, extinction_per_m=0.5,
                          weight_threshold=1e-5, seed=3, max_events=100),
    UniformAsymmetry: dict(lo=0.2, hi=0.8),
    StormConfig: {f.name: f.default for f in fields(StormConfig)},
    BeamCone: dict(tx_m=(0.0, 0.0, 50.0), rx_m=(100.0, 0.0, 50.0),
                   half_angle_rad=0.01, disk_spacing_m=0.5),
    LinkConfig: dict(band_lo_hz=0.22e12, band_hi_hz=0.24e12, center_hz=0.24e12,
                     distance_m=10.0, tx_power_w=0.01, noise_psd_w_hz=4e-21),
    GasMixture: dict(species=(("H2O", 0.01),), temperature_k=288.0,
                     pressure_atm=1.0),
    SpectralLine: dict(molecule_id=1, isotopologue_id=1, line_center_invcm=7.5,
                       intensity_ref=1.2e-21, gamma_air_invcm_atm=0.088,
                       gamma_self_invcm_atm=0.41, lower_state_energy_invcm=300.0,
                       temperature_exponent=0.75, pressure_shift_invcm_atm=-0.003,
                       molar_mass_kg_mol=0.018),
    SizeDistribution: dict(kind="log-normal", median_radius_m=2e-6,
                           geometric_sigma=1.5, r_min_m=1e-6, r_max_m=4e-6),
    DustPermittivity: dict(approximation="mie", eps_real=3.0, eps_imag=0.1,
                           charge_density=0.0, field_scale=1.0),
    Visibility: dict(meters=500.0),
    VolumetricDensity: dict(per_m3=1e7),
    LinearDensity: dict(count_per_m=50.0, beam_area_m2=1e-6),
    ExperimentConfig: dict(scenario="capacity_distance", seed=3, replicates=2,
                           workers=1, range_start=1.0, range_stop=5.0,
                           range_steps=3, density_lo_per_m=100.0,
                           density_hi_per_m=200.0,
                           overrides={"transport.packets": 400,
                                      "link.tx_power_dbm": 5.0}),
}

BAD = {"str": "1", "None": None, "bool": True, "nan": math.nan, "inf": math.inf}


def numeric_paths(value, path=()):
    """The path (keys, then indices) of each number in ``value``; the first
    number of a vector stands for the vector."""
    if isinstance(value, dict):
        return [p for key, v in value.items() for p in numeric_paths(v, path + (key,))]
    if isinstance(value, tuple):
        return [p for i, v in enumerate(value) for p in numeric_paths(v, path + (i,))][:1]
    return [path] if isinstance(value, (int, float)) else []


def replaced(value, path, new):
    """``value`` with the entry at ``path`` set to ``new``."""
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {**value, head: replaced(value[head], rest, new)}
    return value[:head] + (replaced(value[head], rest, new),) + value[head + 1:]


# None is the default, and a valid value, of these ExperimentConfig fields
NONE_ALLOWED = {f.name for f in fields(ExperimentConfig) if f.default is None}
CASES = [pytest.param(cls, path, bad,
                      id=f"{cls.__name__}-{'.'.join(map(str, path))}-{label}")
         for cls, kwargs in VALID.items() for path in numeric_paths(kwargs)
         for label, bad in BAD.items()
         if not (bad is None and cls is ExperimentConfig and path[0] in NONE_ALLOWED)]


@pytest.mark.parametrize("cls", VALID, ids=lambda cls: cls.__name__)
def test_valid_arguments_accepted(cls):
    cls(**VALID[cls])


@pytest.mark.parametrize("cls, path, bad", CASES)
def test_non_real_or_non_finite_field_rejected(cls, path, bad):
    # a str or None once leaked a bare TypeError or ValueError from a
    # comparison, math.isfinite or float(), and a bool read as 0 or 1
    error = ConfigError if cls is ExperimentConfig else DomainError
    with pytest.raises(error):
        cls(**replaced(VALID[cls], path, bad))


@pytest.mark.parametrize("value, expected", [
    (3, True), (2 ** 70, True), (np.int64(-2), True), (np.uint64(2 ** 64 - 1), True),
    (True, False), (np.bool_(True), False), (3.0, False), ("3", False), (None, False)])
def test_is_int(value, expected):
    assert is_int(value) is expected


@pytest.mark.parametrize("value", [0, -7, 2.5, 1e308, np.int64(3), np.float32(0.5)])
def test_finite_reals_accepted(value):
    require_finite(x=value, y=1.0)


@pytest.mark.parametrize("value, word", [
    ("1", "real"), (None, "real"), (True, "real"), (np.bool_(False), "real"),
    (1j, "real"), (math.nan, "finite"), (-math.inf, "finite"),
    (np.float32("inf"), "finite"),
    # math.isfinite raises OverflowError on an int this large
    (10 ** 400, "finite")])
def test_require_finite_names_the_value(value, word):
    with pytest.raises(DomainError, match=f"^y must be {word}, got "):
        require_finite(x=1.0, y=value)
