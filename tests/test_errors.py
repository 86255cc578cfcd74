"""Tests for the checks of what a valid config number, int and vector are."""

import math
import re
from dataclasses import fields

import numpy as np
import pytest

from dustlink.atmosphere import (GasMixture, SpectralLine, doppler_halfwidth, doppler_shape,
                                 line_intensity_at_temperature, lorentz_halfwidth,
                                 lorentz_shape)
from dustlink.cli import CONFIG_KEYS, ExperimentConfig
from dustlink.errors import (ConfigError, DomainError, is_int, require_finite,
                             require_int, require_nonnegative, require_positive,
                             require_vector)
from dustlink.link import LinkConfig
from dustlink.scatter import (DustPermittivity, LinearDensity, SizeDistribution,
                              Visibility, VolumetricDensity, dust_permittivity,
                              number_density_from_visibility)
from dustlink.rng import substream
from dustlink.storm import BeamCone, StormConfig, density_time_series
from dustlink.transport import TransportConfig

# every config class with valid arguments that set each numeric field
VALID = {
    TransportConfig: dict(distance_m=8.0, packet_count=10, extinction_per_m=0.5,
                          g_lo=0.2, g_hi=0.8, weight_threshold=1e-5, seed=3,
                          max_events=100),
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


# the fields each class checks with require_positive or require_nonnegative
POSITIVE = {
    TransportConfig: ["distance_m"],
    StormConfig: ["timestep_s", "ramp_length_m"],
    BeamCone: ["disk_spacing_m"],
    LinkConfig: ["distance_m", "tx_power_w", "noise_psd_w_hz"],
    GasMixture: ["temperature_k", "pressure_atm"],
    Visibility: ["meters"],
    LinearDensity: ["beam_area_m2"],
}
NONNEGATIVE = {
    TransportConfig: ["extinction_per_m"],
    StormConfig: ["source_y_half_span_m", "wind_speed_m_s", "vortex_strength_rad_s",
                  "vortex_core_radius_m", "updraft_m_s", "settling_m_s",
                  "turbulence_m_s"],
    DustPermittivity: ["eps_imag"],
    VolumetricDensity: ["per_m3"],
    LinearDensity: ["count_per_m"],
}
# BeamCone names its disk spacing as its range checks name it
MESSAGE_NAME = {(BeamCone, "disk_spacing_m"): "disk spacing"}
SIGN_CASES = [
    pytest.param(cls, name, bad, f"{MESSAGE_NAME.get((cls, name), name)} {rule}, "
                                 f"got {bad!r}", id=f"{cls.__name__}-{name}-{bad!r}")
    for table, wrong_sign, sign_rule in ((POSITIVE, 0.0, "must be positive"),
                                         (NONNEGATIVE, -1.0, "must be >= 0"))
    for cls, names in table.items() for name in names
    for bad, rule in ((wrong_sign, sign_rule), (math.nan, "must be finite"),
                      (math.inf, "must be finite"))]


@pytest.mark.parametrize("cls, name, bad, message", SIGN_CASES)
def test_sign_checked_field_message(cls, name, bad, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        cls(**{**VALID[cls], name: bad})


def test_every_float_field_of_storm_config_is_sign_checked():
    floats = {f.name for f in fields(StormConfig) if f.type is float}
    assert floats == set(POSITIVE[StormConfig]) | set(NONNEGATIVE[StormConfig])


_LINE = SpectralLine(**VALID[SpectralLine])


@pytest.mark.parametrize("call, name", [
    pytest.param(SizeDistribution.point_mass, "median_radius_m", id="point_mass"),
    pytest.param(lambda v: dust_permittivity("earth-frequency-dependent", v), "f_hz",
                 id="dust_permittivity"),
    pytest.param(lambda v: number_density_from_visibility(
        SizeDistribution(**VALID[SizeDistribution]), v), "visibility_m",
                 id="number_density_from_visibility"),
    pytest.param(lambda v: line_intensity_at_temperature(_LINE, v), "temperature_k",
                 id="line_intensity_at_temperature"),
    pytest.param(lambda v: lorentz_halfwidth(_LINE, 1.0, 0.01, v), "temperature_k",
                 id="lorentz_halfwidth"),
    pytest.param(lambda v: doppler_halfwidth(_LINE, v), "temperature_k",
                 id="doppler_halfwidth"),
    pytest.param(lambda v: lorentz_shape(_LINE.center_hz, _LINE, v, 1.0), "halfwidth_hz",
                 id="lorentz_shape"),
    pytest.param(lambda v: doppler_shape(_LINE.center_hz, _LINE, v), "halfwidth_hz",
                 id="doppler_shape"),
])
@pytest.mark.parametrize("bad, rule", [(0.0, "must be positive"), (-1.0, "must be positive"),
                                       (math.nan, "must be finite"),
                                       (math.inf, "must be finite")])
def test_positive_argument_message(call, name, bad, rule):
    # the nan or inf of each formula but point_mass once gave 0.0 or nan
    with pytest.raises(DomainError, match=f"^{re.escape(f'{name} {rule}, got {bad!r}')}$"):
        call(bad)


@pytest.mark.parametrize("check, rule, bad", [
    (require_positive, "must be positive", 0), (require_positive, "must be positive", -2.5),
    (require_nonnegative, "must be >= 0", -1), (require_nonnegative, "must be >= 0",
                                                 np.float64(-1e-300))])
def test_sign_check_message(check, rule, bad):
    with pytest.raises(DomainError, match=f"^{re.escape(f'y {rule}, got {bad!r}')}$"):
        check(x=1.0, y=bad)


@pytest.mark.parametrize("check", [require_positive, require_nonnegative])
def test_sign_check_tests_finiteness_first(check):
    # a non-real or non-finite value is named before a value of the wrong sign
    with pytest.raises(DomainError, match="^y must be real, got '1'$"):
        check(x=-1.0, y="1")
    with pytest.raises(DomainError, match="^y must be finite, got inf$"):
        check(x=-1.0, y=math.inf)
    check(x=0.5, y=np.int64(3), z=1e308)
    require_nonnegative(x=0, y=0.0)


def _storm_steps(**kwargs):
    return density_time_series(StormConfig(), BeamCone(**VALID[BeamCone]), **kwargs)


# every int field: (callable, valid arguments, path, message head, least
# bound or None); a value V that is not an int is rejected with
# f"{head}, got {V!r}", and so is least - 1 where the callable checks it
INT_FIELDS = [
    (TransportConfig, VALID[TransportConfig], ("seed",),
     "seed must be an int in [0, 2**64)", 0),
    (TransportConfig, VALID[TransportConfig], ("packet_count",),
     "packet_count must be an int >= 1", 1),
    (TransportConfig, VALID[TransportConfig], ("max_events",),
     "event guard max_events must be an int >= 1", 1),
    (StormConfig, VALID[StormConfig], ("emission_rate",),
     "emission_rate must be an int >= 0", 0),
    (StormConfig, VALID[StormConfig], ("seed",), "seed must be an int in [0, 2**128)", 0),
    (_storm_steps, {"steps": 1}, ("steps",), "steps must be an int >= 1", 1),
    (substream, {"seed": 1, "stream_index": 2}, ("seed",),
     "seed must be an int in [0, 2**128)", 0),
    (substream, {"seed": 1, "stream_index": 2}, ("stream_index",),
     "stream index must be an int in [0, 2**64)", 0),
    (SpectralLine, VALID[SpectralLine], ("molecule_id",),
     "molecule_id must be an int", None),
    (SpectralLine, VALID[SpectralLine], ("isotopologue_id",),
     "isotopologue_id must be an int", None),
    # an override's bound is its owner's, checked when a run builds it
    *((ExperimentConfig, {**VALID[ExperimentConfig], "overrides": {key: 2}},
       ("overrides", key), f"override {key} must be an int", None)
      for key, spec in CONFIG_KEYS.items()
      if spec.kind is int and spec.owner is not ExperimentConfig),
    (ExperimentConfig, VALID[ExperimentConfig], ("seed",),
     "seed must be an int in [0, 2**128)", 0),
    (ExperimentConfig, VALID[ExperimentConfig], ("replicates",),
     "replicates must be an int >= 1", 1),
    (ExperimentConfig, VALID[ExperimentConfig], ("workers",),
     "workers must be an int >= 1", 1),
    (ExperimentConfig, VALID[ExperimentConfig], ("range_steps",),
     "range_steps must be an int >= 1", 1),
]


def _int_id(call, path):
    return f"{call.__name__.lstrip('_')}-{'.'.join(path)}"


@pytest.mark.parametrize("call, kwargs, path, head", [
    pytest.param(*case[:4], id=_int_id(case[0], case[2])) for case in INT_FIELDS])
@pytest.mark.parametrize("bad", [2.0, np.float64(2.0)], ids=["float", "np.float64"])
def test_int_field_rejects_an_integral_float(call, kwargs, path, head, bad):
    call(**kwargs)
    error = ConfigError if call is ExperimentConfig else DomainError
    with pytest.raises(error, match=f"^{re.escape(head)}, got {re.escape(repr(bad))}$"):
        call(**replaced(kwargs, path, bad))


# (callable, valid arguments, path, least bound minus one, message)
BELOW_LEAST = [(call, kwargs, path, least - 1, f"{head}, got {least - 1}")
               for call, kwargs, path, head, least in INT_FIELDS if least is not None]


@pytest.mark.parametrize("call, kwargs, path, value, message", [
    pytest.param(*case, id=_int_id(case[0], case[2])) for case in BELOW_LEAST])
def test_int_field_rejects_its_least_bound_minus_one(call, kwargs, path, value,
                                                     message):
    call(**replaced(kwargs, path, value + 1))
    error = ConfigError if call is ExperimentConfig else DomainError
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(**replaced(kwargs, path, value))


@pytest.mark.parametrize("kwargs, value, message", [
    pytest.param({}, True, "n must be an int, got True", id="bool"),
    pytest.param({"least": 1}, 0, "n must be an int >= 1, got 0", id="least"),
    pytest.param({"least": 0, "bits": 64}, 2 ** 64,
                 "n must be an int in [0, 2**64), got 18446744073709551616", id="bits"),
    pytest.param({"least": 0, "bits": 64}, np.int64(-1),
                 "n must be an int in [0, 2**64), got np.int64(-1)", id="numpy"),
])
def test_require_int_message(kwargs, value, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        require_int("n", value, **kwargs)


def test_require_int_takes_the_bounds_and_numpy_ints():
    require_int("n", np.uint64(2 ** 64 - 1), 0, 64)
    require_int("n", 0, 0, 64)
    require_int("n", -5)


@pytest.mark.parametrize("value, message", [
    pytest.param((1.0, 2.0), "v must have 3 entries, got (1.0, 2.0)", id="short"),
    pytest.param(5.0, "v must have 3 entries, got 5.0", id="scalar"),
    pytest.param((1.0, (2.0,), 3.0), "v must be real, got (2.0,)", id="nested"),
    pytest.param((1.0, math.nan, 3.0), "v must be finite, got nan", id="nan"),
])
def test_require_vector_message(value, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        require_vector("v", value, 3)


def test_require_vector_returns_the_entries():
    assert require_vector("v", np.array([1.0, 2.0, 3.0]), 3) == (1.0, 2.0, 3.0)
