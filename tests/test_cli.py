"""Tests for config parsing, scenario runs and output emission."""

import inspect
import math
import os
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from dustlink.cli import (CONFIG_KEYS, ExperimentConfig, SCENARIOS,
                          _SCENARIO_TABLE, _build_parser, main, parse_config,
                          run_scenario, write_outputs)
from dustlink.errors import ConfigError
from dustlink.presets import bundled_catalog_dir
from dustlink.storm import density_time_series

REPO = Path(__file__).resolve().parents[1]
FLOAT_KEYS = [key for key, spec in CONFIG_KEYS.items() if spec.kind is float]
FIELD_NAMES = {f.name for f in fields(ExperimentConfig)}
SMALL = {"replicates": 2, "range.steps": 3, "transport.packets": 400}


def size_lines(scenario: str, sizes: dict = SMALL) -> str:
    """Config lines of each of ``sizes`` that ``scenario`` reads."""
    return "".join(f"{key} = {value}\n" for key, value in sizes.items()
                   if scenario in CONFIG_KEYS[key].read_by)


def small_config(scenario: str, sizes: dict = SMALL, **kwargs) -> ExperimentConfig:
    cfg = parse_config(f"planet = earth\nseed = 42\n{size_lines(scenario, sizes)}",
                       override_scenario=scenario)
    return replace(cfg, **kwargs)


class TestParseConfig:
    def test_minimal_fills_defaults(self):
        cfg = parse_config("scenario = visibility_sweep\nplanet = earth\n")
        assert cfg.scenario == "visibility_sweep"
        assert cfg.planet == "earth"
        assert cfg.seed == 1
        assert cfg.replicates is None     # DEFAULT_REPLICATES where read
        assert cfg.workers == 1
        assert cfg.plot is False

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="scenari"):
            parse_config("scenari = visibility_sweep\n")

    def test_malformed_number_has_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("scenario = mcp_sweep\nseed = twelve\n")

    def test_missing_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config("planet = mars\n")

    def test_reversed_range_rejected(self):
        with pytest.raises(ConfigError, match="range.start"):
            parse_config("scenario = mcp_sweep\nrange.start = 10\nrange.stop = 1\n")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            parse_config("scenario = warp_drive\n")

    def test_comments_and_blank_lines(self):
        cfg = parse_config(
            "# sweeps\n\nscenario = mcp_sweep   # inline\nseed = 3\n")
        assert cfg.seed == 3

    def test_override_scenario(self):
        cfg = parse_config("planet = mars\n", override_scenario="particle_sweep")
        assert cfg.scenario == "particle_sweep"
        assert cfg.planet == "mars"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"line 2: {key} must be finite"):
            parse_config(f"scenario = mcp_sweep\n{key} = {value}\n")

    def test_every_plain_key_names_a_field(self):
        # parse_config passes a non-override key on as this field name
        plain = [key for key, spec in CONFIG_KEYS.items()
                 if spec.owner is ExperimentConfig]
        assert plain
        assert all(CONFIG_KEYS[key].field == key.replace(".", "_") in FIELD_NAMES
                   for key in plain)

    def test_scenario_alone_keeps_dataclass_defaults(self):
        assert parse_config("scenario = mcp_sweep") == ExperimentConfig("mcp_sweep")

    @pytest.mark.parametrize("text, message", [
        ("scenario = mcp_sweep\nseed = 1\nseed = 2",
         "line 3: seed is already set on line 2"),
        ("scenario = mcp_sweep\ntransport.packets = 100\n# again\n"
         "transport.packets = 200\n",
         "line 4: transport.packets is already set on line 2"),
    ], ids=["seed", "transport.packets"])
    def test_repeated_key_rejected(self, text, message):
        # the later line once silently won
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    def test_module_overrides_collected(self):
        cfg = parse_config("scenario = mcp_sweep\ntransport.packets = 100\n"
                           "link.tx_power_dbm = 5\n")
        assert cfg.overrides["transport.packets"] == 100
        assert cfg.overrides["link.tx_power_dbm"] == 5.0


class TestExperimentConfig:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["range_start", "range_stop",
                                      "density_lo_per_m", "density_hi_per_m"])
    def test_non_finite_field_rejected(self, name, value):
        fields = {"density_lo_per_m": 100.0, "density_hi_per_m": 200.0, name: value}
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            ExperimentConfig(scenario="capacity_distance", **fields)

    def test_nan_range_start_rejected_before_running(self):
        # built in code, not parsed: this once ran three rows at f_hz = nan
        with pytest.raises(ConfigError, match="range_start must be finite"):
            run_scenario(ExperimentConfig(scenario="extinction_table",
                                          range_start=float("nan"), range_steps=3))

    @pytest.mark.parametrize("seed", [-1, 2 ** 128])
    def test_seed_out_of_range_rejected(self, seed):
        with pytest.raises(ConfigError, match=r"seed must be an int in \[0, 2\*\*128\)"):
            ExperimentConfig(scenario="mcp_sweep", seed=seed)

    @pytest.mark.parametrize("value", [1.5, 2.0, "2", True])
    @pytest.mark.parametrize("name", ["seed", "replicates", "workers",
                                      "range_steps"])
    def test_non_int_field_rejected(self, name, value):
        # seed = 1.5 once ran, and replicates = 2.5 raised a bare TypeError
        with pytest.raises(ConfigError, match=f"{name} must be an int"):
            ExperimentConfig(scenario="mcp_sweep", **{name: value})

    @pytest.mark.parametrize("key", ["transport.packet", "storm.bogus", "seed",
                                     "range.start", "bogus"])
    def test_unknown_override_key_rejected(self, key):
        # built in code, not parsed: transport.packet once ran the preset's
        # packet count, and storm.bogus raised a bare TypeError
        with pytest.raises(ConfigError, match="unknown override key"):
            ExperimentConfig(scenario="mcp_sweep", overrides={key: 10})

    @pytest.mark.parametrize("scenario, overrides", [
        ("storm_density", {"storm.steps": 2.5}),
        ("time_scenario", {"link.tx_power_dbm": "x"}),
        ("mcp_sweep", {"transport.packets": True}),
        ("mcp_sweep", {"medium.visibility_m": math.nan}),
    ])
    def test_override_value_type_rejected(self, scenario, overrides):
        # built in code, not parsed: these once failed late with a bare
        # TypeError, or ran on a bool or a NaN
        with pytest.raises(ConfigError, match="override"):
            ExperimentConfig(scenario=scenario, overrides=overrides)

    @pytest.mark.parametrize("name, value", [
        ("plot", "no"), ("plot", 1), ("plot", None), ("output", 5),
        ("output", None), ("catalog_dir", 5), ("catalog_dir", b"catalog"),
    ])
    def test_non_number_field_type_rejected(self, name, value):
        # plot = "no" once wrote an SVG, and output = 5 leaked a TypeError
        # from Path
        with pytest.raises(ConfigError, match=f"{name} must be a"):
            ExperimentConfig(scenario="mcp_sweep", **{name: value})

    def test_path_fields_take_paths(self, tmp_path):
        cfg = small_config("absorption_spectrum", output=tmp_path / "out",
                           catalog_dir=Path(bundled_catalog_dir()))
        assert write_outputs(run_scenario(cfg), cfg)[0].parent == tmp_path / "out"

    @pytest.mark.parametrize("key", ["output", "catalog_dir"])
    def test_empty_path_rejected(self, key):
        # catalog_dir = "" once fell back to the next catalog in line, and
        # output = "" wrote into the working directory
        with pytest.raises(ConfigError, match=f"{key} must be a non-empty str"):
            parse_config(f"scenario = absorption_spectrum\n{key} =\n")

    @pytest.mark.parametrize("key", ["density.lo_per_m", "density.hi_per_m"])
    def test_half_set_density_range_rejected(self, key):
        # one end alone was silently replaced by the planet's default range
        with pytest.raises(ConfigError, match="set together"):
            parse_config(f"scenario = capacity_distance\n{key} = 5\n")


class TestRunScenario:
    def test_all_scenarios_registered(self):
        assert len(SCENARIOS) == 10

    def test_mcp_sweep_rows_sorted(self):
        result = run_scenario(small_config("mcp_sweep"))
        keys = [(row[0], row[1]) for row in result.rows]
        assert keys == sorted(keys)
        assert len(result.rows) == 3 * 2

    def test_mcp_sweep_attenuation_converges_from_above(self):
        # the log estimator is biased high at small packet counts, so the
        # seed-averaged attenuation decays toward its converged value
        cfg = ExperimentConfig(scenario="mcp_sweep", planet="earth", seed=3,
                               replicates=10, range_start=10,
                               range_stop=10000, range_steps=4)
        result = run_scenario(cfg)
        by_value: dict[float, list[float]] = {}
        for row in result.rows:
            by_value.setdefault(row[0], []).append(row[4])
        means = [sum(by_value[v]) / len(by_value[v]) for v in sorted(by_value)]
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_determinism(self):
        cfg = small_config("visibility_sweep")
        assert run_scenario(cfg).rows == run_scenario(cfg).rows

    def test_particle_sweep_zero_dust_is_transparent(self):
        cfg = small_config("particle_sweep", range_start=0.0, range_stop=0.0,
                           range_steps=1, range_scale="linear", replicates=1)
        result = run_scenario(cfg)
        assert len(result.rows) == 1
        assert result.rows[0][3] == 1.0     # T_MS
        assert result.rows[0][4] == 0.0     # A_dB_per_m

    @pytest.mark.parametrize("scenario, bound", [
        ("visibility_sweep", {"range_start": 20000.0}),
        ("extinction_table", {"range_stop": 0.05e12}),
        ("absorption_spectrum", {"range_start": 1e12}),
    ])
    def test_one_sided_range_past_default_rejected(self, scenario, bound):
        # each bound passes the scenario's other default; once a reversed
        # grid (10000, 14142, 20000 m; 1e11, 7.07e10, 5e10 Hz) or an
        # atmosphere error about the frequency grid
        with pytest.raises(ConfigError,
                           match="range.start must not exceed range.stop"):
            run_scenario(small_config(scenario, **bound))

    def test_frequency_sweep_caps_at_preset_limit(self):
        cfg = small_config("frequency_sweep", replicates=1)
        result = run_scenario(cfg)
        assert max(row[0] for row in result.rows) <= 4e12

    def test_extinction_table_columns(self):
        cfg = small_config("extinction_table")
        result = run_scenario(cfg)
        assert result.header[:2] == ("f_hz", "C_ext_per_m")
        assert all(row[1] >= 0 for row in result.rows)

    def test_medium_override_changes_density(self):
        counts = small_config("extinction_table")
        by_visibility = small_config(
            "extinction_table", overrides={"medium.visibility_m": 1000.0})
        a = run_scenario(counts).rows
        b = run_scenario(by_visibility).rows
        assert a != b
        n0 = float(b[0][2])
        assert n0 == pytest.approx(5.285e8, rel=1e-2)

    def test_absorption_spectrum_uses_band(self):
        cfg = small_config("absorption_spectrum", range_steps=11)
        result = run_scenario(cfg)
        assert result.rows[0][0] == pytest.approx(0.22e12)
        assert result.rows[-1][0] == pytest.approx(0.24e12)
        assert all(row[1] >= 0 for row in result.rows)

    def test_absorption_spectrum_default_grid_is_linear(self):
        result = run_scenario(small_config("absorption_spectrum", range_steps=5))
        assert [row[0] for row in result.rows] == [
            float(f) for f in np.linspace(0.22e12, 0.24e12, 5)]
        result = run_scenario(small_config("absorption_spectrum", range_steps=5,
                                           range_scale="log"))
        assert [row[0] for row in result.rows] == [
            float(f) for f in np.geomspace(0.22e12, 0.24e12, 5)]

    @pytest.mark.parametrize("override", [{"transport.g_lo": 0.0,
                                           "transport.g_hi": 0.0},
                                          {"transport.max_events": 1},
                                          {"transport.g_lo": 0.9},
                                          {"transport.g_hi": 0.6},
                                          {"transport.weight_threshold": 0.05}])
    @pytest.mark.parametrize("scenario", ["time_scenario", "capacity_distance"])
    def test_transport_overrides_reach_link_scenarios(self, scenario, override):
        cfg = small_config(scenario, overrides={"transport.packets": 200})
        tuned = replace(cfg, overrides={**cfg.overrides, **override})
        rows, tuned_rows = run_scenario(cfg).rows, run_scenario(tuned).rows
        assert len(rows) == len(tuned_rows)
        assert rows != tuned_rows

    def test_time_scenario_schema(self):
        cfg = small_config("time_scenario", overrides={"transport.packets": 300})
        result = run_scenario(cfg)
        assert result.header == ("t_s", "count", "T_MS", "A_dB_per_m",
                                 "capacity_bps")
        assert len(result.rows) == 21

    def test_capacity_distance_schema(self):
        cfg = small_config("capacity_distance", range_steps=4,
                           overrides={"transport.packets": 300})
        result = run_scenario(cfg)
        assert result.header[0] == "d_m"
        assert result.header[-1] == "capacity_bps"
        caps = [row[-1] for row in result.rows]
        assert all(c >= 0 for c in caps)

    def test_storm_density_counts(self):
        cfg = small_config("storm_density",
                           overrides={"storm.steps": 5,
                                      "storm.emission_rate": 50})
        result = run_scenario(cfg)
        assert len(result.rows) == 5
        assert result.header[0] == "t_s"

    def test_storm_density_runs_the_default_steps(self):
        # without storm.steps, the steps are density_time_series' default
        steps = inspect.signature(density_time_series).parameters["steps"].default
        assert len(run_scenario(small_config("storm_density")).rows) == steps


class TestWriteOutputs:
    def test_csv_shape_and_round_trip(self, tmp_path):
        cfg = small_config("mcp_sweep", output=str(tmp_path))
        result = run_scenario(cfg)
        paths = write_outputs(result, cfg)
        text = paths[0].read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "value,replicate,seed,T_MS,A_dB_per_m"
        assert len(lines) == 1 + len(result.rows)
        # full round-trip precision
        for line, row in zip(lines[1:], result.rows):
            cells = line.split(",")
            assert float(cells[3]) == row[3]
            assert float(cells[4]) == row[4]
        assert "\r" not in text
        assert text.endswith("\n")

    def test_byte_identical_reruns(self, tmp_path):
        cfg_a = small_config("visibility_sweep", output=str(tmp_path / "a"))
        cfg_b = small_config("visibility_sweep", output=str(tmp_path / "b"))
        path_a = write_outputs(run_scenario(cfg_a), cfg_a)[0]
        path_b = write_outputs(run_scenario(cfg_b), cfg_b)[0]
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_plot_flag_emits_svg(self, tmp_path):
        cfg = small_config("mcp_sweep", output=str(tmp_path), plot=True)
        paths = write_outputs(run_scenario(cfg), cfg)
        assert [p.suffix for p in paths] == [".csv", ".svg"]
        svg = paths[1].read_text()
        assert svg.startswith("<svg")
        assert "mcp_packets" in svg

    @pytest.mark.parametrize("planet", ["earth", "mars"])
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_every_scenario_writes_its_table_schema(self, scenario, planet,
                                                     tmp_path):
        sizes = {"replicates": 1, "range.steps": 2, "transport.packets": 50,
                 "storm.steps": 2}
        cfg = small_config(scenario, sizes, planet=planet, output=str(tmp_path),
                           plot=True)
        entry = _SCENARIO_TABLE[scenario]
        result = run_scenario(cfg)
        assert (result.header, result.x_column, result.y_column) == (
            entry.header, entry.x_column, entry.y_column)
        csv_path, svg_path = write_outputs(result, cfg)
        assert csv_path.name == f"{scenario}_{planet}.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == ",".join(entry.header)
        assert len(lines) == 1 + len(result.rows)
        svg = svg_path.read_text()
        assert svg_path.suffix == ".svg" and "<polyline" in svg
        assert entry.x_column in svg and entry.y_column in svg

    def test_empty_and_ragged_rows_rejected(self, tmp_path):
        from dustlink.errors import DustlinkError
        from dustlink.output import write_csv
        with pytest.raises(DustlinkError):
            write_csv(tmp_path / "empty.csv", ["a"], [])
        with pytest.raises(DustlinkError):
            write_csv(tmp_path / "ragged.csv", ["a", "b"], [(1,)])


SWEEPS = ("mcp_sweep", "visibility_sweep", "particle_sweep", "distance_sweep",
          "frequency_sweep")
LINKS = ("time_scenario", "capacity_distance")
# one class of keys a line: the config lines that set one key of it, and
# the scenarios that read the class
READERS = {
    "replicates = 2": SWEEPS,
    "range.steps = 2": SWEEPS + ("capacity_distance", "extinction_table",
                                 "absorption_spectrum"),
    "density.lo_per_m = 5\ndensity.hi_per_m = 6": ("capacity_distance",),
    "catalog_dir = catalog": ("absorption_spectrum", "time_scenario",
                              "capacity_distance"),
    "transport.packets = 50": SWEEPS[1:] + LINKS,
    "transport.distance_m = 5": ("mcp_sweep", "visibility_sweep",
                                 "particle_sweep", "frequency_sweep"),
    "transport.weight_threshold = 0.05": SWEEPS + LINKS,
    "medium.visibility_m = 500": ("mcp_sweep", "distance_sweep",
                                  "frequency_sweep", "extinction_table"),
    "link.tx_power_dbm = 5": LINKS,
    "storm.steps = 2": ("storm_density",),
}
UNREAD = [pytest.param(scenario, line, id=f"{scenario}-{line.split()[0]}")
          for line, readers in READERS.items() for scenario in SCENARIOS
          if scenario not in readers]


class TestKeysRead:
    @pytest.mark.parametrize("line, readers", READERS.items(),
                             ids=[line.split()[0] for line in READERS])
    def test_table_names_the_readers(self, line, readers):
        key = line.split()[0]
        assert sorted(CONFIG_KEYS[key].read_by) == sorted(readers)

    @pytest.mark.parametrize("key, spec", CONFIG_KEYS.items(), ids=list(CONFIG_KEYS))
    def test_universal_keys_are_the_run_settings(self, key, spec):
        universal = {"scenario", "planet", "seed", "workers", "output", "plot"}
        assert (set(spec.read_by) == set(SCENARIOS)) == (key in universal)
        assert set(spec.read_by) <= set(SCENARIOS)

    @pytest.mark.parametrize("scenario, line", UNREAD)
    def test_unread_key_exit_code(self, scenario, line, tmp_path, capsys):
        # each key once ran and changed nothing
        config = tmp_path / "unread.cfg"
        config.write_text(f"{line}\n")
        code = main([scenario, "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert (f"config error: {scenario} does not read {line.split()[0]}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", [["--replicates", "3"], ["--catalog", "c"]])
    def test_unread_flag_exit_code(self, flag, tmp_path, capsys):
        code = main(["storm_density", *flag, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "storm_density does not read " in capsys.readouterr().err

    def test_every_unread_key_named(self):
        cfg = ExperimentConfig("extinction_table", replicates=2,
                               overrides={"transport.packets": 9,
                                          "storm.steps": 2})
        with pytest.raises(ConfigError, match="^extinction_table does not read "
                           "replicates, transport.packets, storm.steps$"):
            run_scenario(cfg)

    @pytest.mark.parametrize("lines", [
        "medium.visibility_m = 500\nmedium.n0_per_m3 = 1e7",
        "medium.visibility_m = 500\nmedium.count_per_m = 50",
        "medium.n0_per_m3 = 1e7\nmedium.count_per_m = 50",
    ])
    def test_competing_keys_exit_code(self, lines, tmp_path, capsys):
        # the first once silently won over the second
        config = tmp_path / "pair.cfg"
        config.write_text(f"{lines}\n")
        assert main(["mcp_sweep", "--config", str(config)]) == 2
        first, second = (line.split()[0] for line in lines.splitlines())
        assert (f"config error: {first} and {second} cannot be set together"
                in capsys.readouterr().err)

    def test_every_override_sets_a_field_of_its_owner(self):
        for key, spec in CONFIG_KEYS.items():
            if spec.owner is ExperimentConfig:
                continue
            assert spec.field in inspect.signature(spec.owner).parameters, key


class TestMain:
    def test_empty_output_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["absorption_spectrum", "--out", ""]) == 2
        assert "config error: output must be a non-empty str" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_smoke_run(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("planet = earth\nseed = 5\nreplicates = 1\n"
                          "range.steps = 2\n")
        code = main(["mcp_sweep", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert printed and printed[0].endswith("mcp_sweep_earth.csv")

    def test_config_error_exit_code(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("scenari = oops\n")
        assert main(["mcp_sweep", "--config", str(config)]) == 2

    def test_repeated_key_exit_code(self, tmp_path, capsys):
        config = tmp_path / "twice.cfg"
        config.write_text("seed = 1\nreplicates = 1\nseed = 2\n")
        assert main(["mcp_sweep", "--config", str(config)]) == 2
        assert ("config error: line 3: seed is already set on line 1"
                in capsys.readouterr().err)

    def test_missing_config_file(self, capsys):
        assert main(["mcp_sweep", "--config", "/nonexistent/x.cfg"]) == 2

    def test_missing_catalog_exit_code(self, tmp_path, capsys):
        code = main(["absorption_spectrum", "--catalog", str(tmp_path / "none"),
                     "--out", str(tmp_path / "out")])
        assert code == 3

    def test_catalog_is_not_read_from_the_environment(self, tmp_path, monkeypatch):
        # DUSTLINK_CATALOG_DIR once stood in for an unset catalog_dir, so one
        # config and seed could give two outputs, or exit 3
        config = tmp_path / "spectrum.cfg"
        config.write_text("planet = mars\nrange.steps = 5\n")

        def run(name):
            out = tmp_path / name
            assert main(["absorption_spectrum", "--config", str(config),
                         "--out", str(out)]) == 0
            return (out / "absorption_spectrum_mars.csv").read_bytes()

        monkeypatch.delenv("DUSTLINK_CATALOG_DIR", raising=False)
        unset = run("unset")
        monkeypatch.setenv("DUSTLINK_CATALOG_DIR", str(tmp_path / "missing"))
        assert run("set") == unset

    @pytest.mark.parametrize("scenario", ["mcp_sweep", "particle_sweep"])
    def test_count_grid_repeated_once_rounded_exit_code(self, scenario, tmp_path,
                                                        capsys):
        # the log grid 1, 1.32, 1.73, 2.28, 3 once gave two rows of each of
        # the counts 1 and 2, with different seeds
        config = tmp_path / "counts.cfg"
        config.write_text("range.start = 1\nrange.stop = 3\nrange.steps = 5\n"
                          "replicates = 1\n")
        code = main([scenario, "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert ("config error: the range rounds to repeated counts 1, 1, 2, 2, 3"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenario, value", [
        ("mcp_sweep", "100"), ("visibility_sweep", "100"),
        ("particle_sweep", "100"), ("distance_sweep", "100"),
        ("frequency_sweep", "1e12"), ("capacity_distance", "100"),
        ("extinction_table", "1e12"), ("absorption_spectrum", "1e12")])
    def test_repeated_grid_exit_code(self, scenario, value, tmp_path, capsys):
        # one value over three steps: the count sweeps and absorption_spectrum
        # rejected it with messages of their own, and the others wrote three
        # rows of the value, with three seeds in the sweeps, three densities
        # in capacity_distance and three identical rows in extinction_table
        config = tmp_path / "repeat.cfg"
        config.write_text(f"range.start = {value}\nrange.stop = {value}\n"
                          "range.steps = 3\n"
                          + size_lines(scenario, {"replicates": 1,
                                                  "transport.packets": 50}))
        code = main([scenario, "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        shown = f"{float(value):g}"
        assert (f"config error: the range repeats values {shown}, {shown}, {shown}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_non_positive_frequency_grid_exit_code(self, tmp_path, capsys):
        # once exit 0, with absorption written at -200 GHz and 0 Hz
        config = tmp_path / "spectrum.cfg"
        config.write_text("range.start = -2e11\nrange.stop = 2e11\n"
                          "range.steps = 5\n")
        code = main(["absorption_spectrum", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error: frequency grid must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_config_exit_code(self, tmp_path, capsys):
        config = tmp_path / "nan.cfg"
        config.write_text("range.start = nan\n")
        assert main(["mcp_sweep", "--config", str(config)]) == 2
        assert "range.start must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, line", [
        ("visibility_sweep", "range.start = 20000"),
        ("extinction_table", "range.stop = 0.05e12"),
        ("absorption_spectrum", "range.start = 1e12"),
    ])
    def test_one_sided_range_past_default_exit_code(self, scenario, line,
                                                    tmp_path, capsys):
        config = tmp_path / "range.cfg"
        config.write_text(f"{line}\n")
        code = main([scenario, "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert ("config error: range.start must not exceed range.stop"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("scenario, line", [
        ("mcp_sweep", "transport.weight_threshold = 2"),
        ("mcp_sweep", "transport.g_lo = 1.5"),
        ("time_scenario", "transport.packets = 0"),
        ("capacity_distance", "transport.max_events = 0"),
        ("extinction_table", "medium.visibility_m = -1"),
        ("capacity_distance", "link.noise_psd_w_hz = 0"),
        ("capacity_distance", "link.tx_power_dbm = 4000"),
        ("storm_density", "storm.timestep_s = 0"),
        ("particle_sweep", "transport.distance_m = 0"),
        ("particle_sweep", "transport.distance_m = -1"),
    ])
    def test_bad_override_value_exit_code(self, scenario, line, tmp_path, capsys):
        # each once a runtime error (exit 4) from the object the value builds
        config = tmp_path / "bad.cfg"
        sizes = {"replicates": 1, "range.steps": 2}
        config.write_text(f"{size_lines(scenario, sizes)}{line}\n")
        code = main([scenario, "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("planet, approximation", [("earth", "mie"),
                                                       ("mars", "rayleigh")])
    @pytest.mark.parametrize("scenario", ["extinction_table", "frequency_sweep"])
    def test_overflowing_frequency_exit_code(self, scenario, planet, approximation,
                                             tmp_path, capsys):
        # a power of the wavenumber once raised OverflowError (exit 4)
        config = tmp_path / "huge.cfg"
        sizes = {"replicates": 1, "range.steps": 2}
        config.write_text(f"{size_lines(scenario, sizes)}range.stop = 1e300\n")
        code = main([scenario, "--planet", planet, "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: frequency 1e+300 Hz overflows the {approximation} "
            "cross section\n")
        assert not (tmp_path / "out").exists()

    def test_later_domain_error_exit_code(self, tmp_path, capsys):
        # a grid value the sweep rejects is a config value too; a negative
        # path count and a negative packet count each once exited 4
        for scenario, start in (("particle_sweep", -10), ("mcp_sweep", -5)):
            config = tmp_path / f"{scenario}.cfg"
            config.write_text(f"range.start = {start}\nrange.scale = linear\n"
                              "range.steps = 2\n")
            code = main([scenario, "--config", str(config),
                         "--out", str(tmp_path / "out")])
            assert code == 2
            assert capsys.readouterr().err.startswith("config error: ")

    def test_rejected_catalog_value_exit_code(self, tmp_path, capsys):
        catalog = tmp_path / "catalog"
        shutil.copytree(bundled_catalog_dir(), catalog)
        record = (catalog / "H2O.par").read_text().splitlines()[0]
        (catalog / "H2O.par").write_text(record[:15] + "-1.000E-20" + record[25:] + "\n")
        code = main(["absorption_spectrum", "--catalog", str(catalog),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert ("data error: record 1: line intensity must be >= 0"
                in capsys.readouterr().err)

    def test_undecodable_catalog_exit_code(self, tmp_path, capsys):
        # a UnicodeDecodeError once exited 4, as a runtime error
        catalog = tmp_path / "catalog"
        shutil.copytree(bundled_catalog_dir(), catalog)
        with open(catalog / "CO2.par", "ab") as f:
            f.write(b"\xff\n")
        code = main(["absorption_spectrum", "--catalog", str(catalog),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert "data error: cannot read catalog file" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario", ["mcp_sweep", "storm_density"])
    def test_negative_seed_exit_code(self, scenario, tmp_path, capsys):
        # once a runtime error (exit 4) from deep inside the random streams
        code = main([scenario, "--seed", "-1", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "seed must be an int in [0, 2**128)" in capsys.readouterr().err

    def test_every_flag_stores_into_a_field(self):
        # main passes the flags that are given on as these field names
        dests = {action.dest for action in _build_parser()._actions} - {
            "help", "scenario", "config"}
        assert dests
        assert dests <= FIELD_NAMES

    def test_config_plot_holds_without_flag(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("plot = true\nreplicates = 1\nrange.steps = 2\n")
        code = main(["mcp_sweep", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert capsys.readouterr().out.split()[-1].endswith("mcp_sweep_earth.svg")

    def test_cli_flags_override_config(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("planet = earth\nreplicates = 1\nrange.steps = 2\n")
        code = main(["mcp_sweep", "--config", str(config), "--planet", "mars",
                     "--out", str(tmp_path / "out"), "--seed", "9"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mcp_sweep_mars.csv" in out


def test_one_worker_run_loads_no_process_pool():
    # only _sweep with workers > 1 needs multiprocessing, so neither an
    # import of the CLI nor a one-worker run may load it
    code = ("import sys\n"
            "from dustlink.cli import ExperimentConfig, run_scenario\n"
            "pool = ('concurrent.futures.process', 'multiprocessing')\n"
            "print(sorted(m for m in pool if m in sys.modules))\n"
            "run_scenario(ExperimentConfig('mcp_sweep', replicates=1,\n"
            "    range_steps=2, range_stop=100))\n"
            "print(sorted(m for m in pool if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "[]"]


def test_pool_opens_one_worker_per_slice(monkeypatch):
    # workers = 8 once opened a pool of 8 processes for a 2-run sweep
    import concurrent.futures
    sizes = []
    slices = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, batches):
            slices.append([[run.seed for run in batch] for batch in batches])
            return map(fn, batches)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    cfg = ExperimentConfig("mcp_sweep", replicates=1, range_steps=2,
                           range_stop=100)
    rows = run_scenario(replace(cfg, workers=8)).rows
    assert sizes == [2]
    assert rows == run_scenario(cfg).rows

    # the runs, in sweep order, are dealt round-robin: worker k gets runs
    # k, k + w, ..., so the costly end of a sweep is shared
    cfg = replace(cfg, replicates=2, range_steps=4)
    rows = run_scenario(replace(cfg, workers=3)).rows
    seeds = [row[2] for row in rows]
    assert sizes[1:] == [3]
    assert slices[1:] == [[seeds[0::3], seeds[1::3], seeds[2::3]]]
    assert rows == run_scenario(cfg).rows
