"""Tests for config parsing, scenario runs and output emission."""

import math
import shutil
from dataclasses import fields, replace

import numpy as np
import pytest

from dustlink.cli import (CONFIG_KEYS, ExperimentConfig, SCENARIOS,
                          _OVERRIDE_PREFIXES, _SCENARIO_TABLE, _build_parser,
                          main, parse_config, run_scenario, write_outputs)
from dustlink.errors import ConfigError
from dustlink.presets import bundled_catalog_dir

FLOAT_KEYS = [key for key, conv in CONFIG_KEYS.items() if conv is float]
FIELD_NAMES = {f.name for f in fields(ExperimentConfig)}


def small_config(scenario: str, **kwargs) -> ExperimentConfig:
    base = dict(scenario=scenario, planet="earth", seed=42, replicates=2,
                overrides={"transport.packets": 400},
                range_steps=3)
    base.update(kwargs)
    return ExperimentConfig(**base)


class TestParseConfig:
    def test_minimal_fills_defaults(self):
        cfg = parse_config("scenario = visibility_sweep\nplanet = earth\n")
        assert cfg.scenario == "visibility_sweep"
        assert cfg.planet == "earth"
        assert cfg.seed == 1
        assert cfg.replicates == 10
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
        plain = [key for key in CONFIG_KEYS if not key.startswith(_OVERRIDE_PREFIXES)]
        assert plain
        assert all(key.replace(".", "_") in FIELD_NAMES for key in plain)

    def test_scenario_alone_keeps_dataclass_defaults(self):
        assert parse_config("scenario = mcp_sweep") == ExperimentConfig("mcp_sweep")

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
        with pytest.raises(ConfigError, match="seed must be in"):
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

    def test_frequency_sweep_caps_at_preset_limit(self):
        cfg = small_config("frequency_sweep", replicates=1)
        result = run_scenario(cfg)
        assert max(row[0] for row in result.rows) <= 4e12

    def test_extinction_table_columns(self):
        cfg = small_config("extinction_table", replicates=1)
        result = run_scenario(cfg)
        assert result.header[:2] == ("f_hz", "C_ext_per_m")
        assert all(row[1] >= 0 for row in result.rows)

    def test_medium_override_changes_density(self):
        counts = small_config("extinction_table", replicates=1)
        by_visibility = small_config(
            "extinction_table", replicates=1,
            overrides={"medium.visibility_m": 1000.0})
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

    @pytest.mark.parametrize("override", [{"transport.g_fixed": 0.0},
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
        cfg = small_config(scenario, planet=planet, replicates=1, range_steps=2,
                           output=str(tmp_path), plot=True,
                           overrides={"transport.packets": 50,
                                      "storm.steps": 2})
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


class TestMain:
    def test_smoke_run(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("planet = earth\nseed = 5\nreplicates = 1\n"
                          "transport.packets = 200\nrange.steps = 2\n")
        code = main(["mcp_sweep", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert printed and printed[0].endswith("mcp_sweep_earth.csv")

    def test_config_error_exit_code(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("scenari = oops\n")
        assert main(["mcp_sweep", "--config", str(config)]) == 2

    def test_missing_config_file(self, capsys):
        assert main(["mcp_sweep", "--config", "/nonexistent/x.cfg"]) == 2

    def test_missing_catalog_exit_code(self, tmp_path, capsys):
        code = main(["absorption_spectrum", "--catalog", str(tmp_path / "none"),
                     "--out", str(tmp_path / "out")])
        assert code == 3

    def test_non_finite_config_exit_code(self, tmp_path, capsys):
        config = tmp_path / "nan.cfg"
        config.write_text("range.start = nan\n")
        assert main(["mcp_sweep", "--config", str(config)]) == 2
        assert "range.start must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, line", [
        ("mcp_sweep", "transport.weight_threshold = 2"),
        ("mcp_sweep", "transport.g_lo = 1.5"),
        ("time_scenario", "transport.packets = 0"),
        ("capacity_distance", "transport.max_events = 0"),
        ("extinction_table", "medium.visibility_m = -1"),
        ("capacity_distance", "link.noise_psd_w_hz = 0"),
        ("storm_density", "storm.timestep_s = 0"),
        ("particle_sweep", "transport.distance_m = 0"),
        ("particle_sweep", "transport.distance_m = -1"),
    ])
    def test_bad_override_value_exit_code(self, scenario, line, tmp_path, capsys):
        # each once a runtime error (exit 4) from the object the value builds
        config = tmp_path / "bad.cfg"
        config.write_text(f"replicates = 1\nrange.steps = 2\n{line}\n")
        code = main([scenario, "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: ")

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

    @pytest.mark.parametrize("scenario", ["mcp_sweep", "storm_density"])
    def test_negative_seed_exit_code(self, scenario, tmp_path, capsys):
        # once a runtime error (exit 4) from deep inside the random streams
        code = main([scenario, "--seed", "-1", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "seed must be in [0, 2**128)" in capsys.readouterr().err

    def test_every_flag_stores_into_a_field(self):
        # main passes the flags that are given on as these field names
        dests = {action.dest for action in _build_parser()._actions} - {
            "help", "scenario", "config"}
        assert dests
        assert dests <= FIELD_NAMES

    def test_config_plot_holds_without_flag(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("plot = true\nreplicates = 1\n"
                          "transport.packets = 200\nrange.steps = 2\n")
        code = main(["mcp_sweep", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert capsys.readouterr().out.split()[-1].endswith("mcp_sweep_earth.svg")

    def test_cli_flags_override_config(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("planet = earth\nreplicates = 1\n"
                          "transport.packets = 200\nrange.steps = 2\n")
        code = main(["mcp_sweep", "--config", str(config), "--planet", "mars",
                     "--out", str(tmp_path / "out"), "--seed", "9"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mcp_sweep_mars.csv" in out
