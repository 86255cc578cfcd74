"""Tests for tools/bench_pairs.py on canned benchmark output; no benchmark runs."""

import ast
import importlib.util
import json
import platform
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

MACHINE = {"nproc": 2, "cpu": "test cpu", "python": "3.11.7"}


def canned_stdout(pass_s, rss=50.0, failed=0, setup_s=None):
    result = {"correct": failed == 0, "attempted": 5, "failed": failed,
              "metrics": {"pass_s": {"value": pass_s, "unit": "s"},
                          "peak_rss_mib": {"value": rss, "unit": "MiB"}}}
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    return ("workload w: test\n"
            f"machine: {json.dumps(MACHINE)}\n"
            "  pass_s  1.0 s\n"
            f"{json.dumps(result)}\n")


def test_imports_no_package_code():
    tree = ast.parse(TOOL.read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert not any(m.split(".")[0] == "dustlink" for m in modules)


def test_parse_result_reads_the_last_line():
    out = bench_pairs.parse_result(canned_stdout(0.5) + "\n\n")
    assert out["metrics"]["pass_s"] == {"value": 0.5, "unit": "s"}
    assert bench_pairs.parse_machine(canned_stdout(0.5)) == MACHINE


@pytest.mark.parametrize("stdout", ["", "workload w\n", '{"correct": true}\n'])
def test_parse_result_rejects_a_missing_result(stdout):
    with pytest.raises(ValueError):
        bench_pairs.parse_result(stdout)


def test_order_alternates():
    assert [bench_pairs.run_order(p) for p in range(3)] == [
        ("parent", "child"), ("child", "parent"), ("parent", "child")]


def test_child_env_writes_bytecode(monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    env = bench_pairs.child_env()
    assert "PYTHONDONTWRITEBYTECODE" not in env
    assert "PYTHONPATH" not in env


def test_copy_drops_bytecode(tmp_path):
    src = tmp_path / "tree"
    (src / "pkg" / "__pycache__").mkdir(parents=True)
    (src / "pkg" / "__pycache__" / "m.cpython-311.pyc").write_bytes(b"stale")
    (src / "pkg" / "m.py").write_text("x = 1\n")
    dest = bench_pairs.copy_tree(src, tmp_path / "copy")
    assert (dest / "pkg" / "m.py").read_text() == "x = 1\n"
    assert not (dest / "pkg" / "__pycache__").exists()


def test_pairs_and_summary():
    # the child reads lower in 3 of 4 pairs; each tree runs once per pair
    times = {"parent": [1.0, 1.2, 1.1, 0.9], "child": [0.8, 0.9, 1.15, 0.7]}
    calls = []

    def runner(root, workload, seed, seconds):
        calls.append((root, workload))
        pair = sum(1 for r, w in calls if r == root and w == workload) - 1
        return canned_stdout(times[root][pair], rss=50.0 if root == "parent" else 49.0)

    runs, machine = bench_pairs.run_pairs(
        {"parent": "parent", "child": "child"}, ["w"], pairs=4, seed=3,
        seconds=1.0, runner=runner, log=lambda message: None)
    assert machine == MACHINE
    assert [root for root, _ in calls] == ["parent", "child", "child", "parent"] * 2
    assert all(run["correct"] and run["failed"] == 0 for run in runs["w"])

    summary = bench_pairs.summarise(runs["w"])
    pass_s = summary["pass_s"]
    assert pass_s["unit"] == "s"
    assert pass_s["pairs"] == 4
    assert pass_s["child_lower"] == 3
    assert pass_s["parent"] == {"median": pytest.approx(1.05), "q1": pytest.approx(0.975),
                                "q3": pytest.approx(1.125), "n": 4}
    assert pass_s["child"]["median"] == pytest.approx(0.85)
    assert pass_s["change"] == pytest.approx(0.85 / 1.05 - 1.0)
    assert summary["peak_rss_mib"]["child_lower"] == 4


def test_summary_skips_an_unpaired_run():
    runs = [bench_pairs.record(0, "parent", canned_stdout(1.0)),
            bench_pairs.record(0, "child", canned_stdout(0.5)),
            bench_pairs.record(1, "parent", canned_stdout(9.0))]
    summary = bench_pairs.summarise(runs)
    assert summary["pass_s"]["pairs"] == 1
    assert summary["pass_s"]["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0, "n": 1}


def test_failed_runs_are_recorded():
    run = bench_pairs.record(0, "child", canned_stdout(1.0, failed=2))
    assert run["correct"] is False
    assert run["failed"] == 2


def test_numpy_facts_name_the_dispatched_features():
    import numpy
    facts = bench_pairs.numpy_facts()
    assert facts["numpy"] == numpy.__version__
    features = facts["numpy_cpu_features"]
    assert features and features == sorted(features)
    if platform.machine() in ("x86_64", "AMD64"):
        assert "SSE2" in features     # the x86-64 baseline


def test_written_file_records_numpy_facts(tmp_path, monkeypatch):
    root = tmp_path / "root"
    root.mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps({"workloads": [{"name": "w"}]}))
    monkeypatch.setattr(bench_pairs, "copy_tree", lambda src, dest: dest)
    monkeypatch.setattr(bench_pairs, "compile_tree", lambda root: None)
    run_pairs, run_setups = bench_pairs.run_pairs, bench_pairs.run_setups
    monkeypatch.setattr(bench_pairs, "run_pairs", lambda *args, **kwargs: run_pairs(
        *args, **kwargs, runner=lambda *run: canned_stdout(1.0)))
    monkeypatch.setattr(bench_pairs, "run_setups", lambda *args, **kwargs: run_setups(
        *args, **kwargs, runner=lambda root: 0.2))
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main([str(root), str(root), "--tag", "t", "--pairs", "1"]) == 0
    machine = json.loads((tmp_path / "BENCH_t.json").read_text())["machine"]
    assert {key: machine[key] for key in MACHINE} == MACHINE
    assert {key: machine[key] for key in ("numpy", "numpy_cpu_features")} == \
        bench_pairs.numpy_facts()


def test_copies_have_paths_of_equal_length(tmp_path, monkeypatch):
    # a run's peak RSS follows its path's length: parent/ and child/ differ
    root = tmp_path / "root"
    root.mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps({"workloads": [{"name": "w"}]}))
    copies = {}
    monkeypatch.setattr(bench_pairs, "copy_tree",
                        lambda src, dest: copies.setdefault(str(dest), dest))
    monkeypatch.setattr(bench_pairs, "compile_tree", lambda root: None)
    ran = set()

    def runner(root, workload, seed, seconds):
        ran.add(str(root))
        return canned_stdout(1.0)

    def setup_runner(root):
        ran.add(str(root))
        return 0.2

    run_pairs, run_setups = bench_pairs.run_pairs, bench_pairs.run_setups
    monkeypatch.setattr(bench_pairs, "run_pairs", lambda *args, **kwargs: run_pairs(
        *args, **kwargs, runner=runner))
    monkeypatch.setattr(bench_pairs, "run_setups", lambda *args, **kwargs: run_setups(
        *args, **kwargs, runner=setup_runner))
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main([str(root), str(root), "--tag", "t", "--pairs", "2"]) == 0
    assert ran == set(copies)
    parent, child = copies.values()
    assert parent != child
    assert parent.parent == child.parent
    assert len(str(parent)) == len(str(child))


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


@pytest.mark.parametrize("parent, child, better, expected", [
    # lower in 9 of 10 pairs, by more than the parent's q3 - q1 (0.02)
    pytest.param(PARENT, [0.90] * 9 + [1.10], "lower", "gain", id="gain"),
    pytest.param(PARENT, [v + 0.05 for v in PARENT], "higher", "gain", id="gain-higher"),
    # the median 30 % worse against a 25 % bound
    pytest.param(PARENT, [1.30] * 10, "lower", "worse", id="worse"),
    # the parent's quartiles 40 % apart; the child neither gains nor loses
    pytest.param([0.8, 1.2] * 5, [1.0] * 10, "lower", "unresolved", id="unresolved"),
    # as wide, but every child run beats every parent run
    pytest.param([0.8, 1.2] * 5, [0.7] * 10, "lower", "flat", id="wide-but-beaten"),
    # lower in 8 of 10 pairs only: no gain, and inside the bound
    pytest.param(PARENT, [0.90] * 8 + [1.10] * 2, "lower", "flat", id="flat"),
    # ties count for neither side
    pytest.param(PARENT, PARENT, "lower", "flat", id="ties"),
])
def test_verdict(parent, child, better, expected):
    assert bench_pairs.verdict(parent, child, better, 0.25) == expected


def test_summary_gives_end_to_end_metrics_a_verdict():
    runs = [bench_pairs.record(pair, tree, canned_stdout(1.3 if tree == "child" else 1.0))
            for pair in range(3) for tree in bench_pairs.TREES]
    summary = bench_pairs.summarise(
        runs, {"pass_s": {"name": "pass_s", "better": "lower", "bound": 0.25}})
    assert summary["pass_s"]["verdict"] == "worse"
    assert "verdict" not in summary["peak_rss_mib"]


def test_setup_s_verdict_comes_from_interleaved_rounds(tmp_path, monkeypatch):
    # The pairs' own setup_s reads 40 % worse for the child (one stretch of
    # host load per run); the interleaved set-up rounds read both trees
    # alike, and every workload's setup_s verdict follows the rounds.
    root = tmp_path / "root"
    root.mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "w1"}, {"name": "w2"}],
        "end_to_end": [{"name": "setup_s", "better": "lower", "bound": 0.25},
                       {"name": "pass_s", "better": "lower", "bound": 0.25}]}))
    monkeypatch.setattr(bench_pairs, "copy_tree", lambda src, dest: dest)
    monkeypatch.setattr(bench_pairs, "compile_tree", lambda root: None)
    calls = []

    def runner(root, workload, seed, seconds):
        calls.append(("pair", root.name))
        return canned_stdout(1.0, setup_s=0.14 if root.name == "new" else 0.10)

    def setup_runner(root):
        calls.append(("setup", root.name))
        return 0.18 + 0.001 * (len(calls) % 3)

    run_pairs, run_setups = bench_pairs.run_pairs, bench_pairs.run_setups
    monkeypatch.setattr(bench_pairs, "run_pairs", lambda *args, **kwargs: run_pairs(
        *args, **kwargs, runner=runner))
    monkeypatch.setattr(bench_pairs, "run_setups", lambda *args, **kwargs: run_setups(
        *args, **kwargs, runner=setup_runner))
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main([str(root), str(root), "--tag", "t", "--pairs", "2"]) == 0

    # the set-up rounds follow the pairs, the parent (old) first in even rounds
    kinds = [kind for kind, _ in calls]
    assert kinds == ["pair"] * 8 + ["setup"] * 2 * bench_pairs.SETUP_ROUNDS
    setups = [name for kind, name in calls if kind == "setup"]
    assert setups == ["old", "new", "new", "old"] * (bench_pairs.SETUP_ROUNDS // 2)

    out = json.loads((tmp_path / "BENCH_t.json").read_text())
    rounds = out["setup_rounds"]
    assert len(rounds["runs"]) == 2 * bench_pairs.SETUP_ROUNDS
    assert rounds["summary"]["pairs"] == bench_pairs.SETUP_ROUNDS
    assert rounds["summary"]["verdict"] == "flat"
    # the pairs alone would read worse: 0.14 against 0.10 s
    assert bench_pairs.verdict([0.10] * 2, [0.14] * 2, "lower", 0.25) == "worse"
    for w in ("w1", "w2"):
        setup_s = out["workloads"][w]["summary"]["setup_s"]
        assert setup_s["child"]["median"] == pytest.approx(0.14)
        assert setup_s["verdict"] == "flat"
        assert setup_s["verdict_from"] == "setup_rounds"
        assert "verdict_from" not in out["workloads"][w]["summary"]["pass_s"]


def test_setup_code_is_read_from_the_tree(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        'import sys\nSETUP_CODE = """\\\nprint(1)\n"""\n\nsys.exit(3)\n')
    assert bench_pairs.setup_code(tmp_path) == "print(1)\n"
    real = Path(__file__).resolve().parents[1]
    assert "import dustlink" in bench_pairs.setup_code(real)
    assert 0.0 < bench_pairs.setup_run(real) < 120.0

