"""Tests for the CSV comparison of tools/golden_digests.py on canned rows."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden_digests.py"
_spec = importlib.util.spec_from_file_location("golden_digests", TOOL)
golden_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_digests)

HEADER = ["range_value", "T_MS", "A_dB_per_m"]
OLD = [HEADER, ["10", "0.5", "0.25"], ["20", "0.0", "inf"]]


def changed(row, column, cell):
    new = [list(r) for r in OLD]
    new[row][HEADER.index(column)] = cell
    return new


def test_equal_rows_have_no_change():
    assert golden_digests._changes(OLD, [list(r) for r in OLD]) == ({}, [])


def test_monte_carlo_value_change_is_relative():
    largest, flips = golden_digests._changes(OLD, changed(1, "T_MS", "0.4"))
    assert flips == []
    assert largest == {"T_MS": pytest.approx(0.2, rel=1e-12)}


@pytest.mark.parametrize("row, column, cell", [
    (1, "A_dB_per_m", "inf"),     # finite -> inf
    (2, "A_dB_per_m", "3.5"),     # inf -> finite
    (2, "A_dB_per_m", "-inf"),    # inf -> -inf
    (1, "T_MS", "nan"),           # finite -> nan
    (2, "T_MS", "1e-9"),          # zero -> nonzero
    (1, "T_MS", "0"),             # nonzero -> zero
    (1, "T_MS", "oops"),          # number -> text
    (1, "T_MS", ""),              # number -> empty
])
def test_kind_change_is_a_flip(row, column, cell):
    largest, flips = golden_digests._changes(OLD, changed(row, column, cell))
    assert flips == [f"{column}[{row - 1}] {OLD[row][HEADER.index(column)]} -> {cell}"]
    assert largest == {}


def test_text_change_is_a_flip():
    old = [["label", "T_MS"], ["a", "0.5"]]
    largest, flips = golden_digests._changes(old, [["label", "T_MS"], ["b", "0.5"]])
    assert (largest, flips) == ({}, ["label[0] a -> b"])


@pytest.mark.parametrize("row, column, cell", [
    (1, "range_value", "10.0"),
    (2, "T_MS", "0"),     # 0/0 once raised ZeroDivisionError
    (2, "T_MS", "-0.0"),
])
def test_same_number_other_text_is_no_change(row, column, cell):
    largest, flips = golden_digests._changes(OLD, changed(row, column, cell))
    assert (largest, flips) == ({column: 0.0}, [])


def tree(digests, rejected=(), without=None):
    return {"digests": digests, "rejected": dict(rejected), "without": without or {}}


def test_rejected_run_passes_when_its_override_was_unread():
    old = tree({"a": "1", "b": "2"}, without={"b": "2"})
    new = tree({"a": "1"}, rejected={"b": "link.tx_power_dbm"})
    assert golden_digests.rejection_failures(old, new) == []
    # a run both trees reject needs no comparison
    assert golden_digests.rejection_failures(
        tree({}, rejected={"b": "k"}), tree({}, rejected={"b": "k"})) == []


@pytest.mark.parametrize("old", [
    tree({"b": "2"}, without={"b": "3"}),   # the key changed the old CSV
    tree({"b": "2"}),                        # no run without the key
    tree({}, without={"b": "3"}),            # no run with it
], ids=["changed", "no_without", "no_digest"])
def test_rejected_run_fails_unless_shown_unread(old):
    new = tree({}, rejected={"b": "transport.distance_m"})
    assert golden_digests.rejection_failures(old, new) == [
        "b: rejected, but transport.distance_m changes the old tree's CSV"]


def test_line_count_counts_the_package_modules(tmp_path):
    # as wc -l src/dustlink/*.py: newlines, in .py files directly under it
    package = tmp_path / "dustlink"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n\ny = 2\n")
    (package / "b.py").write_text("z = 3")    # no final newline: 0 lines
    (package / "c.py").write_text("")
    (package / "data.par").write_text("1\n2\n")
    (package / "sub" / "d.py").write_text("1\n")
    assert golden_digests.line_count(str(tmp_path)) == 3


def test_tree_facts_are_the_bench_facts():
    # imported from tools/bench_pairs.py, so the digest JSON and the BENCH
    # files record numpy the same way
    assert golden_digests.numpy_facts is sys.modules["bench_pairs"].numpy_facts
    facts = golden_digests.numpy_facts()
    assert golden_digests.FACTS == tuple(facts)
    assert golden_digests.facts_line("old", {**facts, "digests": {}}) == (
        f"old: numpy {facts['numpy']}; CPU features "
        + " ".join(facts["numpy_cpu_features"]))
