"""Tests for tools/philox_counts.py on one pass of each transport workload."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# each workload's calls at input set 1 (earth_sweeps 23, mars_capacity 7),
# with a little room
@pytest.mark.parametrize("workload, max_calls", [("mars_capacity", 8),
                                                 ("earth_sweeps", 25)])
def test_counts_repeat_and_stay_near_the_blocks_read(workload, max_calls):
    # the same tree twice: the counts repeat exactly
    src = str(ROOT / "src")
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "philox_counts.py"), src, src,
         "--workload", workload, "--set", "1"],
        check=True, capture_output=True, text=True).stdout
    line = re.compile(rf"(old|new) {workload} set 1: (\d+) calls, (\d+) blocks "
                      r"computed, (\d+) read, ratio ([\d.]+)$")
    (old, *counts), (new, *again) = (line.match(text).groups()
                                     for text in out.splitlines())
    assert (old, new) == ("old", "new")
    assert counts == again
    calls, computed, read = (int(c) for c in counts[:3])
    assert 0 < read <= computed <= 1.6 * read
    assert calls <= max_calls
