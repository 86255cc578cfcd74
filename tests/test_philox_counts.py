"""Tests for tools/philox_counts.py on one mars_capacity pass."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LINE = re.compile(r"(old|new) mars_capacity set 1: (\d+) calls, (\d+) blocks computed, "
                  r"(\d+) read, ratio ([\d.]+)$")


def test_mars_capacity_counts_repeat_and_stay_near_the_blocks_read():
    # the same tree twice: the counts repeat exactly
    src = str(ROOT / "src")
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "philox_counts.py"), src, src,
         "--workload", "mars_capacity", "--set", "1"],
        check=True, capture_output=True, text=True).stdout
    (old, *counts), (new, *again) = (LINE.match(line).groups()
                                     for line in out.splitlines())
    assert (old, new) == ("old", "new")
    assert counts == again
    calls, computed, read = (int(c) for c in counts[:3])
    assert 0 < read <= computed <= 1.6 * read
    assert calls <= 8
