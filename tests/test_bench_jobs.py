"""Every benchmark job is a run the CLI accepts: it sets only keys that its
scenario reads. A rejected job would count as a failed operation."""

import sys
from pathlib import Path

import pytest

from dustlink.cli import check_read

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
from jobs import INPUT_SETS, WORKLOADS, build_jobs  # noqa: E402

CASES = [pytest.param(workload, set_index, id=f"{workload}-set{set_index}")
         for workload in WORKLOADS for set_index in range(INPUT_SETS)]


@pytest.mark.parametrize("workload, set_index", CASES)
def test_every_job_is_accepted(workload, set_index, tmp_path):
    jobs = build_jobs(workload, set_index, str(tmp_path), str(tmp_path / "catalog"))
    assert jobs
    for job in jobs:
        check_read(job.config)
