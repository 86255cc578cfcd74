"""Output checks against the recorded references, and summary statistics.

A job passes when its CSV has the reference header and row count, every
deterministic column matches within ``DETERMINISTIC_RTOL``, and every
Monte Carlo column lies within ``MC_SIGMAS`` replicate standard deviations
of the reference. Byte identity with the reference is counted apart
(``output.digest_match``) and is not required: a documented change of the
random draws keeps the statistics but not the bytes.
"""

import gzip
import hashlib
import json
import math
from pathlib import Path
from statistics import median, quantiles

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

MC_COLUMNS = ("T_MS", "A_dB_per_m", "H_dust", "capacity_bps")
DETERMINISTIC_RTOL = 1e-9
# Reference and candidate are independent runs, so their difference has
# sqrt(2) times the single-run deviation: 6 sigma is 4.2 of those.
MC_SIGMAS = 6.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reference_path(workload: str, set_index: int) -> Path:
    return REFERENCE_DIR / workload / f"set{set_index}"


def load_reference(workload: str, set_index: int) -> dict:
    """The reference index of one workload input set.

    ``index["jobs"]`` maps each job name to its "sha256", "rows", "sigma"
    and, read from the gzip file, "csv" bytes.
    """
    base = reference_path(workload, set_index)
    index = json.loads((base / "index.json").read_text())
    for name, entry in index["jobs"].items():
        entry["csv"] = gzip.decompress((base / f"{name}.csv.gz").read_bytes())
    return index


def read_table(data: bytes) -> tuple[list[str], list[list[float]]]:
    """Header and float rows of a CSV."""
    lines = data.decode().splitlines()
    return lines[0].split(","), [[float(c) for c in line.split(",")]
                                 for line in lines[1:]]


def _same(a: float, b: float, tol: float) -> bool:
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return a == b
    return abs(a - b) <= tol


def check_output(data: bytes, reference: dict) -> list[str]:
    """Problems found in one job's CSV bytes; empty when it passes."""
    if sha256(data) == reference["sha256"]:
        return []
    try:
        header, rows = read_table(data)
    except (UnicodeDecodeError, ValueError, IndexError) as exc:
        return [f"unreadable CSV: {exc}"]
    ref_header, ref_rows = read_table(reference["csv"])
    if header != ref_header:
        return [f"header {header[:6]}... != reference {ref_header[:6]}..."]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    for i, row in enumerate(rows):
        if len(row) != len(header):
            return [f"row {i} has {len(row)} cells"]
    problems = []
    for j, column in enumerate(header):
        sigmas = reference["sigma"].get(column)
        for i, (row, ref) in enumerate(zip(rows, ref_rows)):
            got, want = row[j], ref[j]
            if column in MC_COLUMNS:
                sigma = sigmas[i] if sigmas else 0.0
                if sigma is None:       # a replicate was opaque: unbounded
                    continue
                tol = MC_SIGMAS * sigma + DETERMINISTIC_RTOL * abs(want)
            else:
                tol = DETERMINISTIC_RTOL * abs(want)
            if not _same(got, want, tol):
                problems.append(f"{column}[{i}] = {got!r}, reference {want!r}"
                                f" (tolerance {tol:.3g})")
    return problems


def tail_percentile(samples, beyond: int = 10):
    """Highest percentile that has at least ``beyond`` samples above it.

    Returns (percentile, value) with the k-th smallest of n samples taken
    as the 100*k/n percentile, for the largest k with n - k >= beyond, or
    None when there are too few samples.
    """
    ordered = sorted(samples)
    k = len(ordered) - beyond
    if k < 1:
        return None
    return 100.0 * k / len(ordered), ordered[k - 1]


def quartile_spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)
