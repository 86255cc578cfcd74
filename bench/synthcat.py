"""Seeded synthetic spectroscopic catalog for the absorption workload.

The bundled catalog has 27 lines, too few for line-by-line absorption to
register. This writes ``n_lines`` 160-column records, spread over every
gas the Earth and Mars presets need, through the package's own
``render_par_record``, and checks that each file round-trips through
``parse_catalog`` byte for byte.
"""

import hashlib
import random
from pathlib import Path

from dustlink.atmosphere import (MOLECULE_IDS, SpectralLine, parse_catalog,
                                 render_par_record)

# Line centres span both preset bands (Earth 7.3-8.0 /cm, reached by
# Lorentz wings up to 25 /cm away; Mars 54.7-55.7 /cm, Doppler only).
CENTER_RANGE_INVCM = (0.5, 60.0)


def _record(rng: random.Random, molecule_id: int) -> str:
    lo, hi = CENTER_RANGE_INVCM
    micro = rng.randrange(int(lo * 1e6), int(hi * 1e6))
    line = SpectralLine(
        molecule_id=molecule_id,
        isotopologue_id=1,
        line_center_invcm=micro / 1e6,
        intensity_ref=rng.randrange(1000, 10000) / 1000 * 10.0 ** -rng.randrange(20, 26),
        gamma_air_invcm_atm=rng.randrange(100, 1000) / 1e4,
        gamma_self_invcm_atm=rng.randrange(1000, 5000) / 1e4,
        lower_state_energy_invcm=rng.randrange(0, 30_000_000) / 1e4,
        temperature_exponent=rng.randrange(50, 81) / 100,
        pressure_shift_invcm_atm=rng.randrange(-50, 51) / 1e6,
        molar_mass_kg_mol=1.0,   # not part of the record
    )
    return render_par_record(line)


def generate_catalog(directory: str | Path, n_lines: int, seed: int) -> dict:
    """Write ``<GAS>.par`` files holding ``n_lines`` records in total.

    Returns the provenance (line count, seed, SHA-256 of the files in gas
    order). Raises RuntimeError if a file does not round-trip.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    gases = sorted(MOLECULE_IDS)
    records: dict[str, list[str]] = {gas: [] for gas in gases}
    for _ in range(n_lines):
        gas = gases[rng.randrange(len(gases))]
        records[gas].append(_record(rng, MOLECULE_IDS[gas]))

    digest = hashlib.sha256()
    for gas in gases:
        lines = sorted(records[gas], key=lambda r: float(r[3:15]))
        text = "".join(r + "\n" for r in lines)
        parsed = parse_catalog(text)
        if [render_par_record(p) for p in parsed] != lines:
            raise RuntimeError(f"synthetic {gas} records do not round-trip")
        (directory / f"{gas}.par").write_text(text, newline="\n")
        digest.update(text.encode())
    return {"catalog_lines": n_lines, "catalog_seed": seed,
            "catalog_sha256": digest.hexdigest()}
