"""Deterministic CSV and minimal SVG emission.

Floats are written with repr (shortest round-trip form) so output bytes
are a pure function of the values; files use LF line endings.
"""

import math
from pathlib import Path

from .errors import DustlinkError

__all__ = ["format_cell", "write_csv", "write_svg_line"]


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))   # builtin float: shortest round-trip repr
    return str(value)


def write_csv(path: str | Path, header: list[str], rows: list[tuple]) -> Path:
    """Write rows under a header; returns the path."""
    path = Path(path)
    if len(rows) == 0:
        raise DustlinkError("refusing to write an empty CSV")
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise DustlinkError(
                f"row width {len(row)} does not match header width {len(header)}")
        # a builtin float's cell is its repr: skip the call for those
        lines.append(",".join([repr(v) if type(v) is float else format_cell(v)
                               for v in row]))
    try:
        path.write_text("\n".join(lines) + "\n", newline="\n")
    except OSError as exc:
        raise DustlinkError(f"cannot write {path}: {exc}") from exc
    return path


_WIDTH, _HEIGHT = 640, 480
_MARGIN = 60


def _scale(values, lo, hi, out_lo, out_hi):
    if hi == lo:
        return [(out_lo + out_hi) / 2.0 for _ in values]
    span = hi - lo
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def write_svg_line(path: str | Path, x: list[float], y: list[float],
                   x_label: str, y_label: str) -> Path:
    """Single-series polyline plot with labeled axes.

    Non-finite points are dropped from the polyline but the axes still
    cover the finite data range.
    """
    path = Path(path)
    finite = [(a, b) for a, b in zip(x, y)
              if math.isfinite(a) and math.isfinite(b)]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 15}" text-anchor="middle" '
        f'font-size="14">{x_label}</text>',
        f'<text x="18" y="{_HEIGHT // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {_HEIGHT // 2})">{y_label}</text>',
    ]
    if finite:
        xs = [a for a, _ in finite]
        ys = [b for _, b in finite]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        px = _scale(xs, x_lo, x_hi, _MARGIN, _WIDTH - _MARGIN)
        py = _scale(ys, y_lo, y_hi, _HEIGHT - _MARGIN, _MARGIN)
        points = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        parts.append(f'<polyline fill="none" stroke="steelblue" '
                     f'stroke-width="1.5" points="{points}"/>')
        for value, pos in ((x_lo, _MARGIN), (x_hi, _WIDTH - _MARGIN)):
            parts.append(f'<text x="{pos}" y="{_HEIGHT - _MARGIN + 18}" '
                         f'text-anchor="middle" font-size="11">{value:.6g}</text>')
        for value, pos in ((y_lo, _HEIGHT - _MARGIN), (y_hi, _MARGIN)):
            parts.append(f'<text x="{_MARGIN - 6}" y="{pos + 4}" '
                         f'text-anchor="end" font-size="11">{value:.6g}</text>')
    parts.append("</svg>")
    try:
        path.write_text("\n".join(parts) + "\n", newline="\n")
    except OSError as exc:
        raise DustlinkError(f"cannot write {path}: {exc}") from exc
    return path
