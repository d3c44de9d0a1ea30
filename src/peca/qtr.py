"""Quantile-trigger-rate tables, their SVG chart, and the writer of every CSV.

A QTR table puts the observed trigger rate at each quantile threshold next
to the null expectation and a central null band, which is the standard
visual summary of a multi-threshold run.  The SVG writer is deliberately
dependency-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .multi import BAND_LEVEL
from .series import integer_array, integer_scalar, real_array

__all__ = ["QtrTable", "write_csv", "write_qtr_svg"]


@dataclass(frozen=True)
class QtrTable:
    """Observed and null-expected trigger rates along a quantile ladder; every column is read
    on construction, so no nan or inf reaches a CSV or SVG."""

    levels: np.ndarray
    thresholds: np.ndarray
    observed_counts: np.ndarray
    n_events: int
    expected_rates: np.ndarray
    band_lower_rates: np.ndarray
    band_upper_rates: np.ndarray

    def __post_init__(self):
        arrays = {name: real_array(getattr(self, name), name.replace("_", " ")) for name in (
            "levels", "thresholds", "expected_rates", "band_lower_rates", "band_upper_rates")}
        arrays["observed_counts"] = integer_array(self.observed_counts, "observed counts")
        size = arrays["levels"].size
        if size < 1:
            raise ValueError("QTR table needs at least one row")
        if any(a.size != size for a in arrays.values()):
            raise ValueError("QTR table columns must have equal length")
        n_events = integer_scalar(self.n_events, "n_events", 1)
        if np.any(np.diff(arrays["observed_counts"]) > 0):
            raise ValueError("observed count must be non-increasing in the quantile level")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "n_events", n_events)

    @property
    def observed_rates(self) -> np.ndarray:
        """Observed counts over n_events."""
        return self.observed_counts / self.n_events

    @property
    def columns(self) -> dict[str, np.ndarray]:
        """The table's CSV columns by header name, one row per threshold."""
        return {"quantile_level": self.levels, "threshold": self.thresholds,
                "observed_count": self.observed_counts, "observed_rate": self.observed_rates,
                "expected_rate": self.expected_rates, "band_lower_rate": self.band_lower_rates,
                "band_upper_rate": self.band_upper_rates}


# Rows formatted per write.  Writing a replicate NLL table peaks at about 170 kB, whatever
# its length, where formatting every row before the first write took about 150 B per row.
_CSV_ROWS = 1024


def write_csv(path, columns) -> None:
    """CSV of named 1-D columns: a header of the names in mapping order, then one row per index.

    Each cell is ``repr`` of the column's ``.tolist()`` item, so integers read
    as integers and floats in their shortest round-trip form.  Rows end with
    LF and the file is UTF-8.  Rows are formatted and written ``_CSV_ROWS`` at
    a time, so a long column costs no more than a block of text.  Columns
    that are not all 1-D and of one length raise ``ValueError`` before the
    file is created.
    """
    arrays = [np.asarray(c) for c in columns.values()]
    sizes = {a.size for a in arrays}
    if any(a.ndim != 1 for a in arrays) or len(sizes) > 1:
        raise ValueError("CSV columns must be 1-D and of one length")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, max(sizes, default=0), _CSV_ROWS):
            rows = zip(*(map(repr, a[start:start + _CSV_ROWS].tolist()) for a in arrays))
            fh.write("".join(",".join(row) + "\n" for row in rows))


def _escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as XML entities, as ``xml.sax.saxutils.escape`` writes them.

    Inline, because importing ``xml.sax`` loads the network stack.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _polyline(xs, ys) -> str:
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))


def write_qtr_svg(table: QtrTable, path, title: str = "") -> None:
    """Self-contained SVG chart: observed rate, null expectation, and null band."""
    width, height = 720.0, 480.0
    ml, mr, mt, mb = 72.0, 24.0, 46.0, 64.0
    pw, ph = width - ml - mr, height - mt - mb

    lo, hi = float(table.levels.min()), float(table.levels.max())
    if hi <= lo:
        lo, hi = lo - 0.01, hi + 0.01

    def x_px(p):
        return ml + (p - lo) / (hi - lo) * pw

    def y_px(r):
        return mt + (1.0 - min(max(r, 0.0), 1.0)) * ph

    xs = [x_px(p) for p in table.levels]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{width / 2:.2f}" y="26" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="16">{_escape(title)}</text>')

    band = (xs + xs[::-1], [y_px(r) for r in table.band_upper_rates]
            + [y_px(r) for r in table.band_lower_rates[::-1]])
    parts.append(f'<polygon points="{_polyline(band[0], band[1])}" fill="#d8d8d8" stroke="none"/>')
    parts.append(f'<polyline points="{_polyline(xs, [y_px(r) for r in table.expected_rates])}" '
                 f'fill="none" stroke="#777777" stroke-width="1.5" stroke-dasharray="6 4"/>')
    parts.append(f'<polyline points="{_polyline(xs, [y_px(r) for r in table.observed_rates])}" '
                 f'fill="none" stroke="#7b2d8b" stroke-width="2.5"/>')

    # axes and ticks
    parts.append(f'<line x1="{ml:.2f}" y1="{mt + ph:.2f}" x2="{ml + pw:.2f}" y2="{mt + ph:.2f}" '
                 f'stroke="black" stroke-width="1"/>')
    parts.append(f'<line x1="{ml:.2f}" y1="{mt:.2f}" x2="{ml:.2f}" y2="{mt + ph:.2f}" '
                 f'stroke="black" stroke-width="1"/>')
    for p in np.linspace(lo, hi, 6):
        x = x_px(p)
        parts.append(f'<line x1="{x:.2f}" y1="{mt + ph:.2f}" x2="{x:.2f}" y2="{mt + ph + 6:.2f}" '
                     f'stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{x:.2f}" y="{mt + ph + 22:.2f}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12">{p:.3f}</text>')
    for r in np.linspace(0.0, 1.0, 6):
        y = y_px(r)
        parts.append(f'<line x1="{ml - 6:.2f}" y1="{y:.2f}" x2="{ml:.2f}" y2="{y:.2f}" '
                     f'stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{ml - 10:.2f}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="12">{r:.1f}</text>')
    parts.append(f'<text x="{ml + pw / 2:.2f}" y="{height - 16:.2f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="14">quantile level</text>')
    parts.append(f'<text x="22" y="{mt + ph / 2:.2f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="14" '
                 f'transform="rotate(-90 22 {mt + ph / 2:.2f})">trigger rate</text>')

    # legend
    lx, ly = ml + pw - 190.0, mt + 12.0
    parts.append(f'<line x1="{lx:.2f}" y1="{ly:.2f}" x2="{lx + 28:.2f}" y2="{ly:.2f}" '
                 f'stroke="#7b2d8b" stroke-width="2.5"/>')
    parts.append(f'<text x="{lx + 34:.2f}" y="{ly + 4:.2f}" font-family="sans-serif" '
                 f'font-size="12">observed rate</text>')
    parts.append(f'<line x1="{lx:.2f}" y1="{ly + 18:.2f}" x2="{lx + 28:.2f}" y2="{ly + 18:.2f}" '
                 f'stroke="#777777" stroke-width="1.5" stroke-dasharray="6 4"/>')
    parts.append(f'<text x="{lx + 34:.2f}" y="{ly + 22:.2f}" font-family="sans-serif" '
                 f'font-size="12">null expectation</text>')
    parts.append(f'<rect x="{lx:.2f}" y="{ly + 30:.2f}" width="28" height="10" fill="#d8d8d8"/>')
    parts.append(f'<text x="{lx + 34:.2f}" y="{ly + 39:.2f}" font-family="sans-serif" '
                 f'font-size="12">{BAND_LEVEL:.0%} null band</text>')
    parts.append("</svg>")

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
