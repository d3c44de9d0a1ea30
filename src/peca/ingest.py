"""Ingestion of daily CSV series and event date lists onto a shared day grid."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .series import EventSeries, TimeSeries

__all__ = ["IngestError", "DayGrid", "ingest_timeseries", "ingest_events"]


class IngestError(ValueError):
    """Malformed or inconsistent input data."""


@dataclass(frozen=True)
class DayGrid:
    """Contiguous daily index: day 1 is ``start``, day ``length`` the last day."""

    start: date
    length: int

    @property
    def end(self) -> date:
        return self.start + timedelta(days=self.length - 1)

    def index(self, d: date) -> int:
        return (d - self.start).days + 1

    def contains(self, d: date) -> bool:
        return 1 <= self.index(d) <= self.length


def _parse_date(text: str, where: str) -> date:
    """An ASCII ``YYYY-MM-DD`` date, after stripping surrounding whitespace.

    ``date.fromisoformat`` alone would also take ``20200101`` or
    ``2020-W01-3`` on Python 3.11 and later, but not on 3.10; the shape
    check keeps the accepted set the same on every version.
    """
    text = text.strip()
    try:
        if len(text) != 10 or text[4] != "-" or text[7] != "-" or not text.isascii():
            raise ValueError(text)
        return date.fromisoformat(text)
    except ValueError as exc:
        raise IngestError(f"{where}: unparseable date {text!r}") from exc


def ingest_timeseries(path, fill_zero: bool = False) -> tuple[TimeSeries, DayGrid]:
    """Read a ``date,value`` CSV into a contiguous daily series.

    Dates must be ``YYYY-MM-DD`` and strictly increasing, one row per day.
    A missing day is an error naming the first gap unless ``fill_zero``,
    which inserts 0.0 for every skipped day.  Values must be non-negative
    finite reals.  A leading UTF-8 byte-order mark is skipped.
    """
    values: list[float] = []
    start: date | None = None
    prev: date | None = None
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header] != ["date", "value"]:
            raise IngestError(f"{path}: expected header 'date,value', got {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise IngestError(f"{path}:{lineno}: expected two fields, got {len(row)}")
            d = _parse_date(row[0], f"{path}:{lineno}")
            try:
                v = float(row[1])
            except ValueError as exc:
                raise IngestError(f"{path}:{lineno}: unparseable value {row[1]!r}") from exc
            if not math.isfinite(v) or v < 0:
                raise IngestError(f"{path}:{lineno}: values must be non-negative and finite")
            if prev is not None:
                if d <= prev:
                    kind = "duplicate" if d == prev else "out-of-order"
                    raise IngestError(f"{path}:{lineno}: {kind} date {d.isoformat()}")
                gap = (d - prev).days - 1
                if gap > 0:
                    if not fill_zero:
                        missing = prev + timedelta(days=1)
                        raise IngestError(
                            f"{path}:{lineno}: missing day {missing.isoformat()}"
                            " (pass --fill-zero to insert zeros)")
                    values.extend([0.0] * gap)
            else:
                start = d
            values.append(v)
            prev = d
    if start is None or not values:
        raise IngestError(f"{path}: no data rows")
    return TimeSeries(values=np.array(values)), DayGrid(start=start, length=len(values))


def ingest_events(path, grid: DayGrid) -> tuple[EventSeries, list[str]]:
    """Read one ``YYYY-MM-DD`` date per line and align to the day grid.

    Blank lines are skipped.  Duplicate dates collapse with a warning; a date
    outside the grid is an error naming it.  An empty file yields an empty
    event series plus a warning.  A leading UTF-8 byte-order mark is skipped.
    """
    warnings: list[str] = []
    seen: dict[int, date] = {}
    duplicates: list[str] = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            d = _parse_date(text, f"{path}:{lineno}")
            if not grid.contains(d):
                raise IngestError(
                    f"{path}:{lineno}: event date {d.isoformat()} outside series range "
                    f"{grid.start.isoformat()}..{grid.end.isoformat()}")
            idx = grid.index(d)
            if idx in seen:
                duplicates.append(d.isoformat())
            else:
                seen[idx] = d
    if duplicates:
        warnings.append(f"collapsed duplicate event date(s): {', '.join(sorted(set(duplicates)))}")
    if not seen:
        warnings.append("event file contains no events")
    occ = np.array(sorted(seen), dtype=np.int64)
    return EventSeries(length=grid.length, occurrences=occ), warnings
