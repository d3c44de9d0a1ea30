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


def _not_utf8(path) -> IngestError:
    """The error for a file that is not UTF-8, naming the line of its first bad byte."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        return IngestError(f"{path}:{line}: not UTF-8 text (byte 0x{raw[exc.start]:02x})")
    return IngestError(f"{path}: not UTF-8 text")


def _decoded(path, lines):
    """The text lines of an open file; a byte that is not UTF-8 raises ``IngestError``."""
    try:
        yield from lines
    except UnicodeDecodeError as exc:
        raise _not_utf8(path) from exc


def _records(path, fh):
    """``(line, record)`` for the CSV records of an open file, numbered by the
    physical line each starts on; a malformed one raises ``IngestError``."""
    reader = csv.reader(_decoded(path, fh))
    start = 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise IngestError(f"{path}:{reader.line_num}: {exc}") from exc


_BOM = b"\xef\xbb\xbf"
_HEADER = b"date,value\n"
_NL, _COMMA, _DASH, _DOT, _ZERO = (np.uint8(ord(c)) for c in "\n,-.0")
# 10**k for k = 0..22, all exact in float64 (5**22 < 2**53)
_POW10 = np.array([1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12,
                   1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22])
_MAX_SIGNIFICANT = 15
# the digit loop runs once per byte of the widest value; wider values, which only
# leading zeros could keep canonical, go to the row parser
_MAX_VALUE_BYTES = 32
# rows decoded at a time, which bounds the fast path's temporaries
_ROWS_PER_CHUNK = 1 << 16


def _days(buf: np.ndarray, start: np.ndarray) -> np.ndarray | None:
    """Days since 1970-01-01 of the ``YYYY-MM-DD,`` at each row start, or None.

    None unless every row has that shape and names a calendar day of year 1 or later.
    """
    if not ((buf[start + 4] == _DASH) & (buf[start + 7] == _DASH)
            & (buf[start + 10] == _COMMA)).all():
        return None
    digits = [buf[start + j] - _ZERO for j in (0, 1, 2, 3, 5, 6, 8, 9)]
    if any((d > 9).any() for d in digits):
        return None
    y0, y1, y2, y3, m0, m1, d0, d1 = (d.astype(np.int32) for d in digits)
    year = ((y0 * 10 + y1) * 10 + y2) * 10 + y3
    month = m0 * 10 + m1
    day = d0 * 10 + d1
    months = ((year - 1970) * 12 + month - 1).astype("M8[M]")
    first = months.astype("M8[D]").astype(np.int64)
    after = (months + 1).astype("M8[D]").astype(np.int64)
    if not ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
            & (first + day <= after)).all():
        return None
    return first + day - 1


def _decimals(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray | None:
    """``float`` of each ``<digits>[.<digits>]`` field ``buf[start:end]``, or None.

    With at most 15 significant digits and k <= 22 decimals, a field is N / 10**k
    with N < 2**53 and 10**k exact: one correctly rounded division, which is what
    ``float(text)`` returns, bit for bit (Clinger 1990).
    """
    width = end - start
    if width.max() > _MAX_VALUE_BYTES:
        return None
    mantissa = np.zeros(start.size, dtype=np.int64)
    significant, decimals, dots = (np.zeros(start.size, dtype=np.int32) for _ in range(3))
    for j in range(int(width.max())):
        byte = buf[np.minimum(start + j, end)]      # the row's newline past its field
        digit = byte - _ZERO
        is_digit = digit <= 9
        is_dot = byte == _DOT
        if not (is_digit | is_dot | (byte == _NL)).all():
            return None
        mantissa = np.where(is_digit, mantissa * 10 + digit, mantissa)
        significant += is_digit & (mantissa > 0)
        decimals += is_digit & (dots > 0)
        dots += is_dot
    if ((dots > 1).any() or (buf[start] - _ZERO > 9).any() or (buf[end - 1] - _ZERO > 9).any()
            or (significant > _MAX_SIGNIFICANT).any() or (decimals >= _POW10.size).any()):
        return None
    return mantissa / _POW10[decimals]


def _read_canonical(path, fill_zero: bool) -> tuple[np.ndarray, date] | None:
    """Values and first day of a canonical series file, or None for any other file.

    Canonical is an optional UTF-8 BOM, the header ``date,value``, then rows
    ``YYYY-MM-DD,<digits>[.<digits>]`` each ending in LF, on strictly increasing
    calendar days (gaps only under ``fill_zero``), each value with at most 15
    significant digits.  On such a file the result is the row parser's, bit for
    bit; every other file, valid or not, is left to the row parser and its errors.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    head = len(_BOM) if raw.startswith(_BOM) else 0
    if not raw.startswith(_HEADER, head) or not raw.endswith(b"\n"):
        return None
    buf = np.frombuffer(raw, dtype=np.uint8)
    # row i runs from newlines[i] + 1 up to its own newline, newlines[i + 1];
    # int32 offsets, with headroom for the decoder's offsets past a row start
    newlines = np.flatnonzero(buf == _NL).astype(np.int32 if buf.size < 2**30 else np.int64)
    rows = newlines.size - 1
    if rows < 1:
        return None
    days = np.empty(rows, dtype=np.int32)
    values = np.empty(rows)
    for lo in range(0, rows, _ROWS_PER_CHUNK):
        hi = min(lo + _ROWS_PER_CHUNK, rows)
        start, end = newlines[lo:hi] + 1, newlines[lo + 1:hi + 1]
        if (end - start < 12).any():            # 'YYYY-MM-DD,' plus one value byte
            return None
        day = _days(buf, start)
        value = None if day is None else _decimals(buf, start + 11, end)
        if value is None:
            return None
        days[lo:hi], values[lo:hi] = day, value
    step = np.diff(days)
    if (step < 1).any() or (not fill_zero and (step > 1).any()):
        return None
    span = int(days[-1]) - int(days[0]) + 1
    if span > rows:
        filled = np.zeros(span)
        filled[days - days[0]] = values
        values = filled
    return values, np.datetime64(int(days[0]), "D").item()


def _read_rows(path, fill_zero: bool) -> tuple[np.ndarray, date]:
    """Values and first day of any series file, parsed row by row, or ``IngestError``."""
    values: list[float] = []
    start: date | None = None
    prev: date | None = None
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        rows = _records(path, fh)
        _, header = next(rows, (None, None))
        if header is None or [c.strip().lower() for c in header] != ["date", "value"]:
            raise IngestError(f"{path}: expected header 'date,value', got {header!r}")
        for lineno, row in rows:
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
    return np.array(values), start


def ingest_timeseries(path, fill_zero: bool = False) -> tuple[TimeSeries, DayGrid]:
    """Read a ``date,value`` CSV into a contiguous daily series.

    Dates must be ``YYYY-MM-DD`` and strictly increasing, one row per day.
    A missing day is an error naming the first gap unless ``fill_zero``,
    which inserts 0.0 for every skipped day.  Values must be non-negative
    finite reals.  A leading UTF-8 byte-order mark is skipped.  A canonical
    file is read by a vectorized parser; any other goes row by row, and only
    the row parser reports errors.
    """
    values, start = _read_canonical(path, fill_zero) or _read_rows(path, fill_zero)
    return TimeSeries(values=values), DayGrid(start=start, length=values.size)


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
        for lineno, line in enumerate(_decoded(path, fh), start=1):
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
