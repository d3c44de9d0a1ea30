"""Ingestion of daily CSV series and event date lists onto a shared day grid."""

from __future__ import annotations

import csv
import io
import math
import os
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


def _text(path, raw) -> str:
    """The UTF-8 text of a file's bytes (any bytes-like object), less one leading byte-order mark.

    A byte that is not UTF-8 raises ``IngestError`` naming its line.
    """
    try:
        text = str(raw, "utf-8")
    except UnicodeDecodeError as exc:
        line = bytes(raw[:exc.start]).count(b"\n") + 1
        raise IngestError(f"{path}:{line}: not UTF-8 text (byte 0x{raw[exc.start]:02x})") from exc
    return text[1:] if text.startswith("\ufeff") else text


def _records(path, text: str):
    """``(line, record)`` for the CSV records of ``text``, numbered by the
    physical line each starts on; a malformed one raises ``IngestError``."""
    reader = csv.reader(io.StringIO(text, newline=""))
    start = 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise IngestError(f"{path}:{reader.line_num}: {exc}") from exc


_BOM = b"\xef\xbb\xbf"
_HEADER = b"date,value\n"
_NL, _DOT, _ZERO = (np.uint8(ord(c)) for c in "\n.0")
# zero bytes past a file's end, which the words of its last row may read
_SPARE = 8
# XOR with these ('DD,' shifted to the last 3 bytes) leaves 0..9 in a digit byte and 0 in a
# separator; a digit plus 6 stays below 16, so the mask sees any other byte (a separator's in full)
_DATE, _DAY = (np.uint64(int.from_bytes(t, "little")) for t in (b"0000-00-", b"\0" * 5 + b"00,"))
_SIX, _MASK = np.uint64(0x0006060006060606), np.uint64(0xFFF0F0FFF0F0F0F0)
# days from 1970-01-01 to 1 January of each year 0000..9999, and its row of _DAY_OF_YEAR:
# 0 for a common year, 10000 for a leap year, 20000 for year 0, which has no days
_YEAR_START = (np.arange(10001) - 1970).astype("M8[Y]").astype("M8[D]").astype(np.int32)
_YEAR_ROW = np.where(np.diff(_YEAR_START) == 366, 10000, 0).astype(np.uint16)
_YEAR_ROW[0] = 20000
# at row + month * 100 + day, that day's place in its year from 0, or < 0 for no such day
_DAY_OF_YEAR = np.full(30000, -1, dtype=np.int16)
_DAY_OF_YEAR[[10000 + month * 100 + day for month, n in enumerate(
    [31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31], 1) for day in range(1, n + 1)]] = range(366)
_DAY_OF_YEAR[:10000] = _DAY_OF_YEAR[10000:20000] - (np.arange(10000) > 229)
_DAY_OF_YEAR[229] = -1
# 10**k for k = 0..22, all exact in float64 (5**22 < 2**53)
_POW10 = np.array([float(10**k) for k in range(23)])
# the widest value the digit loop reads; only leading zeros keep a wider one canonical
_MAX_VALUE_BYTES = 32
# rows decoded at a time, bounding the temporaries; at 2**16 multi's peak RSS grew by 4 MB
_ROWS_PER_CHUNK = 1 << 15


def _days(date: np.ndarray, day: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Days since 1970-01-01 of each row's words ``YYYY-MM-`` and ``DD,``, and whether
    the row has that shape and names a calendar day of year 1 or later."""
    date, day = date ^ _DATE, (day << 40) ^ _DAY
    date *= ((((date + _SIX) | date) | ((day + _SIX) | day)) & _MASK) == 0  # else year 0: no day
    date = date * 10 + (date >> 8)               # bytes 0, 2 and 5: 'YY', 'YY' and 'MM'
    day = day * 10 + (day >> 8)                  # byte 5: 'DD'
    year = (date & 0xFF) * 100 + (date >> 16 & 0xFF)
    of_year = _DAY_OF_YEAR[_YEAR_ROW[year] + ((date >> 40 & 0xFF) * 100 + (day >> 40 & 0xFF))]
    return _YEAR_START[year] + of_year, of_year >= 0


def _decimals(column: list[np.ndarray], width: np.ndarray) -> np.ndarray | None:
    """``float`` of each row's ``<digits>[.<digits>]``, byte j of which is ``column[j]`` for
    j < ``width``, or None.  With at most 15 significant digits and k <= 22 decimals, a
    field is N / 10**k with N < 2**53 and 10**k exact: one correctly rounded division,
    which is what ``float(text)`` returns, bit for bit (Clinger 1990)."""
    mantissa = (column[0] - _ZERO).astype(np.float64)    # N, exact while below 2**53
    digits, dots, decimals = (np.zeros(width.size, dtype=np.int8) for _ in range(3))
    for j in range(1, int(width.max())):
        byte = column[j] * (width > j)                   # 0, no digit or dot, past the field
        digit = byte - _ZERO
        is_digit = digit <= 9
        mantissa += is_digit * (mantissa * 9 + digit)    # N * 10 + digit, at a digit
        digits += is_digit
        decimals += is_digit & (dots > 0)
        dots += byte == _DOT
    # a digit, then digits and at most one dot with a digit after it; N < 10**15: 15 significant
    if ((column[0] - _ZERO > 9).any() or (digits + dots != width - 1).any() or (dots > 1).any()
            or ((dots == 1) & (decimals == 0)).any() or (decimals >= _POW10.size).any()
            or (mantissa >= 1e15).any()):
        return None
    return mantissa / _POW10[decimals]


def _read_canonical(buf, fill_zero: bool) -> tuple[np.ndarray, date] | None:
    """Values and first day of a canonical series file, or None for any other file.

    ``buf`` is the file's bytes, then ``_SPARE`` zero bytes.  Canonical is an optional
    UTF-8 BOM, the header ``date,value``, then rows ``YYYY-MM-DD,<digits>[.<digits>]``
    each ending in LF, on strictly increasing calendar days (gaps only under
    ``fill_zero``), each value with at most 15 significant digits.  On such a file the
    result is the row parser's, bit for bit; every other file, valid or not, is left to
    the row parser and its errors.  A row is read as the 8-byte words from its start,
    one gather per word: the first two, ``YYYY-MM-`` and ``DD,``, are checked a word at a
    time and give the day through calendar tables, and their other bytes hold the value.
    """
    size = len(buf) - _SPARE
    head = bytes(buf[:len(_BOM + _HEADER)])
    if buf[size - 1] != _NL or not head.startswith((_HEADER, _BOM + _HEADER)):
        return None
    # row i runs from newlines[i] + 1 up to its own newline, newlines[i + 1]; int32 offsets,
    # with headroom for the word offsets past a row start
    newlines = np.flatnonzero(np.frombuffer(buf, dtype=np.uint8, count=size) == _NL)
    newlines = newlines.astype(np.int32 if size < 2**30 else np.int64)
    rows = newlines.size - 1
    if rows < 1:
        return None
    words = np.ndarray((size + 1,), dtype="<u8", buffer=buf, strides=(1,))  # one per offset
    days, values = np.empty(rows, dtype=np.int32), np.empty(rows)
    for lo in range(0, rows, _ROWS_PER_CHUNK):
        hi = min(lo + _ROWS_PER_CHUNK, rows)
        start = newlines[lo:hi] + 1
        length = newlines[lo + 1:hi + 1] - start
        if length.min() < 12 or length.max() > 11 + _MAX_VALUE_BYTES:
            return None
        # a row's first two words lie in the buffer; later words past the file read the spare zeros
        row = [words[start + k if k < 16 else np.minimum(start + k, size)]
               for k in range(0, int(length.max()), 8)]
        day, ok = _days(row[0], row[1])
        value = _decimals([w.view(np.uint8)[b::8] for w in row for b in range(8)][11:], length - 11)
        if value is None or not ok.all():
            return None
        days[lo:hi], values[lo:hi] = day, value
    step = np.diff(days)
    if (step < 1).any() or (not fill_zero and (step > 1).any()):
        return None
    if fill_zero:                                # each skipped day reads 0.0, and 0.0 + v is v
        values = np.bincount(days - days[0], values)
    return values, np.datetime64(int(days[0]), "D").item()


def _read_rows(path, text: str, fill_zero: bool) -> tuple[np.ndarray, date]:
    """Values and first day of any series file's text, parsed row by row, or ``IngestError``."""
    values: list[float] = []
    start: date | None = None
    prev: date | None = None
    rows = _records(path, text)
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
    with open(path, "rb") as fh:                 # read once, into a buffer _SPARE bytes longer
        buf = np.zeros(os.fstat(fh.fileno()).st_size + _SPARE, dtype=np.uint8)
        got = fh.readinto(buf[:-_SPARE])
        rest = fh.read()
    if got < buf.size - _SPARE or rest:          # a pipe, or a file that changed as it was read
        buf = np.frombuffer(buf[:got].tobytes() + rest + bytes(_SPARE), dtype=np.uint8)
    values, start = _read_canonical(buf, fill_zero) or _read_rows(
        path, _text(path, buf[:-_SPARE]), fill_zero)
    del buf                                      # before TimeSeries copies the values
    return TimeSeries(values=values), DayGrid(start=start, length=values.size)


def ingest_events(path, grid: DayGrid) -> tuple[EventSeries, list[str]]:
    """Read one ``YYYY-MM-DD`` date per line and align to the day grid.

    Blank lines are skipped.  Duplicate dates collapse with a warning; a date
    outside the grid is an error naming it.  An empty file yields an empty
    event series plus a warning.  A leading UTF-8 byte-order mark is skipped.
    Lines end in LF, CRLF or CR.
    """
    warnings: list[str] = []
    seen: dict[int, date] = {}
    duplicates: list[str] = []
    with open(path, "rb") as fh:
        text = _text(path, fh.read())
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.strip()
        if not line:
            continue
        d = _parse_date(line, f"{path}:{lineno}")
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
