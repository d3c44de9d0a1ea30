"""CSV ingestion against small handwritten files, and the fast path against the row parser."""

import datetime
import json
import math
import os
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from peca import cli, ingest
from peca.ingest import DayGrid, IngestError, ingest_events, ingest_timeseries
from shared import SERIES_HEAD, run_cli, series_text, write_inputs


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


@pytest.fixture
def parse_only(monkeypatch):
    """No file is ever old enough for a sidecar, so every read of a series file parses it."""
    monkeypatch.setattr(ingest, "_SETTLE_NS", math.inf)


@pytest.fixture
def settled(monkeypatch):
    """Every file is old enough for a sidecar, so the second read of a file can hit it."""
    monkeypatch.setattr(ingest, "_SETTLE_NS", 0)


def test_basic_series(tmp_path):
    p = write(tmp_path, "s.csv", series_text("2020-01-01", [0, 3, 12]))
    x, grid = ingest_timeseries(p)
    assert x.values.tolist() == [0.0, 3.0, 12.0]
    assert grid.start == datetime.date(2020, 1, 1)
    assert grid.length == 3
    assert grid.end == datetime.date(2020, 1, 3)


def test_three_year_grid_length(tmp_path):
    # 2016 is a leap year, so three calendar years span 1096 days
    n = (datetime.date(2017, 12, 31) - datetime.date(2015, 1, 1)).days + 1
    assert n == 1096
    p = write(tmp_path, "s.csv", series_text("2015-01-01", [1] * n))
    x, grid = ingest_timeseries(p)
    assert x.length == 1096
    assert grid.end == datetime.date(2017, 12, 31)


def test_gap_rejected_and_fill_zero(tmp_path):
    text = SERIES_HEAD + "2020-01-01,5\n2020-01-04,7\n"
    p = write(tmp_path, "s.csv", text)
    with pytest.raises(IngestError, match="2020-01-02"):
        ingest_timeseries(p)
    x, grid = ingest_timeseries(p, fill_zero=True)
    assert x.values.tolist() == [5.0, 0.0, 0.0, 7.0]
    assert grid.length == 4


def test_duplicate_and_out_of_order_rejected(tmp_path):
    dup = write(tmp_path, "d.csv", SERIES_HEAD + "2020-01-01,1\n2020-01-01,2\n")
    with pytest.raises(IngestError):
        ingest_timeseries(dup)
    rev = write(tmp_path, "r.csv", SERIES_HEAD + "2020-01-02,1\n2020-01-01,2\n")
    with pytest.raises(IngestError):
        ingest_timeseries(rev)


def test_malformed_rows_carry_line_numbers(tmp_path):
    bad_header = write(tmp_path, "h.csv", "day,value\n2020-01-01,1\n")
    with pytest.raises(IngestError):
        ingest_timeseries(bad_header)
    bad_value = write(tmp_path, "v.csv", SERIES_HEAD + "2020-01-01,ten\n")
    with pytest.raises(IngestError, match=":2"):
        ingest_timeseries(bad_value)
    for i, text in enumerate(("01/02/2020", "20200101")):
        bad_date = write(tmp_path, f"b{i}.csv", SERIES_HEAD + f"{text},1\n")
        with pytest.raises(IngestError, match=f":2: unparseable date '{text}'"):
            ingest_timeseries(bad_date)
    negative = write(tmp_path, "n.csv", SERIES_HEAD + "2020-01-01,-3\n")
    with pytest.raises(IngestError):
        ingest_timeseries(negative)


def test_line_numbers_count_physical_lines(tmp_path):
    # a quoted field may span lines; later errors still name the line they are on
    quoted = write(tmp_path, "q.csv", SERIES_HEAD + '"2020-01-01\n",1\n2020-01-02,x\n')
    with pytest.raises(IngestError, match=r"q\.csv:4: unparseable value 'x'$"):
        ingest_timeseries(quoted)
    blank = write(tmp_path, "b.csv", SERIES_HEAD + '\n2020-01-01,"1\n\n"\n\n2020-01-01,2\n')
    with pytest.raises(IngestError, match=r"b\.csv:7: duplicate date 2020-01-01$"):
        ingest_timeseries(blank)


def test_header_tolerates_case_and_spaces(tmp_path):
    p = write(tmp_path, "s.csv", " Date , VALUE \n2020-01-01,2\n")
    x, _ = ingest_timeseries(p)
    assert x.values.tolist() == [2.0]


def test_empty_series_rejected(tmp_path):
    p = write(tmp_path, "s.csv", SERIES_HEAD)
    with pytest.raises(IngestError):
        ingest_timeseries(p)


EVENT_DATES = [
    "2015-01-07", "2015-11-13", "2015-12-02", "2016-03-22", "2016-06-12",
    "2016-07-14", "2016-07-24", "2016-09-17", "2016-11-28", "2016-12-19",
    "2017-03-22", "2017-04-07", "2017-05-22", "2017-06-03", "2017-08-17",
    "2017-09-15", "2017-10-31",
]


def test_events_against_three_year_grid(tmp_path):
    grid = DayGrid(datetime.date(2015, 1, 1), 1096)
    p = write(tmp_path, "e.txt", "\n".join(EVENT_DATES) + "\n")
    e, warnings = ingest_events(p, grid)
    assert e.n_events == 17
    assert e.length == 1096
    assert warnings == []
    assert e.occurrences[0] == 7          # jan 7 is day 7 of the grid
    assert e.occurrences[-1] == 1035


def test_event_blank_lines_skipped(tmp_path):
    grid = DayGrid(datetime.date(2020, 1, 1), 31)
    p = write(tmp_path, "e.txt", "2020-01-05\n\n2020-01-09\n\n")
    e, warnings = ingest_events(p, grid)
    assert e.occurrences.tolist() == [5, 9]
    assert warnings == []


def test_event_duplicates_collapse_with_warning(tmp_path):
    grid = DayGrid(datetime.date(2020, 1, 1), 31)
    p = write(tmp_path, "e.txt", "2020-01-05\n2020-01-05\n")
    e, warnings = ingest_events(p, grid)
    assert e.n_events == 1
    assert len(warnings) == 1
    assert "2020-01-05" in warnings[0]


def test_event_outside_grid_named_in_error(tmp_path):
    grid = DayGrid(datetime.date(2020, 1, 1), 31)
    p = write(tmp_path, "e.txt", "2020-02-05\n")
    with pytest.raises(IngestError, match="2020-02-05"):
        ingest_events(p, grid)


def test_empty_event_file_warns(tmp_path):
    grid = DayGrid(datetime.date(2020, 1, 1), 31)
    p = write(tmp_path, "e.txt", "\n")
    e, warnings = ingest_events(p, grid)
    assert e.n_events == 0
    assert len(warnings) == 1


def test_unparseable_event_date(tmp_path):
    grid = DayGrid(datetime.date(2020, 1, 1), 31)
    # only YYYY-MM-DD: no basic or week-date ISO forms, whatever the Python version
    for i, text in enumerate(("Jan 5, 2020", "2020-W01-3", "20191231")):
        p = write(tmp_path, f"e{i}.txt", f"{text}\n")
        with pytest.raises(IngestError, match=f":1: unparseable date '{text}'"):
            ingest_events(p, grid)


def test_day_grid_indexing():
    grid = DayGrid(datetime.date(2020, 1, 1), 10)
    assert grid.index(datetime.date(2020, 1, 1)) == 1
    assert grid.index(datetime.date(2020, 1, 10)) == 10
    assert grid.contains(datetime.date(2020, 1, 10))
    assert not grid.contains(datetime.date(2020, 1, 11))


def cli_error(argv):
    code, _, err = run_cli(argv)
    return code, json.loads(err)["error"]


def test_non_utf8_files_are_ingest_errors(tmp_path):
    series = tmp_path / "s.csv"
    series.write_bytes(b"date,value\n2020-01-01,1\n2020-01-02,\xff\n")
    with pytest.raises(IngestError, match=re.escape(f"{series}:3: not UTF-8 text (byte 0xff)")):
        ingest_timeseries(series)
    events = tmp_path / "e.txt"
    events.write_bytes(b"\xef\xbb\xbf2020-01-01\n\n2020-01-\xff2\n")
    with pytest.raises(IngestError, match=re.escape(f"{events}:3: not UTF-8 text (byte 0xff)")):
        ingest_events(events, DayGrid(datetime.date(2020, 1, 1), 31))
    good_series = write(tmp_path, "g.csv", series_text("2020-01-01", [1, 2, 3]))
    args = ("--delta", 1, "--quantile", 0.5)
    for s, e in ((series, events), (good_series, events)):
        code, error = cli_error(["pointwise", "--series", s, "--events", e, *args])
        assert code == 1
        assert error["category"] == "ingest"
        assert error["message"].endswith("not UTF-8 text (byte 0xff)")


def test_a_file_that_is_not_utf8_is_reported_as_such(tmp_path):
    # a bad byte past the first 8 KiB still wins over an earlier malformed row
    rows = "".join(f"{datetime.date(2000, 1, 1) + datetime.timedelta(days=i)},{i}\n"
                   for i in range(1, 2000))
    series = tmp_path / "s.csv"
    series.write_bytes(f"{SERIES_HEAD}2000-01-01,1,2\n{rows}".encode() + b"2005-06-23,\xff\n")
    assert series.stat().st_size > 8192
    with pytest.raises(IngestError, match=re.escape(f"{series}:2002: not UTF-8 text (byte 0xff)")):
        ingest_timeseries(series)
    events = tmp_path / "e.txt"
    events.write_bytes(b"Jan 5\n" + b"2000-01-01\n" * 1000 + b"\xff\n")
    with pytest.raises(IngestError, match=re.escape(f"{events}:1002: not UTF-8 text (byte 0xff)")):
        ingest_events(events, DayGrid(datetime.date(2000, 1, 1), 31))


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
def test_event_line_endings(tmp_path, eol):
    grid = DayGrid(datetime.date(2020, 1, 1), 31)
    p = tmp_path / "e.txt"
    p.write_bytes(("\ufeff" + eol.join(["2020-01-05", "", "2020-01-09", "2020-01-05", ""])).encode())
    e, warnings = ingest_events(p, grid)
    assert e.occurrences.tolist() == [5, 9]
    assert warnings == ["collapsed duplicate event date(s): 2020-01-05"]
    p.write_bytes(eol.join(["2020-01-05", "", "2020-02-09"]).encode())
    with pytest.raises(IngestError, match=re.escape(f"{p}:3: event date 2020-02-09 outside")):
        ingest_events(p, grid)


def test_oversized_field_is_an_ingest_error(tmp_path):
    limit = 131072                         # the csv module's default field_size_limit
    big = "1" * (limit + 1)
    series = write(tmp_path, "s.csv", SERIES_HEAD + f"2020-01-01,1\n2020-01-02,{big}\n")
    events = write(tmp_path, "e.txt", "2020-01-01\n")
    code, error = cli_error(["pointwise", "--series", series, "--events", events,
                             "--delta", 1, "--quantile", 0.5])
    assert code == 1
    assert error == {"category": "ingest",
                     "message": f"{series}:3: field larger than field limit ({limit})"}


@pytest.mark.usefixtures("parse_only")
def test_fast_path_reads_canonical_files(tmp_path, monkeypatch):
    def refuse(path, text, fill_zero):
        raise AssertionError(f"the row parser ran on {path}")

    monkeypatch.setattr(ingest, "_read_rows", refuse)
    # the benchmark's shape: integer counts on consecutive days, LF rows
    counts = np.random.default_rng(7).poisson(20, size=1 << 16)
    p = write(tmp_path, "counts.csv", series_text("2000-01-01", counts))
    x, grid = ingest_timeseries(p)
    assert x.values.tobytes() == counts.astype(np.float64).tobytes()
    assert grid == DayGrid(datetime.date(2000, 1, 1), 1 << 16)
    # decimals, a leap day skipped and a two-day gap, under fill_zero
    p = write(tmp_path, "decimals.csv",
              SERIES_HEAD + "2000-02-28,0.1\n2000-03-01,12.345678901234\n2000-03-04,007.50\n")
    x, grid = ingest_timeseries(p, fill_zero=True)
    assert x.values.tolist() == [0.1, 0.0, 12.345678901234, 0.0, 0.0, 7.5]
    assert grid == DayGrid(datetime.date(2000, 2, 28), 6)


def both_readers(data, fill_zero=False):
    """The fast path's and the row parser's readings of a file's bytes (the row parser's
    None where it raises), once checked that wherever the fast path reads a file, it reads
    it bit for bit as the row parser does."""
    fast = ingest._read_canonical(data + bytes(ingest._SPARE), fill_zero)
    try:
        rows = ingest._read_rows("s.csv", data, fill_zero)
    except IngestError:
        rows = None
    if fast is not None:
        assert rows is not None
        assert fast[0].tobytes() == rows[0].tobytes() and fast[1] == rows[1]
    return fast, rows


@pytest.mark.parametrize("year", [0, 1, 4, 1900, 2000, 2100, 9999])
def test_every_month_and_day_reads_as_the_row_parser_reads_it(year):
    texts = [f"{year:04}-{month:02}-{day:02}" for month in range(100) for day in range(100)]
    # each row's first 16 bytes, as the fast path gathers them: 'YYYY-MM-' and 'DD,7\n...'
    words = np.frombuffer("".join(f"{t},7\n\0\0\0" for t in texts).encode(), dtype="<u8")
    days, ok = ingest._days(words[0::2], words[1::2])
    valid = []
    for text, day, good in zip(texts, days.tolist(), ok.tolist()):
        try:
            _, start = ingest._read_rows("s.csv", f"{SERIES_HEAD}{text},7\n".encode(), False)
        except IngestError:
            assert not good, text
            continue
        assert good and day == (start - datetime.date(1970, 1, 1)).days, text
        valid.append(text)
    assert len(valid) == {0: 0, 4: 366, 2000: 366}.get(year, 365)
    # the whole year as one file, which the fast path reads
    data = "".join(f"{text},{i}\n" for i, text in enumerate(valid))
    assert (both_readers((SERIES_HEAD + data).encode())[0] is not None) == (year != 0)


CANONICAL_ROW = re.compile(rb"[0-9]{4}-[0-9]{2}-[0-9]{2},[0-9]+(\.[0-9]+)?\n")


@pytest.mark.parametrize("column", range(15))
def test_any_byte_at_any_column_is_read_as_the_row_parser_reads_it(column):
    # every byte value at each column of a row, look-alikes of the separators
    # and the digits among them: the fast path reads exactly the canonical rows
    read = []
    for byte in range(256):
        row = bytearray(b"2000-12-31,4.5\n")
        row[column] = byte
        fast, rows = both_readers(SERIES_HEAD.encode() + row)
        canonical = rows is not None and CANONICAL_ROW.fullmatch(row) is not None
        assert (fast is not None) == canonical, (column, byte)
        read += [chr(byte)] * canonical
    digits = {0: "123456789", 1: "0123456789", 2: "0123456789", 3: "0123456789", 5: "1",
              6: "02", 8: "0123", 9: "01", 11: "0123456789", 12: ".0123456789", 13: "0123456789"}
    assert "".join(read) == digits.get(column, chr(b"2000-12-31,4.5\n"[column]))


@pytest.mark.parametrize("width", [7, 8, 9, 15, 16, 17, 31, 32, 33])
def test_values_up_to_and_past_the_widest_the_fast_path_reads(width):
    values = {"0" * (width - 1) + "7": width <= 32,
              "0" * (width - 4) + "1.25": width <= 32,
              "9" * width: width <= 15,
              "1." + "0" * (width - 3) + "1": width <= 16,
              "." + "0" * (width - 2) + "5": False,
              "0" * (width - 2) + "5.": False,
              "0" * (width - 5) + "1.2.3": False}
    for value, fast_reads in values.items():
        assert len(value) == width
        fast, rows = both_readers(f"{SERIES_HEAD}2000-01-01,{value}\n".encode())
        assert (fast is not None) == fast_reads, value
        assert (rows is None) == (value.count(".") > 1), value
    # rows of every width in one file, a minimal row last: its later words read past the end
    readable = [v for v, fast_reads in values.items() if fast_reads]
    data = series_text("2000-01-01", [*readable, "3", *readable, "4"]).encode()
    assert data.endswith(b",4\n")
    assert both_readers(data)[0] is not None


def test_bom_and_gaps_on_the_fast_path():
    text = SERIES_HEAD + "2000-01-01,1\n2000-01-02,2.5\n2000-01-05,0\n2000-03-01,7\n"
    for data in (text.encode(), b"\xef\xbb\xbf" + text.encode()):
        fast, rows = both_readers(data, fill_zero=True)
        assert fast is not None and fast[0].size == 61 and fast[1] == datetime.date(2000, 1, 1)
        assert fast[0][[0, 1, 2, 3, 4, 60]].tolist() == [1.0, 2.5, 0.0, 0.0, 0.0, 7.0]
        assert both_readers(data, fill_zero=False) == (None, None)


@pytest.mark.usefixtures("parse_only")
def test_ingest_holds_one_copy_of_the_file(tmp_path):
    # at peak a 2**16-row file takes its buffer, the row offsets and one chunk of word
    # temporaries, about 5.3 times its size here; a second copy of its bytes adds one more
    counts = np.random.default_rng(7).poisson(20, size=1 << 16)
    p = write(tmp_path, "counts.csv", series_text("2000-01-01", counts))
    ingest_timeseries(p)
    tracemalloc.start()
    try:
        x, _ = ingest_timeseries(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.values.tobytes() == counts.astype(np.float64).tobytes()
    assert peak < 5.7 * p.stat().st_size


@pytest.mark.usefixtures("parse_only")
def test_row_parser_holds_the_text_a_chunk_at_a_time(tmp_path):
    # CRLF endings send a 2**16-row file to the row parser: at peak it holds the buffer, a
    # copy of its bytes and the parsed floats, about 4.2 times its size here; the text of the
    # whole file as 4-byte characters, as a StringIO holds it, adds four more
    counts = np.random.default_rng(7).poisson(20, size=1 << 16)
    p = tmp_path / "counts.csv"
    p.write_bytes(series_text("2000-01-01", counts).replace("\n", "\r\n").encode())
    ingest_timeseries(p)
    tracemalloc.start()
    try:
        x, _ = ingest_timeseries(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.values.tobytes() == counts.astype(np.float64).tobytes()
    assert peak < 6 * p.stat().st_size


@pytest.mark.usefixtures("settled")
def test_series_from_a_pipe(tmp_path):
    # a FIFO reports size 0: the read continues past it, and its values get no sidecar
    fifo = tmp_path / "series.fifo"
    os.mkfifo(fifo)
    text = series_text("2020-01-01", [0, 3, 12])
    writer = threading.Thread(target=fifo.write_text, args=(text,))
    writer.start()
    try:
        x, grid = ingest_timeseries(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert x.values.tolist() == [0.0, 3.0, 12.0] and grid == DayGrid(datetime.date(2020, 1, 1), 3)
    assert sorted(os.listdir(tmp_path)) == ["series.fifo"]


ODD_DATES = ["2000-02-29", "1900-02-29", "2100-02-29", "0001-01-01", "9999-12-31",
             "0000-01-01", "2000-00-10", "2000-13-01", "2000-01-00", "2000-01-32",
             "2000-1-1", "2000-01-01T00", " 2000-01-01", '"2000-01-01"', "2000-01-0\u0663"]
ODD_VALUES = ["nan", "inf", "-0", "1e3", "1_000", " 5", "5 ", '"5"', ".5", "5.", "1.2.3", "",
              "-1", "+1", "0x10", "\u0663", "0.0000000000000000000001", "0.00000000000000000000001"]


@st.composite
def decimals(draw):
    """``<digits>[.<digits>]`` texts, many of them with 15 to 17 significant digits."""
    digits = draw(st.text("0123456789", min_size=1, max_size=18)
                  | st.integers(10**14, 10**17 - 1).map(str))
    dot = draw(st.integers(0, len(digits) - 1))
    text = digits if dot == 0 else f"{digits[:dot]}.{digits[dot:]}"
    return "0" * draw(st.integers(0, 2)) + text


@st.composite
def series_files(draw):
    """Series CSVs: canonical ones, and ones with forms only the row parser takes."""
    odd = draw(st.booleans())

    def sometimes(choices, default, one_in):
        if odd and draw(st.integers(1, one_in)) == 1:
            return draw(st.sampled_from(choices))
        return default

    day = draw(st.sampled_from([datetime.date(1, 1, 1), datetime.date(1900, 2, 27),
                                datetime.date(2000, 2, 27), datetime.date(9999, 12, 30)])
               | st.dates(datetime.date(1, 1, 1), datetime.date(9999, 12, 31)))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        value = draw(st.integers(0, 10**6).map(str) | decimals()
                     | st.sampled_from(["0", "7", "1.5"]))
        rows.append(f"{sometimes(ODD_DATES, day.isoformat(), 4)},{sometimes(ODD_VALUES, value, 4)}")
        rows.extend(sometimes([[""], [" "], [","], ["2000-01-01,1,2"]], [], 6))
        try:
            day += datetime.timedelta(days=draw(st.sampled_from([1, 1, 1, 1, 2, 3, 0, -1])))
        except OverflowError:
            break
    header = sometimes(["Date,Value", " date , value ", "value,date"], "date,value", 4)
    eol = sometimes(["\r\n", "\r"], "\n", 3)
    text = eol.join([header, *rows]) + sometimes(["", eol + eol, eol + " "], eol, 3)
    data = draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + text.encode("utf-8")
    if sometimes([True], False, 10):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data, draw(st.booleans())


@pytest.mark.usefixtures("parse_only")
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(series_files())
def test_fast_path_agrees_with_row_parser(tmp_path, case):
    data, fill_zero = case
    p = tmp_path / "s.csv"
    p.write_bytes(data)
    fast = ingest._read_canonical(data + bytes(ingest._SPARE), fill_zero)
    try:
        values, start = ingest._read_rows(p, data, fill_zero)
    except IngestError as exc:
        assert fast is None
        with pytest.raises(IngestError) as got:
            ingest_timeseries(p, fill_zero)
        assert str(got.value) == str(exc)
        return
    x, grid = ingest_timeseries(p, fill_zero)
    assert x.values.tobytes() == values.tobytes()
    assert grid == DayGrid(start, values.size)
    assert fast is None or (fast[0].tobytes() == values.tobytes() and fast[1] == start)


def sidecar(p):
    return p.parent / f".{p.name}.peca-cache"


def count_parses(monkeypatch):
    """A list that gains one entry per parse of a series file: every parse tries the fast path first."""
    parses, read = [], ingest._read_canonical

    def counted(buf, fill_zero):
        parses.append(fill_zero)
        return read(buf, fill_zero)

    monkeypatch.setattr(ingest, "_read_canonical", counted)
    return parses


def hit(monkeypatch, p, fill_zero=False):
    """``ingest_timeseries(p, fill_zero)`` with both parsers refusing to run."""
    def refuse(*args):
        raise AssertionError(f"{p} was parsed")

    with monkeypatch.context() as m:
        m.setattr(ingest, "_read_canonical", refuse)
        m.setattr(ingest, "_read_rows", refuse)
        return ingest_timeseries(p, fill_zero)


SIDECAR_FILES = {
    "canonical": (series_text("2000-02-27", ["0.1", 12, "007.50", 3]).encode(), False),
    "bom": (b"\xef\xbb\xbf" + series_text("1999-12-31", [1, 2, "2.5"]).encode(), False),
    "gaps": (f"{SERIES_HEAD}2000-02-28,4\n2000-03-01,1.5\n2000-03-04,7\n".encode(), True),
    "crlf": (series_text("2020-01-01", [5, "0.25", 9]).replace("\n", "\r\n").encode(), False),
}


@pytest.mark.usefixtures("settled")
@pytest.mark.parametrize("name", SIDECAR_FILES)
def test_a_sidecar_hit_is_the_parse_bit_for_bit(tmp_path, monkeypatch, name):
    data, fill_zero = SIDECAR_FILES[name]
    p = tmp_path / "s.csv"
    p.write_bytes(data)
    parsed, parsed_grid = ingest_timeseries(p, fill_zero)
    assert sidecar(p).exists()
    x, grid = hit(monkeypatch, p, fill_zero)
    assert x.values.tobytes() == parsed.values.tobytes() and grid == parsed_grid
    assert sorted(os.listdir(tmp_path)) == [sidecar(p).name, "s.csv"]


@pytest.mark.usefixtures("settled")
@pytest.mark.parametrize("change", ["rewrite", "fill_zero", "truncated", "extended", "magic",
                                    "parser", "zeroed"])
def test_a_stale_or_damaged_sidecar_is_a_miss_that_rewrites_it(tmp_path, monkeypatch, change):
    p = write(tmp_path, "s.csv", series_text("2020-01-01", [10, 20, 30]))
    ingest_timeseries(p)
    fill_zero, expected = False, [10.0, 20.0, 30.0]
    if change == "rewrite":
        # the same size, one digit changed, and a distinct mtime: no race with the timestamp tick
        before = p.stat()
        p.write_text(series_text("2020-01-01", [10, 25, 30]), encoding="utf-8")
        os.utime(p, ns=(before.st_atime_ns, before.st_mtime_ns - 10**9))
        assert p.stat().st_size == before.st_size
        expected = [10.0, 25.0, 30.0]
    elif change == "fill_zero":
        fill_zero = True
    else:
        # "parser": written by other parsing code; "zeroed": values lost in a crash
        data, head = sidecar(p).read_bytes(), ingest._CACHE_HEAD.size
        other = ingest._cache_magic(Path(ingest.__file__).read_bytes() + b"\n# edited\n")
        sidecar(p).write_bytes({"truncated": data[:-1], "extended": data + bytes(8),
                                "magic": b"X" + data[1:], "parser": other + data[16:],
                                "zeroed": data[:head] + bytes(len(data) - head)}[change])
    parses = count_parses(monkeypatch)
    x, _ = ingest_timeseries(p, fill_zero)
    assert parses == [fill_zero] and x.values.tolist() == expected
    x, _ = hit(monkeypatch, p, fill_zero)
    assert x.values.tolist() == expected


def test_the_sidecar_magic_follows_the_parser_code():
    source = Path(ingest.__file__).read_bytes()
    assert ingest._CACHE_MAGIC == ingest._cache_magic(source)
    assert len(ingest._CACHE_MAGIC) == 16
    assert ingest._cache_magic(source.replace(b"_SPARE = 8", b"_SPARE = 9")) != ingest._CACHE_MAGIC


@pytest.mark.usefixtures("settled")
def test_another_users_sidecar_is_ignored(tmp_path, monkeypatch):
    p = write(tmp_path, "s.csv", series_text("2020-01-01", [1, 2]))
    ingest_timeseries(p)
    assert sidecar(p).stat().st_uid == os.geteuid()
    monkeypatch.setattr(os, "geteuid", lambda: sidecar(p).stat().st_uid + 1)
    parses = count_parses(monkeypatch)
    x, _ = ingest_timeseries(p)
    assert parses == [False] and x.values.tolist() == [1.0, 2.0]


def test_no_sidecar_for_a_file_younger_than_the_settle_time(tmp_path, monkeypatch):
    p = write(tmp_path, "s.csv", series_text("2020-01-01", [1, 2]))
    ingest_timeseries(p)
    assert not sidecar(p).exists()
    changed = max(p.stat().st_mtime_ns, p.stat().st_ctime_ns)
    monkeypatch.setattr(ingest.time, "time_ns", lambda: changed + ingest._SETTLE_NS)
    ingest_timeseries(p)
    assert sidecar(p).exists()


@pytest.mark.usefixtures("settled")
def test_no_sidecar_for_a_file_that_changes_as_it_is_parsed(tmp_path, monkeypatch):
    p = write(tmp_path, "s.csv", series_text("2020-01-01", [1, 2]))
    read = ingest._read_canonical

    def touching(buf, fill_zero):
        os.utime(p, ns=(0, 10**9))
        return read(buf, fill_zero)

    monkeypatch.setattr(ingest, "_read_canonical", touching)
    x, _ = ingest_timeseries(p)
    assert x.values.tolist() == [1.0, 2.0]
    assert sorted(os.listdir(tmp_path)) == ["s.csv"]


@pytest.mark.usefixtures("settled")
def test_no_sidecar_through_a_link(tmp_path, monkeypatch):
    # the sidecar would lie beside the link, not the file: /dev/stdin would put it in /dev
    p = write(tmp_path, "s.csv", series_text("2020-01-01", [1, 2]))
    (tmp_path / "link.csv").symlink_to(p)
    parses = count_parses(monkeypatch)
    for _ in range(2):
        x, _ = ingest_timeseries(tmp_path / "link.csv")
        assert x.values.tolist() == [1.0, 2.0]
    assert parses == [False, False] and sorted(os.listdir(tmp_path)) == ["link.csv", "s.csv"]


@pytest.mark.usefixtures("settled")
def test_each_write_takes_a_temporary_of_its_own(tmp_path, monkeypatch):
    # a temporary left by a killed process, whose pid a later process may get, blocks no write
    temporaries, replace = [], os.replace

    def recorded(src, dst):
        temporaries.append(os.path.basename(src))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", recorded)
    p = write(tmp_path, "s.csv", series_text("2020-01-01", [1, 2]))
    for fill_zero in (False, True):
        ingest_timeseries(p, fill_zero)
    prefix = f"{sidecar(p).name}.{os.getpid()}-"
    assert len(set(temporaries)) == 2 and all(t.startswith(prefix) for t in temporaries)
    assert sorted(os.listdir(tmp_path)) == [sidecar(p).name, "s.csv"]


@pytest.mark.usefixtures("settled")
def test_no_sidecar_for_an_error(tmp_path):
    p = write(tmp_path, "s.csv", SERIES_HEAD + "2020-01-01,5\n2020-01-04,7\n")
    with pytest.raises(IngestError, match="missing day 2020-01-02"):
        ingest_timeseries(p)
    assert sorted(os.listdir(tmp_path)) == ["s.csv"]


@pytest.mark.usefixtures("settled")
def test_a_sidecar_that_cannot_be_written_is_left_out_silently(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", dst)

    monkeypatch.setattr(os, "replace", refuse)
    p = write(tmp_path, "s.csv", series_text("2020-01-01", [1, 2]))
    x, grid = ingest_timeseries(p)
    assert x.values.tolist() == [1.0, 2.0] and grid == DayGrid(datetime.date(2020, 1, 1), 2)
    assert sorted(os.listdir(tmp_path)) == ["s.csv"]


@pytest.mark.usefixtures("settled")
@pytest.mark.parametrize("command", [["pointwise", "--quantile", "0.95"],
                                     ["multi", "--m", "8", "--r", "200", "--qtr", "{}.csv",
                                      "--svg", "{}.svg"]])
def test_cli_writes_the_same_bytes_on_a_miss_and_a_hit(tmp_path, monkeypatch, command):
    rng = np.random.default_rng(3)
    values = rng.poisson(30, size=400)
    days = np.sort(rng.choice(390, size=12, replace=False))
    series, events = write_inputs(tmp_path, values, days, "2020-01-01", ("s.csv", "e.txt"))
    parses = count_parses(monkeypatch)
    outputs = []
    for run in ("miss", "hit"):
        argv = [a.format(tmp_path / run) for a in command]
        assert cli.main([*argv, "--series", str(series), "--events", str(events), "--delta", "3",
                         "--preprocess", "--out", str(tmp_path / f"{run}.json")]) == 0
        outputs.append([(tmp_path / f"{run}{ext}").read_bytes()
                        for ext in (".json", ".csv", ".svg") if (tmp_path / f"{run}{ext}").exists()])
    assert parses == [False] and sidecar(series).exists()
    assert outputs[0] == outputs[1] and len(outputs[0]) == (1 if command[0] == "pointwise" else 3)
