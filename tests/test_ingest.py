"""CSV ingestion against small handwritten files, and the fast path against the row parser."""

import contextlib
import datetime
import io
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from peca import cli, ingest
from peca.ingest import DayGrid, IngestError, ingest_events, ingest_timeseries

SERIES_HEAD = "date,value\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def daily_csv(start, values):
    d = datetime.date.fromisoformat(start)
    lines = [SERIES_HEAD]
    for v in values:
        lines.append(f"{d.isoformat()},{v}\n")
        d += datetime.timedelta(days=1)
    return "".join(lines)


def test_basic_series(tmp_path):
    p = write(tmp_path, "s.csv", daily_csv("2020-01-01", [0, 3, 12]))
    x, grid = ingest_timeseries(p)
    assert x.values.tolist() == [0.0, 3.0, 12.0]
    assert grid.start == datetime.date(2020, 1, 1)
    assert grid.length == 3
    assert grid.end == datetime.date(2020, 1, 3)


def test_three_year_grid_length(tmp_path):
    # 2016 is a leap year, so three calendar years span 1096 days
    n = (datetime.date(2017, 12, 31) - datetime.date(2015, 1, 1)).days + 1
    assert n == 1096
    p = write(tmp_path, "s.csv", daily_csv("2015-01-01", [1] * n))
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
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, json.loads(err.getvalue())["error"]


def test_non_utf8_files_are_ingest_errors(tmp_path):
    series = tmp_path / "s.csv"
    series.write_bytes(b"date,value\n2020-01-01,1\n2020-01-02,\xff\n")
    with pytest.raises(IngestError, match=re.escape(f"{series}:3: not UTF-8 text (byte 0xff)")):
        ingest_timeseries(series)
    events = tmp_path / "e.txt"
    events.write_bytes(b"\xef\xbb\xbf2020-01-01\n\n2020-01-\xff2\n")
    with pytest.raises(IngestError, match=re.escape(f"{events}:3: not UTF-8 text (byte 0xff)")):
        ingest_events(events, DayGrid(datetime.date(2020, 1, 1), 31))
    good_series = write(tmp_path, "g.csv", daily_csv("2020-01-01", [1, 2, 3]))
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


def test_fast_path_reads_canonical_files(tmp_path, monkeypatch):
    def refuse(path, text, fill_zero):
        raise AssertionError(f"the row parser ran on {path}")

    monkeypatch.setattr(ingest, "_read_rows", refuse)
    # the benchmark's shape: integer counts on consecutive days, LF rows
    counts = np.random.default_rng(7).poisson(20, size=1 << 16)
    dates = (np.datetime64("2000-01-01") + np.arange(counts.size)).astype(str)
    p = write(tmp_path, "counts.csv",
              SERIES_HEAD + "".join(f"{d},{c}\n" for d, c in zip(dates.tolist(), counts.tolist())))
    x, grid = ingest_timeseries(p)
    assert x.values.tobytes() == counts.astype(np.float64).tobytes()
    assert grid == DayGrid(datetime.date(2000, 1, 1), 1 << 16)
    # decimals, a leap day skipped and a two-day gap, under fill_zero
    p = write(tmp_path, "decimals.csv",
              SERIES_HEAD + "2000-02-28,0.1\n2000-03-01,12.345678901234\n2000-03-04,007.50\n")
    x, grid = ingest_timeseries(p, fill_zero=True)
    assert x.values.tolist() == [0.1, 0.0, 12.345678901234, 0.0, 0.0, 7.5]
    assert grid == DayGrid(datetime.date(2000, 2, 28), 6)


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


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(series_files())
def test_fast_path_agrees_with_row_parser(tmp_path, case):
    data, fill_zero = case
    p = tmp_path / "s.csv"
    p.write_bytes(data)
    fast = ingest._read_canonical(data, fill_zero)
    try:
        values, start = ingest._read_rows(p, ingest._text(p, data), fill_zero)
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
