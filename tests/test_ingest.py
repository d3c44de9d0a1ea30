"""CSV ingestion against small handwritten files."""

import datetime

import pytest

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
