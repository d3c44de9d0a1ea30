import csv
import dataclasses
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from peca.multi import BAND_LEVEL
from peca.qtr import _CSV_ROWS, QtrTable, write_csv, write_qtr_svg


def small_table(n_events=20):
    return QtrTable(
        levels=np.array([0.8, 0.9, 1.0]),
        thresholds=np.array([2.0, 3.0, 4.5]),
        observed_counts=np.array([15, 9, 2]),
        n_events=n_events,
        expected_rates=np.array([0.7, 0.4, 0.1]),
        band_lower_rates=np.array([0.5, 0.2, 0.0]),
        band_upper_rates=np.array([0.9, 0.6, 0.3]),
    )


def test_observed_rates():
    t = small_table()
    np.testing.assert_allclose(t.observed_rates, [0.75, 0.45, 0.10])


@pytest.mark.parametrize("column", ["levels", "thresholds", "expected_rates",
                                    "band_lower_rates", "band_upper_rates"])
def test_negative_infinity_in_a_column_rejected(column):
    # no CSV cell or SVG point can then read -inf; tests/test_counts.py tries nan and inf
    table = small_table()
    values = getattr(table, column).copy()
    values[1] = -np.inf
    with pytest.raises(ValueError, match=f"^{column.replace('_', ' ')} must be finite$"):
        dataclasses.replace(table, **{column: values})


def test_empty_table_rejected():
    empty = np.array([])
    with pytest.raises(ValueError, match="^QTR table needs at least one row$"):
        QtrTable(levels=empty, thresholds=empty, observed_counts=empty, n_events=5,
                 expected_rates=empty, band_lower_rates=empty, band_upper_rates=empty)


def test_monotonicity_enforced():
    with pytest.raises(ValueError):
        QtrTable(
            levels=np.array([0.8, 0.9]),
            thresholds=np.array([2.0, 3.0]),
            observed_counts=np.array([3, 7]),
            n_events=10,
            expected_rates=np.array([0.5, 0.3]),
            band_lower_rates=np.array([0.1, 0.0]),
            band_upper_rates=np.array([0.8, 0.6]),
        )


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        QtrTable(
            levels=np.array([0.8, 0.9]),
            thresholds=np.array([2.0]),
            observed_counts=np.array([3, 2]),
            n_events=10,
            expected_rates=np.array([0.5, 0.3]),
            band_lower_rates=np.array([0.1, 0.0]),
            band_upper_rates=np.array([0.8, 0.6]),
        )


def test_csv_layout_and_roundtrip(tmp_path):
    t = small_table()
    path = tmp_path / "qtr.csv"
    write_csv(path, t.columns)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    # the header is a file format: spelled out, not read back from `columns`
    assert tuple(rows[0].keys()) == ("quantile_level", "threshold", "observed_count",
                                     "observed_rate", "expected_rate", "band_lower_rate",
                                     "band_upper_rate")
    assert len(rows) == 3
    assert float(rows[1]["observed_rate"]) == 0.45
    assert int(rows[2]["observed_count"]) == 2
    # repr round-trips floats exactly
    assert float(rows[0]["expected_rate"]) == t.expected_rates[0]


def test_write_csv_mixed_columns(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, {"rate": np.array([0.1, 1.0, 1e-20, float("inf")]),
                     "count": np.array([3, -2, 0, 2**40], dtype=np.int64),
                     "level": [0.75, 0.5, 2.0, 0.0]})
    assert path.read_bytes() == (b"rate,count,level\n0.1,3,0.75\n1.0,-2,0.5\n"
                                 b"1e-20,0,2.0\ninf,1099511627776,0.0\n")


def replicate_columns(rows):
    return {"replicate": np.arange(rows), "nll": np.random.default_rng(3).gamma(5.0, 2.0, rows)}


@pytest.mark.parametrize("rows", [0, _CSV_ROWS - 1, _CSV_ROWS, _CSV_ROWS + 1])
def test_write_csv_writes_the_rows_of_one_joined_text(tmp_path, rows):
    # the blocks of rows add up to the text of every row joined at once
    columns = replicate_columns(rows)
    path = tmp_path / "t.csv"
    write_csv(path, columns)
    cells = zip(*(map(repr, a.tolist()) for a in columns.values()))
    assert path.read_bytes() == "\n".join(["replicate,nll", *map(",".join, cells), ""]).encode()


def test_write_csv_holds_one_block_of_rows(tmp_path):
    # a 2**16-row replicate table peaks at about 0.11 times the size of its file here;
    # formatting every row before the first write took 6.3 times
    columns = replicate_columns(1 << 16)
    path = tmp_path / "t.csv"
    write_csv(path, columns)
    tracemalloc.start()
    try:
        write_csv(path, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4


@pytest.mark.parametrize("columns", [
    {"a": np.arange(3), "b": np.arange(4.0)},
    {"a": np.arange(4).reshape(2, 2)},
    {"a": np.float64(1.0)},
], ids=["unequal", "2-d", "0-d"])
def test_write_csv_refuses_ragged_columns(tmp_path, columns):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="1-D and of one length"):
        write_csv(path, columns)
    assert not path.exists()


def test_svg_is_wellformed_and_deterministic(tmp_path):
    t = small_table()
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    write_qtr_svg(t, p1, title="demo")
    write_qtr_svg(t, p2, title="demo")
    assert p1.read_bytes() == p2.read_bytes()
    root = ET.parse(p1).getroot()
    assert root.tag.endswith("svg")
    body = p1.read_text()
    assert "demo" in body
    # observed curve, expected curve, and the band polygon are all present
    assert body.count("polyline") >= 2
    assert "polygon" in body
    # the legend names the level of the band multi computes
    assert f'font-size="12">{BAND_LEVEL:.0%} null band</text>' in body


def test_svg_title_escaped(tmp_path):
    t = small_table()
    path = tmp_path / "t.svg"
    write_qtr_svg(t, path, title="a < b & c")
    ET.parse(path)  # parses only if special characters were escaped


def test_svg_title_reads_back(tmp_path):
    path = tmp_path / "t.svg"
    write_qtr_svg(small_table(), path, title="a&b<c>")
    assert "a&amp;b&lt;c&gt;" in path.read_text()
    texts = [el.text for el in ET.parse(path).getroot().iter() if el.tag.endswith("text")]
    assert texts[0] == "a&b<c>"
