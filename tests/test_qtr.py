import csv
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from peca.qtr import QTR_COLUMNS, QtrTable, write_qtr_csv, write_qtr_svg


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


def test_zero_events_rejected():
    with pytest.raises(ValueError, match="at least one event"):
        small_table(n_events=0)


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
    write_qtr_csv(t, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert tuple(rows[0].keys()) == QTR_COLUMNS
    assert len(rows) == 3
    assert float(rows[1]["observed_rate"]) == 0.45
    assert int(rows[2]["observed_count"]) == 2
    # repr round-trips floats exactly
    assert float(rows[0]["expected_rate"]) == t.expected_rates[0]


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


def test_svg_title_escaped(tmp_path):
    t = small_table()
    path = tmp_path / "t.svg"
    write_qtr_svg(t, path, title="a < b & c")
    ET.parse(path)  # parses only if special characters were escaped
