"""End-to-end runs of the command line interface, in process and through ``python -m peca``."""

import csv
import dataclasses
import datetime
import io
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import peca.cli
from peca.cli import AnalysisConfig, run_multi, run_pointwise, run_simulate
from peca.ingest import ingest_events, ingest_timeseries
from peca.multi import null_nll_replicates
from peca.nulls import MIN_BLOCKS, GevParams
from peca.qtr import write_csv
from peca.sim import SimConfig, gen_dependent_events, gen_independent_events, gen_ma_exponential
from shared import SERIES_HEAD, run_cli, write_inputs


def write_dataset(directory):
    """400 days of Poisson counts with rare bursts, and 12 event dates, written into ``directory``."""
    rng = np.random.default_rng(42)
    n = 400
    values = rng.poisson(30, size=n) + (rng.random(n) < 0.05) * rng.poisson(200, size=n)
    days = sorted(rng.choice(n, size=12, replace=False))
    return write_inputs(directory, values, days, "2019-01-01")


@pytest.fixture
def dataset(tmp_path):
    return write_dataset(tmp_path)


def test_pointwise_report(dataset, tmp_path):
    series, events = dataset
    out = tmp_path / "report.json"
    code, _, _ = run_cli(["pointwise", "--series", str(series), "--events", str(events),
                          "--quantile", "0.9", "--delta", "5", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["command"] == "pointwise"
    assert report["series"]["length"] == 400
    assert report["series"]["n_events"] == 12
    assert report["quantile_level"] == 0.9
    assert 0.0 <= report["p_value"] <= 1.0
    assert report["k_observed"] <= 12
    assert list(report["gev"]) == [f.name for f in dataclasses.fields(GevParams)] + [
        "converged", "nll", "n_blocks"]


def test_reports_carry_the_event_rate(dataset, tmp_path):
    series, events = dataset
    common = ["--series", str(series), "--events", str(events), "--delta", "5"]
    for argv in (["pointwise", *common, "--quantile", "0.9"],
                 ["multi", *common, "--m", "8", "--r", "50"]):
        code, out, _ = run_cli(argv)
        assert code == 0
        summary = json.loads(out)["series"]
        assert summary["event_rate"] == summary["n_events"] / summary["length"] == 12 / 400


def test_pointwise_fixed_tau_without_out_writes_stdout(dataset):
    series, events = dataset
    code, out, _ = run_cli(["pointwise", "--series", str(series), "--events", str(events),
                            "--tau", "100"])
    assert code == 0
    report = json.loads(out)
    assert report["threshold"] == 100.0
    assert report["quantile_level"] is None


def read_dataset(series, events):
    """The fixture's values and 1-based event steps, parsed with plain Python."""
    rows = series.read_text().splitlines()[1:]
    start = datetime.date.fromisoformat(rows[0].split(",")[0])
    values = [float(row.split(",")[1]) for row in rows]
    steps = sorted({(datetime.date.fromisoformat(line) - start).days + 1
                    for line in events.read_text().split()})
    return values, steps


@pytest.mark.parametrize("threshold", [["--quantile", "0.9"], ["--tau", "100"]],
                         ids=["quantile", "tau"])
def test_pointwise_count_matches_window_loop(dataset, tmp_path, threshold):
    series, events = dataset
    with open(events, "a") as fh:
        fh.write("2020-02-03\n")  # day 399: inside the final 5 steps, never counted
    out = tmp_path / "r.json"
    code, _, _ = run_cli(["pointwise", "--series", str(series), "--events", str(events),
                          "--delta", "5", *threshold, "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    values, steps = read_dataset(series, events)
    assert len(values) == 400 and len(steps) == 13 and steps[-1] == 399
    tau = sorted(values)[359] if threshold[0] == "--quantile" else 100.0
    assert report["threshold"] == tau
    k = sum(1 for t in steps if t <= 400 - 5 and max(values[t - 1:t + 5]) > tau)
    assert report["k_observed"] == k
    assert report["rate"] == k / 13


@pytest.mark.parametrize("tau", ["--tau=nan", "--tau=inf", "--tau=1e400", "--tau=-inf"])
def test_pointwise_rejects_non_finite_tau(dataset, tmp_path, tau):
    series, events = dataset
    out = tmp_path / "r.json"
    code, stdout, err = run_cli(["pointwise", "--series", str(series), "--events", str(events),
                                 tau, "--out", str(out)])
    assert code == 1
    assert stdout == ""
    payload = json.loads(err)["error"]
    assert payload["category"] == "config"
    assert "tau" in payload["message"]
    assert not out.exists()


def test_byte_order_mark_is_ignored(dataset, tmp_path):
    series, events = dataset
    reports = []
    for prefix in (b"", b"\xef\xbb\xbf"):
        paths = []
        for src in (series, events):
            copy = tmp_path / f"{len(prefix)}{src.name}"
            copy.write_bytes(prefix + src.read_bytes())
            paths.append(str(copy))
        out = tmp_path / f"{len(prefix)}.json"
        code, _, err = run_cli(["pointwise", "--series", paths[0], "--events", paths[1],
                                "--quantile", "0.9", "--out", str(out)])
        assert code == 0, err
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_multi_report_and_files(dataset, tmp_path, monkeypatch):
    series, events = dataset
    draws = []
    monkeypatch.setattr(peca.cli, "null_nll_replicates",
                        lambda *a: draws.append(null_nll_replicates(*a)) or draws[-1])
    out = tmp_path / "report.json"
    qtr = tmp_path / "qtr.csv"
    svg = tmp_path / "qtr.svg"
    code, _, _ = run_cli(["multi", "--series", str(series), "--events", str(events),
                          "--delta", "5", "--r", "400", "--seed", "7", "--m", "16",
                          "--out", str(out), "--qtr", str(qtr), "--svg", str(svg)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["command"] == "multi"
    assert report["multi_test"]["replicates"] == 400
    assert 0.0 < report["multi_test"]["p_hat"] <= 1.0
    p_hat = report["multi_test"]["p_hat"]
    assert report["multi_test"]["p_hat_se"] == math.sqrt(p_hat * (1.0 - p_hat) / 400)
    # the null summary is that of the replicate statistics the run drew
    assert len(draws) == 1 and draws[0].shape == (400,)
    mt = report["multi_test"]
    assert mt["null_min"] == float(draws[0].min())
    assert mt["null_median"] == float(np.median(draws[0]))
    assert mt["null_max"] == float(draws[0].max())
    assert mt["null_min"] <= mt["null_median"] <= mt["null_max"]
    assert report["ladder"]["requested"] == 16
    pw = report["pointwise"]
    assert len(pw["raw_p_values"]) == report["ladder"]["size"]
    assert list(pw)[:3] == ["k_observed", "success_probs", "permutation_success_probs"]
    perm = pw["permutation_success_probs"]
    assert len(perm) == report["ladder"]["size"]
    assert all(0.0 <= b <= a <= 1.0 for a, b in zip(perm, perm[1:]))
    assert pw["adjust_method"] == "holm"
    assert all(a >= r - 1e-12 for a, r in zip(pw["adjusted_p_values"], pw["raw_p_values"]))

    rows = qtr.read_text().splitlines()
    assert rows[0].split(",")[0] == "quantile_level"
    assert len(rows) == report["ladder"]["size"] + 1
    rates = [float(r.split(",")[3]) for r in rows[1:]]
    assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
    ET.parse(svg)

    # a ladder of one level: the chart's axis spans 0.01 either side of it
    code, _, err = run_cli(["multi", "--series", str(series), "--events", str(events),
                            "--delta", "5", "--r", "50", "--qlo", "0.9", "--qhi", "0.9",
                            "--svg", str(tmp_path / "one.svg")])
    assert code == 0, err
    chart = list(ET.parse(tmp_path / "one.svg").getroot().iter())
    ticks = [el.text for el in chart if el.tag.endswith("text")
             and re.fullmatch(r"0\.[0-9]{3}", el.text)]
    assert ticks == ["0.890", "0.894", "0.898", "0.902", "0.906", "0.910"]
    points = [point for el in chart if el.tag.endswith("polyline")
              for point in el.get("points").split()]
    assert len(points) == 2 and all(point.startswith("384.00,") for point in points)


def test_pointwise_at_each_rung_matches_multi(dataset, tmp_path):
    # multi's per-rung test is the single-threshold test at that rung's threshold
    series, events = dataset
    files = ["--series", str(series), "--events", str(events), "--delta", "5"]
    out = tmp_path / "multi.json"
    code, _, _ = run_cli(["multi", *files, "--r", "50", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    pw = report["pointwise"]
    thresholds = report["ladder"]["thresholds"]
    assert len(thresholds) > 1
    for i, tau in enumerate(thresholds):
        code, text, _ = run_cli(["pointwise", *files, "--tau", repr(tau)])
        assert code == 0
        single = json.loads(text)
        assert single["threshold"] == tau
        assert single["k_observed"] == pw["k_observed"][i]
        assert single["success_prob"] == pw["success_probs"][i]
        assert single["p_value"] == pw["raw_p_values"][i]


def test_multi_byte_determinism(dataset, tmp_path):
    series, events = dataset
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.json"
        qtr = tmp_path / f"{name}.csv"
        code, _, _ = run_cli(["multi", "--series", str(series), "--events", str(events),
                              "--delta", "5", "--r", "300", "--seed", "11",
                              "--out", str(out), "--qtr", str(qtr)])
        assert code == 0
        outs.append((out.read_bytes(), qtr.read_bytes()))
    assert outs[0] == outs[1]


def test_preprocess_flag_changes_threshold_scale(dataset, tmp_path):
    series, events = dataset
    raw = tmp_path / "raw.json"
    pre = tmp_path / "pre.json"
    for path, extra in ((raw, []), (pre, ["--preprocess"])):
        code, _, _ = run_cli(["pointwise", "--series", str(series), "--events", str(events),
                              "--quantile", "0.9", "--out", str(path)] + extra)
        assert code == 0
    t_raw = json.loads(raw.read_text())["threshold"]
    t_pre = json.loads(pre.read_text())["threshold"]
    # raw counts sit near 30; the log-scale residual is a small number
    assert t_raw > 10
    assert t_pre < 10


def test_ingest_error_category(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(SERIES_HEAD + "2020-01-01,1\n2020-01-05,2\n")
    ev = tmp_path / "e.txt"
    ev.write_text("2020-01-01\n")
    code, _, err = run_cli(["pointwise", "--series", str(bad), "--events", str(ev),
                            "--tau", "1"])
    assert code == 1
    payload = json.loads(err)
    assert payload["error"]["category"] == "ingest"
    assert "2020-01-02" in payload["error"]["message"]


def test_fit_error_category(tmp_path):
    # constant series: block maxima are degenerate, the gev fit must refuse
    series, ev = write_inputs(tmp_path, [5] * 200, [60], "2020-01-01", ("s.csv", "e.txt"))
    code, _, err = run_cli(["pointwise", "--series", str(series), "--events", str(ev),
                            "--tau", "6"])
    assert code == 1
    assert json.loads(err)["error"]["category"] == "fit"


BEYOND_SUPPORT_T = 8 * 200 + 3


def beyond_support_series(tmp_path, extra_steps=()):
    """T = 1603 uniform(10, 20) values with 500 at step T - 1, and 20 events plus ``extra_steps``.

    The maximum sits in the partial block that block_maxima drops, so the fit
    (shape near -0.95) ends its support near 20, below the series maximum.
    """
    t = BEYOND_SUPPORT_T
    rng = np.random.default_rng(0)
    values = rng.uniform(10, 20, size=t)
    values[t - 2] = 500.0  # step T - 1
    days = np.sort(np.concatenate([rng.choice(t - 10, size=20, replace=False),
                                   np.asarray(extra_steps, dtype=int) - 1]))
    series, events = write_inputs(tmp_path, values, days, "2020-01-01", ("s.csv", "e.txt"))
    return ["--series", str(series), "--events", str(events)]


def test_ladder_beyond_fitted_support_is_a_fit_error(tmp_path):
    ingest = beyond_support_series(tmp_path)
    code, out, _ = run_cli(["pointwise", *ingest, "--quantile", "0.95"])
    assert code == 0
    gev = json.loads(out)["gev"]
    assert gev["shape"] < -0.9
    end = gev["location"] - gev["scale"] / gev["shape"]

    # pointwise's threshold is a one-rung ladder, refused by the same rule
    code, out, err = run_cli(["pointwise", *ingest, "--quantile", "1.0"])
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["category"] == "fit"
    assert "threshold 500.0 (rung 1 of 1)" in error["message"]
    assert f"location - scale/shape, is {end!r}" in error["message"]

    code, out, err = run_cli(["multi", *ingest, "--r", "100"])
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["category"] == "fit"
    assert "threshold 500.0 (rung 32 of 32)" in error["message"]
    assert f"location - scale/shape, is {end!r}" in error["message"]
    assert "lower --qhi" in error["message"]
    code, _, err = run_cli(["multi", *ingest, "--r", "100", "--qhi", "0.95"])
    assert code == 0, err


def test_pointwise_tau_beyond_fitted_support_is_a_fit_error(tmp_path):
    # the event at T - 7 is the last countable step whose window holds the 500,
    # so it is counted at --tau 50, where the fitted GEV has no mass
    ingest = beyond_support_series(tmp_path, extra_steps=[BEYOND_SUPPORT_T - 7])
    code, out, err = run_cli(["pointwise", *ingest, "--tau", "50"])
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["category"] == "fit"
    assert "threshold 50.0 (rung 1 of 1)" in error["message"]
    assert "--tau/--quantile (pointwise)" in error["message"]
    code, out, _ = run_cli(["pointwise", *ingest, "--tau", "15"])
    assert code == 0
    report = json.loads(out)
    assert report["k_observed"] >= 1 and report["success_prob"] > 0.0


def test_config_error_category(dataset):
    series, events = dataset
    code, _, err = run_cli(["multi", "--series", str(series), "--events", str(events),
                            "--qlo", "0.9", "--qhi", "0.5"])
    assert code == 1
    assert json.loads(err)["error"]["category"] == "config"


@pytest.mark.parametrize("argv, message", [
    (["multi", "--m", "0"], "m must be at least 1"),
    (["multi", "--seed", "-1"], "seed must be non-negative"),
    (["multi", "--window", "0"], "window must be at least 1"),
    (["pointwise", "--quantile", "0.9", "--min-blocks", "1"], "min_blocks must be at least 2"),
    (["pointwise", "--quantile", "1.5"], "quantile level must lie in [0, 1]"),
], ids=["m", "seed", "window", "min-blocks", "quantile"])
def test_config_errors_name_the_setting(dataset, argv, message):
    series, events = dataset
    code, out, err = run_cli([*argv, "--series", str(series), "--events", str(events)])
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": {"category": "config", "message": message}}


def test_constant_series_in_both_commands(tmp_path):
    # a constant series has neither a threshold ladder nor a GEV fit
    series, events = write_inputs(tmp_path, [5] * 200, [60, 91], "2020-01-01", ("s.csv", "e.txt"))
    ingest = ["--series", str(series), "--events", str(events)]
    for argv, category, message in (
            (["multi", "--r", "50"], "config",
             "cannot build a threshold ladder from a constant series"),
            (["pointwise", "--tau", "6"], "fit", "degenerate sample: all block maxima are equal"),
            (["pointwise", "--quantile", "0.9"], "fit",
             "degenerate sample: all block maxima are equal")):
        code, out, err = run_cli([*argv, *ingest])
        assert (code, out) == (1, ""), argv
        assert json.loads(err) == {"error": {"category": category, "message": message}}, argv


def test_unconverged_fit_is_a_warning(dataset, monkeypatch):
    fit_gev_mle = peca.cli.fit_gev_mle
    monkeypatch.setattr(peca.cli, "fit_gev_mle",
                        lambda *a, **k: dataclasses.replace(fit_gev_mle(*a, **k), converged=False))
    series, events = dataset
    ingest = ["--series", str(series), "--events", str(events), "--delta", "5"]
    for argv in (["pointwise", "--quantile", "0.9"], ["multi", "--m", "8", "--r", "50"]):
        code, out, _ = run_cli([*argv, *ingest])
        assert code == 0
        report = json.loads(out)
        assert report["gev"]["converged"] is False
        assert report["warnings"] == ["GEV fit did not satisfy the optimizer's convergence test"]


def test_two_block_maxima_fit_without_a_warning(tmp_path):
    # 16 days at delta 7 give two block maxima, the fewest --min-blocks takes; the suite
    # turns a RuntimeWarning into an error, so a stray one fails the run
    values = np.random.default_rng(4).poisson(3, size=16)
    series, events = write_inputs(tmp_path, values, [2, 9], "2020-01-01")
    code, out, err = run_cli(["pointwise", "--series", series, "--events", events,
                              "--delta", 7, "--tau", 4, "--min-blocks", 2])
    assert (code, err) == (0, "")
    assert json.loads(out)["gev"]["n_blocks"] == 2


def test_io_error_category(dataset, tmp_path):
    series, events = dataset
    code, _, err = run_cli(["pointwise", "--series", str(series), "--events", str(events),
                            "--tau", "1", "--out", str(tmp_path / "no" / "dir" / "x.json")])
    assert code == 1
    assert json.loads(err)["error"]["category"] == "io"


def test_memory_error_category(dataset, tmp_path, monkeypatch):
    # a huge --r fails to allocate the replicate NLLs; raised here, never allocated
    message = ("Unable to allocate 14.9 GiB for an array with shape (2000000000,) "
               "and data type float64")

    def cannot_allocate(*args):
        raise MemoryError(message)

    monkeypatch.setattr(peca.cli, "null_nll_replicates", cannot_allocate)
    series, events = dataset
    out = tmp_path / "report.json"
    code, stdout, err = run_cli(["multi", "--series", str(series), "--events", str(events),
                                 "--r", "2000000000", "--out", str(out)])
    assert code == 1 and stdout == "" and not out.exists()
    assert json.loads(err) == {"error": {"category": "memory", "message": message}}


def test_missing_series_file(tmp_path):
    ev = tmp_path / "e.txt"
    ev.write_text("2020-01-01\n")
    code, _, err = run_cli(["pointwise", "--series", str(tmp_path / "nope.csv"),
                            "--events", str(ev), "--tau", "1"])
    assert code == 1
    assert json.loads(err)["error"]["category"] in ("io", "ingest")


@pytest.fixture
def paper_daily(tmp_path):
    """The benchmark's paper-daily input at seed 53: 1096 weekly-cycled daily counts with
    rare bursts from 2000-01-01, and 17 events."""
    rng = np.random.default_rng(np.random.SeedSequence([53, sum(map(ord, "paper-daily"))]))
    t = 1096
    base = rng.poisson(40 + 12 * np.sin(np.arange(t) * 2 * np.pi / 7.0))
    values = base + (rng.random(t) < 0.03) * rng.poisson(300, t)
    days = np.sort(rng.choice(t, size=17, replace=False))
    series, events = write_inputs(tmp_path, values, days, "2000-01-01")
    return ["--series", str(series), "--events", str(events)]


LATE_WARNING = ("1 event(s) in the final 7 steps can never be counted but stay in the rate "
                "denominator: steps [1095]")


@pytest.mark.parametrize("command, expected", [
    (["pointwise", "--tau", "300"], [LATE_WARNING]),
    (["multi", "--qlo", "0", "--m", "200", "--r", "50"],
     ["145 duplicate threshold(s) collapsed; effective ladder size 55", LATE_WARNING,
      "multi_test statistic, null_max infinite, written as null: the fitted GEV null gives a "
      "rung success probability 1 (or ties it with the rung below), so a count below its "
      "predecessor there, as a late event makes, has zero likelihood"]),
], ids=["pointwise", "multi"])
def test_late_event_warning(paper_daily, command, expected):
    # both commands warn in one order: ingest, ladder, fit, late events, then the statistic
    with open(paper_daily[-1], "a") as fh:   # the events file
        fh.write("2002-12-30\n2002-12-30\n")  # step 1095 of 1096, twice
    code, out, _ = run_cli([*command, *paper_daily])
    assert code == 0
    assert json.loads(out)["warnings"] == [
        "collapsed duplicate event date(s): 2002-12-30", *expected]


@pytest.mark.parametrize("options, category, message", [
    (["--delta", "3", "--min-blocks", "400"], "fit", "need at least 400 block maxima, got 274"),
    (["--delta", "1096"], "config", "series of length 1096 is shorter than one block of size 1097"),
], ids=["too-few-blocks", "delta-past-the-series"])
def test_pointwise_and_multi_fail_alike(paper_daily, options, category, message):
    # the fit both tests share refuses the input once, with one error
    for command in (["pointwise", "--tau", "300"], ["multi", "--r", "50"]):
        code, out, err = run_cli([*command, *paper_daily, *options])
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": {"category": category, "message": message}}


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_multi_infinite_statistic_written_as_null(dataset, tmp_path):
    # at quantile 0.1 the fitted GEV makes the lowest rungs certain (pi = 1),
    # so the late event's missing count has zero likelihood: the NLL is infinite
    series, events = dataset
    with open(events, "a") as fh:
        fh.write("2020-02-04\n")  # day 400 of the grid
    out = tmp_path / "r.json"
    code, _, _ = run_cli(["multi", "--series", str(series), "--events", str(events),
                          "--delta", "5", "--qlo", "0.1", "--m", "16", "--r", "200",
                          "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    test = report["multi_test"]
    assert test["statistic"] is None
    assert 0.0 < test["p_hat"] <= 1.0
    assert report["pointwise"]["success_probs"][0] == 1.0
    assert any("infinite, written as null" in w and "zero likelihood" in w
               for w in report["warnings"])


def test_multi_certain_process_writes_positive_zero(dataset, tmp_path):
    # at --qlo 0 --qhi 0 the one rung is the series' minimum, certain under the fitted GEV,
    # and the observed and the typical replicate process count every event there: NLL +0.0
    series, events = dataset
    out = tmp_path / "r.json"
    code, _, _ = run_cli(["multi", "--series", series, "--events", events, "--qlo", "0",
                          "--qhi", "0", "--r", "200", "--out", out])
    assert code == 0
    text = out.read_text()
    test = json.loads(text)["multi_test"]
    for field in ("statistic", "null_min", "null_median"):
        assert (test[field], math.copysign(1.0, test[field])) == (0.0, 1.0), field
    assert re.findall(r"-0\.0(?![0-9])", text) == []


def test_multi_rejects_zero_events(dataset, tmp_path):
    series, _ = dataset
    events = tmp_path / "none.txt"
    events.write_text("")
    outs = [tmp_path / name for name in ("r.json", "q.csv", "q.svg")]
    code, _, err = run_cli(["multi", "--series", str(series), "--events", str(events),
                            "--r", "50", "--out", str(outs[0]), "--qtr", str(outs[1]),
                            "--svg", str(outs[2])])
    assert code == 1
    payload = json.loads(err)
    assert payload["error"]["category"] == "config"
    assert "at least one event" in payload["error"]["message"]
    assert not any(p.exists() for p in outs)


def test_simulate_comparison_preset(tmp_path):
    out = tmp_path / "study"
    code, _, _ = run_cli(["simulate", "--preset", "appendix-b1", "--seed", "3",
                          "--length", "1024", "--replicates", "60",
                          "--orders", "0,8", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["preset"] == "appendix-b1"
    assert (out / "null_comparison.csv").exists()
    cells = summary["cells"]
    assert len(cells) == 6   # two orders, three default thresholds
    # each cell's sup-distances are those of its (order, tau) rows in the CSV
    with open(out / "null_comparison.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6 * 33
    for cell in cells:
        assert 0.0 <= cell["sup_gev"] <= 1.0
        mine = [r for r in rows if int(r["order"]) == cell["order"]
                and float(r["tau"]) == cell["tau"]]
        assert len(mine) == 33
        for model in ("bernoulli", "gev"):
            assert cell[f"sup_{model}"] == max(
                abs(float(r["empirical_cmf"]) - float(r[f"{model}_cmf"])) for r in mine), model


def test_simulate_qtr_preset(tmp_path):
    out = tmp_path / "fig"
    code, _, _ = run_cli(["simulate", "--preset", "fig4", "--seed", "0",
                          "--replicates", "500", "--out", str(out)])
    assert code == 0
    for name in ("qtr_dependent.csv", "qtr_independent.csv", "qtr_dependent.svg",
                 "qtr_independent.svg", "replicate_nlls.csv", "extreme_processes.csv",
                 "summary.json"):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    results = summary["results"]
    assert results["dependent"]["rate_at_trigger_tau"] == 1.0
    assert 0.0 < results["dependent"]["p_hat"] <= results["independent"]["p_hat"]
    dp = summary["dp"]
    assert dp["min_statistic"] <= dp["replicate_nll_min"]
    assert dp["replicate_nll_max"] <= dp["max_statistic"]


def is_plain_number(cell):
    """``cell`` reads as ``repr`` writes an int or a float."""
    for parse in (int, float):
        try:
            if repr(parse(cell)) == cell:
                return True
        except ValueError:
            pass
    return False


def test_every_csv_ends_rows_with_lf(dataset, tmp_path):
    series, events = dataset
    runs = {"multi": ["multi", "--series", str(series), "--events", str(events), "--delta", "5",
                      "--m", "8", "--r", "50", "--out", str(tmp_path / "multi" / "report.json"),
                      "--qtr", str(tmp_path / "multi" / "qtr.csv")],
            "fig4": ["simulate", "--preset", "fig4", "--seed", "0", "--replicates", "50",
                     "--out", str(tmp_path / "fig4")],
            "appendix-b1": ["simulate", "--preset", "appendix-b1", "--length", "512",
                            "--replicates", "20", "--orders", "0", "--out",
                            str(tmp_path / "appendix-b1")]}
    (tmp_path / "multi").mkdir()
    for name, argv in runs.items():
        assert run_cli(argv)[0] == 0, name
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.glob("*/*.csv"))
    assert written == ["appendix-b1/null_comparison.csv", "fig4/extreme_processes.csv",
                       "fig4/qtr_dependent.csv", "fig4/qtr_independent.csv",
                       "fig4/replicate_nlls.csv", "multi/qtr.csv"]
    for name in written:
        data = (tmp_path / name).read_bytes()
        assert data.endswith(b"\n") and b"\r" not in data, name
        # every data cell is an int or a float as `repr` writes it (not `np.float64(...)`)
        _, *rows = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
        bad = [cell for row in rows for cell in row if not is_plain_number(cell)]
        assert rows and bad == [], (name, bad[:3])


def test_simulate_prints_its_summary(tmp_path):
    # without --seed, appendix-b1 runs on SimConfig's seed
    out = tmp_path / "study"
    code, stdout, _ = run_cli(["simulate", "--preset", "appendix-b1", "--length", "512",
                               "--replicates", "20", "--orders", "0", "--out", str(out)])
    assert code == 0
    assert stdout == (out / "summary.json").read_text()
    summary = json.loads(stdout)
    assert summary["config"]["seed"] == SimConfig().seed == 131
    assert summary["outputs"] == ["null_comparison.csv", "summary.json"]


@pytest.mark.parametrize("preset, override", [
    ("appendix-b1", ["--replicates", "0"]),
    ("appendix-b1", ["--length", "0"]),
    ("fig4", ["--replicates", "0"]),
    ("fig4", ["--length", "0"]),
    ("fig4", ["--orders", "0,8"]),
])
def test_simulate_override_is_never_dropped(tmp_path, preset, override):
    # an override reaches the preset's config and its validation, or is refused
    out = tmp_path / "study"
    code, stdout, err = run_cli(["simulate", "--preset", preset, *override, "--out", str(out)])
    assert code == 1
    assert stdout == ""
    assert json.loads(err)["error"]["category"] == "config"
    assert not out.exists()


def test_simulate_refuses_a_repeated_order(tmp_path):
    # a repeated order would compute its cells twice and write duplicate
    # (k, order, tau) rows, of which a lookup only ever finds the first
    out = tmp_path / "study"
    code, stdout, err = run_cli(["simulate", "--preset", "appendix-b1", "--orders", "0,0",
                                 "--out", str(out)])
    assert code == 1
    assert stdout == ""
    assert json.loads(err)["error"] == {"category": "config",
                                        "message": "repeated filter order in [0, 0]"}
    assert not out.exists()
    # the command line offers the presets alone; the library call names a wrong one
    with pytest.raises(ValueError, match="^unknown preset: 'nope'$"):
        run_simulate("nope", None, out)
    assert not out.exists()


def test_fig4_runs_the_multi_pipeline(tmp_path, monkeypatch):
    # fig4 draws one null for both event sets; each set scores as `multi` would score it
    draws = []
    monkeypatch.setattr(peca.cli, "null_nll_replicates",
                        lambda *a: draws.append(a) or null_nll_replicates(*a))
    out = tmp_path / "fig"
    code, _, _ = run_cli(["simulate", "--preset", "fig4", "--seed", "0",
                          "--replicates", "500", "--out", str(out)])
    assert code == 0
    assert len(draws) == 1
    results = json.loads((out / "summary.json").read_text())["results"]
    x = gen_ma_exponential(4096, 8, seed=(0, 100))
    event_sets = {"dependent": gen_dependent_events(x, 32, 4.0, 4, seed=(0, 101)),
                  "independent": gen_independent_events(4096, 32, seed=(0, 102))}
    for label, events in event_sets.items():
        report, table = run_multi(AnalysisConfig(r=500, seed=0), x, events)
        write_csv(tmp_path / f"{label}.csv", table.columns)
        assert ((tmp_path / f"{label}.csv").read_bytes()
                == (out / f"qtr_{label}.csv").read_bytes()), label
        assert report["multi_test"]["statistic"] == results[label]["statistic"], label
        assert report["multi_test"]["p_hat"] == results[label]["p_hat"], label


def test_a_numpy_int_setting_reports_as_the_int(dataset):
    # the config stores the int it reads, so the report dumps as strict JSON, as the CLI's does
    series, events = dataset
    x, grid = ingest_timeseries(series)
    e, warn = ingest_events(events, grid)
    report = run_pointwise(AnalysisConfig(delta=np.int64(7)), x, e, quantile=0.9, warnings=warn)
    text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    assert '"delta": 7,' in text
    code, out, _ = run_cli(["pointwise", "--series", series, "--events", events,
                            "--quantile", "0.9", "--delta", "7"])
    assert (code, out) == (0, text)


@pytest.mark.parametrize("real", [np.float64, np.float32])
def test_numpy_real_and_bool_settings_report_as_python_numbers(dataset, real):
    # the config and run_pointwise store the Python float and bool they read, so every
    # report dumps as strict JSON; a float64 setting reads as the same Python float
    series, events = dataset
    x, grid = ingest_timeseries(series)
    e, warn = ingest_events(events, grid)
    settings = {"qlo": 0.5, "qhi": 0.9, "alpha": 0.05}
    config = AnalysisConfig(r=50, preprocess=np.True_, **{k: real(v) for k, v in settings.items()})
    python = AnalysisConfig(r=50, preprocess=True,
                            **{k: float(real(v)) for k, v in settings.items()})
    assert config == python
    reports = [
        (run_pointwise(config, x, e, quantile=real(0.9), warnings=warn),
         run_pointwise(python, x, e, quantile=float(real(0.9)), warnings=warn)),
        (run_pointwise(config, x, e, tau=real(0.5), warnings=warn),
         run_pointwise(python, x, e, tau=float(real(0.5)), warnings=warn)),
        (run_multi(config, x, e, warnings=warn)[0], run_multi(python, x, e, warnings=warn)[0]),
    ]
    for numpy_typed, python_typed in reports:
        assert json.dumps(numpy_typed, allow_nan=False) == json.dumps(python_typed, allow_nan=False)
    assert reports[0][0]["quantile_level"] == (0.9 if real is np.float64 else 0.8999999761581421)
    assert reports[2][0]["config"]["preprocess"] is True


@pytest.mark.parametrize("argv, error", [
    (["multi", "--series", "{series}", "--events", "{events}", "--delta", "7.5"],
     "argument --delta: invalid int value: '7.5'"),
    (["simulate", "--preset", "appendix-b1", "--orders", "0,x", "--out", "{out}"],
     "argument --orders: invalid int_list value: '0,x'"),
], ids=["delta", "orders"])
def test_usage_errors_exit_2_with_argparse_text(dataset, tmp_path, capsys, argv, error):
    # argparse refuses a value of the wrong type before any JSON error handling or output
    series, events = dataset
    out = tmp_path / "study"
    with pytest.raises(SystemExit) as raised:
        peca.cli.main([a.format(series=series, events=events, out=out) for a in argv])
    stdout, err = capsys.readouterr()
    assert (raised.value.code, stdout) == (2, "")
    assert err.endswith(error + "\n")
    assert not out.exists()


def test_analysis_config_validation():
    with pytest.raises(ValueError):
        AnalysisConfig(delta=-1)
    with pytest.raises(ValueError):
        AnalysisConfig(qlo=0.9, qhi=0.5)
    with pytest.raises(ValueError):
        AnalysisConfig(adjust_method="fdr")
    with pytest.raises(ValueError):
        AnalysisConfig(alpha=0.0)


def source_env(blas_threads=None):
    """This environment with the package source on ``PYTHONPATH`` and
    ``OPENBLAS_NUM_THREADS`` set to ``blas_threads``, or unset when it is None."""
    src = str(Path(peca.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return env


# what a cold pointwise or multi process must not load, each named by one test below
ABSENT_PACKAGES = ("scipy", "numpy.ma", "xml", "urllib.request", "http", "email", "ssl")


@pytest.fixture(scope="module")
def cli_run_modules(tmp_path_factory):
    """The modules of ``ABSENT_PACKAGES`` a fresh process holds after a pointwise and a multi run."""
    tmp_path = tmp_path_factory.mktemp("probe")
    series, events = write_dataset(tmp_path)
    env = source_env()
    common = ["--series", str(series), "--events", str(events), "--delta", "5"]
    runs = [["pointwise", *common, "--quantile", "0.9", "--out", str(tmp_path / "pw.json")],
            ["multi", *common, "--m", "8", "--r", "200", "--out", str(tmp_path / "mu.json"),
             "--qtr", str(tmp_path / "qtr.csv"), "--svg", str(tmp_path / "qtr.svg")]]
    probe = ("import json, sys, peca.cli\n"
             f"for argv in {runs!r}:\n"
             "    assert peca.cli.main(argv) == 0, argv\n"
             f"print(json.dumps(sorted(m for m in sys.modules if m in {ABSENT_PACKAGES!r} "
             f"or m.split('.')[0] in {ABSENT_PACKAGES!r})))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert json.loads((tmp_path / "mu.json").read_text())["command"] == "multi"
    assert (tmp_path / "qtr.svg").stat().st_size > 0
    return json.loads(out.stdout)


def loaded_after_cli_runs(modules, packages):
    """The entries of ``modules`` that are one of ``packages`` or inside a top-level one."""
    return [m for m in modules if m in packages or m.split(".")[0] in packages]


def test_cli_runs_leave_scipy_out(cli_run_modules):
    # importing SciPy costs more than half a second of every cold process;
    # the package needs NumPy alone, for import and for both analyses
    assert loaded_after_cli_runs(cli_run_modules, ("scipy",)) == []


def test_cli_runs_leave_numpy_ma_out(cli_run_modules):
    # np.median imports numpy.ma, some 14 ms of a cold multi process, for one report field
    assert loaded_after_cli_runs(cli_run_modules, ("numpy.ma",)) == []


def test_report_median_is_numpys_bit_for_bit():
    rng = np.random.default_rng(17)
    for size in [1, 2, 3, 4, 5, 10, 11, 400, 401, 10000, 10001]:
        for a in (rng.exponential(size=size), np.round(rng.exponential(size=size)),
                  np.where(rng.random(size) < 0.3, np.inf, rng.exponential(size=size)),
                  np.full(size, np.inf)):
            assert np.float64(peca.cli._median(a)).tobytes() == np.median(a).tobytes(), (size, a)


def test_cli_runs_leave_network_stack_out(cli_run_modules):
    # xml.sax alone pulls in urllib.request, http, email and ssl: tens of
    # milliseconds of every cold process, for one escaped SVG title
    packages = ("xml", "urllib.request", "http", "email", "ssl")
    assert loaded_after_cli_runs(cli_run_modules, packages) == []


@pytest.mark.parametrize("module, blas_threads, seen", [
    ("peca.__main__", None, "1"),
    ("peca.__main__", "4", "4"),
    ("peca.cli", None, "None"),
], ids=["entry-unset", "entry-keeps-user-value", "library-unset"])
def test_only_the_entry_sets_one_blas_thread(module, blas_threads, seen):
    # peca calls no BLAS routine, so the command line asks OpenBLAS for one
    # thread; a library user's NumPy keeps its threads
    probe = f"import {module}, os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    out = subprocess.run([sys.executable, "-c", probe], env=source_env(blas_threads),
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout == seen + "\n"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc")
def test_entry_sets_the_thread_count_before_numpy_loads():
    # set after NumPy's import, the variable would come too late: OpenBLAS
    # would already run its pool, one thread per core
    probe = "import peca.__main__, os; print(len(os.listdir('/proc/self/task')))"
    out = subprocess.run([sys.executable, "-c", probe], env=source_env(),
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout == "1\n"


def test_entry_keeps_openssl_out(tmp_path):
    # peca hashes nothing, yet numpy.random imports secrets, whose hmac and hashlib would
    # load _hashlib and map libcrypto, 3.4 MB of every run's peak; python -m peca blocks it
    argv = ["simulate", "--preset", "fig4", "--replicates", "200", "--out", str(tmp_path / "fig4")]
    probe = ("import os, runpy, sys\n"
             f"sys.argv = {['peca', *argv]!r}\n"
             "try:\n"
             "    runpy.run_module('peca', run_name='__main__', alter_sys=True)\n"
             "except SystemExit as exc:\n"
             "    assert exc.code == 0, exc.code\n"
             "mapped = None   # unknown where /proc/self/maps does not exist\n"
             "if os.path.exists('/proc/self/maps'):\n"
             "    with open('/proc/self/maps') as fh:\n"
             "        mapped = 'libcrypto' in fh.read()\n"
             "print('_hashlib' in sys.modules and sys.modules['_hashlib'] is None, mapped)\n")
    out = subprocess.run([sys.executable, "-c", probe], env=source_env(),
                         capture_output=True, text=True, check=True, timeout=120)
    blocked, mapped = out.stdout.splitlines()[-1].split()   # simulate prints its summary first
    assert blocked == "True" and mapped in ("False", "None")


def test_library_keeps_hashlib():
    # importing the library leaves sys.modules alone: a user's hashlib keeps OpenSSL
    pytest.importorskip("_hashlib")
    probe = "import peca.cli, numpy.random, sys, types\n" \
            "print(isinstance(sys.modules.get('_hashlib'), types.ModuleType))"
    out = subprocess.run([sys.executable, "-c", probe], env=source_env(),
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout == "True\n"


@pytest.mark.parametrize("missing", ["_md5", "_sha1", "_blake2", "_sha3",
                                     "_sha2" if sys.version_info >= (3, 12) else "_sha512"])
def test_entry_keeps_openssl_where_a_builtin_hash_is_missing(missing):
    # a build configured without some built-in hash module has no fallback for it:
    # blocking _hashlib there would break hashlib, so the entry leaves sys.modules alone
    pytest.importorskip("_hashlib")
    probe = (f"import sys; sys.modules[{missing!r}] = None   # cannot be imported\n"
             "import peca.__main__, numpy.random, types\n"
             "print(isinstance(sys.modules.get('_hashlib'), types.ModuleType))")
    out = subprocess.run([sys.executable, "-c", probe], env=source_env(),
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout == "True\n"   # stderr: hashlib's own log of the missing hash, as in any run


def test_entry_hashes_as_a_plain_interpreter_does():
    # with _hashlib blocked, hashlib and hmac fall back to CPython's built-in hash modules;
    # a CPython whose hmac needed OpenSSL would fail here before any run did
    calls = ("import hashlib, hmac, json, secrets, sys\n"
             "print(json.dumps([sys.modules.get('_hashlib') is None,\n"
             "    hashlib.sha256(b'peca').hexdigest(), hashlib.md5(b'peca').hexdigest(),\n"
             "    hashlib.new('sha1', b'peca').hexdigest(),\n"
             "    hmac.new(b'key', b'peca', 'sha256').hexdigest(),\n"
             "    hmac.compare_digest(b'peca', b'peca'), 0 <= secrets.randbits(64) < 2**64]))\n")
    plain, entry = (subprocess.run([sys.executable, "-W", "error", "-c", head + calls],
                                   env=source_env(), capture_output=True, text=True, check=True,
                                   timeout=60)
                    for head in ("", "import peca.__main__\n"))
    assert (entry.stderr, plain.stderr) == ("", "")
    blocked, *results = json.loads(entry.stdout)
    assert blocked and results == json.loads(plain.stdout)[1:]


@pytest.mark.parametrize("blas_threads", [None, "2"], ids=["unset", "two"])
def test_python_m_peca_writes_what_main_writes(dataset, tmp_path, blas_threads):
    series, events = dataset

    def argv(tag):
        return ["multi", "--series", str(series), "--events", str(events), "--delta", "5",
                "--m", "8", "--r", "200", "--out", str(tmp_path / f"{tag}.json"),
                "--qtr", str(tmp_path / f"{tag}.csv"), "--svg", str(tmp_path / f"{tag}.svg")]

    cold = subprocess.run([sys.executable, "-m", "peca", *argv("cold")],
                          env=source_env(blas_threads), capture_output=True, timeout=120)
    code, out, _ = run_cli(argv("warm"))
    assert (cold.returncode, code) == (0, 0), cold.stderr
    assert cold.stdout.decode() == out
    for suffix in ("json", "csv", "svg"):
        cold_bytes = (tmp_path / f"cold.{suffix}").read_bytes()
        assert cold_bytes == (tmp_path / f"warm.{suffix}").read_bytes(), suffix


@pytest.mark.parametrize("scale", [1e300, 1e307])
def test_float_limit_series_end_in_a_report_or_one_fit_error(tmp_path, scale):
    # near 1e300 the fit's simplex overflows math.exp(log scale), near 1e307 the moments of
    # its start overflow: a report, or one JSON line of category fit, and no traceback or
    # warning text under Python's default warning filters
    values = scale * (1.0 + np.random.default_rng(42).random(400))
    series, events = write_inputs(tmp_path, values, (40, 200, 333), "2019-01-01")
    env = source_env()
    env.pop("PYTHONWARNINGS", None)
    for command, option in (("pointwise", ["--quantile", "0.99"]), ("multi", ["--r", "200"])):
        run = subprocess.run([sys.executable, "-m", "peca", command, "--series", str(series),
                              "--events", str(events), *option, "--out", str(tmp_path / "out.json")],
                             env=env, capture_output=True, text=True, timeout=120)
        if scale == 1e300:
            assert (run.returncode, run.stderr) == (0, ""), command
        else:
            (line,) = run.stderr.splitlines()
            assert run.returncode == 1 and json.loads(line)["error"]["category"] == "fit", command


def test_console_script_runs_the_entry_module():
    # peca.cli imports NumPy, so a script that named peca.cli:main would load
    # it before the entry could set the BLAS thread count; a text match,
    # because Python 3.10 has no tomllib
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^\[project\.scripts\]\npeca = "peca\.__main__:main"$', text, re.M)


def test_cli_defaults_come_from_analysis_config():
    from peca.cli import build_parser
    args = build_parser().parse_args(["multi", "--series", "s.csv", "--events", "e.txt"])
    defaults = AnalysisConfig()
    assert defaults.min_blocks == MIN_BLOCKS   # the GEV fit's own floor
    for field in dataclasses.fields(AnalysisConfig):
        assert getattr(args, field.name) == getattr(defaults, field.name), field.name
