"""End-to-end runs of the command line interface, in process."""

import contextlib
import datetime
import io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import peca
from peca.cli import AnalysisConfig, main


def run_cli(args):
    err = io.StringIO()
    out = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def dataset(tmp_path):
    rng = np.random.default_rng(42)
    start = datetime.date(2019, 1, 1)
    n = 400
    values = rng.poisson(30, size=n) + (rng.random(n) < 0.05) * rng.poisson(200, size=n)
    series = tmp_path / "series.csv"
    with open(series, "w") as fh:
        fh.write("date,value\n")
        for i, v in enumerate(values):
            fh.write(f"{(start + datetime.timedelta(days=i)).isoformat()},{int(v)}\n")
    events = tmp_path / "events.txt"
    days = sorted(rng.choice(n, size=12, replace=False))
    with open(events, "w") as fh:
        for i in days:
            fh.write(f"{(start + datetime.timedelta(days=int(i))).isoformat()}\n")
    return series, events


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
    assert set(report["gev"]) == {"shape", "location", "scale", "converged", "nll", "n_blocks"}


def test_pointwise_fixed_tau_without_out_writes_stdout(dataset):
    series, events = dataset
    code, out, _ = run_cli(["pointwise", "--series", str(series), "--events", str(events),
                            "--tau", "100"])
    assert code == 0
    report = json.loads(out)
    assert report["threshold"] == 100.0
    assert report["quantile_level"] is None


def test_multi_report_and_files(dataset, tmp_path):
    series, events = dataset
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
    assert report["ladder"]["requested"] == 16
    pw = report["pointwise"]
    assert len(pw["raw_p_values"]) == report["ladder"]["size"]
    assert pw["adjust_method"] == "holm"
    assert all(a >= r - 1e-12 for a, r in zip(pw["adjusted_p_values"], pw["raw_p_values"]))

    rows = qtr.read_text().splitlines()
    assert rows[0].split(",")[0] == "quantile_level"
    assert len(rows) == report["ladder"]["size"] + 1
    rates = [float(r.split(",")[3]) for r in rows[1:]]
    assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
    ET.parse(svg)


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
    bad.write_text("date,value\n2020-01-01,1\n2020-01-05,2\n")
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
    series = tmp_path / "s.csv"
    with open(series, "w") as fh:
        fh.write("date,value\n")
        d = datetime.date(2020, 1, 1)
        for i in range(200):
            fh.write(f"{(d + datetime.timedelta(days=i)).isoformat()},5\n")
    ev = tmp_path / "e.txt"
    ev.write_text("2020-03-01\n")
    code, _, err = run_cli(["pointwise", "--series", str(series), "--events", str(ev),
                            "--tau", "6"])
    assert code == 1
    assert json.loads(err)["error"]["category"] == "fit"


def test_config_error_category(dataset):
    series, events = dataset
    code, _, err = run_cli(["multi", "--series", str(series), "--events", str(events),
                            "--qlo", "0.9", "--qhi", "0.5"])
    assert code == 1
    assert json.loads(err)["error"]["category"] == "config"


def test_io_error_category(dataset, tmp_path):
    series, events = dataset
    code, _, err = run_cli(["pointwise", "--series", str(series), "--events", str(events),
                            "--tau", "1", "--out", str(tmp_path / "no" / "dir" / "x.json")])
    assert code == 1
    assert json.loads(err)["error"]["category"] == "io"


def test_missing_series_file(tmp_path):
    ev = tmp_path / "e.txt"
    ev.write_text("2020-01-01\n")
    code, _, err = run_cli(["pointwise", "--series", str(tmp_path / "nope.csv"),
                            "--events", str(ev), "--tau", "1"])
    assert code == 1
    assert json.loads(err)["error"]["category"] in ("io", "ingest")


def test_late_event_warning(dataset, tmp_path):
    series, events = dataset
    # append an event inside the final tolerance window
    with open(events, "a") as fh:
        fh.write("2020-02-04\n")  # day 400 of the grid
    out = tmp_path / "r.json"
    code, _, _ = run_cli(["pointwise", "--series", str(series), "--events", str(events),
                          "--quantile", "0.9", "--delta", "5", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert any("never be counted" in w for w in report["warnings"])


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
    for cell in cells:
        assert 0.0 <= cell["sup_gev"] <= 1.0


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


def test_analysis_config_validation():
    with pytest.raises(ValueError):
        AnalysisConfig(delta=-1)
    with pytest.raises(ValueError):
        AnalysisConfig(qlo=0.9, qhi=0.5)
    with pytest.raises(ValueError):
        AnalysisConfig(adjust_method="fdr")
    with pytest.raises(ValueError):
        AnalysisConfig(alpha=0.0)


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats costs about half a second of every cold process; the
    # package needs only scipy.optimize and scipy.special
    src = str(Path(peca.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = "import peca.cli, sys; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"
