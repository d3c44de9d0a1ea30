"""Self-tests of the benchmark: the output checker, span arithmetic and BENCHMARK.json.

Run from the root of a checkout: python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module")
def good_multi(tmp_path_factory):
    """A real multi report on the paper-daily shape, with few replicates."""
    from peca.cli import main

    work = tmp_path_factory.mktemp("multi")
    data = inputs.make_series_input("paper-daily", 3, work, 7)
    paths = {name: work / name for name in ("multi.json", "qtr.csv", "qtr.svg")}
    code = main(["multi", "--series", str(data.series_path), "--events", str(data.events_path),
                 "--delta", "7", "--preprocess", "--m", "32", "--r", "199", "--seed", "0",
                 "--out", str(paths["multi.json"]), "--qtr", str(paths["qtr.csv"]),
                 "--svg", str(paths["qtr.svg"])])
    assert code == 0
    texts = {name: p.read_text(encoding="utf-8") for name, p in paths.items()}
    return texts, checks.reference_values(data.values, preprocess=True), data.events


def _check(texts, x, events):
    return checks.check_multi(texts["multi.json"], texts["qtr.csv"], texts["qtr.svg"],
                              x, events, 7, 0.75, 1.0, 32, 199)


def test_good_report_passes(good_multi):
    assert _check(*good_multi) == []


def test_altered_count_is_flagged(good_multi):
    texts, x, events = good_multi
    report = json.loads(texts["multi.json"])
    report["pointwise"]["k_observed"][-1] += 1
    bad = dict(texts, **{"multi.json": json.dumps(report)})
    assert [p.kind for p in _check(bad, x, events)] == ["value"]


def test_altered_qtr_count_is_flagged(good_multi):
    texts, x, events = good_multi
    header, first, *rest = texts["qtr.csv"].splitlines()
    cells = first.split(",")
    cells[2] = str(int(cells[2]) + 1)
    bad = dict(texts, **{"qtr.csv": "\n".join([header, ",".join(cells), *rest]) + "\n"})
    assert [p.kind for p in _check(bad, x, events)] == ["value"]


def test_injected_nan_is_flagged(good_multi):
    texts, x, events = good_multi
    report = json.loads(texts["multi.json"])
    report["multi_test"]["null_median"] = float("nan")
    bad = dict(texts, **{"multi.json": json.dumps(report)})
    assert [p.kind for p in _check(bad, x, events)] == ["format"]
    svg = texts["qtr.svg"].replace('points="', 'points="nan,nan ', 1)
    assert [p.kind for p in _check(dict(texts, **{"qtr.svg": svg}), x, events)] == ["format"]


@pytest.mark.parametrize("p_hat, ok", [(1 / 200, True), (200 / 200, True), (0.0, False),
                                       (1.5 / 200, False), (float("nan"), False)])
def test_p_hat_lattice(p_hat, ok):
    assert (checks.check_p_hat(p_hat, 199, "t") == []) == ok


def test_self_time_subtracts_children(tmp_path):
    spans = tmp_path / "spans.json"
    spans.write_text(json.dumps({
        "names": ["cli.main", "multi.compute_tcp", "nulls.gev_sf"],
        "spans": [[0, 0.0, 10.0, -1], [1, 1.0, 4.0, 0], [1, 5.0, 6.0, 0], [2, 2.0, 3.0, 1]],
    }))
    wrapped, totals = layers.aggregate_spans([spans])
    assert wrapped == {"cli.main", "multi.compute_tcp", "nulls.gev_sf"}
    assert (totals["cli.main"].self_s, totals["cli.main"].calls) == (6.0, 1)
    assert (totals["multi.compute_tcp"].self_s, totals["multi.compute_tcp"].calls) == (3.0, 2)
    assert totals["multi.compute_tcp"].total_s == 4.0


def test_tracer_times_calls_across_and_within_modules(tmp_path):
    data = inputs.make_series_input("paper-daily", 4, tmp_path, 7)
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(ROOT / "bench" / "tracer.py"), str(spans), "multi",
                    "--series", str(data.series_path), "--events", str(data.events_path),
                    "--r", "50", "--out", str(tmp_path / "multi.json")], env=env, check=True)
    _, totals = layers.aggregate_spans([spans])
    # run_multi calls compute_tcp through the name cli binds; the null loop
    # calls permute_events through the name multi binds
    assert totals["multi.compute_tcp"].calls == 3
    assert totals["multi.permute_events"].calls == 50
    assert totals["cli.main"].calls == 1


def test_missing_or_uncalled_function_reads_zero():
    totals = {"multi.compute_tcp": layers.FunctionTotals(calls=3, total_s=0.5, self_s=0.25)}
    # permute_events gone from the program, gen_independent_events present but never called
    got = layers.job_layer_metrics({"multi.compute_tcp", "sim.gen_independent_events"},
                                   totals, rows_per_ingest=10, replicates_per_call=100)
    assert got == {"multi.compute_tcp.calls": 3, "multi.compute_tcp.self_s": 0.25,
                   "sim.gen_independent_events.calls": 0}
    selected = layers.select([got])
    assert set(selected) == {m.name for m in layers.PER_LAYER}
    assert selected["multi.permute_events.calls"] == 0
    assert selected["sim.gen_independent_events.self_s"] == 0


def test_importtime_parse():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       900 |      90000 |   numpy\n"
            "import time:       100 |     500000 |     scipy.stats\n"
            "import time:       800 |    1200000 | peca.cli\n")
    assert layers.parse_importtime(text) == {
        "import.numpy_s": 0.09, "import.scipy_stats_s": 0.5, "import.peca_cli_s": 1.2}


def test_benchmark_json_matches_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in run.WORKLOADS.values()]
    assert spec["end_to_end"] == [{"name": n, "unit": u, "better": b, "bound": bound}
                                  for n, u, b, bound in run.END_TO_END]
    assert spec["per_layer"] == [{"name": m.name, "unit": m.unit, "better": m.better}
                                 for m in layers.PER_LAYER]
