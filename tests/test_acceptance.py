"""Acceptance gate: one test per shipped claim, each printing a PASS/FAIL line.

Simulation-based criteria fix their seeds; the tolerances are part of the
claims and are asserted exactly as stated.
"""

import datetime
import itertools
import json
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from scipy.stats import binom, genextreme, gumbel_r

from peca.adjust import adjust, reject_set
from peca.cli import main
from peca.multi import (
    build_ladder_from_quantiles,
    compute_tcp,
    dp_extreme_nll,
    mc_p_value,
    null_nll_replicates,
    success_probabilities,
    tcp_nll,
)
from peca.nulls import block_maxima, fit_gev_mle
from peca.series import rung_index
from peca.sim import (
    SimConfig,
    gen_dependent_events,
    gen_independent_events,
    gen_ma_exponential,
    null_distribution_comparison,
)


def report_line(number, ok, detail):
    print(f"\nACCEPTANCE {number:>2} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def synthetic_dataset(tmp_path_factory):
    """A 1096-day daily-count CSV with 17 event dates, one per reported case."""
    root = tmp_path_factory.mktemp("acceptance")
    rng = np.random.default_rng(20150101)
    start = datetime.date(2015, 1, 1)
    n = 1096
    base = rng.poisson(40 + 12 * np.sin(np.arange(n) * 2 * np.pi / 7.0))
    bursts = (rng.random(n) < 0.03) * rng.poisson(300, n)
    series = root / "series.csv"
    with open(series, "w") as fh:
        fh.write("date,value\n")
        for i, v in enumerate(base + bursts):
            fh.write(f"{(start + datetime.timedelta(days=i)).isoformat()},{int(v)}\n")
    events = root / "events.txt"
    days = sorted(rng.choice(n, size=17, replace=False))
    with open(events, "w") as fh:
        for i in days:
            fh.write(f"{(start + datetime.timedelta(days=int(i))).isoformat()}\n")
    return root, series, events


def test_criterion_1_null_distribution_accuracy():
    # T=4096, orders {0,32,64}, delta=7, N=32, 1000 event replicates,
    # taus {3,4,5}; GEV CMF within 0.06 of empirical everywhere and strictly
    # better than Bernoulli on the dependent series.  Seed choice documented
    # in the decisions ledger.
    t0 = time.perf_counter()
    res = null_distribution_comparison(SimConfig(seed=131))
    elapsed = time.perf_counter() - t0
    worst = max(c.sup_gev for c in res.cells)
    gev_ok = worst <= 0.06
    dominance_ok = all(c.sup_bernoulli > c.sup_gev
                       for c in res.cells if c.ma_order in (32, 64))
    runtime_ok = elapsed < 300.0
    ok = gev_ok and dominance_ok and runtime_ok
    report_line(1, ok, f"worst GEV sup-distance {worst:.4f} <= 0.06, "
                       f"Bernoulli worse on every dependent cell: {dominance_ok}, "
                       f"runtime {elapsed:.1f}s < 300s")
    assert gev_ok
    assert dominance_ok
    assert runtime_ok


def test_criterion_2_planted_trigger_construction():
    x = gen_ma_exponential(4096, 8, seed=(0, 100))
    dep = gen_dependent_events(x, 32, 4.0, 4, seed=(0, 101))
    ind = gen_independent_events(4096, 32, seed=(0, 102))
    rate4 = compute_tcp(dep, rung_index(x, 7, [4.0]), 1)[0] / dep.n_events
    ladder = build_ladder_from_quantiles(x, 0.75, 1.0, 32)
    rungs = rung_index(x, 7, ladder.thresholds)
    rd = compute_tcp(dep, rungs, ladder.m) / dep.n_events
    ri = compute_tcp(ind, rungs, ladder.m) / ind.n_events
    i4 = int(np.argmax(ladder.thresholds >= 4.0))
    # at the top level the threshold is the series maximum, which nothing
    # strictly exceeds, so both curves are identically zero there
    strict = [bool(rd[i] > ri[i]) for i in range(i4, ladder.m) if ladder.levels[i] < 1.0]
    top_zero = (ladder.levels[-1] < 1.0) or (rd[-1] == ri[-1] == 0.0)
    ok = rate4 == 1.0 and all(strict) and top_zero
    report_line(2, ok, f"trigger rate at threshold 4 = {rate4} (exact), strict QTR dominance "
                       f"on {len(strict)} levels >= level(4.0)={ladder.levels[i4]:.3f}")
    assert rate4 == 1.0
    assert all(strict)
    assert top_zero


def test_criterion_3_qtr_identity_line():
    x = gen_ma_exponential(4096, 0, seed=(3000, 0))
    ladder = build_ladder_from_quantiles(x, 0.0, 1.0, 21)
    rungs = rung_index(x, 0, ladder.thresholds)
    rates = np.empty((100, ladder.m))
    for j in range(100):
        e = gen_independent_events(4096, 32, seed=(3000, 1, j))
        rates[j] = compute_tcp(e, rungs, ladder.m) / e.n_events
    mean = rates.mean(axis=0)
    se = rates.std(axis=0, ddof=1) / np.sqrt(100)
    target = 1.0 - ladder.levels
    # 1/T covers the deterministic offset of the empirical-quantile grid and
    # of strict exceedance at the endpoints; it is two orders below the Monte
    # Carlo term everywhere in the interior
    bound = 3.0 * se + 1.0 / 4096
    worst = np.max(np.abs(mean - target) - bound)
    ok = bool(np.all(np.abs(mean - target) <= bound))
    report_line(3, ok, f"21 levels, max excess over (3 MC SE + 1/T): {worst:.2e}")
    assert ok


def test_criterion_4_test_calibration():
    rejections = 0
    for i in range(500):
        x = gen_ma_exponential(4096, 8, seed=(7000, i, 0))
        e = gen_independent_events(4096, 32, seed=(7000, i, 1))
        fit = fit_gev_mle(block_maxima(x, 7))
        ladder = build_ladder_from_quantiles(x, 0.75, 1.0, 32)
        rungs = rung_index(x, 7, ladder.thresholds)
        pis = success_probabilities(ladder, fit.params)
        null_seed = int(np.random.SeedSequence((7000, i, 2)).generate_state(1)[0])
        nulls = null_nll_replicates(rungs, e.n_events, pis, r=200, seed=null_seed)
        statistic = tcp_nll(compute_tcp(e, rungs, ladder.m), e.n_events, pis)
        rejections += mc_p_value(statistic, nulls) < 0.05
    lo = int(binom.ppf(0.005, 500, 0.05))
    hi = int(binom.ppf(0.995, 500, 0.05))
    ok = lo <= rejections <= hi
    report_line(4, ok, f"{rejections} rejections at alpha=.05 over 500 null datasets, "
                       f"exact binomial 99% interval [{lo}, {hi}]")
    assert ok


def iter_monotone(m, n):
    for ks in itertools.product(range(n + 1), repeat=m):
        if all(ks[i] >= ks[i + 1] for i in range(m - 1)):
            yield ks


def test_criterion_5_dp_envelope():
    # simulated replicates stay inside the exact envelope
    x = gen_ma_exponential(4096, 8, seed=(5000, 0))
    e = gen_independent_events(4096, 32, seed=(5000, 1))
    fit = fit_gev_mle(block_maxima(x, 7))
    ladder = build_ladder_from_quantiles(x, 0.75, 1.0, 32)
    pis = success_probabilities(ladder, fit.params)
    nlls = null_nll_replicates(rung_index(x, 7, ladder.thresholds), e.n_events, pis, r=1000,
                               seed=50)
    lo, _ = dp_extreme_nll(32, pis, "min")
    hi, _ = dp_extreme_nll(32, pis, "max")
    inside = bool(np.all((nlls >= lo - 1e-9) & (nlls <= hi + 1e-9)))

    # and the dp optimum equals exhaustive search exactly on small instances
    rng = np.random.default_rng(55)
    exact = True
    for m in (1, 2, 3):
        for n in (1, 4, 6):
            p = np.sort(rng.uniform(0.05, 0.95, size=m))[::-1].copy()
            finite = [tcp_nll(np.array(ks), n, p)
                      for ks in iter_monotone(m, n)]
            finite = [v for v in finite if np.isfinite(v)]
            exact &= dp_extreme_nll(n, p, "min")[0] == min(finite)
            exact &= dp_extreme_nll(n, p, "max")[0] == max(finite)
    ok = inside and exact
    report_line(5, ok, f"1000 replicate NLLs within [dp_min, dp_max]: {inside}; "
                       f"dp equals exhaustive search on all small instances: {exact}")
    assert inside
    assert exact


def test_criterion_6_markov_normalization():
    rng = np.random.default_rng(66)
    worst = 0.0
    for m in (1, 2, 3):
        for n in (1, 2, 4, 6):
            pis = np.sort(rng.uniform(0.05, 0.95, size=m))[::-1].copy()
            total = 0.0
            for ks in iter_monotone(m, n):
                v = tcp_nll(np.array(ks), n, pis)
                if np.isfinite(v):
                    total += np.exp(-v)
            worst = max(worst, abs(total - 1.0))
    ok = worst <= 1e-9
    report_line(6, ok, f"max |sum exp(-NLL) - 1| = {worst:.2e} <= 1e-9 over M<=3, N<=6")
    assert ok


def test_criterion_7_gev_fitting():
    z = genextreme.rvs(-0.2, loc=3.0, scale=1.0, size=5000,
                       random_state=np.random.default_rng(77))
    fit = fit_gev_mle(z)
    err = (abs(fit.params.shape - 0.2), abs(fit.params.location - 3.0),
           abs(fit.params.scale - 1.0))
    zg = gumbel_r.rvs(loc=0.0, scale=1.0, size=5000,
                      random_state=np.random.default_rng(78))
    shape_g = fit_gev_mle(zg).params.shape
    ok = all(e < 0.1 for e in err) and abs(shape_g) < 0.1
    report_line(7, ok, f"GEV(0.2,3,1) errors (shape,loc,scale)=({err[0]:.3f},{err[1]:.3f},"
                       f"{err[2]:.3f}) < 0.1; Gumbel data shape {shape_g:+.3f}, |.| < 0.1")
    assert ok


def test_criterion_8_adjustments():
    holm = adjust(np.array([0.01, 0.04, 0.03]), "holm")
    holm_ok = np.allclose(holm, [0.03, 0.06, 0.06], atol=1e-12)
    sidak = adjust(np.array([0.01, 0.4, 0.9]), "sidak")[0]
    sidak_ok = abs(sidak - 0.029701) <= 1e-9
    rng = np.random.default_rng(88)
    superset = True
    for _ in range(1000):
        raw = rng.random(int(rng.integers(1, 13)))
        h = reject_set(adjust(raw, "holm"), 0.05)
        b = reject_set(adjust(raw, "bonferroni"), 0.05)
        superset &= bool(np.all(h | ~b))
    ok = holm_ok and sidak_ok and superset
    report_line(8, ok, f"holm fixture: {holm_ok}, sidak .01/m=3 -> {sidak:.6f} (+-1e-9): "
                       f"{sidak_ok}, holm superset of bonferroni on 1000 vectors: {superset}")
    assert ok


def test_criterion_9_cli_determinism(synthetic_dataset, tmp_path):
    root, series, events = synthetic_dataset
    blobs = []
    for tag in ("r1", "r2"):
        out = tmp_path / f"{tag}.json"
        qtr = tmp_path / f"{tag}.csv"
        svg = tmp_path / f"{tag}.svg"
        code = main(["multi", "--series", str(series), "--events", str(events),
                     "--preprocess", "--delta", "7", "--r", "10000", "--seed", "11",
                     "--out", str(out), "--qtr", str(qtr),
                     "--svg", str(svg)])
        assert code == 0
        blobs.append((out.read_bytes(), qtr.read_bytes(), svg.read_bytes()))
    ok = blobs[0] == blobs[1]
    report_line(9, ok, "multi run outputs byte-identical across two runs")
    assert ok


def test_criterion_10_full_pipeline_on_synthetic_data(synthetic_dataset, tmp_path):
    # the reported case needs data that cannot be redistributed; this runs the
    # same shape end to end: 1096 daily counts, 17 events, default replicates
    root, series, events = synthetic_dataset
    out = tmp_path / "report.json"
    qtr = tmp_path / "qtr.csv"
    svg = tmp_path / "qtr.svg"
    code = main(["multi", "--series", str(series), "--events", str(events),
                 "--preprocess", "--delta", "7", "--seed", "0",
                 "--out", str(out), "--qtr", str(qtr), "--svg", str(svg)])
    report = json.loads(out.read_text())
    complete = set(report) == {"command", "config", "series", "ladder", "gev",
                               "multi_test", "pointwise", "warnings"}
    default_r = report["config"]["r"] == 10000
    sized = (report["series"]["length"] == 1096 and report["series"]["n_events"] == 17
             and report["multi_test"]["replicates"] == 10000)
    rows = qtr.read_text().splitlines()
    table_ok = len(rows) == report["ladder"]["size"] + 1
    ET.parse(svg)
    ok = code == 0 and complete and default_r and sized and table_ok
    report_line(10, ok, f"exit 0, report complete: {complete}, default replicates: "
                        f"{default_r}, T=1096/N=17 shape: {sized}, QTR rows: {table_ok}, "
                        f"SVG well-formed: True")
    assert ok
