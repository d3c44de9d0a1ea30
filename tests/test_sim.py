"""Generators and the null-comparison study."""

import csv

import numpy as np
import pytest

from peca.multi import compute_tcp
from peca.series import rung_index
from peca.sim import (
    NullComparisonResult,
    SimConfig,
    _causal_mean_filter,
    _filtered_exponential,
    gen_dependent_events,
    gen_independent_events,
    gen_ma_exponential,
    null_distribution_comparison,
    write_comparison_csv,
)


def test_causal_filter_hand_case():
    draws = np.array([2.0, 4.0, 6.0, 8.0])
    out = _causal_mean_filter(draws, 2)
    # first value sees only itself, the rest average two draws
    np.testing.assert_allclose(out, [2.0, 3.0, 5.0, 7.0])


def test_filter_orders_zero_and_one_are_identity():
    draws = np.random.default_rng(0).exponential(size=50)
    np.testing.assert_array_equal(_causal_mean_filter(draws, 0), draws)
    np.testing.assert_array_equal(_causal_mean_filter(draws, 1), draws)


def test_raw_moments_before_standardization(rng):
    # order 0 is the plain exponential sample; mean and variance sit near 1
    raw = _filtered_exponential(rng, 4096, 0)
    se_mean = 1.0 / np.sqrt(4096)
    assert abs(raw.mean() - 1.0) < 5 * se_mean
    # var of the variance estimator for Exp(1) is (kurtosis excess + 2)/n = 10/n
    assert abs(raw.var(ddof=1) - 1.0) < 5 * np.sqrt(10.0 / 4096)


def test_output_standardized_and_anchored_at_zero():
    for order in (0, 8, 32):
        x = gen_ma_exponential(4096, order, seed=(10, order))
        assert x.values.min() == 0.0
        assert np.all(np.isfinite(x.values))
        # shifting by the minimum leaves the unit standard deviation intact
        assert np.std(x.values, ddof=1) == pytest.approx(1.0, rel=1e-9)
        assert x.values.mean() > 0.0


def test_filtering_increases_autocorrelation():
    def lag1(v):
        a = v - v.mean()
        return float(np.dot(a[:-1], a[1:]) / np.dot(a, a))

    x0 = gen_ma_exponential(4096, 0, seed=(2, 0))
    x32 = gen_ma_exponential(4096, 32, seed=(2, 32))
    assert lag1(x32.values) > lag1(x0.values)


def test_generator_determinism():
    a = gen_ma_exponential(512, 8, seed=(1, 2, 3))
    b = gen_ma_exponential(512, 8, seed=(1, 2, 3))
    np.testing.assert_array_equal(a.values, b.values)


def test_gen_ma_size_validation():
    with pytest.raises(ValueError):
        gen_ma_exponential(8, 8, seed=0)
    with pytest.raises(ValueError):
        gen_ma_exponential(10, -1, seed=0)


def test_independent_events_bounds_and_edges():
    e = gen_independent_events(100, 10, seed=4)
    assert e.n_events == 10
    assert e.length == 100
    assert gen_independent_events(5, 0, seed=1).n_events == 0
    assert gen_independent_events(5, 5, seed=1).occurrences.tolist() == [1, 2, 3, 4, 5]
    with pytest.raises(ValueError):
        gen_independent_events(5, 6, seed=1)


def test_dependent_events_postcondition():
    x = gen_ma_exponential(4096, 8, seed=(0, 100))
    e = gen_dependent_events(x, 32, 4.0, 4, seed=(0, 101))
    assert e.n_events == 32
    for pos in e.occurrences:
        assert x.values[pos + 4 - 1] > 4.0
    # with a tolerance at least as long as the lag, every event scores
    assert compute_tcp(e, rung_index(x, 7, [4.0]), 1)[0] / e.n_events == 1.0


def test_dependent_events_insufficient_exceedances():
    x = gen_ma_exponential(256, 0, seed=(3, 0))
    with pytest.raises(ValueError):
        gen_dependent_events(x, 64, float(x.values.max()), 1, seed=5)


def test_simconfig_validation():
    with pytest.raises(ValueError):
        SimConfig(length=16, ma_orders=(32,))
    with pytest.raises(ValueError):
        SimConfig(n_events=-1)
    with pytest.raises(ValueError):
        SimConfig(replicates=0)


def small_config():
    return SimConfig(length=1024, ma_orders=(0, 8), n_events=16, delta=3,
                     thresholds=(2.5, 3.5), replicates=100, seed=54)


def test_comparison_shape_and_cmf_properties():
    res = null_distribution_comparison(small_config())
    assert isinstance(res, NullComparisonResult)
    assert len(res.cells) == 4
    for cell in res.cells:
        emp = cell.empirical_cmf
        assert emp.size == 17
        assert np.all(np.diff(emp) >= 0)
        assert emp[-1] == pytest.approx(1.0)
        for model in (cell.bernoulli_cmf, cell.gev_cmf):
            assert np.all((0 <= model) & (model <= 1))
            assert np.all(np.diff(model) >= -1e-12)
        assert cell.sup_bernoulli == pytest.approx(np.max(np.abs(emp - cell.bernoulli_cmf)), abs=1e-15)
        assert cell.sup_gev == pytest.approx(np.max(np.abs(emp - cell.gev_cmf)), abs=1e-15)


def test_comparison_lookup_and_determinism():
    res1 = null_distribution_comparison(small_config())
    res2 = null_distribution_comparison(small_config())
    c1 = res1.cell(8, 2.5)
    c2 = res2.cell(8, 2.5)
    np.testing.assert_array_equal(c1.empirical_cmf, c2.empirical_cmf)
    with pytest.raises(KeyError):
        res1.cell(99, 2.5)


@pytest.mark.parametrize("seed", [131, 2**32 - 1, 2**32, 2**64 + 5])
def test_replicates_draw_the_stream_of_gen_independent_events(seed):
    # replicate j of order q places its events as default_rng((seed, q, 1, j))
    # does, seeds past one 32-bit word included
    config = SimConfig(length=256, ma_orders=(0, 4), n_events=8, replicates=40, seed=seed)
    res = null_distribution_comparison(config)
    ks = np.arange(config.n_events + 1)
    for order in config.ma_orders:
        x = gen_ma_exponential(config.length, order, seed=(seed, order, 0))
        rungs = rung_index(x, config.delta, config.thresholds)
        counts = np.array([
            compute_tcp(gen_independent_events(config.length, config.n_events, seed=(seed, order, 1, j)),
                        rungs, len(config.thresholds))
            for j in range(config.replicates)])
        for i, tau in enumerate(config.thresholds):
            want = np.searchsorted(np.sort(counts[:, i]), ks, side="right") / config.replicates
            assert res.cell(order, tau).empirical_cmf.tobytes() == want.tobytes()


def test_iid_series_bernoulli_null_is_accurate():
    # order 0 with the reference protocol; both analytical nulls should sit
    # close to the Monte Carlo distribution on an iid series
    res = null_distribution_comparison(SimConfig(seed=54))
    for tau in (3.0, 4.0, 5.0):
        cell = res.cell(0, tau)
        assert cell.sup_bernoulli <= 0.05
        assert cell.sup_gev <= 0.05


def test_dependent_series_gev_null_beats_bernoulli():
    res = null_distribution_comparison(SimConfig(seed=131))
    for order in (32, 64):
        for tau in (3.0, 4.0, 5.0):
            cell = res.cell(order, tau)
            assert cell.sup_gev < cell.sup_bernoulli


def test_comparison_csv_roundtrip(tmp_path):
    res = null_distribution_comparison(small_config())
    path = tmp_path / "cmp.csv"
    write_comparison_csv(res, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 * 17
    got = [float(r["empirical_cmf"]) for r in rows
           if int(r["order"]) == 8 and float(r["tau"]) == 2.5]
    np.testing.assert_array_equal(got, res.cell(8, 2.5).empirical_cmf)
