"""Generators and the null-comparison study."""

import csv
import itertools

import numpy as np
import pytest

from peca.multi import compute_tcp
from peca.series import rung_index
from peca.sim import (
    SimConfig,
    _causal_mean_filter,
    _filtered_exponential,
    _pcg64_states,
    _seed_words,
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
    with pytest.raises(ValueError, match="repeated filter order"):
        SimConfig(ma_orders=(0, 32, 0))


def small_config():
    return SimConfig(length=1024, ma_orders=(0, 8), n_events=16, delta=3,
                     thresholds=(2.5, 3.5), replicates=100, seed=54)


def sup_distances(cmfs):
    """(order, tau, [Bernoulli, GEV]) sup-distances of the analytical CMFs from the empirical one."""
    return np.abs(cmfs[:, :, 1:] - cmfs[:, :, :1]).max(axis=-1)


def test_comparison_shape_and_cmf_properties():
    cmfs = null_distribution_comparison(small_config())
    assert cmfs.shape == (2, 2, 3, 17) and cmfs.dtype == float
    assert np.all((0 <= cmfs) & (cmfs <= 1))
    emp = cmfs[:, :, 0]
    assert np.all(np.diff(emp, axis=-1) >= 0)
    np.testing.assert_allclose(emp[..., -1], 1.0)
    assert np.all(np.diff(cmfs[:, :, 1:], axis=-1) >= -1e-12)
    sups = sup_distances(cmfs)
    assert sups.shape == (2, 2, 2)
    assert sups[1, 0, 1] == np.max(np.abs(cmfs[1, 0, 2] - cmfs[1, 0, 0]))


def test_comparison_determinism():
    np.testing.assert_array_equal(null_distribution_comparison(small_config()),
                                  null_distribution_comparison(small_config()))


@pytest.mark.parametrize("seed, replicates", [
    *(pytest.param(seed, 40, id=str(seed)) for seed in (131, 2**32 - 1, 2**32, 2**64 + 5)),
    pytest.param(131, 1025, id="131-1025"),   # crosses a seeding block
])
def test_replicates_draw_the_stream_of_gen_independent_events(seed, replicates):
    # replicate j of order q places its events as default_rng((seed, q, 1, j))
    # does, seeds past one 32-bit word included
    config = SimConfig(length=256, ma_orders=(0, 4), n_events=8, replicates=replicates, seed=seed)
    cmfs = null_distribution_comparison(config)
    ks = np.arange(config.n_events + 1)
    for oi, order in enumerate(config.ma_orders):
        x = gen_ma_exponential(config.length, order, seed=(seed, order, 0))
        rungs = rung_index(x, config.delta, config.thresholds)
        counts = np.array([
            compute_tcp(gen_independent_events(config.length, config.n_events, seed=(seed, order, 1, j)),
                        rungs, len(config.thresholds))
            for j in range(config.replicates)])
        for i, tau in enumerate(config.thresholds):
            want = np.searchsorted(np.sort(counts[:, i]), ks, side="right") / config.replicates
            assert cmfs[oi, i, 0].tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [0, 131, 2**32 - 1, 2**32, 2**64 + 5])   # 4, 5 and 6 words
@pytest.mark.parametrize("order", [0, 64])
def test_pcg64_states_match_seed_sequence(seed, order):
    # the port of SeedSequence and PCG64's seeding gives NumPy's own state, for
    # entropy past the pool of 4 words and j across a block boundary up to 2**32 - 1
    words = _seed_words(seed, order, 1, 0)
    js = [0, 1, 1023, 1024, 2**31, 2**32 - 1]
    for j, state in zip(js, _pcg64_states(words, js), strict=True):
        want = np.random.PCG64(np.random.SeedSequence(words[:-1] + [j])).state
        assert state["state"] == want["state"], j
        assert state["has_uint32"] == state["uinteger"] == 0
        assert state == want


def test_iid_series_bernoulli_null_is_accurate():
    # order 0 with the reference protocol; both analytical nulls should sit
    # close to the Monte Carlo distribution on an iid series
    config = SimConfig(seed=54)
    assert config.ma_orders[0] == 0 and config.thresholds == (3.0, 4.0, 5.0)
    sups = sup_distances(null_distribution_comparison(config))
    assert np.all(sups[0] <= 0.05)


def test_dependent_series_gev_null_beats_bernoulli():
    config = SimConfig(seed=131)
    assert config.ma_orders[1:] == (32, 64) and config.thresholds == (3.0, 4.0, 5.0)
    sups = sup_distances(null_distribution_comparison(config))
    assert np.all(sups[1:, :, 1] < sups[1:, :, 0])


def test_comparison_csv_roundtrip(tmp_path):
    config = small_config()
    cmfs = null_distribution_comparison(config)
    path = tmp_path / "cmp.csv"
    write_comparison_csv(config, cmfs, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert ([(int(r["order"]), float(r["tau"]), int(r["k"])) for r in rows]
            == list(itertools.product((0, 8), (2.5, 3.5), range(17))))
    got = np.array([[float(r[col]) for col in ("empirical_cmf", "bernoulli_cmf", "gev_cmf")]
                    for r in rows])
    np.testing.assert_array_equal(got.reshape(2, 2, 17, 3).transpose(0, 1, 3, 2), cmfs)
