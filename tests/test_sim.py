"""Generators and the null-comparison study."""

import csv
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from peca.cli import main
from peca.multi import compute_tcp
from peca.series import rung_index, trailing_mean
from peca.sim import (
    _LANE_MAX_EVENTS,
    _SEED_BLOCK,
    SimConfig,
    _lane_choice,
    _numpy_choice,
    _pcg64_raw,
    _pcg64_seeded,
    _replicate_positions,
    _seed_words,
    gen_dependent_events,
    gen_independent_events,
    gen_ma_exponential,
    null_distribution_comparison,
)
from shared import placement_law, placement_p_value, sup_distances


def standardized(y):
    """``gen_ma_exponential``'s last steps: zero mean, unit variance, minimum at 0."""
    y = (y - y.mean()) / y.std(ddof=1)
    return y - y.min()


def old_ma_filter(draws, order):
    """Reference: the order >= 2 filter of the simulated series before ``trailing_mean``."""
    cs = np.cumsum(draws)
    out = np.empty_like(draws)
    head = min(order - 1, draws.size)
    out[:head] = cs[:head] / np.arange(1, head + 1)
    if draws.size >= order:
        shifted = np.concatenate(([0.0], cs[:-order]))
        out[order - 1:] = (cs[order - 1:] - shifted) / order
    return out


def test_causal_filter_hand_case():
    draws = np.array([2.0, 4.0, 6.0, 8.0])
    out = trailing_mean(draws, 2)
    # first value sees only itself, the rest average two draws
    np.testing.assert_allclose(out, [2.0, 3.0, 5.0, 7.0])


def test_filter_orders_zero_and_one_are_identity():
    # both orders keep the raw draws: only the standardization acts on them
    draws = np.random.default_rng(0).exponential(size=50)
    np.testing.assert_array_equal(gen_ma_exponential(50, 0, seed=0).values, standardized(draws))
    np.testing.assert_array_equal(gen_ma_exponential(50, 1, seed=0).values, standardized(draws))


def test_filter_orders_match_the_old_filter():
    for order in (2, 8, 32, 64):
        draws = np.random.default_rng((4, order)).exponential(1.0, size=4096)
        np.testing.assert_array_equal(gen_ma_exponential(4096, order, seed=(4, order)).values,
                                      standardized(old_ma_filter(draws, order)))


def test_raw_moments_before_standardization():
    # order 0 standardizes the plain exponential sample; its mean and variance sit near 1
    raw = np.random.default_rng(0).exponential(1.0, size=4096)
    np.testing.assert_array_equal(gen_ma_exponential(4096, 0, seed=0).values, standardized(raw))
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


def test_independent_events_follow_the_exact_placement_law():
    # one step per rung: each of the 495 sets of 4 steps is a process, expected 20.2 times
    rng = np.random.default_rng(123)
    steps = np.arange(12)
    drawn = [compute_tcp(gen_independent_events(12, 4, rng), steps, 11) for _ in range(10000)]
    assert placement_p_value(drawn, placement_law(steps, 4, 11)) > 1e-3


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
    with pytest.raises(ValueError, match="^series length must exceed the largest filter order$"):
        SimConfig(length=16, ma_orders=(32,))
    with pytest.raises(ValueError, match=r"^n_events must lie in \[0, length\]$"):
        SimConfig(n_events=-1)
    with pytest.raises(ValueError, match="^need at least one replicate$"):
        SimConfig(replicates=0)
    with pytest.raises(ValueError, match="repeated filter order"):
        SimConfig(ma_orders=(0, 32, 0))
    with pytest.raises(ValueError, match="at least one threshold"):
        SimConfig(thresholds=())
    with pytest.raises(ValueError, match="strictly increasing"):
        SimConfig(thresholds=(4.0, 3.0))


@pytest.mark.parametrize("thresholds", [(float("nan"), 4.0), (3.0, float("nan"), 5.0),
                                        (3.0, float("inf"))])
def test_simconfig_rejects_non_finite_thresholds(thresholds):
    # NaN passes every "strictly increasing" comparison, and inf counts nothing
    with pytest.raises(ValueError, match="thresholds must be finite"):
        SimConfig(thresholds=thresholds)


@pytest.mark.parametrize("call, message", [
    (lambda: SimConfig(ma_orders=()), "need at least one filter order"),
    (lambda: SimConfig(ma_orders=(0, -1)), "filter orders must be non-negative"),
    (lambda: SimConfig(delta=-1), "delta must lie in [0, length)"),
    (lambda: SimConfig(seed=-1), "seed must be non-negative"),
    (lambda: gen_dependent_events(gen_ma_exponential(64, 0, seed=0), 1, 0.0, -1, seed=0),
     "lag must be non-negative"),
    (lambda: gen_dependent_events(gen_ma_exponential(64, 0, seed=0), -1, 0.0, 1, seed=0),
     "n must be non-negative"),
], ids=["no-orders", "negative-order", "delta", "seed", "lag", "n"])
def test_invalid_arguments_raise_their_message(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message


def small_config():
    return SimConfig(length=1024, ma_orders=(0, 8), n_events=16, delta=3,
                     thresholds=(2.5, 3.5), replicates=100, seed=54)


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


@pytest.mark.parametrize("seed, replicates, length, n_events", [
    *(pytest.param(seed, 40, 256, 8, id=str(seed)) for seed in (131, 2**32 - 1, 2**32, 2**64 + 5)),
    pytest.param(131, 1025, 256, 8, id="131-1025"),      # crosses a seeding block
    pytest.param(131, 40, 160, 160, id="zero-bound"),    # n == length: choice's first bound is 0
    pytest.param(131, 40, 20000, 500, id="tail-shuffle"),
])
def test_replicates_draw_the_stream_of_gen_independent_events(seed, replicates, length, n_events):
    # replicate j of order q places its events as default_rng((seed, q, 1, j))
    # does, seeds past one 32-bit word included
    config = SimConfig(length=length, ma_orders=(0, 4), n_events=n_events, replicates=replicates,
                       seed=seed)
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
def test_pcg64_seeding_and_choice_match_numpy(seed, order):
    # the port of SeedSequence and PCG64's seeding gives NumPy's own state, for
    # entropy past the pool of 4 words and j across a block boundary up to 2**32 - 1
    words = _seed_words(seed, order, 1, 0)
    js = [0, 1, 1023, 1024, 2**31, 2**32 - 1]
    s_hi, s_lo, i_hi, i_lo = (a.tolist() for a in _pcg64_seeded(words, js))
    for j, a, b, c, d in zip(js, s_hi, s_lo, i_hi, i_lo, strict=True):
        state = np.random.PCG64(np.random.SeedSequence(words[:-1] + [j])).state["state"]
        assert {"state": a << 64 | b, "inc": c << 64 | d} == state, j
        # and the Generator set to that state draws default_rng's row, in its order
        row = np.random.default_rng(words[:-1] + [j]).choice(4096, 8, replace=False)
        assert _numpy_choice(words, [j], 4096, 8)[0].tolist() == row.tolist(), j
    # and the lane PCG64 steps each of those states to NumPy's raw words
    assert _pcg64_raw(words, js, 5).T.tolist() == [
        np.random.PCG64(np.random.SeedSequence(words[:-1] + [j])).random_raw(5).tolist() for j in js]


def choice_rows(seed, order, replicates, length, n):
    """What gen_independent_events draws for replicates 0.., before the sort and the +1."""
    return np.array([np.random.default_rng((seed, order, 1, j)).choice(length, n, replace=False)
                     for j in range(replicates)], dtype=np.int64).reshape(replicates, n)


@pytest.mark.parametrize("length, n, replicates, lanes", [
    pytest.param(4096, 32, _SEED_BLOCK + 5, "all", id="floyd-across-blocks"),
    pytest.param(4096, 33, 50, "all", id="floyd-odd-n"),   # the last word's high half is unused
    pytest.param(100, 60, 50, "all", id="floyd-chained-repeats"),
    pytest.param(4096, _LANE_MAX_EVENTS, 20, "all", id="at-the-lane-limit"),
    pytest.param(4096, _LANE_MAX_EVENTS + 1, 20, "none", id="past-the-lane-limit"),
    pytest.param(3 * 10**9, 4, 200, "some", id="lemire-rejections"),
    pytest.param(20000, 500, 20, "none", id="tail-shuffle"),
    pytest.param(160, 160, 50, "none", id="n-equals-length"),
    pytest.param(160, 0, 50, "all", id="n-0"),
    pytest.param(160, 1, 50, "all", id="n-1"),
])
def test_block_draw_is_generator_choice(length, n, replicates, lanes):
    # every row, emulated or redrawn, holds the set Generator.choice draws from the
    # replicate's own state; the counts read no order, so none is reproduced
    words = _seed_words(131, 0, 1, 0)
    want = np.sort(choice_rows(131, 0, replicates, length, n), axis=1)
    got = np.concatenate([rows for _, rows in _replicate_positions(words, replicates, length, n)])
    assert np.sort(got, axis=1).tobytes() == want.tobytes()
    # the emulated rows themselves, not the redraw the one-row check would fall back to
    rows, exact = _lane_choice(words, np.arange(replicates), length, n)
    assert rows.shape == (replicates, n) and rows.dtype == np.int64   # n = 0 too
    assert {"all": exact.all(), "some": 0 < exact.sum() < exact.size, "none": not exact.any()}[lanes]
    assert np.sort(rows[exact], axis=1).tobytes() == want[exact].tobytes()


def test_block_draw_mismatch_falls_back_to_generator_choice(monkeypatch):
    # a choice that no longer matches the emulation's sets fails the one-row check,
    # and every row of every block is then drawn by Generator.choice
    def shifted(words, js, length, n):
        rows, exact = _lane_choice(words, js, length, n)
        return (rows + 1) % length, exact

    monkeypatch.setattr("peca.sim._lane_choice", shifted)
    words = _seed_words(131, 0, 1, 0)
    got = np.concatenate([rows for _, rows in _replicate_positions(words, _SEED_BLOCK + 5, 4096, 32)])
    want = choice_rows(131, 0, _SEED_BLOCK + 5, 4096, 32)
    assert np.sort(got, axis=1).tobytes() == np.sort(want, axis=1).tobytes()


def test_block_draw_in_another_order_passes_the_check(monkeypatch):
    # the one-row check compares sets: rows in another order than Generator.choice's
    # are trusted, and Generator.choice draws only the checked row
    calls = []

    def reversed_rows(words, js, length, n):
        rows, exact = _lane_choice(words, js, length, n)
        return rows[:, ::-1], exact

    def counted(words, js, length, n):
        calls.append(len(js))
        return _numpy_choice(words, js, length, n)

    monkeypatch.setattr("peca.sim._lane_choice", reversed_rows)
    monkeypatch.setattr("peca.sim._numpy_choice", counted)
    words = _seed_words(131, 0, 1, 0)
    got = np.concatenate([rows for _, rows in _replicate_positions(words, _SEED_BLOCK + 5, 4096, 32)])
    assert calls == [1]
    want = choice_rows(131, 0, _SEED_BLOCK + 5, 4096, 32)
    assert np.sort(got, axis=1).tobytes() == np.sort(want, axis=1).tobytes()


def test_comparison_memory_is_bounded_by_the_block():
    # replicates are drawn _SEED_BLOCK at a time and only their counts kept: about
    # 3 MiB at peak, where one draw of all 20000 replicates takes about 36 MiB
    tracemalloc.start()
    try:
        null_distribution_comparison(SimConfig(replicates=20000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


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


def test_comparison_csv_roundtrip(tmp_path, capsys):
    # appendix-b1 writes the CMF array of its config in long format, exactly
    assert main(["simulate", "--preset", "appendix-b1", "--orders", "0,8", "--length", "1024",
                 "--replicates", "100", "--seed", "54", "--out", str(tmp_path)]) == 0
    assert "null_comparison.csv" in json.loads(capsys.readouterr().out)["outputs"]
    cmfs = null_distribution_comparison(
        SimConfig(length=1024, ma_orders=(0, 8), replicates=100, seed=54))
    with open(tmp_path / "null_comparison.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert ([(int(r["order"]), float(r["tau"]), int(r["k"])) for r in rows]
            == list(itertools.product((0, 8), (3.0, 4.0, 5.0), range(33))))
    got = np.array([[float(r[col]) for col in ("empirical_cmf", "bernoulli_cmf", "gev_cmf")]
                    for r in rows])
    np.testing.assert_array_equal(got.reshape(2, 3, 33, 3).transpose(0, 1, 3, 2), cmfs)
