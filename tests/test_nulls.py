"""Extreme-value machinery and the single-threshold null tests.

The binomial tail is checked against exact rational arithmetic, the GEV
fitter against samples with known parameters, and the GEV survival function
at hand-computable points.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.stats import genextreme, gumbel_r

from peca.nulls import (
    _EULER_GAMMA,
    _gev_nll,
    _log_factorials,
    _nelder_mead,
    _pwm_initializer,
    GUMBEL_SHAPE_TOL,
    GevFitError,
    GevParams,
    bernoulli_success_prob,
    binom_cdf,
    binom_logpmf,
    binom_tail,
    block_maxima,
    fit_gev_mle,
    gev_sf,
)
from peca.series import TimeSeries


# --- distribution functions -------------------------------------------------

def test_gev_cdf_at_location():
    # G(mu) = exp(-1) for every shape, so the survival function reads 1 - exp(-1)
    for xi in (-0.4, 0.0, 0.7):
        theta = GevParams(xi, 3.0, 2.0)
        assert gev_sf(3.0, theta) == pytest.approx(-math.expm1(-1.0), abs=1e-14)


def test_gumbel_closed_form():
    theta = GevParams(0.0, 0.0, 1.0)
    for z in (-1.0, 0.0, 2.5):
        assert gev_sf(z, theta) == pytest.approx(-math.expm1(-math.exp(-z)), abs=1e-14)


def test_shape_continuity_at_zero():
    # a shape inside the Gumbel tolerance band must agree with shape zero
    theta0 = GevParams(0.0, 1.0, 2.0)
    theta_eps = GevParams(GUMBEL_SHAPE_TOL / 2, 1.0, 2.0)
    for z in (-2.0, 0.5, 4.0):
        assert gev_sf(z, theta_eps) == pytest.approx(gev_sf(z, theta0), abs=1e-9)


def test_support_edges():
    heavy = GevParams(0.5, 0.0, 1.0)     # support bounded below at -2
    bounded = GevParams(-0.5, 0.0, 1.0)  # support bounded above at +2
    assert gev_sf(-2.5, heavy) == 1.0
    assert gev_sf(2.5, bounded) == 0.0


def test_matches_scipy_reference():
    theta = GevParams(0.2, 3.0, 1.0)
    for z in (2.0, 3.5, 8.0):
        assert gev_sf(z, theta) == pytest.approx(
            genextreme.sf(z, -0.2, loc=3.0, scale=1.0), abs=1e-12)


def test_gev_params_validation():
    with pytest.raises(ValueError):
        GevParams(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        GevParams(0.0, 0.0, -1.0)


# --- block maxima ------------------------------------------------------------

def test_block_maxima_small_example():
    x = TimeSeries((1.0, 5.0, 2.0, 4.0))
    np.testing.assert_array_equal(block_maxima(x, 1), (5.0, 4.0))


def test_block_maxima_drops_partial_tail():
    x = TimeSeries((1.0, 5.0, 2.0, 4.0, 9.0))
    np.testing.assert_array_equal(block_maxima(x, 1), (5.0, 4.0))
    np.testing.assert_array_equal(block_maxima(x, 4), (9.0,))


def test_block_maxima_count_for_default_setup():
    x = TimeSeries(np.arange(4096, dtype=float))
    assert block_maxima(x, 7).size == 512


# --- fitting -----------------------------------------------------------------

def test_fit_recovers_known_gev():
    z = genextreme.rvs(-0.2, loc=3.0, scale=1.0, size=5000,
                       random_state=np.random.default_rng(77))
    fit = fit_gev_mle(z)
    assert fit.converged
    assert fit.params.shape == pytest.approx(0.2, abs=0.1)
    assert fit.params.location == pytest.approx(3.0, abs=0.1)
    assert fit.params.scale == pytest.approx(1.0, abs=0.1)


def test_fit_on_gumbel_data_keeps_shape_small():
    z = gumbel_r.rvs(loc=0.0, scale=1.0, size=5000,
                     random_state=np.random.default_rng(78))
    fit = fit_gev_mle(z)
    assert abs(fit.params.shape) < 0.1


def test_fit_nll_not_worse_than_true_parameters():
    rng = np.random.default_rng(5)
    z = genextreme.rvs(-0.1, loc=0.0, scale=2.0, size=800, random_state=rng)
    fit = fit_gev_mle(z)
    nll_true = -genextreme.logpdf(z, -0.1, loc=0.0, scale=2.0).sum()
    assert fit.nll <= nll_true + 1e-6


@pytest.mark.parametrize("mu, sigma", [(0.0, 1.0), (3.0, 2.5)])
def test_gev_nll_gumbel_limit(mu, sigma):
    z = gumbel_r.rvs(loc=mu, scale=sigma, size=300, random_state=np.random.default_rng(79))
    gumbel = _gev_nll(0.0, mu, sigma, z)
    assert gumbel == pytest.approx(-gumbel_r.logpdf(z, mu, sigma).sum(), rel=1e-13)
    assert _gev_nll(GUMBEL_SHAPE_TOL / 2, mu, sigma, z) == gumbel
    # just outside the tolerance the GEV form takes over, and agrees
    for xi in (1e-8, -1e-8):
        assert _gev_nll(xi, mu, sigma, z) == pytest.approx(gumbel, rel=1e-8)


def sample_l_moments(z):
    """Hosking's (1990) direct unbiased estimators of the first three L-moments."""
    x = np.sort(z)
    n = x.size
    below = np.arange(n, dtype=float)     # order statistics below each one
    above = n - 1 - below
    l2 = np.sum((below - above) * x) / (2 * math.comb(n, 2))
    l3 = (np.sum((below * (below - 1) / 2 - 2 * below * above + above * (above - 1) / 2) * x)
          / (3 * math.comb(n, 3)))
    return float(x.mean()), float(l2), float(l3)


def test_fit_from_the_gumbel_moment_start():
    # GEV quantiles at 200 plotting positions, their shape bisected until the
    # L-skewness is 2 log 3 / log 2 - 3, where the PWM shape estimate is 0
    p = (np.arange(1, 201) - 0.35) / 200
    target = 2 * math.log(3) / math.log(2) - 3
    lo, hi = -0.2, 0.2
    for _ in range(60):
        xi = (lo + hi) / 2
        z = genextreme.ppf(p, -xi)
        l1, l2, l3 = sample_l_moments(z)
        lo, hi = (xi, hi) if l3 / l2 < target else (lo, xi)
    assert abs(l3 / l2 - target) < 1e-12
    # the estimate is within 1e-6 of 0, so the start is the Gumbel moment fit
    shape, location, scale = _pwm_initializer(z)
    assert shape == 0.0
    assert scale == pytest.approx(l2 / math.log(2), rel=1e-12)
    assert location == pytest.approx(l1 - _EULER_GAMMA * scale, rel=1e-9, abs=1e-12)
    fit = fit_gev_mle(z)
    assert fit.converged
    assert fit.nll < _gev_nll(shape, location, scale, z)
    c, loc, scale = genextreme.fit(z)
    assert fit.nll <= -genextreme.logpdf(z, c, loc, scale).sum() + 1e-6
    assert abs(fit.params.shape) < 0.05


def test_fit_refuses_tiny_or_degenerate_samples():
    with pytest.raises(GevFitError):
        fit_gev_mle(np.arange(10.0))          # below the sample floor
    with pytest.raises(GevFitError):
        fit_gev_mle(np.full(50, 3.25))        # constant data has no scale


# --- binomial tail -----------------------------------------------------------

def exact_tail(k, n, p: Fraction) -> Fraction:
    total = Fraction(0)
    for j in range(k, n + 1):
        total += math.comb(n, j) * p**j * (1 - p)**(n - j)
    return total


def test_binom_tail_exact_small_cases():
    for n in (1, 5, 12, 30):
        for p in (Fraction(1, 10), Fraction(1, 7), Fraction(9, 10)):
            for k in range(n + 1):
                got = binom_tail(k, n, float(p))
                want = float(exact_tail(k, n, p))
                assert got == pytest.approx(want, abs=1e-12)


def test_binom_tail_edges():
    assert binom_tail(0, 10, 0.3) == 1.0
    assert binom_tail(-2, 10, 0.3) == 1.0
    assert binom_tail(3, 10, 0.0) == 0.0
    assert binom_tail(11, 10, 0.9) == 0.0
    assert binom_tail(10, 10, 1.0) == 1.0


def test_binom_tail_deep_tail_stays_positive():
    # log-space evaluation must not underflow to zero here
    v = binom_tail(400, 500, 0.1)
    assert 0.0 < v < 1e-200


@given(st.integers(0, 40), st.integers(1, 40), st.floats(0.01, 0.99))
@example(8, 34, 0.9115925572867744)  # a point a separate log-sum-exp per k got wrong
def test_binom_tail_monotone_in_k(k, n, p):
    if k > n:
        return
    assert binom_tail(k, n, p) >= binom_tail(k + 1, n, p)


def test_binom_logpmf_matches_scipy():
    from scipy.stats import binom as sp_binom
    ks = np.arange(0, 21)
    got = binom_logpmf(ks, 20.0, 0.37)
    np.testing.assert_allclose(got, sp_binom.logpmf(ks, 20, 0.37), atol=1e-10)


@pytest.mark.parametrize("n", [0, 1, 17, 32, 1000])
@pytest.mark.parametrize("p", [0.0, 1e-12, 1e-4, 0.3, 0.5, 0.97, 1 - 1e-9, 1.0])
def test_binom_cdf_matches_scipy(n, p):
    from scipy.stats import binom as sp_binom
    ks = np.arange(n + 1)
    got = binom_cdf(n, p)
    np.testing.assert_allclose(got, sp_binom.cdf(ks, n, p), rtol=0, atol=1e-11)
    assert np.all(np.diff(got) >= 0.0)
    assert np.all((got >= 0.0) & (got <= 1.0))


def test_binom_cdf_edges():
    np.testing.assert_array_equal(binom_cdf(3, 0.0), [1.0, 1.0, 1.0, 1.0])
    np.testing.assert_array_equal(binom_cdf(3, 1.0), [0.0, 0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        binom_cdf(-1, 0.5)


def test_binom_logpmf_rejects_non_counts():
    np.testing.assert_array_equal(binom_logpmf(np.array([0, 2]), np.array([2, 1]), 0.5),
                                  [math.log(0.25), -np.inf])
    for k, n in ((1.5, 4), (1, 4.25), (np.nan, 4), (1, np.inf), (np.array([0.0, 0.5]), 3)):
        with pytest.raises(ValueError, match="integer-valued"):
            binom_logpmf(k, n, 0.3)


# --- NumPy ports of the SciPy routines, with SciPy as the oracle -------------

NM_OPTIONS = {"maxfev": 20000, "xatol": 1e-9, "fatol": 1e-10}


def assert_same_minimize(func, x0, options):
    from scipy.optimize import minimize
    x, fun, nfev, success = _nelder_mead(func, x0, **options)
    ref = minimize(func, x0, method="Nelder-Mead", options=options)
    np.testing.assert_array_equal(x, ref.x)
    assert fun == ref.fun
    assert nfev == ref.nfev
    assert success == ref.success
    return success


@pytest.mark.parametrize("seed, x0", [
    (0, (0.1, 5.0, 0.5)),
    (1, (-0.1, 4.5, 0.7)),
    # the support's lower end, location - scale / shape, sits 0.06 above the
    # sample minimum, so the start point is +inf; only the simplex vertex with
    # the larger scale is feasible
    (2, (0.5, 5.5, 1.0)),
])
def test_nelder_mead_matches_scipy_on_gev(seed, x0):
    z = 2.0 * np.random.default_rng(seed).gumbel(size=150) + 5.0
    x0 = np.array(x0)
    if seed == 2:
        x0[1] += z.min()
    assert (seed == 2) == math.isinf(_gev_nll(x0[0], x0[1], math.exp(x0[2]), z))

    def objective(p):
        return _gev_nll(p[0], p[1], math.exp(p[2]), z)

    assert assert_same_minimize(objective, x0, NM_OPTIONS)


@pytest.mark.parametrize("maxfev", [3, 7, 40, 151])
def test_nelder_mead_matches_scipy_when_budget_runs_out(maxfev):
    from scipy.optimize import rosen
    # the budget ends mid-iteration (or mid-initial-simplex for 3): same x, fun, nfev
    options = dict(NM_OPTIONS, maxfev=maxfev)
    assert not assert_same_minimize(rosen, np.array([-1.2, 1.0, 0.0, 2.0]), options)


def test_log_factorials_match_gammaln():
    from scipy.special import gammaln
    n = 10**5
    table = _log_factorials(n)[: n + 1]
    np.testing.assert_allclose(table, gammaln(np.arange(n + 1) + 1.0), rtol=1e-14, atol=0)
    assert table[0] == table[1] == 0.0


# --- single-threshold tests --------------------------------------------------

def test_bernoulli_null_hand_case():
    # window success probability 1 - (1-p)^(delta+1) with p = 0.1, delta = 1
    pi = bernoulli_success_prob(0.1, 1)
    assert pi == pytest.approx(1.0 - 0.9**2, abs=1e-15)
    assert binom_tail(3, 5, pi) == pytest.approx(float(exact_tail(3, 5, Fraction(19, 100))),
                                                 abs=1e-12)


def test_bernoulli_null_edge_cases():
    assert binom_tail(0, 5, bernoulli_success_prob(0.1, 2)) == 1.0
    assert binom_tail(2, 5, bernoulli_success_prob(0.0, 2)) == 0.0
    assert binom_tail(0, 0, bernoulli_success_prob(0.3, 2)) == 1.0
    assert bernoulli_success_prob(1.0, 2) == 1.0
    for p_a, delta in ((-0.1, 2), (1.5, 2), (0.3, -1)):
        with pytest.raises(ValueError):
            bernoulli_success_prob(p_a, delta)


def test_pvalue_decreases_in_observed_count():
    pi = bernoulli_success_prob(0.2, 3)
    prev = 1.0
    for k in range(0, 11):
        cur = binom_tail(k, 10, pi)
        assert cur <= prev + 1e-15
        prev = cur


def test_gev_null_pvalue_consistency():
    # the GEV null's p-value is the binomial tail at pi = 1 - G(tau)
    theta = GevParams(0.1, 2.0, 1.0)
    pi = gev_sf(3.0, theta)
    assert pi == pytest.approx(genextreme.sf(3.0, -0.1, loc=2.0, scale=1.0), abs=1e-15)
    assert binom_tail(4, 20, pi) == pytest.approx(float(exact_tail(4, 20, Fraction(pi))), abs=1e-12)

