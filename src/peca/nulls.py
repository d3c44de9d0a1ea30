"""Single-threshold null distributions for trigger coincidence counts.

Both nulls treat the count as a binomial over the number of leading events;
they differ only in pi, the probability that a tolerance window contains an
exceedance, so under either the p-value of k coincidences among n events is
the upper tail ``binom_tail`` of Binomial(n, pi) at k.  The Bernoulli null
derives pi from the marginal exceedance rate (``bernoulli_success_prob``)
and is only adequate for serially independent series.  The GEV null fits a
generalized extreme value distribution to block maxima of the series and
reads pi off its survival function (``gev_sf``), which also covers smooth,
serially dependent data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import TimeSeries

__all__ = [
    "GUMBEL_SHAPE_TOL",
    "GevParams",
    "GevFit",
    "GevFitError",
    "gev_sf",
    "block_maxima",
    "fit_gev_mle",
    "binom_logpmf",
    "binom_cdf",
    "binom_tail",
    "bernoulli_success_prob",
]

# Shape magnitudes below this are evaluated with the Gumbel limit form.
GUMBEL_SHAPE_TOL = 1e-9

_EULER_GAMMA = 0.5772156649015329


class GevFitError(RuntimeError):
    """GEV fitting failed: sample too small or degenerate, or no feasible likelihood."""


@dataclass(frozen=True)
class GevParams:
    """GEV parameters: shape (tail index), location, scale."""

    shape: float
    location: float
    scale: float

    def __post_init__(self):
        for name in ("shape", "location", "scale"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"GEV {name} must be finite")
        if self.scale <= 0:
            raise ValueError("GEV scale must be positive")


@dataclass(frozen=True)
class GevFit:
    """Fitted parameters plus optimizer diagnostics."""

    params: GevParams
    converged: bool
    nll: float
    n_samples: int


def gev_sf(z: float, theta: GevParams) -> float:
    """GEV exceedance probability P(Z > z), computed without cancellation.

    For shape xi != 0 the value is 1 - exp(-(1 + xi*(z-mu)/sigma)^(-1/xi)) on
    the support 1 + xi*(z-mu)/sigma > 0; outside the support it is 1 (xi > 0)
    or 0 (xi < 0).  Shapes within GUMBEL_SHAPE_TOL of zero use the Gumbel form
    1 - exp(-exp(-(z-mu)/sigma)).  The outer 1 - exp(-t) is evaluated as
    -expm1(-t), so a small probability keeps its relative accuracy.
    """
    s = (z - theta.location) / theta.scale
    if abs(theta.shape) < GUMBEL_SHAPE_TOL:
        v = math.exp(-s)
    else:
        w = 1.0 + theta.shape * s
        if w <= 0.0:
            return 1.0 if theta.shape > 0 else 0.0
        v = w ** (-1.0 / theta.shape)
    return -math.expm1(-v)


def block_maxima(x: TimeSeries, delta: int) -> np.ndarray:
    """Maxima of consecutive disjoint blocks of ``delta + 1`` steps.

    A trailing partial block is dropped.  Raises when the series is shorter
    than a single block.
    """
    if delta < 0:
        raise ValueError("delta must be non-negative")
    size = delta + 1
    n_blocks = x.length // size
    if n_blocks == 0:
        raise ValueError(f"series of length {x.length} is shorter than one block of size {size}")
    return x.values[: n_blocks * size].reshape(n_blocks, size).max(axis=1)


def _gev_nll(xi: float, mu: float, sigma: float, z: np.ndarray) -> float:
    """Negative log-likelihood; +inf when any sample falls outside the support."""
    if sigma <= 0.0 or not math.isfinite(sigma):
        return math.inf
    s = (z - mu) / sigma
    n = z.size
    with np.errstate(over="ignore"):
        if abs(xi) < GUMBEL_SHAPE_TOL:
            val = n * math.log(sigma) + float(np.sum(s) + np.sum(np.exp(-s)))
        else:
            w = 1.0 + xi * s
            if np.any(w <= 0.0):
                return math.inf
            logw = np.log(w)
            val = (n * math.log(sigma)
                   + (1.0 + 1.0 / xi) * float(np.sum(logw))
                   + float(np.sum(np.exp(-logw / xi))))
    return val if math.isfinite(val) else math.inf


def _pwm_initializer(z: np.ndarray) -> tuple[float, float, float]:
    """Probability-weighted-moments starting point (shape, location, scale).

    Uses the usual rational approximation of the shape from the L-skewness;
    falls back to a Gumbel moment fit when the approximation degenerates.
    """
    zs = np.sort(z)
    n = zs.size
    j = np.arange(1, n + 1, dtype=float)
    b0 = float(zs.mean())
    b1 = float(np.sum((j - 1) / (n - 1) * zs) / n)
    b2 = float(np.sum((j - 1) * (j - 2) / ((n - 1) * (n - 2)) * zs) / n)
    l1, l2, l3 = b0, 2 * b1 - b0, 6 * b2 - 6 * b1 + b0

    def gumbel_init():
        sigma = l2 / math.log(2) if l2 > 0 else float(zs.std() or 1.0)
        return 0.0, l1 - _EULER_GAMMA * sigma, sigma

    if l2 <= 0:
        return gumbel_init()
    t3 = l3 / l2
    c = 2.0 / (3.0 + t3) - math.log(2) / math.log(3)
    k = 7.8590 * c + 2.9554 * c * c
    if abs(k) < 1e-6 or k <= -0.99:
        return gumbel_init()
    g = math.gamma(1.0 + k)
    sigma = l2 * k / ((1.0 - 2.0 ** (-k)) * g)
    mu = l1 - sigma * (1.0 - g) / k
    if not (sigma > 0 and math.isfinite(sigma) and math.isfinite(mu)):
        return gumbel_init()
    return -k, mu, sigma


class _BudgetSpent(Exception):
    """Raised by the counted objective once ``maxfev`` evaluations are spent."""


def _nelder_mead(func, x0, maxfev: int, xatol: float,
                 fatol: float) -> tuple[np.ndarray, float, int, bool]:
    """Nelder-Mead simplex minimization (Nelder & Mead 1965, Comput. J. 7: 308-313).

    Follows the unbounded, non-adaptive path of SciPy's
    ``minimize(method="Nelder-Mead")`` step for step, so results agree with
    it exactly: the same initial simplex (x0 plus each coordinate scaled by
    1.05, or set to 0.00025 where it is zero), the same reflection /
    expansion / contraction / shrink coefficients (1, 2, 0.5, 0.5), the same
    vertex ordering and termination test (every vertex within ``xatol`` of
    the best in every coordinate, and every value within ``fatol`` of the
    best).  Once ``maxfev`` evaluations are spent the search stops, even in
    the middle of an iteration; SciPy's iteration limit, infinite when only
    ``maxfev`` is given, is left out.  Returns (x, fun, nfev, success);
    success means the evaluation limit was not reached.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025

    x0 = np.asarray(x0, dtype=float).ravel()
    n = len(x0)
    sim = np.empty((n + 1, n), dtype=float)
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        if y[k] != 0:
            y[k] = (1 + nonzdelt) * y[k]
        else:
            y[k] = zdelt
        sim[k + 1] = y
    fsim = np.full((n + 1,), np.inf, dtype=float)
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return func(x)

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    ind = np.argsort(fsim)
    sim = np.take(sim, ind, 0)
    fsim = np.take(fsim, ind, 0)

    while nfev < maxfev:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = f(xr)
            doshrink = False
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:
                # outside contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = f(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    doshrink = True
            else:
                # inside contraction
                xcc = (1 - psi) * xbar + psi * sim[-1]
                fxcc = f(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    doshrink = True
            if doshrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    return sim[0], float(np.min(fsim)), nfev, nfev < maxfev


def fit_gev_mle(maxima, min_samples: int = 20) -> GevFit:
    """Maximum-likelihood GEV fit to a sample of block maxima.

    Starts from a probability-weighted-moments estimate and refines with a
    simplex search over (shape, location, log scale).  Parameter points that
    would push any sample outside the support evaluate to +inf and are never
    accepted, so the fitted support always contains the whole sample, and the
    fitted likelihood is never worse than the initializer's.  The converged
    flag reflects the optimizer's own termination test (simplex NLL spread
    below 1e-10).
    """
    z = np.asarray(maxima, dtype=float).ravel()
    if z.size < min_samples:
        raise GevFitError(f"need at least {min_samples} block maxima, got {z.size}")
    if not np.all(np.isfinite(z)):
        raise GevFitError("block maxima must be finite")
    if np.ptp(z) == 0.0:
        raise GevFitError("degenerate sample: all block maxima are equal")

    xi0, mu0, sigma0 = _pwm_initializer(z)
    if not math.isfinite(_gev_nll(xi0, mu0, sigma0, z)):
        # Widen the scale until the whole sample fits inside the support.
        feasible = False
        for _ in range(80):
            sigma0 *= 1.5
            if math.isfinite(_gev_nll(xi0, mu0, sigma0, z)):
                feasible = True
                break
        if not feasible:
            xi0, mu0, sigma0 = 0.0, float(z.mean()), float(z.std() or 1.0)

    def objective(p):
        return _gev_nll(p[0], p[1], math.exp(p[2]), z)

    x, fun, _, success = _nelder_mead(objective, np.array([xi0, mu0, math.log(sigma0)]),
                                      maxfev=20000, xatol=1e-9, fatol=1e-10)
    nll = float(fun)
    if not math.isfinite(nll):
        raise GevFitError("GEV optimization found no feasible likelihood")
    xi, mu, log_sigma = (float(v) for v in x)
    params = GevParams(shape=xi, location=mu, scale=math.exp(log_sigma))
    return GevFit(params=params, converged=success, nll=nll, n_samples=int(z.size))


# Stirling-series coefficients of the Cephes log-gamma, below and above x = 1000
_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
             -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_STIRLING_LARGE = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3,
                   0.0833333333333333333333)
_LOG_SQRT_2PI = 0.91893853320467274178


def _log_factorial(i: int) -> float:
    """log(i!) evaluated as the Cephes log-gamma at i + 1.

    Below 12 the factorial is exact; from there on the Stirling series with
    Cephes' coefficients.  This is the evaluation SciPy's ``gammaln`` makes,
    so the two agree to the last bit wherever ``math.log`` rounds as the C
    library's ``log`` does.
    """
    if i < 12:
        return math.log(math.factorial(i))
    x = float(i + 1)
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1e8:
        return q
    p = 1.0 / (x * x)
    coeffs = _STIRLING_LARGE if x >= 1000.0 else _STIRLING
    series = coeffs[0]
    for c in coeffs[1:]:
        series = series * p + c
    return q + series / x


_log_factorial_table = np.zeros(1)


def _log_factorials(n_max: int) -> np.ndarray:
    """Table of log(i!) for i = 0..n_max at least; cached and grown on demand."""
    global _log_factorial_table
    table = _log_factorial_table
    if n_max >= table.size:
        grown = max(n_max + 1, 2 * table.size, 1024)
        table = np.concatenate((table, [_log_factorial(i) for i in range(table.size, grown)]))
        _log_factorial_table = table
    return table


def _as_counts(v, name: str) -> np.ndarray:
    """Integer-valued input as an int64 array; raises ValueError otherwise."""
    v = np.asarray(v)
    if v.dtype.kind in "iu":
        return v.astype(np.int64)
    f = v.astype(float)
    if not np.all(np.isfinite(f)) or np.any(f != np.floor(f)):
        raise ValueError(f"binomial {name} must be integer-valued")
    return f.astype(np.int64)


def binom_logpmf(k, n, p: float):
    """Log of the binomial pmf, vectorized over k and n; p is a scalar in [0, 1].

    ``k`` and ``n`` are counts: integer arrays, or float arrays holding
    integer values; anything else (a fraction, nan, inf) raises ValueError.
    Entries with k outside [0, n] get -inf.  The log-factorials are read by
    index from a cached table (see ``_log_factorial``).
    """
    k = _as_counts(k, "k")
    n = _as_counts(n, "n")
    if not 0.0 <= p <= 1.0:
        raise ValueError("binomial success probability must lie in [0, 1]")
    valid = (k >= 0) & (k <= n)
    if p == 0.0:
        out = np.where(k == 0, 0.0, -np.inf)
    elif p == 1.0:
        out = np.where(k == n, 0.0, -np.inf)
    else:
        kk = np.where(valid, k, 0)
        nn = np.where(valid, n, 0)
        logfact = _log_factorials(int(nn.max(initial=0)))
        out = (logfact[nn] - logfact[kk] - logfact[nn - kk]
               + kk * math.log(p) + (nn - kk) * math.log1p(-p))
    return np.where(valid, out, -np.inf)


def binom_cdf(n: int, p: float) -> np.ndarray:
    """Distribution function P(K <= k) for K ~ Binomial(n, p), at k = 0..n.

    The pmf terms for 0..n are accumulated in log space and clamped at 1.0,
    so the result is non-decreasing in k.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return np.minimum(np.exp(np.logaddexp.accumulate(binom_logpmf(np.arange(n + 1), n, p))), 1.0)


def binom_tail(k: int, n: int, p: float) -> float:
    """Upper-tail probability P(K >= k) for K ~ Binomial(n, p).

    The pmf terms for n down to 0 are accumulated in log space, as in
    ``binom_cdf``, so small tails keep their relative accuracy and the result
    is non-increasing in k.  Exactly 1.0 for k <= 0.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    tails = np.logaddexp.accumulate(binom_logpmf(np.arange(n, -1, -1), n, p))
    return min(1.0, math.exp(tails[n - k]))


def bernoulli_success_prob(p_a: float, delta: int) -> float:
    """Window-exceedance probability under the independence (Bernoulli) null.

    A tolerance window of delta+1 steps contains at least one exceedance of
    marginal rate p_a with probability 1 - (1 - p_a)^(delta + 1).
    """
    if not 0.0 <= p_a <= 1.0:
        raise ValueError("p_a must lie in [0, 1]")
    if delta < 0:
        raise ValueError("delta must be non-negative")
    if p_a == 1.0:
        return 1.0
    return -math.expm1((delta + 1) * math.log1p(-p_a))
