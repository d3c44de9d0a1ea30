"""Event series, time series, and coincidence counting.

An event series marks occurrences (attacks, outages, announcements) on a
discrete time grid; a time series holds one real value per step.  A trigger
coincidence is a leading event that is followed, within a tolerance of
``delta`` steps, by an event of the other series; a precursor coincidence is
the time-reversed notion.  Thresholding a time series turns it into the
event series of its strict exceedances, which is how peaks enter the
counting framework.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EventSeries",
    "TimeSeries",
    "CoincidenceResult",
    "exceedance_series",
    "forward_window_max",
    "rung_index",
    "count_trigger",
    "count_precursor",
    "count_trigger_exceedances",
    "preprocess",
    "late_events",
]


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class EventSeries:
    """Sparse binary series: sorted 1-based occurrence indices on a grid of ``length`` steps."""

    length: int
    occurrences: np.ndarray

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("series length must be at least 1")
        occ = np.asarray(self.occurrences, dtype=np.int64).ravel()
        if occ.size:
            if np.any(np.diff(occ) <= 0):
                raise ValueError("occurrences must be strictly increasing")
            if occ[0] < 1 or occ[-1] > self.length:
                raise ValueError(f"occurrences must lie in [1, {self.length}]")
        object.__setattr__(self, "occurrences", _frozen(occ))

    @property
    def n_events(self) -> int:
        return int(self.occurrences.size)

    @classmethod
    def from_indicator(cls, indicator) -> "EventSeries":
        """Build from a 0/1 (or boolean) array, one entry per step."""
        ind = np.asarray(indicator).ravel()
        return cls(length=int(ind.size), occurrences=np.flatnonzero(ind) + 1)

    def indicator(self) -> np.ndarray:
        """Dense 0/1 representation of the series."""
        out = np.zeros(self.length, dtype=np.int8)
        if self.occurrences.size:
            out[self.occurrences - 1] = 1
        return out


@dataclass(frozen=True)
class TimeSeries:
    """Real-valued series; values must be finite."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64).ravel()
        if vals.size < 1:
            raise ValueError("time series must contain at least one value")
        if not np.all(np.isfinite(vals)):
            raise ValueError("time series values must be finite")
        object.__setattr__(self, "values", _frozen(vals))

    @property
    def length(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class CoincidenceResult:
    """A coincidence count together with the event count it is rated against."""

    count: int
    n_events: int

    def __post_init__(self):
        if self.n_events < 0:
            raise ValueError("n_events must be non-negative")
        if not 0 <= self.count <= self.n_events:
            raise ValueError("count must lie in [0, n_events]")

    @property
    def rate(self) -> float | None:
        """count / n_events, or None when there are no events to rate."""
        if self.n_events == 0:
            return None
        return self.count / self.n_events


def _check_delta(delta: int, length: int) -> None:
    if delta < 0:
        raise ValueError("delta must be non-negative")
    if delta >= length:
        raise ValueError(f"delta must be smaller than the series length ({length})")


def _check_same_grid(len_a: int, len_b: int) -> None:
    if len_a != len_b:
        raise ValueError(f"series lengths differ: {len_a} vs {len_b}")


def _window_max(values: np.ndarray, delta: int) -> np.ndarray:
    """max(values[i], ..., values[i+delta]) for every start index; length shrinks by delta."""
    if delta == 0:
        return values
    return np.max(np.lib.stride_tricks.sliding_window_view(values, delta + 1), axis=1)


def forward_window_max(x: TimeSeries, delta: int) -> np.ndarray:
    """Per-step maximum of x over the window [t, t+delta], for t = 1..T-delta.

    Entry i (0-based) is the window maximum for step t = i+1.  Comparing this
    array against a threshold is equivalent to asking whether the window
    contains a strict exceedance, which is what makes trigger counting over
    many thresholds cheap.
    """
    _check_delta(delta, x.length)
    return _window_max(x.values, delta).copy()


def rung_index(x: TimeSeries, delta: int, thresholds) -> np.ndarray:
    """Rung of every step: how many ``thresholds`` its window maximum strictly exceeds.

    Entry t-1 belongs to step t and counts the thresholds below the maximum
    of x over [t, t+delta]; the final ``delta`` steps, whose window runs past
    the end, get rung 0.  ``thresholds`` must be ascending.  An event at step
    t counts at the i-th threshold (1-based) exactly when its rung is >= i,
    so every trigger count along a ladder is a count over this array.
    """
    _check_delta(delta, x.length)
    thr = np.asarray(thresholds, dtype=float).ravel()
    if np.any(np.diff(thr) < 0):
        raise ValueError("thresholds must be ascending")
    rungs = np.zeros(x.length, dtype=np.int64)
    rungs[:x.length - delta] = np.searchsorted(thr, _window_max(x.values, delta), side="left")
    return rungs


def exceedance_series(x: TimeSeries, tau: float) -> EventSeries:
    """Event series marking the steps where x strictly exceeds ``tau``."""
    return EventSeries.from_indicator(x.values > tau)


def count_trigger(b: EventSeries, a: EventSeries, delta: int) -> CoincidenceResult:
    """Count leading events of ``b`` followed by an ``a`` event within ``delta`` steps.

    A ``b`` event at step t counts when ``a`` has an event anywhere in
    [t, t+delta]; only t <= T-delta is scanned, so ``b`` events in the final
    ``delta`` steps can never count, but they remain in the rate denominator.
    """
    _check_same_grid(b.length, a.length)
    _check_delta(delta, b.length)
    win = _window_max(a.indicator(), delta)
    early = b.occurrences[b.occurrences <= b.length - delta]
    count = int(win[early - 1].sum()) if early.size else 0
    return CoincidenceResult(count=count, n_events=b.n_events)


def count_precursor(b: EventSeries, a: EventSeries, delta: int) -> CoincidenceResult:
    """Count ``a`` events preceded by a ``b`` event within ``delta`` steps.

    An ``a`` event at step t counts when ``b`` has an event anywhere in
    [t-delta, t]; only t >= delta+1 is scanned.  The rate denominator is the
    total number of ``a`` events.
    """
    _check_same_grid(b.length, a.length)
    _check_delta(delta, a.length)
    win = _window_max(b.indicator(), delta)
    late = a.occurrences[a.occurrences >= delta + 1]
    count = int(win[late - 1 - delta].sum()) if late.size else 0
    return CoincidenceResult(count=count, n_events=a.n_events)


def count_trigger_exceedances(e: EventSeries, x: TimeSeries, tau: float, delta: int) -> CoincidenceResult:
    """Trigger coincidences between ``e`` and the strict exceedances of ``tau`` in ``x``.

    Equivalent to ``count_trigger(e, exceedance_series(x, tau), delta)`` but
    phrased through window maxima, so the exceedance series is never built.
    """
    _check_same_grid(e.length, x.length)
    _check_delta(delta, x.length)
    win = _window_max(x.values, delta)
    early = e.occurrences[e.occurrences <= e.length - delta]
    count = int(np.count_nonzero(win[early - 1] > tau)) if early.size else 0
    return CoincidenceResult(count=count, n_events=e.n_events)


def preprocess(x: TimeSeries, window: int = 30) -> TimeSeries:
    """log2(x+1) minus the running mean of the preceding ``window`` transformed values.

    Detrends heavy-tailed count data.  The mean window expands at the start:
    step t averages the transformed values of steps max(1, t-window)..t-1,
    and step 1 subtracts its own value, so the first output is always 0.
    Requires non-negative input; output length equals input length.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    if np.any(x.values < 0):
        raise ValueError("preprocess requires non-negative values")
    logs = np.log2(x.values + 1.0)
    cs = np.concatenate(([0.0], np.cumsum(logs)))
    t = np.arange(1, x.length + 1)
    lo = np.maximum(t - 1 - window, 0)
    hi = t - 1
    n_prior = hi - lo
    means = np.where(n_prior > 0, (cs[hi] - cs[lo]) / np.maximum(n_prior, 1), logs)
    return TimeSeries(values=logs - means)


def late_events(e: EventSeries, delta: int) -> np.ndarray:
    """Occurrences in the final ``delta`` steps, which no trigger window can count."""
    _check_delta(delta, e.length)
    return np.array(e.occurrences[e.occurrences > e.length - delta])
