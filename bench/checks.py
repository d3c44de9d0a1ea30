"""Output checks for one peca invocation.

Each check returns a list of ``Problem``s; an invocation whose list is
empty passed.  ``format`` problems make an output unusable to a strict
reader (non-zero exit, non-strict JSON, ``nan``/``inf`` in a CSV or SVG).
``value`` problems are numbers that disagree with an independent recount or
break an invariant that holds for every random stream.  The counts are
recomputed here in plain NumPy from the values the benchmark generated, so
the program's own parsing and counting are never trusted.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass

import numpy as np

NONFINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
REL_TOL = 1e-12


@dataclass(frozen=True)
class Problem:
    kind: str       # "format" or "value"
    message: str


def _fmt(msg: str) -> Problem:
    return Problem("format", msg)


def _val(msg: str) -> Problem:
    return Problem("value", msg)


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def load_report(text: str, name: str) -> tuple[dict | None, list[Problem]]:
    """Parse a JSON report strictly; fall back to a lenient parse for the value checks."""
    try:
        return json.loads(text, parse_constant=_reject_constant), []
    except ValueError as exc:
        problems = [_fmt(f"{name}: not strict JSON ({exc})")]
    try:
        return json.loads(text), problems
    except ValueError:
        return None, problems


def finite_text(text: str, name: str) -> list[Problem]:
    hit = NONFINITE.search(text)
    return [_fmt(f"{name}: contains {hit.group(0)!r}")] if hit else []


def check_p_hat(p_hat, r: int, name: str) -> list[Problem]:
    """The add-one p-value times (r+1) is an integer in [1, r+1] for any random stream."""
    if not isinstance(p_hat, (int, float)) or not math.isfinite(p_hat):
        return [_val(f"{name}: p_hat {p_hat!r} is not a finite number")]
    hits = p_hat * (r + 1)
    if abs(hits - round(hits)) > 1e-6 * (r + 1) or not 1 <= round(hits) <= r + 1:
        return [_val(f"{name}: p_hat*(r+1) = {hits!r} is not an integer in [1, {r + 1}]")]
    return []


# -- plain-NumPy reference for the series workloads ---------------------------

def reference_values(raw: np.ndarray, preprocess: bool, window: int = 30) -> np.ndarray:
    """log2(x+1) minus the mean of the previous ``window`` transformed values.

    The first step subtracts its own value; the window expands at the start.
    """
    x = raw.astype(np.float64)
    if not preprocess:
        return x
    logs = np.log2(x + 1.0)
    cs = np.concatenate(([0.0], np.cumsum(logs)))
    t = np.arange(1, x.size + 1)
    lo = np.maximum(t - 1 - window, 0)
    hi = t - 1
    n_prior = hi - lo
    means = np.where(n_prior > 0, (cs[hi] - cs[lo]) / np.maximum(n_prior, 1), logs)
    return logs - means


def reference_quantile(sorted_values: np.ndarray, p: float) -> float:
    """The ceil(p*T)-th smallest value; level 0 maps to the minimum."""
    idx = max(1, math.ceil(p * sorted_values.size - 1e-9))
    return float(sorted_values[min(idx, sorted_values.size) - 1])


def reference_ladder(x: np.ndarray, qlo: float, qhi: float, m: int):
    levels = np.linspace(qlo, qhi, m)
    s = np.sort(x)
    thr = np.array([reference_quantile(s, p) for p in levels])
    keep = np.concatenate(([True], np.diff(thr) > 0))
    return levels[keep], thr[keep]


def reference_counts(x: np.ndarray, events: np.ndarray, delta: int, thresholds) -> np.ndarray:
    """Events at steps t <= T-delta whose window max over [t, t+delta] exceeds each threshold."""
    early = events[events <= x.size - delta]
    wmax = np.array([x[t - 1:t + delta].max() for t in early])
    return np.array([int(np.count_nonzero(wmax > tau)) for tau in thresholds], dtype=np.int64)


def _close(a, b) -> bool:
    return isinstance(a, (int, float)) and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def check_pointwise(text: str, x: np.ndarray, events: np.ndarray, delta: int,
                    quantile: float) -> list[Problem]:
    report, problems = load_report(text, "pointwise report")
    if report is None:
        return problems
    threshold = reference_quantile(np.sort(x), quantile)
    if not _close(report.get("threshold"), threshold):
        problems.append(_val(f"pointwise threshold {report.get('threshold')!r} != {threshold!r}"))
    k = int(reference_counts(x, events, delta, [threshold])[0])
    if report.get("k_observed") != k:
        problems.append(_val(f"pointwise k_observed {report.get('k_observed')!r} != recount {k}"))
    return problems


def _qtr_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_multi(text: str, qtr_text: str, svg_text: str, x: np.ndarray, events: np.ndarray,
                delta: int, qlo: float, qhi: float, m: int, r: int) -> list[Problem]:
    problems = finite_text(qtr_text, "QTR CSV") + finite_text(svg_text, "QTR SVG")
    report, parse_problems = load_report(text, "multi report")
    problems += parse_problems
    if report is None:
        return problems
    levels, thresholds = reference_ladder(x, qlo, qhi, m)
    counts = reference_counts(x, events, delta, thresholds)
    got_thr = report.get("ladder", {}).get("thresholds", [])
    if len(got_thr) != thresholds.size or not all(map(_close, got_thr, thresholds)):
        problems.append(_val("multi ladder thresholds differ from the recount"))
    got_k = report.get("pointwise", {}).get("k_observed")
    if got_k != counts.tolist():
        problems.append(_val(f"multi k_observed {got_k!r} != recount {counts.tolist()}"))
    rows = _qtr_rows(qtr_text)
    try:
        qtr_counts = [int(row["observed_count"]) for row in rows]
        qtr_thr = [float(row["threshold"]) for row in rows]
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(_val(f"QTR CSV unreadable: {exc}"))
    else:
        if qtr_counts != counts.tolist() or not all(map(_close, qtr_thr, thresholds)):
            problems.append(_val("QTR observed counts or thresholds differ from the recount"))
    problems += check_p_hat(report.get("multi_test", {}).get("p_hat"), r, "multi")
    return problems


# -- simulate presets ---------------------------------------------------------

def check_fig4(summary_text: str, files: dict[str, str], r: int) -> list[Problem]:
    problems = []
    for name, text in files.items():
        problems += finite_text(text, name)
    summary, parse_problems = load_report(summary_text, "fig4 summary")
    problems += parse_problems
    if summary is None:
        return problems
    results = summary.get("results", {})
    for label in ("dependent", "independent"):
        problems += check_p_hat(results.get(label, {}).get("p_hat"), r, f"fig4 {label}")
    dep = results.get("dependent", {})
    if dep.get("p_hat") != 1 / (r + 1):
        problems.append(_val(f"fig4 dependent p_hat {dep.get('p_hat')!r} != 1/(r+1)"))
    if dep.get("rate_at_trigger_tau") != 1.0:
        problems.append(_val(f"fig4 dependent rate_at_trigger_tau "
                             f"{dep.get('rate_at_trigger_tau')!r} != 1.0"))
    return problems


def check_appendix_b1(summary_text: str, csv_text: str, n_cells: int) -> list[Problem]:
    problems = finite_text(csv_text, "null_comparison.csv")
    summary, parse_problems = load_report(summary_text, "appendix-b1 summary")
    problems += parse_problems
    if summary is None:
        return problems
    cells = summary.get("cells", [])
    if len(cells) != n_cells:
        problems.append(_val(f"appendix-b1 has {len(cells)} cells, expected {n_cells}"))
    for c in cells:
        for key in ("sup_bernoulli", "sup_gev"):
            v = c.get(key)
            if not isinstance(v, (int, float)) or not 0.0 <= v <= 1.0:
                problems.append(_val(f"appendix-b1 {key} {v!r} outside [0, 1]"))
    return problems
