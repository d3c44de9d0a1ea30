"""Family-wise error rate adjustments for batches of pointwise p-values.

Single-step Bonferroni and Sidak, and their step-down Holm counterparts.
Adjusted p-values compare directly against the target alpha.
"""

from __future__ import annotations

import numpy as np

from .series import real_array, real_scalar

__all__ = ["METHODS", "adjust", "reject_set"]

METHODS = ("bonferroni", "sidak", "holm", "holm-sidak")


def adjust(pvals, method: str) -> np.ndarray:
    """Adjust p-values for multiplicity; ties are broken stably by position.  Bonferroni and
    Holm take k * p, Sidak and Holm-Sidak 1 - (1 - p)^k; the single-step two use k = m, the
    step-down two k = m - j + 1 at the j-th smallest p, then a running maximum."""
    p = real_array(pvals, "p-values", 0, 1).ravel()
    if p.size < 1:
        raise ValueError("need at least one p-value")
    if method not in METHODS:
        raise ValueError(f"unknown adjustment method: {method!r}")
    m = p.size
    step_down = method in ("holm", "holm-sidak")
    order = np.argsort(p, kind="stable") if step_down else np.arange(m)
    k = np.arange(m, 0, -1, dtype=float) if step_down else m
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf is the right limit for p = 1
        steps = (-np.expm1(k * np.log1p(-p[order])) if method in ("sidak", "holm-sidak")
                 else k * p[order])
    adj = np.empty(m)
    adj[order] = np.maximum.accumulate(steps) if step_down else steps
    return np.minimum(adj, 1.0)


def reject_set(adjusted, alpha: float) -> np.ndarray:
    """Boolean mask of hypotheses rejected at family-wise level alpha, from ``adjust``'s array."""
    alpha = real_scalar(alpha, "alpha")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return real_array(adjusted, "adjusted p-values", 0, 1) < alpha
