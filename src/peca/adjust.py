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
    """Adjust p-values for multiplicity; ties are broken stably by position."""
    p = real_array(pvals, "p-values", 0, 1).ravel()
    if p.size < 1:
        raise ValueError("need at least one p-value")
    m = p.size
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf is the right limit for p = 1
        if method == "bonferroni":
            adj = m * p
        elif method == "sidak":
            adj = -np.expm1(m * np.log1p(-p))
        elif method in ("holm", "holm-sidak"):
            order = np.lexsort((np.arange(m), p))
            ranked = p[order]
            mult = np.arange(m, 0, -1, dtype=float)  # m - j + 1 at sorted position j
            if method == "holm":
                steps = mult * ranked
            else:
                steps = -np.expm1(mult * np.log1p(-ranked))
            adj = np.empty(m)
            adj[order] = np.maximum.accumulate(steps)
        else:
            raise ValueError(f"unknown adjustment method: {method!r}")
    return np.minimum(adj, 1.0)


def reject_set(adjusted, alpha: float) -> np.ndarray:
    """Boolean mask of hypotheses rejected at family-wise level alpha, from ``adjust``'s array."""
    alpha = real_scalar(alpha, "alpha")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return np.asarray(adjusted) < alpha
