"""Closed-form crossing asymptotics and log-slope fitting.

For a strictly positive spectral density the expected crossings behave as

    K bounded, f in C0:   E[N_K(-1,1)] ~ E[N_K(|x|>1)] ~ (1/pi) log n
    K = o(sqrt(n/loglog n)), f in C1:
        E[N_K(-1,1)]  = (1/pi) log(n/K^2) + O(log log n)
        E[N_K(|x|>1)] = (1/pi) log n      + O(log log n)
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "theorem_prediction",
    "interval_prediction",
    "fit_log_slope",
]


def theorem_prediction(n: int, K: float, interval_class: str) -> float:
    """Leading-order expected crossings for the inner interval or the two tails.

    The inner class is (-1,1); the outer class is (-inf,-1) union (1,inf)
    (each single edge or tail carries half the class total).  K = 0 is the
    bounded regime, an o(log n) statement; any other K is the growing
    regime, which needs K^2 < n and holds to O(log log n).
    """
    if n < 3:
        raise ValueError(f"asymptotic prediction needs n >= 3, got {n}")
    if interval_class not in ("inner", "outer"):
        raise ValueError(f"interval_class must be 'inner' or 'outer', got {interval_class!r}")
    if K != 0.0 and K * K >= n:
        raise ValueError(f"growing regime requires K^2 < n, got K = {K}, n = {n}")
    if K == 0.0 or interval_class == "outer":
        return math.log(n) / math.pi
    return math.log(n / (K * K)) / math.pi


def interval_prediction(n: int, K: float, spec) -> float | None:
    """Closed-form asymptote for intervals made of whole analysis pieces.

    spec has .lo and .hi.  The inner interval (-1,1) and each full tail
    carry their own term; intervals that only partially cover a piece get
    no prediction.
    """
    if n < 3 or (K != 0.0 and K * K >= n):
        return None
    total = 0.0
    covered = False
    if spec.lo <= -1.0 and spec.hi >= 1.0:
        total += theorem_prediction(n, K, "inner")
        covered = True
    elif -1.0 <= spec.lo and spec.hi <= 1.0:
        if (spec.lo, spec.hi) != (-1.0, 1.0):
            return None
        total += theorem_prediction(n, K, "inner")
        covered = True
    if spec.hi > 1.0:
        if spec.lo > 1.0 or not math.isinf(spec.hi):
            return None
        total += 0.5 * theorem_prediction(n, K, "outer")
        covered = True
    if spec.lo < -1.0:
        if spec.hi < -1.0 or not math.isinf(spec.lo):
            return None
        total += 0.5 * theorem_prediction(n, K, "outer")
        covered = True
    return total if covered else None


def fit_log_slope(ns, values) -> tuple[float, float, float]:
    """Least-squares fit of crossing values against ln n.

    Returns (slope, intercept, max_abs_residual); asymptotic laws of the
    form (1/pi) log n show up as slope 1/pi.
    """
    if len(ns) < 4:
        raise ValueError(f"slope fit needs at least 4 rows, got {len(ns)}")
    logn = np.log(np.asarray(ns, dtype=float))
    vals = np.asarray(values, dtype=float)
    slope, intercept = np.polyfit(logn, vals, 1)
    resid = vals - (slope * logn + intercept)
    return float(slope), float(intercept), float(np.max(np.abs(resid)))
