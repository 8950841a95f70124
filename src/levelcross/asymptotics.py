"""Closed-form crossing asymptotics and log-slope fitting.

For a strictly positive spectral density the expected crossings behave as

    K bounded, f in C0:   E[N_K(-1,1)] ~ E[N_K(|x|>1)] ~ (1/pi) log n
    K = o(sqrt(n/loglog n)), f in C1:
        E[N_K(-1,1)]  = (1/pi) log(n/K^2) + O(log log n)
        E[N_K(|x|>1)] = (1/pi) log n      + O(log log n)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

REGIMES = ("K_bounded", "K_growing")
INTERVAL_CLASSES = ("inner", "outer")

__all__ = [
    "AsymptoticPrediction",
    "theorem_prediction",
    "interval_prediction",
    "fit_log_slope",
]


@dataclass(frozen=True)
class AsymptoticPrediction:
    regime: str
    interval_class: str
    value: float
    error_order: str  # "o(log n)" for ~ statements, "O(log log n)" otherwise


def theorem_prediction(n: int, K: float, regime: str, interval_class: str) -> AsymptoticPrediction:
    """Leading-order expected crossings for the inner interval or the two tails.

    The inner class is (-1,1); the outer class is (-inf,-1) union (1,inf)
    (each single edge or tail carries half the class total).
    """
    if n < 3:
        raise ValueError(f"asymptotic prediction needs n >= 3, got {n}")
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")
    if interval_class not in INTERVAL_CLASSES:
        raise ValueError(f"interval_class must be one of {INTERVAL_CLASSES}, got {interval_class!r}")
    if regime == "K_bounded":
        return AsymptoticPrediction(regime, interval_class, math.log(n) / math.pi, "o(log n)")
    if K * K >= n:
        raise ValueError(f"growing regime requires K^2 < n, got K = {K}, n = {n}")
    if interval_class == "inner":
        value = math.log(n / (K * K)) / math.pi
    else:
        value = math.log(n) / math.pi
    return AsymptoticPrediction(regime, interval_class, value, "O(log log n)")


def interval_prediction(n: int, K: float, spec) -> float | None:
    """Closed-form asymptote for intervals made of whole analysis pieces.

    spec has .lo and .hi.  The inner interval (-1,1) and each full tail
    carry their own term; intervals that only partially cover a piece get
    no prediction.
    """
    if n < 3:
        return None
    regime = "K_bounded" if K == 0.0 else "K_growing"
    if regime == "K_growing" and K * K >= n:
        return None
    total = 0.0
    covered = False
    if spec.lo <= -1.0 and spec.hi >= 1.0:
        total += theorem_prediction(n, K, regime, "inner").value
        covered = True
    elif -1.0 <= spec.lo and spec.hi <= 1.0:
        if (spec.lo, spec.hi) != (-1.0, 1.0):
            return None
        total += theorem_prediction(n, K, regime, "inner").value
        covered = True
    if spec.hi > 1.0:
        if spec.lo > 1.0 or not math.isinf(spec.hi):
            return None
        total += 0.5 * theorem_prediction(n, K, regime, "outer").value
        covered = True
    if spec.lo < -1.0:
        if spec.hi < -1.0 or not math.isinf(spec.lo):
            return None
        total += 0.5 * theorem_prediction(n, K, regime, "outer").value
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
