"""Closed-form crossing asymptotics and log-slope fitting.

For a strictly positive spectral density the expected crossings behave as

    K bounded, f in C0:   E[N_K(-1,1)] ~ E[N_K(|x|>1)] ~ (1/pi) log n
    K = o(sqrt(n/loglog n)), f in C1, |K| >= 1:
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


def _in_regime(n: int, K: float) -> bool:
    """n >= 3, and K = 0 (bounded) or K^2 < n with n / K^2 finite (growing)."""
    k2 = K * K
    return n >= 3 and (K == 0.0 or (0.0 < k2 < n and math.isfinite(n / k2)))


def theorem_prediction(n: int, K: float, interval_class: str) -> float:
    """Leading-order expected crossings for the inner interval or the two tails.

    The inner class is (-1,1); the outer class is (-inf,-1) union (1,inf)
    (each single edge or tail carries half the class total).  K = 0 is the
    bounded regime, an o(log n) statement; any other K is the growing
    regime, which needs K^2 < n and n / K^2 finite, and holds to O(log log n).
    The inner term is (1/pi) log(n / max(1, K^2)), so |K| < 1 takes the
    bounded law: the growing law's log(n/K^2) would grow without bound as
    K -> 0, where the count tends to its K = 0 value.
    """
    if interval_class not in ("inner", "outer"):
        raise ValueError(f"interval_class must be 'inner' or 'outer', got {interval_class!r}")
    if not _in_regime(n, K):
        raise ValueError(f"asymptotic prediction needs n >= 3 and K = 0 or n / K^2 in (1, inf), "
                         f"got n = {n}, K = {K}")
    if interval_class == "outer":
        return math.log(n) / math.pi
    return math.log(n / max(1.0, K * K)) / math.pi


# spec.parts() of the whole analysis pieces: (-1, 1), then x > 1 and x < -1 as z = 1/x
_PIECES = {(-1.0, 1.0, False): ("inner", 1.0), (0.0, 1.0, True): ("outer", 0.5),
           (-1.0, -0.0, True): ("outer", 0.5)}


def interval_prediction(n: int, K: float, spec, model) -> float | None:
    """Closed-form asymptote for intervals made of whole analysis pieces.

    Sums the terms of spec.parts(): the inner interval (-1,1) and each full
    tail carry their own term.  An interval that covers only part of a
    piece, (n, K) outside the regime, or the constant model (whose spectral
    measure has an atom; Farahmand halves its count) gets no prediction.
    """
    pieces = [_PIECES.get(part) for part in spec.parts()]
    if not pieces or None in pieces or not _in_regime(n, K) or model.kind == "constant_rho":
        return None
    return sum(weight * theorem_prediction(n, K, cls) for cls, weight in pieces)


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
