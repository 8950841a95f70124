"""Closed-form crossing asymptotics and log-slope fitting.

For a strictly positive spectral density the expected crossings behave as

    K bounded, f in C0:   E[N_K(-1,1)] ~ E[N_K(|x|>1)] ~ (1/pi) log n
    K = o(sqrt(n/loglog n)), f in C1:
        E[N_K(-1,1)]  = (1/pi) log(n/K^2) + O(log log n)
        E[N_K(|x|>1)] = (1/pi) log n      + O(log log n)

Near the edge x = 1 - y (with log log n / n < y < 1/log n) the moments
take the arctan form A ~ (2 f(0)/y) arctan(g(y)/y) with
g(y) = y log n / log log n, and the mirrored form with f(pi) at x = -1+y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import MomentTriple
from .spectrum import SpectralDensity

REGIMES = ("K_bounded", "K_growing")
INTERVAL_CLASSES = ("inner", "outer")

__all__ = [
    "AsymptoticPrediction",
    "EdgeZoom",
    "theorem_prediction",
    "interval_prediction",
    "edge_moment_approx",
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


@dataclass(frozen=True)
class EdgeZoom:
    """Evaluation point x = side*(1 - y) in the near-edge zone."""

    y: float
    n: int
    side: int = +1

    def __post_init__(self):
        if not 0.0 < self.y < 1.0:
            raise ValueError(f"need 0 < y < 1, got {self.y}")
        if self.side not in (+1, -1):
            raise ValueError(f"side must be +1 or -1, got {self.side}")

    @property
    def g(self) -> float:
        return self.y * math.log(self.n) / math.log(math.log(self.n))

    @property
    def slope_ratio(self) -> float:
        """g(y)/y = log n / log log n, independent of y."""
        return math.log(self.n) / math.log(math.log(self.n))


def edge_moment_approx(zoom: EdgeZoom, f: SpectralDensity, smoothness: str | None = None) -> MomentTriple:
    """arctan-form moment approximations in the near-edge zone.

    Valid for log log n / n < y < 1/log n.  The density is probed at
    phi = 0 for side = +1 and phi = pi for side = -1; the sign of B flips
    on the negative side.  The C1 variant only sharpens the error order
    (the O(1/g) corrections enter as zero), so the returned values are
    identical for both smoothness classes.
    """
    n, y = zoom.n, zoom.y
    lo = math.log(math.log(n)) / n
    hi = 1.0 / math.log(n)
    if not lo < y < hi:
        raise ValueError(f"y = {y} outside the edge zone ({lo:.3e}, {hi:.3e}) for n = {n}")
    phi = 0.0 if zoom.side == +1 else math.pi
    fv = float(np.asarray(f.evaluate(np.array([phi])))[0])
    at = math.atan(zoom.slope_ratio)
    return MomentTriple(
        A=2.0 * fv / y * at,
        B=zoom.side * fv / (y * y) * at,
        C=fv / (y**3) * at,
    )


def fit_log_slope(rows) -> tuple[float, float, float]:
    """Least-squares fit of crossing value against ln n.

    rows: iterable of objects with .n and .value attributes, or (n, value)
    pairs.  Returns (slope, intercept, max_abs_residual); asymptotic laws
    of the form (1/pi) log n show up as slope 1/pi.
    """
    pts = []
    for row in rows:
        if hasattr(row, "n") and hasattr(row, "value"):
            pts.append((row.n, row.value))
        else:
            n, value = row
            pts.append((n, value))
    if len(pts) < 4:
        raise ValueError(f"slope fit needs at least 4 rows, got {len(pts)}")
    ns = np.array([p[0] for p in pts], dtype=float)
    vals = np.array([p[1] for p in pts], dtype=float)
    logn = np.log(ns)
    slope, intercept = np.polyfit(logn, vals, 1)
    resid = vals - (slope * logn + intercept)
    return float(slope), float(intercept), float(np.max(np.abs(resid)))
