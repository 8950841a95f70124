"""Expected number of level crossings by adaptive Gauss-Kronrod quadrature.

E[N_K(a,b)] is the integral of F1 + F2 over (a,b).  The interval is split
at the analysis breakpoints +-(1 - 1/log n) and +-(1 - log log n / n),
integrated adaptively on (-1,1), and the unbounded parts are mapped by
x = 1/z onto z in (-1,0) or (0,1) with the 1/z^2 Jacobian and scaled
moments (see moments.scaled_outer_from_inner); the transformed integrand
is finite on the whole z-range including z -> 0.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import interval_prediction
from .moments import PolynomialEnsemble, intensity, moment_arrays, scaled_outer_from_inner
from .spectrum import covariance_from_density

EDGE_CLIP = 1e-12  # integration stops this far from |x| = 1 (and |z| = 1)

__all__ = [
    "IntervalSpec",
    "Breakpoints",
    "CrossingEstimate",
    "Piece",
    "breakpoints",
    "expected_crossings",
    "crossing_table",
    "CrossingRow",
]


@dataclass(frozen=True)
class IntervalSpec:
    """Crossing-count interval; lo may be -inf, hi may be +inf."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"interval needs lo < hi, got ({self.lo}, {self.hi})")

    @staticmethod
    def parse(text: str) -> "IntervalSpec":
        """Parse 'a..b' with '-inf'/'inf' tokens allowed."""
        parts = text.split("..")
        if len(parts) != 2:
            raise ValueError(f"interval must look like 'a..b', got {text!r}")
        return IntervalSpec(lo=float(parts[0]), hi=float(parts[1]))

    def __str__(self):
        return f"{self.lo:g}..{self.hi:g}"


FULL_LINE = IntervalSpec(-math.inf, math.inf)


@dataclass(frozen=True)
class Breakpoints:
    """Magnitudes of the analysis breakpoints (applied symmetrically)."""

    inner: float      # 1 - 1/log n
    near_edge: float  # 1 - log log n / n


def breakpoints(n: int) -> Breakpoints:
    """Breakpoints for degree n; requires n >= 16 so the ordering holds."""
    if n < 16:
        raise ValueError(f"breakpoints need n >= 16, got {n}")
    inner = 1.0 - 1.0 / math.log(n)
    near_edge = 1.0 - math.log(math.log(n)) / n
    return Breakpoints(inner=inner, near_edge=near_edge)


@dataclass(frozen=True)
class Piece:
    """Contribution of one panel group; (lo, hi) are in z for transformed pieces."""

    lo: float
    hi: float
    f1: float
    f2: float
    err: float
    transformed: bool


@dataclass(frozen=True)
class CrossingEstimate:
    value: float
    abs_err: float
    pieces: tuple
    method: str = "kac_rice"
    flagged: bool = False

    @property
    def f1_part(self) -> float:
        return sum(p.f1 for p in self.pieces)

    @property
    def f2_part(self) -> float:
        return sum(p.f2 for p in self.pieces)


# ---------------------------------------------------------------------------
# vectorized integrand
# ---------------------------------------------------------------------------


class KacRiceEvaluator:
    """Caches the covariance lags of an ensemble and evaluates F1/F2 batches."""

    def __init__(self, ensemble: PolynomialEnsemble):
        density = ensemble.model.require_density()
        self.ensemble = ensemble
        self.n = ensemble.n
        self.K = abs(ensemble.level)
        self.gamma = covariance_from_density(density, ensemble.n).as_array(ensemble.n)

    def inner(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """F1, F2 per unit x on (-1, 1)."""
        A, B, C = moment_arrays(self.gamma, self.n, xs)
        return intensity(A, B, C, self.K, B, C)

    def transformed(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(F1 + F2)(1/z) / z^2 per unit z, for 0 < |z| < 1 (covers |x| > 1)."""
        n = self.n
        A, B, C = moment_arrays(self.gamma, n, zs)
        _, Bt, C2 = scaled_outer_from_inner(n, zs, A, B, C)
        az = np.abs(zs)
        with np.errstate(under="ignore"):
            zpow = (az ** (n - 1), az ** (2 * n - 2), az ** (2 * n))
        return intensity(A, B, C, self.K, Bt, C2, zpow)

    def __call__(self, pts: np.ndarray, transformed: bool) -> tuple[np.ndarray, np.ndarray]:
        return self.transformed(pts) if transformed else self.inner(pts)


# ---------------------------------------------------------------------------
# Gauss-Kronrod 15/7 panels
# ---------------------------------------------------------------------------

_XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])
_GAUSS_IDX = np.arange(1, 15, 2)


def _gk15(fun, a: float, b: float, transformed: bool):
    """One Kronrod-15 panel; returns (f1, f2, err)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    pts = c + h * _XGK
    f1v, f2v = fun(pts, transformed)
    total = f1v + f2v
    k15 = h * float(_WGK @ total)
    g7 = h * float(_WG @ total[_GAUSS_IDX])
    return h * float(_WGK @ f1v), h * float(_WGK @ f2v), abs(k15 - g7)


def _adaptive_panels(fun, segments, tol: float, max_panels: int = 8192):
    """Global adaptive refinement over initial segments.

    segments: iterable of (a, b, transformed).  Returns (pieces, flagged).
    """
    panels: dict[int, Piece] = {}
    heap: list = []
    counter = 0
    for (a, b, transformed) in segments:
        if not a < b:
            continue
        f1, f2, err = _gk15(fun, a, b, transformed)
        panels[counter] = Piece(a, b, f1, f2, err, transformed)
        heapq.heappush(heap, (-err, counter))
        counter += 1

    def total_err():
        return sum(p.err for p in panels.values())

    flagged = False
    while heap and total_err() > tol:
        if len(panels) >= max_panels:
            flagged = True
            break
        neg_err, idx = heapq.heappop(heap)
        if idx not in panels or panels[idx].err != -neg_err:
            continue  # stale heap entry
        worst = panels.pop(idx)
        mid = 0.5 * (worst.lo + worst.hi)
        if mid <= worst.lo or mid >= worst.hi:
            # cannot bisect further in floating point; keep as-is
            panels[idx] = worst
            flagged = flagged or worst.err > tol
            break
        for (a, b) in ((worst.lo, mid), (mid, worst.hi)):
            f1, f2, err = _gk15(fun, a, b, worst.transformed)
            panels[counter] = Piece(a, b, f1, f2, err, worst.transformed)
            heapq.heappush(heap, (-err, counter))
            counter += 1
    return list(panels.values()), flagged


# ---------------------------------------------------------------------------
# interval decomposition and the main entry point
# ---------------------------------------------------------------------------


def _with_knots(a: float, b: float, knots) -> list:
    pts = sorted({a, b} | {k for k in knots if a < k < b})
    return list(zip(pts[:-1], pts[1:]))


def _symmetric_knots(n: int) -> list:
    knots = [0.0]
    if n >= 16:
        bp = breakpoints(n)
        knots += [bp.inner, -bp.inner, bp.near_edge, -bp.near_edge]
    return knots


def expected_crossings(
    e: PolynomialEnsemble,
    spec: IntervalSpec = FULL_LINE,
    tol: float = 1e-6,
) -> CrossingEstimate:
    """E[N_K(spec)] for a density model, with error estimate <= tol on success."""
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    fun = KacRiceEvaluator(e)
    knots = _symmetric_knots(e.n)

    segments = []
    tail_err = 0.0

    # inner part: spec intersected with (-1, 1), clipped by EDGE_CLIP
    ilo = max(spec.lo, -1.0 + EDGE_CLIP)
    ihi = min(spec.hi, 1.0 - EDGE_CLIP)
    if ilo < ihi:
        segments += [(a, b, False) for (a, b) in _with_knots(ilo, ihi, knots)]
        if spec.hi >= 1.0:
            tail_err += 2.0 * EDGE_CLIP * float(fun.inner(np.array([1.0 - EDGE_CLIP]))[0][0])
        if spec.lo <= -1.0:
            tail_err += 2.0 * EDGE_CLIP * float(fun.inner(np.array([-1.0 + EDGE_CLIP]))[0][0])

    # right tail x in (max(lo,1), hi) -> z in (1/hi, 1/max(lo,1))
    if spec.hi > 1.0:
        zlo = 0.0 if math.isinf(spec.hi) else 1.0 / spec.hi
        zhi = min(1.0 / max(spec.lo, 1.0), 1.0 - EDGE_CLIP)
        if zlo < zhi:
            segments += [(a, b, True) for (a, b) in _with_knots(zlo, zhi, knots)]
            if max(spec.lo, 1.0) <= 1.0:
                tail_err += 2.0 * EDGE_CLIP * float(fun.transformed(np.array([1.0 - EDGE_CLIP]))[0][0])

    # left tail x in (lo, min(hi,-1)) -> z in (1/min(hi,-1), 1/lo)
    if spec.lo < -1.0:
        zlo = max(1.0 / min(spec.hi, -1.0), -1.0 + EDGE_CLIP)
        zhi = 0.0 if math.isinf(spec.lo) else 1.0 / spec.lo
        if zlo < zhi:
            segments += [(a, b, True) for (a, b) in _with_knots(zlo, zhi, knots)]
            if min(spec.hi, -1.0) >= -1.0:
                tail_err += 2.0 * EDGE_CLIP * float(fun.transformed(np.array([-1.0 + EDGE_CLIP]))[0][0])

    pieces, flagged = _adaptive_panels(fun, segments, tol)
    pieces.sort(key=lambda p: (p.transformed, p.lo))
    value = sum(p.f1 + p.f2 for p in pieces)
    abs_err = sum(p.err for p in pieces) + tail_err
    # the panel loop stops at tol, but the clipped edges can still push
    # the total past it: such an estimate is not trustworthy
    return CrossingEstimate(value=value, abs_err=abs_err, pieces=tuple(pieces),
                            flagged=flagged or abs_err > tol)


# ---------------------------------------------------------------------------
# sweep tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossingRow:
    n: int
    level: float
    model: str
    interval: IntervalSpec
    value: float
    abs_err: float
    f1_part: float
    f2_part: float
    prediction: float | None
    ratio: float | None
    flagged: bool = False


def crossing_table(
    model,
    n_list,
    k_rule,
    intervals,
    tol: float = 1e-6,
) -> list:
    """One CrossingRow per (n, interval).

    k_rule is either a fixed level or a callable n -> K.
    """
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly ascending")
    rows = []
    for n in n_list:
        K = float(k_rule(n)) if callable(k_rule) else float(k_rule)
        ens = PolynomialEnsemble(n=n, model=model, level=K)
        for spec in intervals:
            est = expected_crossings(ens, spec, tol=tol)
            pred = interval_prediction(n, K, spec)
            ratio = est.value / pred if pred else None
            rows.append(CrossingRow(
                n=n, level=K, model=model.label, interval=spec,
                value=est.value, abs_err=est.abs_err,
                f1_part=est.f1_part, f2_part=est.f2_part,
                prediction=pred, ratio=ratio, flagged=est.flagged,
            ))
    return rows
