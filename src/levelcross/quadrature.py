"""Expected number of level crossings by adaptive Gauss-Kronrod quadrature.

E[N_K(a,b)] is the integral of F1 + F2 over (a,b).  IntervalSpec.parts
splits the interval into its part in [-1, 1], integrated in x, and its
parts beyond +-1, integrated in z = 1/x over [-1, 0) or (0, 1] with the
1/z^2 Jacobian and scaled moments (see moments.scaled_outer_from_inner).
Every part runs up to +-1 exactly: both integrands are finite on their
whole range, z -> 0 included, and the Gauss-Kronrod nodes never touch a
panel's endpoints.  The parts are further split at 0 and, from n = 16 on,
at the analysis breakpoints +-(1 - 1/log n) and +-(1 - log log n / n),
then refined adaptively.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .moments import (
    MomentWorkspace,
    PolynomialEnsemble,
    intensity,
    moment_arrays,
    scaled_outer_from_inner,
)

__all__ = [
    "FULL_LINE",
    "IntervalSpec",
    "CrossingEstimate",
    "Piece",
    "expected_crossings",
]

# One 15-point moment batch holds O(n) work arrays: a full-line
# `compute --model geometric:0.5` peaks at 112 MB RSS in 8.7 s at n = 2^16
# and at 360 MB in 45 s at n = 2^18 (0.08-0.17 s and 0.36-0.63 s per batch
# on a 2-vCPU x86 VM), so quadrature refuses larger n.
MAX_DEGREE = 1 << 18


@dataclass(frozen=True)
class IntervalSpec:
    """Crossing-count interval; lo may be -inf, hi may be +inf."""

    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not self.lo < self.hi:
            raise ValueError(f"interval needs lo < hi, got ({self.lo}, {self.hi})")

    def parts(self) -> list[tuple[float, float, bool]]:
        """The nonempty (lo, hi, transformed) parts of the interval.

        The part in [-1, 1] is given in x (transformed False); each part
        beyond +-1 is given in z = 1/x (transformed True), so x > 1 maps into
        (0, 1] and x < -1 into [-1, 0), with 1/inf = 0.
        """
        lo, hi = self.lo, self.hi
        parts = [(max(lo, -1.0), min(hi, 1.0), False)]
        if hi > 1.0:
            parts.append((1.0 / hi, 1.0 / max(lo, 1.0), True))
        if lo < -1.0:
            parts.append((1.0 / min(hi, -1.0), 1.0 / lo, True))
        return [p for p in parts if p[0] < p[1]]

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
    """Caches the covariance lags of an ensemble and evaluates F1/F2 batches.

    One moment workspace, built for the 15 points of a Kronrod panel,
    serves every panel; a batch of another size gets a one-off workspace.
    """

    def __init__(self, ensemble: PolynomialEnsemble):
        if ensemble.n > MAX_DEGREE:
            raise ValueError(f"degree n = {ensemble.n} is above the quadrature limit "
                             f"{MAX_DEGREE}: a moment batch needs memory in proportion to n")
        self.n = ensemble.n
        self.K = abs(ensemble.level)
        self.gamma = ensemble.model.covariance(ensemble.n)
        self.workspace = MomentWorkspace(self.gamma, self.n, len(_XGK))

    def inner(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """F1, F2 per unit x on (-1, 1)."""
        A, B, C = moment_arrays(self.gamma, self.n, xs, self.workspace)
        return intensity(A, B, C, self.K, B, C)

    def transformed(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(F1 + F2)(1/z) / z^2 per unit z, for 0 < |z| < 1 (covers |x| > 1)."""
        n = self.n
        A, B, C = moment_arrays(self.gamma, n, zs, self.workspace)
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
MAX_PANELS = 8192  # _adaptive_panels' cap on the panels of one estimate


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


def _adaptive_panels(fun, segments, tol: float) -> list:
    """Global adaptive refinement over initial segments (a, b, transformed).

    One heap of (-err, order, Piece), ties broken by insertion order, and a
    running error sum: the worst panel is bisected until the sum is <= tol,
    MAX_PANELS is reached, or the worst panel cannot be bisected in floating
    point.  Returns the pieces; the caller flags a sum left above tol.
    """
    heap: list = []
    order = itertools.count()
    total = 0.0

    def push(a, b, transformed):
        nonlocal total
        f1, f2, err = _gk15(fun, a, b, transformed)
        heapq.heappush(heap, (-err, next(order), Piece(a, b, f1, f2, err, transformed)))
        total += err

    for segment in segments:
        push(*segment)
    while total > tol and len(heap) < MAX_PANELS:
        worst = heap[0][2]
        mid = 0.5 * (worst.lo + worst.hi)
        if not worst.lo < mid < worst.hi:
            break
        heapq.heappop(heap)
        total -= worst.err
        push(worst.lo, mid, worst.transformed)
        push(mid, worst.hi, worst.transformed)
    return [piece for (_, _, piece) in heap]


# ---------------------------------------------------------------------------
# interval decomposition and the main entry point
# ---------------------------------------------------------------------------


def _with_knots(a: float, b: float, knots) -> list:
    pts = sorted({a, b} | {k for k in knots if a < k < b})
    return list(zip(pts[:-1], pts[1:]))


def _symmetric_knots(n: int) -> list:
    knots = [0.0]
    if n >= 16:
        inner = 1.0 - 1.0 / math.log(n)
        near_edge = 1.0 - math.log(math.log(n)) / n
        knots += [inner, -inner, near_edge, -near_edge]
    return knots


def expected_crossings(
    e: PolynomialEnsemble,
    spec: IntervalSpec = FULL_LINE,
    tol: float = 1e-6,
) -> CrossingEstimate:
    """E[N_K(spec)], with error estimate <= tol on success.

    The estimate is flagged when its error estimate is not <= tol or its
    value is not finite.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    knots = _symmetric_knots(e.n)
    segments = [(a, b, transformed) for (lo, hi, transformed) in spec.parts()
                for (a, b) in _with_knots(lo, hi, knots)]
    pieces = _adaptive_panels(KacRiceEvaluator(e), segments, tol)
    pieces.sort(key=lambda p: (p.transformed, p.lo))
    value = sum(p.f1 + p.f2 for p in pieces)
    abs_err = sum(p.err for p in pieces)
    return CrossingEstimate(value=value, abs_err=abs_err, pieces=tuple(pieces),
                            flagged=not abs_err <= tol or not math.isfinite(value))

