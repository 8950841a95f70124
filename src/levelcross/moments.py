"""Second-moment functions A, B, C and the Kac-Rice crossing intensity.

For P_n(x) = sum_k X_k x^k with stationary coefficients,

    A(x) = E[P_n(x)^2]      = sum_{k,j} Gamma(k-j) x^{k+j},
    B(x) = E[P_n(x)P_n'(x)] = sum_{k,j} Gamma(k-j) k x^{k+j-1},
    C(x) = E[P_n'(x)^2]     = sum_{k,j} Gamma(k-j) k j x^{k+j-2}.

Two independent computational paths are provided: the covariance double
sum (evaluated as Toeplitz quadratic forms, FFT-accelerated) and the
spectral closed-form kernel quadrature.  For |x| > 1 a numerically stable
scaled form is used: with x = 1/z the scaled triple never forms z^{-2n}.

Stability of the scaled form comes from the reversal identity: the
reversed polynomial z^n P_n(1/z) = sum_k X_{n-k} z^k has the same
stationary covariance, hence the same moment functions, and

    z^{2n}   A(1/z) = A(z)
    z^{2n-1} B(1/z) = n A(z) - z B(z)
    z^{2n-2} C(1/z) = n^2 A(z) - 2 n z B(z) + z^2 C(z)

with the Gram determinant contracting to
(z^{2n} A(1/z))(z^{2n-2} C(1/z)) - (z^{2n-1} B(1/z))^2 = z^2 (AC - B^2)(z),
which is free of the catastrophic cancellation of the raw forms.

intensity() is the one implementation of the crossing intensity F1 + F2:
it takes moment arrays, so quadrature evaluates it on whole batches of
points, in plain coordinates and in the transformed tails alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import matmul_toeplitz
from scipy.special import erf

from .spectrum import CovarianceModel, CovarianceSequence, SpectralDensity

GRAM_EPS = 1e-10  # tolerance for AC - B^2 treated as a removable zero


def erf_integral(x):
    """The unnormalized error integral int_0^x exp(-t^2) dt, elementwise.

    The crossing-intensity F2 term is classically written with this
    convention (it equals sqrt(pi)/2 times the normalized erf); using the
    normalized erf instead overstates F2 by 2/sqrt(pi), which is ruled
    out both by the exact conditional-expectation form of the crossing
    density and by Monte Carlo.
    """
    return 0.5 * math.sqrt(math.pi) * erf(x)


__all__ = [
    "PolynomialEnsemble",
    "MomentTriple",
    "erf_integral",
    "intensity",
    "moments_direct",
    "moments_spectral",
    "moments_outer_scaled",
    "scaled_outer_from_inner",
    "unscale_moments",
]


@dataclass(frozen=True)
class PolynomialEnsemble:
    """Problem instance: degree n, covariance model, crossing level K."""

    n: int
    model: CovarianceModel
    level: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"degree must be >= 1, got {self.n}")
        if not math.isfinite(self.level):
            raise ValueError(f"level must be finite, got {self.level}")


@dataclass(frozen=True)
class MomentTriple:
    """(A, B, C) at a point, possibly in scaled outer form.

    scale_exponent p is 0 for plain values.  For the outer form (x = 1/z,
    p = 2n) the true values are recovered as

        A(1/z) = z^{-p} A,   B(1/z) = -z^{-p+1} B,   C(1/z) = z^{-p+2} C.
    """

    A: float
    B: float
    C: float
    scale_exponent: int = 0

    @property
    def gram(self) -> float:
        return self.A * self.C - self.B * self.B


# ---------------------------------------------------------------------------
# direct (covariance double sum) path
# ---------------------------------------------------------------------------


def _power_columns(n: int, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V[k,i] = xs[i]^k and W[k,i] = k*xs[i]^(k-1) for k = 0..n."""
    ks = np.arange(n + 1)
    V = np.power.outer(xs, ks).T
    W = np.zeros_like(V)
    W[1:] = ks[1:, None] * V[:-1]
    return V, W


def moment_arrays(gamma: np.ndarray, n: int, xs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Vectorized A, B, C over points xs from covariance lags gamma[0..n].

    The quadratic forms v^T T v, v^T T w, w^T T w (T = Toeplitz(gamma))
    are evaluated with an FFT-based Toeplitz multiply, O(n log n) per
    batch of points.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if len(gamma) < n + 1:
        raise ValueError(f"covariance sequence covers lags 0..{len(gamma)-1}, need 0..{n}")
    col = np.asarray(gamma[: n + 1], dtype=float)
    V, W = _power_columns(n, xs)
    stacked = np.hstack([V, W])
    tstacked = matmul_toeplitz((col, col), stacked)
    TV, TW = tstacked[:, : len(xs)], tstacked[:, len(xs):]
    A = np.einsum("ki,ki->i", V, TV)
    B = np.einsum("ki,ki->i", V, TW)
    C = np.einsum("ki,ki->i", W, TW)
    return A, B, C


def moments_direct(e: PolynomialEnsemble, gamma: CovarianceSequence, x: float) -> MomentTriple:
    """A, B, C at x via the covariance double sum (lag-reorganized)."""
    garr = gamma.as_array(e.n)
    A, B, C = moment_arrays(garr, e.n, np.array([x]))
    return MomentTriple(A=float(A[0]), B=float(B[0]), C=float(C[0]))


# ---------------------------------------------------------------------------
# spectral (closed-form kernel quadrature) path
# ---------------------------------------------------------------------------


def _spectral_kernel_values(n: int, x: float, phi: np.ndarray) -> tuple[np.ndarray, ...]:
    """|D|^2, Re(conj(D) dD/dx), |dD/dx|^2 with D = (1 - (x e^{i phi})^{n+1})/(1 - x e^{i phi})."""
    s = np.exp(1j * phi)
    w = x * s
    num = 1.0 - w ** (n + 1)
    den = 1.0 - w
    D = num / den
    dD = (-(n + 1) * x**n * s ** (n + 1) * den + num * s) / (den * den)
    return np.abs(D) ** 2, (np.conj(D) * dD).real, np.abs(dD) ** 2


def moments_spectral(
    e: PolynomialEnsemble,
    f: SpectralDensity,
    x: float,
    rel_tol: float = 1e-11,
    max_points: int = 1 << 18,
) -> MomentTriple:
    """A, B, C at x (|x| < 1) by quadrature of the geometric-sum kernels.

    Periodic trapezoid rule with grid doubling; raises if the refinement
    limit is hit (callers near |x| -> 1 with huge n should switch to the
    asymptotic forms).
    """
    if abs(x) >= 1.0:
        raise ValueError(f"spectral path requires |x| < 1, got x = {x}")
    n = e.n
    npoints = 2048
    prev = None
    while npoints <= max_points:
        phi = -math.pi + 2.0 * math.pi * np.arange(npoints) / npoints
        fvals = np.asarray(f.evaluate(phi), dtype=float)
        ka, kb, kc = _spectral_kernel_values(n, x, phi)
        step = 2.0 * math.pi / npoints
        cur = np.array([np.dot(ka, fvals), np.dot(kb, fvals), np.dot(kc, fvals)]) * step
        if prev is not None:
            scale = np.maximum(np.abs(cur), np.abs(cur).max() * 1e-6)
            if np.max(np.abs(cur - prev) / scale) <= rel_tol:
                return MomentTriple(A=float(cur[0]), B=float(cur[1]), C=float(cur[2]))
        prev = cur
        npoints *= 2
    raise ValueError(
        f"spectral moment quadrature did not converge at x = {x}, n = {n} "
        "(refinement limit reached)"
    )


# ---------------------------------------------------------------------------
# scaled outer form (|x| > 1 via x = 1/z)
# ---------------------------------------------------------------------------


def scaled_outer_from_inner(n: int, z, A, B, C):
    """Scaled triple (Atil, Btil, Ctil) at x = 1/z from inner moments at z.

    Sign convention: B(1/z) = -z^{-2n+1} * Btil.
    """
    Atil = A
    Btil = z * B - n * A
    Ctil = n * n * A - 2.0 * n * z * B + z * z * C
    return Atil, Btil, Ctil


def moments_outer_scaled(e: PolynomialEnsemble, f: SpectralDensity, z: float) -> MomentTriple:
    """Scaled moments at x = 1/z for 0 < |z| < 1; never forms z^{-2n}."""
    if z == 0.0:
        raise ValueError("z = 0 is outside the domain of the outer transform")
    if not 0.0 < abs(z) < 1.0:
        raise ValueError(f"outer transform requires 0 < |z| < 1, got z = {z}")
    inner = moments_spectral(e, f, z)
    Atil, Btil, Ctil = scaled_outer_from_inner(e.n, z, inner.A, inner.B, inner.C)
    return MomentTriple(A=float(Atil), B=float(Btil), C=float(Ctil), scale_exponent=2 * e.n)


def unscale_moments(m: MomentTriple, z: float) -> MomentTriple:
    """Recover the plain triple at x = 1/z from a scaled triple (small n only)."""
    if m.scale_exponent == 0:
        return m
    p = m.scale_exponent
    return MomentTriple(
        A=m.A * z**(-p),
        B=-m.B * z**(-p + 1),
        C=m.C * z**(-p + 2),
    )




# ---------------------------------------------------------------------------
# Kac-Rice intensity
# ---------------------------------------------------------------------------


def intensity(A, B, C, K: float, Bl, Cl, zpow=(1.0, 1.0, 1.0)):
    """Vectorized crossing intensities F1 (level term) and F2 (drift term).

    Plain form, per unit x, with the inner triple (A, B, C) at x:

        F1 = (1/pi) sqrt(AC-B^2)/A * exp(-K^2 C / (2(AC-B^2)))
        F2 = (sqrt(2)/pi) |BK| / A^{3/2} * exp(-K^2/(2A))
             * erf_integral(|BK| / sqrt(2A(AC-B^2)))

    with Bl = B, Cl = C and unit z-powers.  The outer form x = 1/z takes
    the inner triple at z, the scaled level-term moments Bl = Btil,
    Cl = Ctil of scaled_outer_from_inner, and zpow = (|z|^{n-1},
    |z|^{2n-2}, |z|^{2n}); its values are per unit z and include the 1/z^2
    Jacobian.  In both forms the Gram determinant is the inner AC - B^2
    (the scaled one contracts to z^2 (AC - B^2)), and where it vanishes
    within GRAM_EPS the F1 exponential is taken as its limit.
    """
    zn1, z2n2, z2n = zpow
    G = A * C - B * B
    ref = np.abs(A * C)
    if np.any(G < -GRAM_EPS * ref):
        raise ValueError("degenerate moment triple encountered (AC - B^2 < 0 beyond tolerance)")
    G = np.clip(G, 0.0, None)
    small = G <= GRAM_EPS * ref
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        if K == 0.0:
            expfac = np.ones_like(G)
        else:
            arg = np.where(G > 0.0, K * K * z2n2 * Cl / (2.0 * G), np.inf)
            expfac = np.where(small, 0.0, np.exp(-arg))
        F1 = np.sqrt(G) / A * expfac / math.pi
        if K == 0.0:
            F2 = np.zeros_like(F1)
        else:
            erf_arg = np.where(G > 0.0, zn1 * np.abs(Bl) * K / np.sqrt(2.0 * A * G), np.inf)
            pref = math.sqrt(2.0) / math.pi * zn1 * np.abs(Bl) * K / A**1.5
            F2 = pref * np.exp(-K * K * z2n / (2.0 * A)) * erf_integral(erf_arg)
    return F1, F2
