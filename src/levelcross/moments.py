"""Second-moment functions A, B, C and the Kac-Rice crossing intensity.

For P_n(x) = sum_k X_k x^k with stationary coefficients,

    A(x) = E[P_n(x)^2]      = sum_{k,j} Gamma(k-j) x^{k+j},
    B(x) = E[P_n(x)P_n'(x)] = sum_{k,j} Gamma(k-j) k x^{k+j-1},
    C(x) = E[P_n'(x)^2]     = sum_{k,j} Gamma(k-j) k j x^{k+j-2}.

moment_arrays is the one implementation of these sums: it evaluates the
double sum as Toeplitz quadratic forms, embedding the Toeplitz matrix in a
circulant whose length is the smallest 5-smooth number >= 2n,
transforming a whole batch of power rows with one real FFT, and summing
the circulant's eigenvalues against the row spectra by Parseval,
O(n log n) per batch of points.  A MomentWorkspace holds the circulant
weights and the O(n) work buffers for one batch size, and a caller that
evaluates many batches (quadrature's KacRiceEvaluator) reuses it, so each
batch fills the same buffers in place instead of allocating and zeroing
fresh ones.  The results are bit-identical to a fresh call's, and they are
new arrays, never views into the buffers.  For |x| > 1 a numerically
stable scaled form is used: with x = 1/z the scaled triple never forms
z^{-2n}.

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
points, in plain coordinates and in the transformed tails alike.  The
erf in F2 is the standard library's math.erf, applied elementwise, so
numpy is the package's only dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import CovarianceModel

GRAM_EPS = 1e-10  # tolerance for AC - B^2 treated as a removable zero
_ERF = np.frompyfunc(math.erf, 1, 1)  # math.erf elementwise; returns object arrays


def erf_integral(x):
    """The unnormalized error integral int_0^x exp(-t^2) dt, elementwise.

    The crossing-intensity F2 term is classically written with this
    convention (it equals sqrt(pi)/2 times the normalized erf); using the
    normalized erf instead overstates F2 by 2/sqrt(pi), which is ruled
    out both by the exact conditional-expectation form of the crossing
    density and by Monte Carlo.
    """
    return 0.5 * math.sqrt(math.pi) * np.asarray(_ERF(x), dtype=float)


__all__ = [
    "MomentWorkspace",
    "PolynomialEnsemble",
    "erf_integral",
    "intensity",
    "moment_arrays",
    "scaled_outer_from_inner",
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


# ---------------------------------------------------------------------------
# covariance double sum as Toeplitz quadratic forms
# ---------------------------------------------------------------------------


def _smooth_length(m: int) -> int:
    """The smallest 2^a 3^b 5^c >= m, a length pocketfft transforms fast."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << ((m - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


_POW_BLOCK = 64  # x^k = x^(64b) * x^j: two small pow tables and one multiply per entry


class MomentWorkspace:
    """Work buffers of moment_arrays for lags gamma, degree n and batches of m points.

    Built once, they serve every batch of that size: the circulant weights
    (the real DFT of the embedded lag column times the Parseval bin
    weights), the zero-padded power rows V and W (2m rows, wide enough for
    the 64-wide power blocks, so wider than the FFT length L below n = 32),
    the two small power tables, and one scratch array for the three
    Parseval products.  Each batch overwrites them in place.
    """

    def __init__(self, gamma: np.ndarray, n: int, m: int):
        if len(gamma) < n + 1:
            raise ValueError(f"covariance sequence covers lags 0..{len(gamma)-1}, need 0..{n}")
        self.gamma, self.n, self.m = gamma, n, m
        col = np.asarray(gamma[: n + 1], dtype=float)
        L = _smooth_length(2 * n)
        embedded = np.zeros(L)
        embedded[: n + 1] = col
        embedded[L - n :] = col[:0:-1]
        # An interior bin stands for itself and its conjugate twin.
        weight = np.full(L // 2 + 1, 1.0 / L)
        weight[1 : (L + 1) // 2] = 2.0 / L
        # Interleaved (re, im) pairs share their bin's weight.
        self.weight = np.repeat(np.fft.rfft(embedded).real * weight, 2)
        blocks = n // _POW_BLOCK + 1
        self.hi_exp = _POW_BLOCK * np.arange(blocks)
        self.lo_exp = np.arange(_POW_BLOCK)
        self.hi = np.empty((m, blocks))
        self.lo = np.empty((m, _POW_BLOCK))
        self.ks = np.arange(1.0, n + 1)
        width = blocks * _POW_BLOCK
        self.rows = np.zeros((2 * m, max(L, width)))
        self.fft_in = self.rows[:, :L]
        self.V, self.W = self.rows[:m], self.rows[m:]
        # Splitting the contiguous last axis makes a view, never a copy.
        self.table = self.V[:, :width].reshape(m, blocks, _POW_BLOCK)
        self.padding = self.V[:, n + 1 : width]  # powers past x^n the table writes
        self.product = np.empty((m, len(self.weight)))

    def fits(self, gamma: np.ndarray, n: int, m: int) -> bool:
        return self.gamma is gamma and self.n == n and self.m == m


def moment_arrays(gamma: np.ndarray, n: int, xs: np.ndarray,
                  workspace: MomentWorkspace | None = None) -> tuple[np.ndarray, ...]:
    """Vectorized A, B, C over points xs from covariance lags gamma[0..n].

    The quadratic forms v^T T v, v^T T w, w^T T w (T = Toeplitz(gamma),
    v_k = x^k, w_k = k x^(k-1), k = 0..n) are read off a circulant
    embedding of T of length L = the smallest 5-smooth number >= 2n (lags
    n and -n share a slot, and both are gamma[n]).  With lambda the
    circulant's eigenvalues (the real DFT of its first column) and hats
    for length-L DFTs of the zero-padded rows, Parseval gives

        v^T T v = sum_k lambda_k |v^_k|^2 / L,
        v^T T w = sum_k lambda_k Re(conj(v^_k) w^_k) / L,

    summed over the half spectrum with the interior bins weighted 2.  One
    forward rfft covers every row of the batch: O(n log n) per batch.

    A workspace built for this gamma (the same object), n and len(xs) is
    reused: the batch fills its buffers in place and re-zeroes the padding
    past column n, so the only new arrays are the row spectrum and the
    three results.  Without one, or with one of another size, a one-off
    workspace is built.  Either way the results are bit-identical, and
    they are new arrays, never views into the workspace.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    m = len(xs)
    ws = workspace
    if ws is None or not ws.fits(gamma, n, m):
        ws = MomentWorkspace(gamma, n, m)
    np.power(xs[:, None], ws.hi_exp, out=ws.hi)
    np.power(xs[:, None], ws.lo_exp, out=ws.lo)
    np.multiply(ws.hi[:, :, None], ws.lo[:, None, :], out=ws.table)
    ws.padding[...] = 0.0
    np.multiply(ws.V[:, :n], ws.ks, out=ws.W[:, 1 : n + 1])
    parts = np.fft.rfft(ws.fft_in, axis=1).view(np.float64)
    Vh, Wh = parts[:m], parts[m:]
    return tuple(np.multiply(a, b, out=ws.product) @ ws.weight
                 for a, b in ((Vh, Vh), (Vh, Wh), (Wh, Wh)))


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
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        if K == 0.0:
            F1 = np.sqrt(G) / A / math.pi
            return F1, np.zeros_like(F1)
        small = G <= GRAM_EPS * ref
        arg = np.where(G > 0.0, K * K * z2n2 * Cl / (2.0 * G), np.inf)
        expfac = np.where(small, 0.0, np.exp(-arg))
        F1 = np.sqrt(G) / A * expfac / math.pi
        erf_arg = np.where(G > 0.0, zn1 * np.abs(Bl) * K / np.sqrt(2.0 * A * G), np.inf)
        pref = math.sqrt(2.0) / math.pi * zn1 * np.abs(Bl) * K / A**1.5
        F2 = pref * np.exp(-K * K * z2n / (2.0 * A)) * erf_integral(erf_arg)
    return F1, F2
