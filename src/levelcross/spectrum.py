"""Covariance structure of the stationary coefficient sequence.

A stationary standard-normal sequence X_0, X_1, ... is given by its
covariance lags Gamma(k) = E[X_0 X_k] (Gamma(0) = 1), and a CovarianceModel
is a label plus the exact lags m -> Gamma(0..m), which quadrature and the
sampler both take from covariance(m).  A spectral density f on [-pi, pi]
is one way to give the lags, as its Fourier coefficients

    Gamma(k) = integral_{-pi}^{pi} exp(-i k phi) f(phi) dphi,

which covariance_from_density computes by FFT.  The constant model's
spectral measure has an atom, so it has no density, but it has lags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi
CHOLESKY_JITTER = 1e-12  # diagonal shift that keeps near-singular lag matrices factorable

__all__ = [
    "SpectralDensity",
    "CovarianceSequence",
    "CovarianceModel",
    "independent_density",
    "geometric_density",
    "raised_cosine_density",
    "covariance_from_density",
    "density_from_covariance",
]


@dataclass(frozen=True)
class SpectralDensity:
    """Evaluable spectral density on [-pi, pi].

    evaluate must accept numpy arrays.  lower_bound/upper_bound are bounds
    on the density values over [-pi, pi]; lower_bound may be 0 for
    densities that touch zero (such densities are rejected wherever strict
    positivity is required).
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    lower_bound: float = 0.0
    upper_bound: float = math.inf
    label: str = "custom"


def independent_density() -> SpectralDensity:
    """Flat density 1/(2*pi): independent coefficients, Gamma = (1, 0, 0, ...)."""
    c = 1.0 / TWO_PI
    return SpectralDensity(
        evaluate=lambda phi: np.full_like(np.asarray(phi, dtype=float), c),
        lower_bound=c,
        upper_bound=c,
        label="independent",
    )


def geometric_density(rho: float) -> SpectralDensity:
    """Poisson kernel density (1-rho^2)/(2*pi*(1-2*rho*cos(phi)+rho^2)).

    Realizes the geometric covariance Gamma(k) = rho^|k|.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"geometric model needs rho in (0,1), got {rho}")

    def evaluate(phi, rho=rho):
        phi = np.asarray(phi, dtype=float)
        return (1.0 - rho * rho) / (TWO_PI * (1.0 - 2.0 * rho * np.cos(phi) + rho * rho))

    return SpectralDensity(
        evaluate=evaluate,
        lower_bound=(1.0 - rho) / (1.0 + rho) / TWO_PI,
        upper_bound=(1.0 + rho) / (1.0 - rho) / TWO_PI,
        label=f"geometric:{rho:g}",
    )


def raised_cosine_density() -> SpectralDensity:
    """Density (1+cos(phi))/(2*pi): Gamma = (1, 1/2, 0, 0, ...).

    Touches zero at phi = +-pi, so it is not strictly positive; it is kept
    as a boundary-case family.
    """

    def evaluate(phi):
        return (1.0 + np.cos(np.asarray(phi, dtype=float))) / TWO_PI

    return SpectralDensity(
        evaluate=evaluate,
        lower_bound=0.0,
        upper_bound=2.0 / TWO_PI,
        label="raised_cosine",
    )


@dataclass(frozen=True)
class CovarianceSequence:
    """Covariances Gamma(0..m), extended evenly (Gamma(-k) = Gamma(k))."""

    gamma: tuple

    def __post_init__(self):
        g = self.gamma
        if len(g) == 0:
            raise ValueError("covariance sequence must contain at least Gamma(0)")
        if g[0] != 1.0:
            raise ValueError(f"Gamma(0) must be exactly 1, got {g[0]!r}")

    def __len__(self):
        return len(self.gamma)

    def __getitem__(self, k: int) -> float:
        k = abs(k)
        return self.gamma[k] if k < len(self.gamma) else 0.0

    def as_array(self, m: int | None = None) -> np.ndarray:
        """Lags 0..m as a float array, zero-padded past the stored support."""
        g = np.asarray(self.gamma, dtype=float)
        if m is None or m + 1 <= len(g):
            return g if m is None else g[: m + 1]
        out = np.zeros(m + 1)
        out[: len(g)] = g
        return out

    def toeplitz_matrix(self, size: int) -> np.ndarray:
        """The size x size matrix T[i, j] = Gamma(|i - j|)."""
        k = np.arange(size)
        return self.as_array(size - 1)[np.abs(k[:, None] - k)]


def _sample_density(f: SpectralDensity, npoints: int) -> np.ndarray:
    phi = -math.pi + TWO_PI * np.arange(npoints) / npoints
    vals = np.asarray(f.evaluate(phi), dtype=float)
    if vals.shape != phi.shape:
        raise ValueError("density evaluate() must be vectorized over phi arrays")
    return vals


def covariance_from_density(
    f: SpectralDensity,
    m: int,
    tol: float = 1e-12,
    max_points: int = 1 << 20,
) -> CovarianceSequence:
    """Fourier coefficients Gamma(0..m) of the density.

    Uses the periodic trapezoid rule (spectrally accurate for smooth f)
    with doubling of the grid until lags stabilize below tol.
    """
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    # At least 4 samples per resolved lag to stay clear of aliasing.
    npoints = 4096
    while npoints < 4 * (m + 1):
        npoints *= 2
    if 2 * npoints > max_points:
        raise ValueError(
            f"covariance to lag m = {m} needs grids of {npoints} and {2 * npoints} points "
            f"to converge, beyond max_points = {max_points}"
        )

    ks = np.arange(m + 1)
    signs = np.where(ks % 2 == 0, 1.0, -1.0)
    prev = None
    while npoints <= max_points:
        vals = _sample_density(f, npoints)
        coef = np.fft.fft(vals)[: m + 1]
        gam = (TWO_PI / npoints) * signs * coef
        if np.max(np.abs(gam.imag)) > 1e-12:
            raise ValueError(
                "density is not even: covariance has imaginary residue "
                f"{np.max(np.abs(gam.imag)):.3e} > 1e-12"
            )
        cur = gam.real
        if prev is not None and np.max(np.abs(cur - prev)) <= tol:
            break
        prev = cur
        npoints *= 2
    else:
        raise ValueError("density too rough: covariance quadrature did not converge")

    if abs(cur[0] - 1.0) > 1e-8:
        raise ValueError(
            f"density is not normalized: Gamma(0) = {cur[0]!r} differs from 1 by more than 1e-8"
        )
    cur = np.clip(cur, -1.0, 1.0)
    cur[0] = 1.0
    return CovarianceSequence(gamma=tuple(cur))


def density_from_covariance(
    gamma: CovarianceSequence,
    check_grid: int = 4096,
) -> SpectralDensity:
    """Partial Fourier sum f(phi) = (1/2pi) * sum_k Gamma(k) exp(i k phi).

    The result is a trigonometric polynomial (C1).  Raises if the sum is
    not strictly positive on the check grid, or if a lag is not finite.
    """
    g = np.asarray(gamma.gamma, dtype=float)
    bad = np.flatnonzero(~np.isfinite(g))
    if len(bad):
        named = ", ".join(f"Gamma({k}) = {g[k]}" for k in bad)
        raise ValueError(f"covariance lags must be finite, got {named}")
    coeffs = g[1:]

    def evaluate(phi, g0=g[0], coeffs=coeffs):
        phi = np.asarray(phi, dtype=float)
        ks = np.arange(1, len(coeffs) + 1)
        acc = g0 + 2.0 * np.cos(np.multiply.outer(phi, ks)) @ coeffs
        return acc / TWO_PI

    phi = np.linspace(-math.pi, math.pi, check_grid + 1)
    vals = evaluate(phi)
    fmin = float(vals.min())
    fmax = float(vals.max())
    if fmin < 0.0:
        raise ValueError(f"covariance sequence does not define a nonnegative density: min {fmin:.3e} < 0")
    return SpectralDensity(
        evaluate=evaluate,
        lower_bound=fmin,
        upper_bound=fmax,
        label="fourier_sum",
    )


def _finite_lags(gamma: tuple) -> Callable[[int], tuple]:
    """m -> Gamma(0..m) for lags gamma, zero beyond the given support."""
    return lambda m: (gamma + (0.0,) * m)[: m + 1]


@dataclass(frozen=True)
class CovarianceModel:
    """A named covariance model: the lags m -> Gamma(0..m).

    Every consumer, quadrature and sampler alike, takes the lags from
    covariance(m).  kind marks the two models the sampler draws by an
    exact construction, "independent" and "constant_rho" (rho is the
    constant lag); every other model is "lags".
    """

    label: str
    lags: Callable[[int], Sequence[float]]
    kind: str = "lags"
    rho: float | None = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def independent() -> "CovarianceModel":
        return CovarianceModel("independent", _finite_lags((1.0,)), kind="independent")

    @staticmethod
    def geometric(rho: float) -> "CovarianceModel":
        """Gamma(k) = rho^|k|, the lags of the Poisson kernel density."""
        if not 0.0 < rho < 1.0:
            raise ValueError(f"geometric model needs rho in (0,1), got {rho}")
        return CovarianceModel(f"geometric:{rho:g}", lambda m: tuple(rho**k for k in range(m + 1)))

    @staticmethod
    def raised_cosine() -> "CovarianceModel":
        return CovarianceModel("raised_cosine", _finite_lags((1.0, 0.5)))

    @staticmethod
    def constant(rho: float) -> "CovarianceModel":
        """Gamma(k) = rho for all k != 0: a spectral measure with an atom, no density."""
        if not 0.0 < rho < 1.0:
            raise ValueError(f"constant covariance needs rho in (0,1), got {rho}")
        return CovarianceModel(f"constant:{rho:g}", lambda m: (1.0,) + (rho,) * m,
                               kind="constant_rho", rho=rho)

    @staticmethod
    def from_density(density: SpectralDensity) -> "CovarianceModel":
        """Lags as the Fourier coefficients of density, by covariance_from_density."""
        return CovarianceModel(density.label, lambda m: covariance_from_density(density, m).gamma)

    @staticmethod
    def from_fourier(gamma: Sequence[float]) -> "CovarianceModel":
        """The given lags, zero beyond; their Fourier sum must be a nonnegative density."""
        seq = CovarianceSequence(gamma=tuple(float(g) for g in gamma))
        density_from_covariance(seq)  # raises unless the lags are finite with a nonnegative Fourier sum
        return CovarianceModel("fourier_sum", _finite_lags(seq.gamma))

    @staticmethod
    def parse(text: str) -> "CovarianceModel":
        """Model from its text form, as given to the CLI's --model.

        'independent', 'geometric:RHO', 'raised_cosine', 'constant:RHO' or
        'custom_fourier:G0,G1,...' (covariance lags, G0 = 1).  A missing,
        extra or malformed argument raises ValueError.
        """
        name, colon, arg = text.partition(":")
        if name == "independent" and not colon:
            return CovarianceModel.independent()
        if name == "raised_cosine" and not colon:
            return CovarianceModel.raised_cosine()
        if name == "geometric" and arg:
            return CovarianceModel.geometric(float(arg))
        if name == "constant" and arg:
            return CovarianceModel.constant(float(arg))
        if name == "custom_fourier" and arg:
            return CovarianceModel.from_fourier([float(tok) for tok in arg.split(",")])
        raise ValueError(
            f"model {text!r} is not one of independent, geometric:RHO, raised_cosine, "
            "constant:RHO, custom_fourier:G0,G1,..."
        )

    def covariance(self, m: int) -> CovarianceSequence:
        """Gamma(0..m), exact for every model but from_density."""
        if m < 0:
            raise ValueError(f"need m >= 0, got {m}")
        return CovarianceSequence(gamma=tuple(self.lags(m)))


def cholesky_factor(model: CovarianceModel, size: int) -> np.ndarray:
    """Lower Cholesky factor of Toeplitz(Gamma(0..size-1)) + CHOLESKY_JITTER * I."""
    mat = model.covariance(size - 1).toeplitz_matrix(size)
    return np.linalg.cholesky(mat + CHOLESKY_JITTER * np.eye(size))
