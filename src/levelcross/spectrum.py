"""Covariance structure of the stationary coefficient sequence.

A stationary standard-normal sequence X_0, X_1, ... is described either by
its covariance sequence Gamma(k) = E[X_0 X_k] (Gamma(0) = 1) or by a
spectral density f on [-pi, pi] whose Fourier coefficients are the
covariances:

    Gamma(k) = integral_{-pi}^{pi} exp(-i k phi) f(phi) dphi.

This module holds the density/covariance types, converts between the two
representations, and provides the built-in model families (independent,
geometric a.k.a. Poisson kernel, raised cosine, constant covariance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import cholesky, toeplitz

TWO_PI = 2.0 * math.pi

__all__ = [
    "SpectralDensity",
    "CovarianceSequence",
    "CovarianceModel",
    "independent_density",
    "geometric_density",
    "raised_cosine_density",
    "covariance_from_density",
    "density_from_covariance",
    "positivity_bounds",
]


@dataclass(frozen=True)
class SpectralDensity:
    """Evaluable spectral density on [-pi, pi].

    evaluate must accept numpy arrays.  smoothness is a declared class
    ("C0" or "C1"), not inferred.  lower_bound/upper_bound are bounds on
    the density values over [-pi, pi]; lower_bound may be 0 for densities
    that touch zero (such densities are rejected wherever strict
    positivity is required).
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    smoothness: str = "C0"
    lower_bound: float = 0.0
    upper_bound: float = math.inf
    label: str = "custom"

    def __post_init__(self):
        if self.smoothness not in ("C0", "C1"):
            raise ValueError(f"smoothness must be 'C0' or 'C1', got {self.smoothness!r}")


def independent_density() -> SpectralDensity:
    """Flat density 1/(2*pi): independent coefficients, Gamma = (1, 0, 0, ...)."""
    c = 1.0 / TWO_PI
    return SpectralDensity(
        evaluate=lambda phi: np.full_like(np.asarray(phi, dtype=float), c),
        smoothness="C1",
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
        smoothness="C1",
        lower_bound=(1.0 - rho) / (1.0 + rho) / TWO_PI,
        upper_bound=(1.0 + rho) / (1.0 - rho) / TWO_PI,
        label=f"geometric:{rho:g}",
    )


def raised_cosine_density() -> SpectralDensity:
    """Density (1+cos(phi))/(2*pi): Gamma = (1, 1/2, 0, 0, ...).

    Touches zero at phi = +-pi, so it is not strictly positive; it is kept
    as a boundary-case family and rejected by positivity_bounds.
    """

    def evaluate(phi):
        return (1.0 + np.cos(np.asarray(phi, dtype=float))) / TWO_PI

    return SpectralDensity(
        evaluate=evaluate,
        smoothness="C1",
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
        return toeplitz(self.as_array(size - 1))


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
    not strictly positive on the check grid.
    """
    g = np.asarray(gamma.gamma, dtype=float)
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
        smoothness="C1",
        lower_bound=fmin,
        upper_bound=fmax,
        label="fourier_sum",
    )


def positivity_bounds(f: SpectralDensity, grid: int = 1025) -> tuple[float, float]:
    """(min, max) of the density over a uniform grid on [-pi, pi].

    The grid includes the endpoints and (for odd grid) phi = 0.  Raises
    if the minimum is not strictly positive.
    """
    if grid < 64:
        raise ValueError(f"grid must be at least 64 points, got {grid}")
    phi = np.linspace(-math.pi, math.pi, grid)
    vals = np.asarray(f.evaluate(phi), dtype=float)
    lo, hi = float(vals.min()), float(vals.max())
    if lo <= 0.0:
        raise ValueError(f"density not strictly positive: min over grid is {lo:.3e}")
    return lo, hi


@dataclass(frozen=True)
class CovarianceModel:
    """One of: a spectral-density model, constant covariance, or independent.

    The constant-covariance model (Gamma(k) = rho for all k != 0) has a
    spectral measure with an atom and admits no density; operations that
    need a density reject it.
    """

    kind: str  # "independent" | "density" | "constant_rho"
    density: SpectralDensity | None = None
    rho: float | None = None

    def __post_init__(self):
        if self.kind not in ("independent", "density", "constant_rho"):
            raise ValueError(f"unknown covariance model kind {self.kind!r}")
        if self.kind == "density" and self.density is None:
            raise ValueError("density model requires a SpectralDensity")
        if self.kind == "constant_rho" and not (self.rho is not None and 0.0 < self.rho < 1.0):
            raise ValueError(f"constant covariance needs rho in (0,1), got {self.rho}")

    # -- constructors -------------------------------------------------

    @staticmethod
    def independent() -> "CovarianceModel":
        return CovarianceModel(kind="independent", density=independent_density())

    @staticmethod
    def geometric(rho: float) -> "CovarianceModel":
        return CovarianceModel(kind="density", density=geometric_density(rho))

    @staticmethod
    def raised_cosine() -> "CovarianceModel":
        return CovarianceModel(kind="density", density=raised_cosine_density())

    @staticmethod
    def constant(rho: float) -> "CovarianceModel":
        return CovarianceModel(kind="constant_rho", rho=rho)

    @staticmethod
    def from_density(density: SpectralDensity) -> "CovarianceModel":
        return CovarianceModel(kind="density", density=density)

    @staticmethod
    def from_fourier(gamma: Sequence[float]) -> "CovarianceModel":
        seq = CovarianceSequence(gamma=tuple(float(g) for g in gamma))
        return CovarianceModel(kind="density", density=density_from_covariance(seq))

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

    # -- accessors ----------------------------------------------------

    @property
    def has_density(self) -> bool:
        return self.kind in ("independent", "density")

    def require_density(self) -> SpectralDensity:
        if not self.has_density:
            raise ValueError(
                "constant-covariance model has no spectral density "
                "(spectral measure has an atom); use the Monte Carlo path"
            )
        return self.density

    @property
    def label(self) -> str:
        if self.kind == "independent":
            return "independent"
        if self.kind == "constant_rho":
            return f"constant:{self.rho:g}"
        return self.density.label

    def covariance(self, m: int) -> CovarianceSequence:
        """Gamma(0..m); exact closed forms where known, quadrature otherwise."""
        if self.kind == "independent":
            return CovarianceSequence(gamma=(1.0,) + (0.0,) * m)
        if self.kind == "constant_rho":
            return CovarianceSequence(gamma=(1.0,) + (self.rho,) * m)
        return covariance_from_density(self.density, m)


def sample_covariance_matrix(model: CovarianceModel, size: int, jitter: float = 0.0) -> np.ndarray:
    """Dense Toeplitz covariance of (X_0, ..., X_{size-1}) under the model."""
    mat = model.covariance(size - 1).toeplitz_matrix(size)
    if jitter:
        mat = mat + jitter * np.eye(size)
    return mat


def cholesky_factor(model: CovarianceModel, size: int, jitter: float = 1e-12) -> np.ndarray:
    """Lower Cholesky factor of the Toeplitz covariance, with diagonal jitter."""
    return cholesky(sample_covariance_matrix(model, size, jitter=jitter), lower=True)
