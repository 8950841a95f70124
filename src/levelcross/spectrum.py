"""Covariance structure of the stationary coefficient sequence.

A stationary standard-normal sequence X_0, X_1, ... is given by its
covariance lags Gamma(k) = E[X_0 X_k] (Gamma(0) = 1).  A CovarianceModel
is a label plus the exact lags: covariance(m) returns Gamma(0..m) as a
float array, and quadrature and the sampler both read them there.  Lags
given from outside (custom_fourier) must have a nonnegative Fourier sum

    f(phi) = (1/2pi) sum_k Gamma(|k|) exp(-i k phi),

the spectral density they are the Fourier coefficients of.  ring_spectrum
checks that on an even ring of lags by one real FFT, and the sampler's
circulant embedding doubles its ring until the same check passes.  The constant model's spectral
measure has an atom, so it has no density, but it has lags.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi
SPECTRUM_TOL = 1e-9  # ring eigenvalues down to -SPECTRUM_TOL are rounding of a zero
MIN_RING = 4096  # from_fourier checks the Fourier sum at no fewer phi in [-pi, pi)

__all__ = ["CovarianceModel", "ring_spectrum"]


def ring_spectrum(gamma: np.ndarray, size: int) -> np.ndarray:
    """Eigenvalues 2 pi f(2 pi j / size), j = 0..size/2, of the lag ring.

    The ring of even length size is Gamma(0..size/2), Gamma(size/2 - 1..1),
    zero past the given lags; its circulant has these eigenvalues, each
    but the two ends twice.  Raises ValueError if one is below
    -SPECTRUM_TOL: then the ring is not a covariance.
    """
    half = np.zeros(size // 2 + 1)
    half[: len(gamma)] = gamma
    lam = np.fft.rfft(np.concatenate([half, half[-2:0:-1]])).real
    if lam.min() < -SPECTRUM_TOL:
        raise ValueError("covariance sequence does not define a nonnegative density: "
                         f"min {lam.min() / TWO_PI:.3e} < 0")
    return lam


def _finite_lags(gamma: tuple) -> Callable[[int], tuple]:
    """m -> Gamma(0..m) for lags gamma, zero beyond the given support."""
    return lambda m: (gamma + (0.0,) * m)[: m + 1]


@dataclass(frozen=True)
class CovarianceModel:
    """A named covariance model: the lags m -> Gamma(0..m).

    Every consumer, quadrature and sampler alike, takes the lags from
    covariance(m), the constant model's rho too.  kind marks the two models
    the sampler draws by an exact construction, "independent" and
    "constant_rho"; every other model is "lags".
    """

    label: str
    lags: Callable[[int], Sequence[float]]
    kind: str = "lags"

    # -- constructors -------------------------------------------------

    @staticmethod
    def independent() -> "CovarianceModel":
        return CovarianceModel("independent", _finite_lags((1.0,)), kind="independent")

    @staticmethod
    def geometric(rho: float) -> "CovarianceModel":
        """Gamma(k) = rho^|k|, the lags of the Poisson kernel density."""
        if not 0.0 < rho < 1.0:
            raise ValueError(f"geometric model needs rho in (0,1), got {rho}")

        def lags(m: int) -> np.ndarray:
            # rho**k underflows to exactly 0.0 and stays there, so the powers
            # stop at the first zero and zeros pad the rest
            powers = list(itertools.takewhile(bool, (rho**k for k in range(m + 1))))
            out = np.zeros(m + 1)
            out[: len(powers)] = powers
            return out

        return CovarianceModel(f"geometric:{rho:g}", lags)

    @staticmethod
    def raised_cosine() -> "CovarianceModel":
        return CovarianceModel("raised_cosine", _finite_lags((1.0, 0.5)))

    @staticmethod
    def constant(rho: float) -> "CovarianceModel":
        """Gamma(k) = rho for all k != 0: a spectral measure with an atom, no density."""
        if not 0.0 < rho < 1.0:
            raise ValueError(f"constant covariance needs rho in (0,1), got {rho}")
        return CovarianceModel(f"constant:{rho:g}", lambda m: (1.0,) + (rho,) * m,
                               kind="constant_rho")

    @staticmethod
    def from_fourier(gamma: Sequence[float]) -> "CovarianceModel":
        """The given lags, zero beyond.

        They must be finite, with Gamma(0) = 1, and their Fourier sum must
        be nonnegative at the phi of a power-of-two ring of at least
        MIN_RING and twice as many points as lags.
        """
        g = tuple(float(x) for x in gamma)
        if not g or g[0] != 1.0:
            raise ValueError(f"Gamma(0) must be exactly 1, got {g[0] if g else None!r}")
        bad = [k for k, x in enumerate(g) if not math.isfinite(x)]
        if bad:
            named = ", ".join(f"Gamma({k}) = {g[k]}" for k in bad)
            raise ValueError(f"covariance lags must be finite, got {named}")
        size = max(MIN_RING, 1 << (2 * len(g) - 1).bit_length())
        ring_spectrum(np.array(g), size)  # raises unless the Fourier sum is nonnegative
        return CovarianceModel("fourier_sum", _finite_lags(g))

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

    def covariance(self, m: int) -> np.ndarray:
        """Gamma(0..m) as a float array."""
        if m < 0:
            raise ValueError(f"need m >= 0, got {m}")
        return np.array(self.lags(m), dtype=float)

