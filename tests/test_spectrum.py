"""Tests for covariance models, their lags, and the lag ring's spectrum."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelcross.spectrum import CovarianceModel, ring_spectrum

from oracles import SpectralDensity, covariance_from_density, positivity_bounds
from oracles import geometric_density, independent_density, raised_cosine_density

TWO_PI = 2.0 * math.pi


def _toeplitz(gamma):
    k = np.arange(len(gamma))
    return gamma[np.abs(k[:, None] - k)]


def _ring_density(gamma, size=16):
    """phi = 2 pi j / size, j = 0..size/2, and the Fourier sum of gamma there."""
    return TWO_PI * np.arange(size // 2 + 1) / size, ring_spectrum(np.array(gamma), size) / TWO_PI


def test_covariance_independent_is_delta():
    gamma = covariance_from_density(independent_density(), 3)
    np.testing.assert_allclose(gamma, [1.0, 0.0, 0.0, 0.0], atol=1e-13)


def test_covariance_raised_cosine_single_mode():
    gamma = covariance_from_density(raised_cosine_density(), 3)
    np.testing.assert_allclose(gamma, [1.0, 0.5, 0.0, 0.0], atol=1e-13)


def test_covariance_poisson_kernel_geometric():
    # Poisson kernel with rho=0.5 has lags rho^k exactly.
    gamma = covariance_from_density(geometric_density(0.5), 3)
    np.testing.assert_allclose(gamma, [1.0, 0.5, 0.25, 0.125], rtol=1e-12)


def test_covariance_rejects_unnormalized_density():
    f = SpectralDensity(evaluate=lambda phi: np.full_like(phi, 1.0))
    with pytest.raises(ValueError):
        covariance_from_density(f, 2)


def test_covariance_beyond_grid_limit_names_lag_and_limit():
    with pytest.raises(ValueError, match=r"m = 262144 .* max_points = 1048576"):
        covariance_from_density(geometric_density(0.5), 262144)


def test_density_from_covariance_roundtrips_delta():
    _, f = _ring_density([1.0])
    np.testing.assert_allclose(f, 1.0 / TWO_PI)


def test_density_from_covariance_single_mode():
    phi, f = _ring_density([1.0, 0.5])
    np.testing.assert_allclose(f, (1.0 + np.cos(phi)) / TWO_PI, atol=1e-15)


def test_density_from_truncated_geometric_matches_kernel():
    phi, f = _ring_density([0.5**k for k in range(41)], size=128)
    np.testing.assert_allclose(f, geometric_density(0.5).evaluate(phi), atol=1e-10)


def test_density_from_covariance_rejects_nonpositive():
    # 1 + 2*0.6*cos(phi) dips below zero near phi = pi.
    with pytest.raises(ValueError, match=r"nonnegative density: min -3\.183e-02 < 0$"):
        CovarianceModel.from_fourier((1.0, 0.6))


@pytest.mark.parametrize("lags, named", [
    ((1.0, math.nan), "Gamma(1) = nan"),
    ((1.0, 0.2, math.inf, -math.inf), "Gamma(2) = inf, Gamma(3) = -inf"),
])
def test_density_from_covariance_rejects_nonfinite_lags(lags, named):
    # NaN compares False with 0, so the positivity check alone lets it through
    with pytest.raises(ValueError, match=re.escape(f"must be finite, got {named}") + "$"):
        CovarianceModel.from_fourier(lags)


def test_positivity_bounds_flat():
    lo, hi = positivity_bounds(independent_density())
    np.testing.assert_allclose([lo, hi], [1.0 / (2 * math.pi)] * 2, rtol=1e-12)


def test_positivity_bounds_poisson_kernel():
    lo, hi = positivity_bounds(geometric_density(0.5))
    np.testing.assert_allclose(lo, 1.0 / (6.0 * math.pi), rtol=1e-6)
    np.testing.assert_allclose(hi, 3.0 / (2.0 * math.pi), rtol=1e-6)


def test_positivity_bounds_rejects_raised_cosine():
    with pytest.raises(ValueError):
        positivity_bounds(raised_cosine_density())


def test_covariance_sequence_requires_unit_variance():
    for lags in ((0.5, 0.1), (math.nan,), ()):
        with pytest.raises(ValueError, match="Gamma\\(0\\) must be exactly 1"):
            CovarianceModel.from_fourier(lags)


def test_model_constant_covariance_is_flat():
    gamma = CovarianceModel.constant(0.5).covariance(4)
    np.testing.assert_allclose(gamma, [1.0, 0.5, 0.5, 0.5, 0.5])
    with pytest.raises(ValueError, match="need m >= 0, got -1"):
        CovarianceModel.constant(0.5).covariance(-1)


def test_model_lags_have_closed_forms():
    cases = [("independent", (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)),
             ("raised_cosine", (1.0, 0.5, 0.0, 0.0, 0.0, 0.0)),
             ("constant:0.5", (1.0, 0.5, 0.5, 0.5, 0.5, 0.5))]
    for text, lags in cases:
        model = CovarianceModel.parse(text)
        assert tuple(model.covariance(5)) == lags
        assert tuple(model.covariance(0)) == (1.0,)


def test_custom_fourier_lags_are_bit_exact():
    lags = [1.0, 0.1 + 0.2, -1.0 / 7.0, 1e-17, 2.0**-40]
    model = CovarianceModel.from_fourier(lags)
    assert tuple(model.covariance(7)) == tuple(lags) + (0.0,) * 3
    assert tuple(model.covariance(2)) == tuple(lags[:3])
    text = "custom_fourier:" + ",".join(repr(g) for g in lags)
    assert tuple(CovarianceModel.parse(text).covariance(4)) == tuple(lags)


@pytest.mark.parametrize("rho", [0.1, 0.3, 0.5, 0.9, 0.99])
def test_geometric_lags_are_powers_of_rho(rho):
    assert tuple(CovarianceModel.geometric(rho).covariance(2000)) == tuple(rho**k for k in range(2001))


@pytest.mark.parametrize("rho", [0.3, 0.5, 0.9, 0.99])
def test_geometric_lags_are_powers_of_rho_past_underflow(rho):
    # the lags stop computing powers at the first rho**k == 0.0; every
    # later power must be exactly 0.0 as well
    m = 2**21
    got = CovarianceModel.geometric(rho).covariance(m)
    want = np.array([rho**k for k in range(m + 1)])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_model_from_fourier_and_labels():
    model = CovarianceModel.from_fourier([1.0, 0.25])
    assert "fourier" in model.label
    assert CovarianceModel.geometric(0.5).label == "geometric:0.5"
    assert CovarianceModel.independent().label == "independent"


def test_model_parse_roundtrip():
    model = CovarianceModel.parse("geometric:0.25")
    np.testing.assert_allclose(model.covariance(2), [1.0, 0.25, 0.0625], rtol=1e-12)
    assert model.label == "geometric:0.25"
    fourier = CovarianceModel.parse("custom_fourier:1,0.25")
    np.testing.assert_allclose(fourier.covariance(2), [1.0, 0.25, 0.0], atol=1e-12)
    for text in ("independent", "raised_cosine", "constant:0.5"):
        assert CovarianceModel.parse(text).label == text
    for bad in ("nope", "geometric", "geometric:", "geometric:abc", "constant", "independent:3",
                "custom_fourier", "custom_fourier:0.5,0.1"):
        with pytest.raises(ValueError):
            CovarianceModel.parse(bad)


def test_geometric_rho_range():
    with pytest.raises(ValueError):
        CovarianceModel.geometric(1.0)
    with pytest.raises(ValueError):
        CovarianceModel.geometric(-0.2)
    for rho in (1.0, 0.0):
        with pytest.raises(ValueError, match="constant covariance needs rho in"):
            CovarianceModel.constant(rho)


def test_sample_covariance_matrix_positive_definite():
    cov = _toeplitz(CovarianceModel.geometric(0.9).covariance(19))
    w = np.linalg.eigvalsh(cov)
    assert w.min() > 0


@given(st.floats(min_value=0.01, max_value=0.95), st.integers(min_value=1, max_value=12))
@settings(max_examples=25, deadline=None)
def test_poisson_kernel_lags_are_geometric(rho, m):
    gamma = covariance_from_density(geometric_density(rho), m)
    np.testing.assert_allclose(gamma, rho ** np.arange(m + 1), rtol=1e-9, atol=1e-11)

