"""Tests for spectral densities, covariance sequences, and models."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelcross.spectrum import (
    CovarianceModel,
    CovarianceSequence,
    SpectralDensity,
    CHOLESKY_JITTER,
    cholesky_factor,
    covariance_from_density,
    density_from_covariance,
    geometric_density,
    independent_density,
    raised_cosine_density,
)

from oracles import positivity_bounds


def test_covariance_independent_is_delta():
    gamma = covariance_from_density(independent_density(), 3)
    np.testing.assert_allclose(gamma.as_array(3), [1.0, 0.0, 0.0, 0.0], atol=1e-13)


def test_covariance_raised_cosine_single_mode():
    gamma = covariance_from_density(raised_cosine_density(), 3)
    np.testing.assert_allclose(gamma.as_array(3), [1.0, 0.5, 0.0, 0.0], atol=1e-13)


def test_covariance_poisson_kernel_geometric():
    # Poisson kernel with rho=0.5 has lags rho^k exactly.
    gamma = covariance_from_density(geometric_density(0.5), 3)
    np.testing.assert_allclose(gamma.as_array(3), [1.0, 0.5, 0.25, 0.125], rtol=1e-12)


def test_covariance_rejects_unnormalized_density():
    f = SpectralDensity(evaluate=lambda phi: np.full_like(phi, 1.0), label="flat-2pi")
    with pytest.raises(ValueError):
        covariance_from_density(f, 2)


def test_covariance_beyond_grid_limit_names_lag_and_limit():
    model = CovarianceModel.from_density(geometric_density(0.5))
    with pytest.raises(ValueError, match=r"m = 262144 .* max_points = 1048576"):
        model.covariance(262144)


def test_density_from_covariance_roundtrips_delta():
    f = density_from_covariance(CovarianceSequence((1.0,)))
    phi = np.linspace(-math.pi, math.pi, 7)
    np.testing.assert_allclose(f.evaluate(phi), 1.0 / (2.0 * math.pi))


def test_density_from_covariance_single_mode():
    f = density_from_covariance(CovarianceSequence((1.0, 0.5)))
    phi = np.array([0.0, math.pi / 2, math.pi / 3])
    np.testing.assert_allclose(f.evaluate(phi), (1.0 + np.cos(phi)) / (2.0 * math.pi))


def test_density_from_truncated_geometric_matches_kernel():
    gamma = CovarianceSequence(tuple(0.5**k for k in range(41)))
    f = density_from_covariance(gamma)
    kernel = geometric_density(0.5)
    phi = np.array([0.0, math.pi / 2, math.pi])
    np.testing.assert_allclose(f.evaluate(phi), kernel.evaluate(phi), atol=1e-10)


def test_density_from_covariance_rejects_nonpositive():
    # 1 + 2*0.6*cos(phi) dips below zero near phi = pi.
    with pytest.raises(ValueError):
        density_from_covariance(CovarianceSequence((1.0, 0.6)))


@pytest.mark.parametrize("lags, named", [
    ((1.0, math.nan), "Gamma(1) = nan"),
    ((1.0, 0.2, math.inf, -math.inf), "Gamma(2) = inf, Gamma(3) = -inf"),
])
def test_density_from_covariance_rejects_nonfinite_lags(lags, named):
    # NaN compares False with 0, so the positivity check alone lets it through
    with pytest.raises(ValueError, match=re.escape(f"must be finite, got {named}") + "$"):
        density_from_covariance(CovarianceSequence(lags))


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
    with pytest.raises(ValueError):
        CovarianceSequence((0.5, 0.1))


def test_toeplitz_matrix_shape_and_symmetry():
    T = CovarianceSequence((1.0, 0.5, 0.25)).toeplitz_matrix(5)
    assert T.shape == (5, 5)
    np.testing.assert_allclose(T, T.T)
    np.testing.assert_allclose(np.diag(T), 1.0)
    assert T[0, 4] == 0.0  # lags beyond the sequence are zero


def test_model_constant_covariance_is_flat():
    gamma = CovarianceModel.constant(0.5).covariance(4).as_array(4)
    np.testing.assert_allclose(gamma, [1.0, 0.5, 0.5, 0.5, 0.5])


def test_model_lags_have_closed_forms():
    cases = [("independent", (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)),
             ("raised_cosine", (1.0, 0.5, 0.0, 0.0, 0.0, 0.0)),
             ("constant:0.5", (1.0, 0.5, 0.5, 0.5, 0.5, 0.5))]
    for text, lags in cases:
        model = CovarianceModel.parse(text)
        assert model.covariance(5).gamma == lags
        assert model.covariance(0).gamma == (1.0,)


def test_custom_fourier_lags_are_bit_exact():
    lags = [1.0, 0.1 + 0.2, -1.0 / 7.0, 1e-17, 2.0**-40]
    model = CovarianceModel.from_fourier(lags)
    assert model.covariance(7).gamma == tuple(lags) + (0.0,) * 3
    assert model.covariance(2).gamma == tuple(lags[:3])
    text = "custom_fourier:" + ",".join(repr(g) for g in lags)
    assert CovarianceModel.parse(text).covariance(4).gamma == tuple(lags)


@pytest.mark.parametrize("rho", [0.1, 0.3, 0.5, 0.9, 0.99])
def test_geometric_lags_are_powers_of_rho(rho):
    assert CovarianceModel.geometric(rho).covariance(2000).gamma == tuple(rho**k for k in range(2001))


def test_model_from_density_takes_fft_lags():
    model = CovarianceModel.from_density(geometric_density(0.5))
    assert model.label == "geometric:0.5"
    np.testing.assert_allclose(model.covariance(3).as_array(), 0.5 ** np.arange(4), atol=1e-14)


def test_model_from_fourier_and_labels():
    model = CovarianceModel.from_fourier([1.0, 0.25])
    assert "fourier" in model.label
    assert CovarianceModel.geometric(0.5).label == "geometric:0.5"
    assert CovarianceModel.independent().label == "independent"


def test_model_parse_roundtrip():
    model = CovarianceModel.parse("geometric:0.25")
    np.testing.assert_allclose(model.covariance(2).as_array(2), [1.0, 0.25, 0.0625], rtol=1e-12)
    assert model.label == "geometric:0.25"
    fourier = CovarianceModel.parse("custom_fourier:1,0.25")
    np.testing.assert_allclose(fourier.covariance(2).as_array(2), [1.0, 0.25, 0.0], atol=1e-12)
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


def test_sample_covariance_matrix_positive_definite():
    cov = CovarianceModel.geometric(0.9).covariance(19).toeplitz_matrix(20)
    w = np.linalg.eigvalsh(cov)
    assert w.min() > 0


def test_cholesky_factor_reconstructs():
    model = CovarianceModel.geometric(0.5)
    L = cholesky_factor(model, 8)
    np.testing.assert_allclose(L @ L.T, model.covariance(7).toeplitz_matrix(8), atol=1e-10)



@pytest.mark.parametrize("size", [1, 8, 64, 200, 513])
def test_dense_factor_matches_scipy(size):
    from scipy import linalg

    model = CovarianceModel.geometric(0.9)
    seq = model.covariance(size - 1)
    np.testing.assert_array_equal(seq.toeplitz_matrix(size), linalg.toeplitz(seq.as_array(size - 1)))
    jittered = seq.toeplitz_matrix(size) + CHOLESKY_JITTER * np.eye(size)
    want = linalg.cholesky(jittered, lower=True)
    assert np.max(np.abs(cholesky_factor(model, size) - want)) <= 1e-13 * np.max(np.abs(want))

@given(st.floats(min_value=0.01, max_value=0.95), st.integers(min_value=1, max_value=12))
@settings(max_examples=25, deadline=None)
def test_poisson_kernel_lags_are_geometric(rho, m):
    gamma = covariance_from_density(geometric_density(rho), m).as_array(m)
    np.testing.assert_allclose(gamma, rho ** np.arange(m + 1), rtol=1e-9, atol=1e-11)


@given(st.integers(min_value=0, max_value=20))
@settings(max_examples=20, deadline=None)
def test_as_array_pads_with_zeros(m):
    gamma = CovarianceSequence((1.0, 0.5)).as_array(m)
    assert gamma.shape == (m + 1,)
    assert gamma[0] == 1.0
    if m >= 2:
        assert np.all(gamma[2:] == 0.0)
