"""Tests for spectral densities, covariance sequences, and models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelcross.spectrum import (
    CovarianceModel,
    CovarianceSequence,
    SpectralDensity,
    cholesky_factor,
    covariance_from_density,
    density_from_covariance,
    geometric_density,
    independent_density,
    positivity_bounds,
    raised_cosine_density,
    sample_covariance_matrix,
)


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


def test_model_constant_has_no_density():
    model = CovarianceModel.constant(0.5)
    assert not model.has_density
    with pytest.raises(ValueError):
        model.require_density()


def test_model_from_fourier_and_labels():
    model = CovarianceModel.from_fourier([1.0, 0.25])
    assert model.has_density
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
    cov = sample_covariance_matrix(CovarianceModel.geometric(0.9), 20)
    w = np.linalg.eigvalsh(cov)
    assert w.min() > 0


def test_cholesky_factor_reconstructs():
    model = CovarianceModel.geometric(0.5)
    L = cholesky_factor(model, 8)
    np.testing.assert_allclose(L @ L.T, sample_covariance_matrix(model, 8), atol=1e-10)


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
