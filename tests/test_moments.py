"""Tests for the moment functions A, B, C and the scalar crossing-intensity oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelcross.moments import (
    MomentTriple,
    PolynomialEnsemble,
    erf_integral,
    moment_arrays,
    moments_direct,
    moments_outer_scaled,
    moments_spectral,
    scaled_outer_from_inner,
    unscale_moments,
)
from levelcross.spectrum import (
    CovarianceModel,
    CovarianceSequence,
    geometric_density,
    independent_density,
)

from oracles import integrand


def _ens(n, model=None, level=0.0):
    return PolynomialEnsemble(n=n, model=model or CovarianceModel.independent(), level=level)


# -- direct (Toeplitz) path ------------------------------------------------


def test_direct_linear_independent():
    gamma = CovarianceSequence((1.0,))
    for x in (0.0, 0.5, -0.7, 2.0):
        m = moments_direct(_ens(1), gamma, x)
        assert m.A == pytest.approx(1.0 + x * x)
        assert m.B == pytest.approx(x)
        assert m.C == pytest.approx(1.0)


def test_direct_linear_correlated():
    rho = 0.3
    gamma = CovarianceSequence((1.0, rho))
    for x in (0.0, 0.5, -1.5):
        m = moments_direct(_ens(1), gamma, x)
        assert m.A == pytest.approx(1.0 + 2 * rho * x + x * x)
        assert m.B == pytest.approx(rho + x)
        assert m.C == pytest.approx(1.0)


def test_direct_quadratic_independent():
    m = moments_direct(_ens(2), CovarianceSequence((1.0,)), 0.5)
    assert m.A == pytest.approx(1.3125)  # 1 + x^2 + x^4
    assert m.B == pytest.approx(0.75)  # x + 2x^3
    assert m.C == pytest.approx(2.0)  # 1 + 4x^2


def test_moment_arrays_matches_direct():
    gamma = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
    xs = np.array([-0.9, -0.3, 0.0, 0.4, 0.8])
    A, B, C = moment_arrays(gamma, 4, xs)
    seq = CovarianceSequence(tuple(gamma))
    for i, x in enumerate(xs):
        m = moments_direct(_ens(4), seq, float(x))
        assert A[i] == pytest.approx(m.A, rel=1e-12)
        assert B[i] == pytest.approx(m.B, rel=1e-12)
        assert C[i] == pytest.approx(m.C, rel=1e-12)


# -- spectral path ----------------------------------------------------------


def test_spectral_linear_matches_hand_expansion():
    m = moments_spectral(_ens(1), geometric_density(0.5), 0.25)
    assert m.A == pytest.approx(1.0 + 2 * 0.5 * 0.25 + 0.0625, rel=1e-10)


def test_spectral_matches_direct_n50():
    e = _ens(50, CovarianceModel.geometric(0.5))
    f = geometric_density(0.5)
    gamma = CovarianceModel.geometric(0.5).covariance(50)
    ms = moments_spectral(e, f, 0.9)
    md = moments_direct(e, gamma, 0.9)
    assert ms.A == pytest.approx(md.A, rel=1e-8)
    assert ms.B == pytest.approx(md.B, rel=1e-8)
    assert ms.C == pytest.approx(md.C, rel=1e-8)


# -- scaled outer moments ----------------------------------------------------


def test_scaled_outer_small_n_unscales_to_direct():
    e = _ens(1)
    m = moments_outer_scaled(e, independent_density(), 0.5)
    assert m.scale_exponent == 2
    plain = unscale_moments(m, 0.5)
    # x = 1/z = 2: A = 1 + 4 = 5
    assert plain.A == pytest.approx(5.0, rel=1e-10)
    assert m.A == pytest.approx(1.25, rel=1e-10)  # z^2 * A(2)


def test_scaled_outer_geometric_sum_oracle():
    # Independent coefficients: A(2) = sum 4^k = (4^11 - 1)/3 for n = 10.
    e = _ens(10)
    m = moments_outer_scaled(e, independent_density(), 0.5)
    assert m.A == pytest.approx(0.5**20 * (4**11 - 1) / 3, rel=1e-12)


def test_scaled_outer_near_edge_is_finite_and_psd():
    e = _ens(200, CovarianceModel.geometric(0.5))
    m = moments_outer_scaled(e, geometric_density(0.5), 0.99)
    assert math.isfinite(m.A) and m.A > 0
    assert math.isfinite(m.C) and m.C > 0
    assert m.gram >= 0.0


def test_scaled_outer_rejects_zero():
    with pytest.raises(ValueError):
        moments_outer_scaled(_ens(5), independent_density(), 0.0)


@given(
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=-0.95, max_value=0.95).filter(lambda z: abs(z) > 0.05),
)
@settings(max_examples=40, deadline=None)
def test_reversal_identity_property(n, z):
    # The scaled triple must equal z-power-weighted moments at x = 1/z:
    # At = z^{2n} A(1/z), Bt = -z^{2n-1} B(1/z), Ct = z^{2n-2} C(1/z).
    gamma = np.zeros(n + 1)
    gamma[: 3] = [1.0, 0.4, 0.16][: n + 1]
    A, B, C = (float(v[0]) for v in moment_arrays(gamma, n, np.array([z])))
    At, Bt, Ct = scaled_outer_from_inner(n, z, A, B, C)
    x = 1.0 / z
    Ax, Bx, Cx = (float(v[0]) for v in moment_arrays(gamma, n, np.array([x])))
    np.testing.assert_allclose(At, z ** (2 * n) * Ax, rtol=1e-9)
    np.testing.assert_allclose(Bt, -(z ** (2 * n - 1)) * Bx, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(Ct, z ** (2 * n - 2) * Cx, rtol=1e-9)
    # Gram determinant contracts exactly.
    np.testing.assert_allclose(At * Ct - Bt * Bt, z * z * (A * C - B * B), rtol=1e-8, atol=1e-13)


# -- integrand ---------------------------------------------------------------


def test_integrand_center_independent_k0():
    v = integrand(_ens(5, level=0.0), MomentTriple(A=1.0, B=0.0, C=1.0))
    assert v.F1 == pytest.approx(1.0 / math.pi)
    assert v.F2 == 0.0


def test_integrand_center_independent_k2():
    v = integrand(_ens(5, level=2.0), MomentTriple(A=1.0, B=0.0, C=1.0))
    assert v.F1 == pytest.approx(math.exp(-2.0) / math.pi)
    assert v.F2 == 0.0


def test_integrand_center_correlated_k1():
    # A=1, B=1/2, C=1 at x=0 with Gamma(1)=1/2.
    v = integrand(_ens(5, level=1.0), MomentTriple(A=1.0, B=0.5, C=1.0))
    assert v.F1 == pytest.approx(math.sqrt(0.75) / math.pi * math.exp(-1.0 / 1.5))
    expected_f2 = math.sqrt(2.0) / math.pi * 0.5 * math.exp(-0.5) * erf_integral(0.5 / math.sqrt(1.5))
    assert v.F2 == pytest.approx(expected_f2, rel=1e-14)


def test_integrand_matches_conditional_expectation_density():
    # First-principles oracle: density = f_P(K) * E|P'| given P = K.
    from scipy.stats import norm

    model = CovarianceModel.geometric(0.5)
    gamma = model.covariance(50).as_array(50)
    e = _ens(50, model, level=1.0)
    for x in (0.0, 0.3, -0.5, 0.8, -0.9):
        A, B, C = (float(v[0]) for v in moment_arrays(gamma, 50, np.array([x])))
        v = integrand(e, MomentTriple(A=A, B=B, C=C))
        mu = B / A
        s = math.sqrt((A * C - B * B) / A)
        mean_abs = s * math.sqrt(2 / math.pi) * math.exp(-mu * mu / (2 * s * s)) + mu * (
            1 - 2 * norm.cdf(-mu / s)
        )
        dens = math.exp(-1.0 / (2 * A)) / math.sqrt(2 * math.pi * A) * mean_abs
        assert v.F1 + v.F2 == pytest.approx(dens, rel=1e-12)


def test_integrand_transformed_consistent_with_plain():
    # Per-unit-z value must equal the plain integrand at x = 1/z times 1/z^2.
    model = CovarianceModel.geometric(0.5)
    gamma = model.covariance(12)
    e = _ens(12, model, level=1.5)
    z = 0.6
    mt = moments_outer_scaled(e, geometric_density(0.5), z)
    vt = integrand(e, mt, at_reciprocal=True, z=z)
    mp = moments_direct(e, gamma, 1.0 / z)
    vp = integrand(e, mp)
    assert vt.F1 == pytest.approx(vp.F1 / z**2, rel=1e-9)
    assert vt.F2 == pytest.approx(vp.F2 / z**2, rel=1e-9)


def test_integrand_degenerate_gram_is_removable():
    # A perfectly correlated triple (AC = B^2) at K > 0 contributes no F1 mass.
    v = integrand(_ens(3, level=1.0), MomentTriple(A=1.0, B=1.0, C=1.0))
    assert v.F1 == 0.0
    assert math.isfinite(v.F2)


def test_integrand_rejects_mismatched_scaling():
    e = _ens(4, level=1.0)
    with pytest.raises(ValueError):
        integrand(e, MomentTriple(A=1.0, B=0.0, C=1.0, scale_exponent=8))
    with pytest.raises(ValueError):
        integrand(e, MomentTriple(A=1.0, B=0.0, C=1.0, scale_exponent=8), at_reciprocal=True, z=0.0)


def test_erf_integral_limits():
    assert erf_integral(0.0) == 0.0
    assert erf_integral(math.inf) == pytest.approx(math.sqrt(math.pi) / 2)
    assert erf_integral(-1.0) == -erf_integral(1.0)


def test_ensemble_validation():
    with pytest.raises(ValueError):
        PolynomialEnsemble(n=0, model=CovarianceModel.independent())
    with pytest.raises(ValueError):
        PolynomialEnsemble(n=3, model=CovarianceModel.independent(), level=math.nan)


def test_gram_property():
    m = MomentTriple(A=2.0, B=1.0, C=3.0)
    assert m.gram == pytest.approx(5.0)
