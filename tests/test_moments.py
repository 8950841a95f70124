"""Tests for the moment functions A, B, C and the scalar crossing-intensity oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelcross.moments import (
    MomentWorkspace,
    PolynomialEnsemble,
    erf_integral,
    intensity,
    _smooth_length,
    moment_arrays,
    scaled_outer_from_inner,
)
from levelcross.spectrum import CovarianceModel

from oracles import MomentTriple, integrand, spectral_moments, toeplitz_moments
from oracles import geometric_density, independent_density


def _ens(n, model=None, level=0.0):
    return PolynomialEnsemble(n=n, model=model or CovarianceModel.independent(), level=level)


# -- direct (Toeplitz) path ------------------------------------------------


def test_direct_linear_independent():
    xs = np.array([0.0, 0.5, -0.7, 2.0])
    A, B, C = moment_arrays(np.array([1.0, 0.0]), 1, xs)
    assert A == pytest.approx(1.0 + xs * xs)
    assert B == pytest.approx(xs)
    assert C == pytest.approx(np.ones(4))


def test_direct_linear_correlated():
    rho = 0.3
    xs = np.array([0.0, 0.5, -1.5])
    A, B, C = moment_arrays(np.array([1.0, rho]), 1, xs)
    assert A == pytest.approx(1.0 + 2 * rho * xs + xs * xs)
    assert B == pytest.approx(rho + xs)
    assert C == pytest.approx(np.ones(3))


def test_direct_quadratic_independent():
    A, B, C = moment_arrays(np.array([1.0, 0.0, 0.0]), 2, np.array([0.5]))
    assert A[0] == pytest.approx(1.3125)  # 1 + x^2 + x^4
    assert B[0] == pytest.approx(0.75)  # x + 2x^3
    assert C[0] == pytest.approx(2.0)  # 1 + 4x^2


def test_moment_arrays_matches_direct():
    # A batch gives each point the moments it gets on its own.
    gamma = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
    xs = np.array([-0.9, -0.3, 0.0, 0.4, 0.8])
    A, B, C = moment_arrays(gamma, 4, xs)
    for i, x in enumerate(xs):
        a, b, c = moment_arrays(gamma, 4, np.array([x]))
        assert A[i] == pytest.approx(a[0], rel=1e-12)
        assert B[i] == pytest.approx(b[0], rel=1e-12)
        assert C[i] == pytest.approx(c[0], rel=1e-12)


def test_smooth_length_is_least_5_smooth_at_or_above():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    for m in range(1, 3000):
        assert _smooth_length(m) == next(k for k in range(m, 2 * m + 1) if smooth(k))


ORACLE_XS = np.array([0.0, 1e-3, -1e-3, 0.5, -0.5, 1.0 - 1e-12, -(1.0 - 1e-12)])


@pytest.mark.parametrize(
    "model", ["independent", "geometric:0.5", "raised_cosine", "constant:0.5", "custom_fourier:1,0.3,0.1"]
)
@pytest.mark.parametrize("n", [1, 2, 3, 7, 13, 15, 16, 255, 1024, 2048])
def test_moment_arrays_matches_dense_toeplitz_oracle(model, n):
    # The transform lengths are odd (15, 27 at n = 7, 13) and even, padded
    # (2n = 510 -> 512) and not; at x = +-1e-3 the powers underflow.
    gamma = CovarianceModel.parse(model).covariance(n)
    A, B, C = moment_arrays(gamma, n, ORACLE_XS)
    Ao, Bo, Co = toeplitz_moments(gamma, n, ORACLE_XS)
    assert np.all(np.abs(A - Ao) <= 1e-12 * Ao)
    assert np.all(np.abs(B - Bo) <= 1e-12 * np.sqrt(Ao * Co))
    assert np.all(np.abs(C - Co) <= 1e-12 * Co)


@pytest.mark.parametrize("n", [1, 20, 64, 2048])
def test_workspace_reuse_is_bit_identical_to_fresh_calls(n):
    # Below n = 32 the 64-wide power block is wider than the FFT length, so
    # the rows buffer is wider than L.  Each batch must clear the powers past
    # column n that the block writes, and return arrays of its own.
    gamma = CovarianceModel.geometric(0.5).covariance(n)
    rng = np.random.default_rng(n)
    edge = 1.0 - 10.0 ** -rng.uniform(1, 14, 15)
    batches = [
        np.linspace(-0.9, 0.9, 15),
        np.where(np.arange(15) % 2 == 0, edge, -edge),  # nodes near +-1
        rng.uniform(-1, 1, 15) * 10.0 ** -rng.uniform(0, 12, 15),  # z nodes near 0
        -np.linspace(-0.9, 0.9, 15) ** 3,
    ]
    with pytest.raises(ValueError, match=f"covers lags 0..{n - 1}, need 0..{n}"):
        MomentWorkspace(gamma[:-1], n, 15)
    ws = MomentWorkspace(gamma, n, 15)
    kept = []
    for xs in batches:
        got = moment_arrays(gamma, n, xs, ws)
        for reused, fresh in zip(got, moment_arrays(gamma, n, xs)):
            assert np.all(reused == fresh)
        kept.append((got, [a.copy() for a in got]))
    for got, snapshot in kept:  # no result is a view into the buffers
        for a, b in zip(got, snapshot):
            assert np.all(a == b)
    # Every fifth point against the dense oracle: a padding left unzeroed
    # spoils fresh and reused results alike.
    A, B, C = (np.concatenate([got[i] for got, _ in kept])[::5] for i in range(3))
    Ao, Bo, Co = toeplitz_moments(gamma, n, np.concatenate(batches)[::5])
    assert np.all(np.abs(A - Ao) <= 1e-12 * Ao)
    assert np.all(np.abs(B - Bo) <= 1e-12 * np.sqrt(Ao * Co))
    assert np.all(np.abs(C - Co) <= 1e-12 * Co)


# -- spectral oracle ----------------------------------------------------------


def test_spectral_linear_matches_hand_expansion():
    A, _, _ = spectral_moments(1, geometric_density(0.5), 0.25)
    assert A == pytest.approx(1.0 + 2 * 0.5 * 0.25 + 0.0625, rel=1e-10)


def test_spectral_matches_direct_n50():
    f = geometric_density(0.5)
    gamma = CovarianceModel.geometric(0.5).covariance(50)
    As, Bs, Cs = spectral_moments(50, f, 0.9)
    A, B, C = moment_arrays(gamma, 50, np.array([0.9]))
    assert As == pytest.approx(A[0], rel=1e-8)
    assert Bs == pytest.approx(B[0], rel=1e-8)
    assert Cs == pytest.approx(C[0], rel=1e-8)


# -- scaled outer moments ----------------------------------------------------


def _outer_scaled(n, f, z):
    """The scaled triple at x = 1/z from the spectral oracle's moments at z."""
    At, Bt, Ct = scaled_outer_from_inner(n, z, *spectral_moments(n, f, z))
    return MomentTriple(A=At, B=Bt, C=Ct, scale_exponent=2 * n)


def test_scaled_outer_geometric_sum_oracle():
    # Independent coefficients: A(2) = sum 4^k = (4^11 - 1)/3 for n = 10.
    m = _outer_scaled(10, independent_density(), 0.5)
    assert m.A == pytest.approx(0.5**20 * (4**11 - 1) / 3, rel=1e-12)


def test_scaled_outer_near_edge_is_finite_and_psd():
    m = _outer_scaled(200, geometric_density(0.5), 0.99)
    assert math.isfinite(m.A) and m.A > 0
    assert math.isfinite(m.C) and m.C > 0
    assert m.gram >= 0.0


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
    gamma = model.covariance(50)
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
    mt = _outer_scaled(12, geometric_density(0.5), z)
    vt = integrand(e, mt, at_reciprocal=True, z=z)
    A, B, C = (float(v[0]) for v in moment_arrays(gamma, 12, np.array([1.0 / z])))
    vp = integrand(e, MomentTriple(A=A, B=B, C=C))
    assert vt.F1 == pytest.approx(vp.F1 / z**2, rel=1e-9)
    assert vt.F2 == pytest.approx(vp.F2 / z**2, rel=1e-9)


def test_integrand_degenerate_gram_is_removable():
    # A perfectly correlated triple (AC = B^2) at K > 0 contributes no F1 mass.
    v = integrand(_ens(3, level=1.0), MomentTriple(A=1.0, B=1.0, C=1.0))
    assert v.F1 == 0.0
    assert math.isfinite(v.F2)
    # past the tolerance, AC < B^2 is no covariance: A = C = 1, B = 2
    with pytest.raises(ValueError, match="AC - B\\^2 < 0"):
        intensity(np.array([1.0]), np.array([2.0]), np.array([1.0]), 1.0, np.array([2.0]), np.array([1.0]))


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



def test_erf_integral_matches_mpmath():
    import mpmath

    with mpmath.workdps(50):
        half_sqrt_pi = mpmath.sqrt(mpmath.pi) / 2
        for v in (1e-300, 1e-8, 0.1, 0.5, 1.0, 2.0, 4.0, 6.0, 27.0, 1e300):
            for x in (v, -v):
                want = float(mpmath.erf(mpmath.mpf(x)) * half_sqrt_pi)
                got = erf_integral(x)
                assert abs(got - want) <= 2 * np.spacing(abs(want)), x
                assert erf_integral(-x) == -got
    assert erf_integral(math.inf) == 0.5 * math.sqrt(math.pi)
    assert erf_integral(-math.inf) == -0.5 * math.sqrt(math.pi)
    assert math.isnan(erf_integral(math.nan))


def test_erf_integral_keeps_shape():
    assert np.shape(erf_integral(0.5)) == ()
    assert np.shape(erf_integral(np.asarray(0.5))) == ()
    x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    got = erf_integral(x)
    assert got.shape == (3, 4) and got.dtype == np.float64
    np.testing.assert_array_equal(got.ravel(), [erf_integral(v) for v in x.ravel()])

def test_ensemble_validation():
    with pytest.raises(ValueError):
        PolynomialEnsemble(n=0, model=CovarianceModel.independent())
    with pytest.raises(ValueError):
        PolynomialEnsemble(n=3, model=CovarianceModel.independent(), level=math.nan)


def test_gram_property():
    m = MomentTriple(A=2.0, B=1.0, C=3.0)
    assert m.gram == pytest.approx(5.0)
