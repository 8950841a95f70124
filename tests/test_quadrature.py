"""Tests for interval parsing, breakpoints, and the crossing quadrature."""

import math

import numpy as np
import pytest

from levelcross import quadrature
from levelcross.asymptotics import interval_prediction
from levelcross.cli import main
from levelcross.moments import PolynomialEnsemble
from levelcross.quadrature import (
    FULL_LINE,
    MAX_DEGREE,
    CrossingEstimate,
    IntervalSpec,
    KacRiceEvaluator,
    _symmetric_knots,
    expected_crossings,
)
from levelcross.spectrum import CovarianceModel

from oracles import MomentTriple, constant_covariance_crossings, edelman_kostlan_density, integrand


def _ens(n, model=None, level=0.0):
    return PolynomialEnsemble(n=n, model=model or CovarianceModel.independent(), level=level)


# -- intervals ---------------------------------------------------------------


def test_interval_parse():
    assert IntervalSpec.parse("-1..1") == IntervalSpec(-1.0, 1.0)
    assert IntervalSpec.parse("-inf..inf") == FULL_LINE
    assert IntervalSpec.parse("1..inf") == IntervalSpec(1.0, math.inf)


def test_interval_requires_order():
    with pytest.raises(ValueError):
        IntervalSpec(1.0, 1.0)
    with pytest.raises(ValueError):
        IntervalSpec.parse("2..1")


# -- breakpoints -------------------------------------------------------------


def test_breakpoints_large_n():
    zero, inner, minus_inner, near_edge, minus_near_edge = _symmetric_knots(10**6)
    assert zero == 0.0 and minus_inner == -inner and minus_near_edge == -near_edge
    assert inner == pytest.approx(1.0 - 1.0 / math.log(10**6))
    assert inner == pytest.approx(0.927617, abs=1e-6)
    assert near_edge == pytest.approx(1.0 - 2.6257e-6, abs=1e-9)


def test_breakpoints_n16():
    zero, inner, minus_inner, near_edge, minus_near_edge = _symmetric_knots(16)
    assert zero == 0.0 and minus_inner == -inner and minus_near_edge == -near_edge
    assert inner == pytest.approx(0.63933, abs=1e-5)
    assert near_edge == pytest.approx(1.0 - math.log(math.log(16.0)) / 16.0, rel=1e-12)
    assert inner < near_edge < 1.0


def test_breakpoints_none_below_n16():
    for n in (1, 2, 15):
        assert _symmetric_knots(n) == [0.0]


# -- expected_crossings exact cases -------------------------------------------


def test_linear_full_line_is_one():
    est = expected_crossings(_ens(1), FULL_LINE)
    assert est.value == pytest.approx(1.0, abs=1e-6)


def test_linear_cauchy_root_splits_evenly():
    # The root of X0 + X1 x is Cauchy; half its mass lies in (-1, 1).
    inner = expected_crossings(_ens(1), IntervalSpec(-1.0, 1.0))
    assert inner.value == pytest.approx(0.5, abs=1e-6)
    outer = expected_crossings(_ens(1), IntervalSpec(1.0, math.inf))
    assert outer.value == pytest.approx(0.25, abs=1e-6)


def test_quadratic_full_line_vs_sampling_oracle():
    # Closed-form root count of a random quadratic, 10^6 draws.
    rng = np.random.default_rng(1234)
    a = rng.standard_normal((3, 10**6))
    disc = a[1] ** 2 - 4.0 * a[2] * a[0]
    counts = np.where(disc > 0, 2.0, 0.0)
    mean = counts.mean()
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    est = expected_crossings(_ens(2), FULL_LINE)
    assert abs(est.value - mean) <= 3.0 * se


# -- structural properties -----------------------------------------------------


def test_pieces_sum_to_value():
    est = expected_crossings(_ens(30, CovarianceModel.geometric(0.5), level=1.0), FULL_LINE)
    assert est.f1_part + est.f2_part == pytest.approx(est.value, rel=1e-12)
    assert est.abs_err < 1e-6
    assert not est.flagged


def test_interval_additivity():
    e = _ens(20, level=0.7)
    whole = expected_crossings(e, IntervalSpec(-1.0, 1.0)).value
    left = expected_crossings(e, IntervalSpec(-1.0, 0.0)).value
    right = expected_crossings(e, IntervalSpec(0.0, 1.0)).value
    assert left + right == pytest.approx(whole, abs=1e-9)


def test_nested_intervals_monotone():
    e = _ens(16, CovarianceModel.geometric(0.3), level=0.5)
    v1 = expected_crossings(e, IntervalSpec(-0.5, 0.5)).value
    v2 = expected_crossings(e, IntervalSpec(-1.0, 1.0)).value
    v3 = expected_crossings(e, FULL_LINE).value
    assert v1 <= v2 + 1e-12 <= v3 + 1e-11


def test_level_sign_symmetry():
    a = expected_crossings(_ens(12, level=1.3), FULL_LINE).value
    b = expected_crossings(_ens(12, level=-1.3), FULL_LINE).value
    assert a == pytest.approx(b, rel=1e-12)


def test_reflection_symmetry_independent():
    e = _ens(9, level=0.8)
    left = expected_crossings(e, IntervalSpec(-0.9, -0.2)).value
    right = expected_crossings(e, IntervalSpec(0.2, 0.9)).value
    assert left == pytest.approx(right, rel=1e-9)


def test_k0_has_no_f2():
    est = expected_crossings(_ens(25, CovarianceModel.geometric(0.5), level=0.0), FULL_LINE)
    assert est.f2_part == 0.0


def test_determinism():
    e = _ens(40, CovarianceModel.geometric(0.5), level=1.0)
    a = expected_crossings(e, FULL_LINE)
    b = expected_crossings(e, FULL_LINE)
    assert a.value == b.value and a.abs_err == b.abs_err


@pytest.mark.parametrize("n", [64, 512, 4096])
def test_constant_model_matches_oracle(n):
    # Quadrature needs only the lags, so the constant model (no density) is
    # held to the exact closed-form mean.
    est = expected_crossings(_ens(n, CovarianceModel.constant(0.5)), FULL_LINE, tol=1e-9)
    assert abs(est.value - constant_covariance_crossings(n, 0.5)) <= 1e-12
    assert not est.flagged


@pytest.mark.parametrize("n", [64, 1024, 4096, 16384])
def test_f1_matches_edelman_kostlan(n):
    # K = 0, independent coefficients: F1 is the Edelman-Kostlan density,
    # in x up to 1 - |x| = 1e-14 and, by reversal, in z = 1/x alike.
    gaps = np.array([0.5] + [10.0**-j for j in range(1, 15)])
    xs = np.concatenate([1.0 - gaps, gaps - 1.0])
    ev = KacRiceEvaluator(_ens(n))
    exact = np.array([edelman_kostlan_density(n, x) for x in xs])
    for F1, _ in (ev.inner(xs), ev.transformed(xs)):
        np.testing.assert_allclose(F1, exact, rtol=1e-13, atol=0.0)


WILKINS_CONSTANT = 0.6257358072


@pytest.mark.parametrize("n", [2**10, 2**12, 2**14])
def test_independent_full_line_matches_wilkins(n):
    # Wilkins: E[N_n] = (2/pi) log n + 0.6257358072 + 2/(n pi) + O(n^-2)
    # real roots for independent coefficients (K = 0).
    est = expected_crossings(_ens(n), FULL_LINE)
    wilkins = 2.0 / math.pi * math.log(n) + WILKINS_CONSTANT + 2.0 / (n * math.pi)
    assert not est.flagged
    assert abs(est.value - wilkins) <= est.abs_err + 1.0 / n**2


def test_degree_limit_admits_2_to_18():
    ev = KacRiceEvaluator(_ens(MAX_DEGREE))
    assert MAX_DEGREE == 262144
    assert ev.gamma.shape == (MAX_DEGREE + 1,)
    with pytest.raises(ValueError, match=f"n = {MAX_DEGREE + 1} "):
        KacRiceEvaluator(_ens(MAX_DEGREE + 1))


def test_evaluator_batches_match_scalar_integrand():
    from levelcross.moments import moment_arrays

    model = CovarianceModel.geometric(0.5)
    e = _ens(15, model, level=1.0)
    ev = KacRiceEvaluator(e)
    xs = np.array([-0.8, -0.2, 0.1, 0.6, 0.95])
    F1, F2 = ev.inner(xs)
    gamma = model.covariance(15)
    A, B, C = moment_arrays(gamma, 15, xs)
    for i in range(xs.size):
        v = integrand(e, MomentTriple(A=float(A[i]), B=float(B[i]), C=float(C[i])))
        assert F1[i] == pytest.approx(v.F1, rel=1e-13)
        assert F2[i] == pytest.approx(v.F2, rel=1e-13)


def test_evaluator_transformed_matches_scalar_integrand():
    from levelcross.moments import moment_arrays, scaled_outer_from_inner

    model = CovarianceModel.geometric(0.5)
    e = _ens(15, model, level=1.0)
    zs = np.array([-0.9, -0.4, 0.05, 0.5, 0.8])
    F1, F2 = KacRiceEvaluator(e).transformed(zs)
    gamma = model.covariance(15)
    for i, (A, B, C) in enumerate(zip(*moment_arrays(gamma, 15, zs))):
        At, Bt, Ct = scaled_outer_from_inner(15, float(zs[i]), A, B, C)
        v = integrand(e, MomentTriple(A=At, B=Bt, C=Ct, scale_exponent=30),
                      at_reciprocal=True, z=float(zs[i]))
        assert F1[i] == pytest.approx(v.F1, rel=1e-10)
        assert F2[i] == pytest.approx(v.F2, rel=1e-10)


@pytest.mark.parametrize("model, text, exact", [
    ("independent", "-inf..inf", 1.0),
    ("independent", "-1..1", 0.5),
    ("independent", "1..inf", 0.25),
    ("independent", "-inf..-1", 0.25),
    ("geometric:0.5", "-inf..inf", 1.0),
    ("geometric:0.5", "-1..1", 0.5),
])
def test_linear_exact_up_to_the_edge(model, text, exact):
    # The one root -X0/X1 is real; for exchangeable (X0, X1) it lies in
    # (-1, 1) with probability 1/2, and for independent ones it is
    # Cauchy, so each side of +-1 holds 1/4.  Every part ends at +-1, so
    # no mass near the edge is lost.
    est = expected_crossings(_ens(1, CovarianceModel.parse(model)), IntervalSpec.parse(text))
    assert abs(est.value - exact) <= 1e-14
    assert not est.flagged


def test_interval_parts():
    third = 1.0 / 3.0
    cases = {
        "-inf..inf": [(-1.0, 1.0, False), (0.0, 1.0, True), (-1.0, 0.0, True)],
        "-1..1": [(-1.0, 1.0, False)],
        "1..inf": [(0.0, 1.0, True)],
        "-inf..-1": [(-1.0, 0.0, True)],
        "-2..3": [(-1.0, 1.0, False), (third, 1.0, True), (-1.0, -0.5, True)],
        "2..3": [(third, 0.5, True)],
        "-3..-2": [(-0.5, -third, True)],
        "0.2..0.7": [(0.2, 0.7, False)],
    }
    for text, parts in cases.items():
        assert IntervalSpec.parse(text).parts() == parts, text
    # 1/lo and 1/hi round to the same subnormal: nothing is left
    assert IntervalSpec(1e308, 1.0000000000000002e308).parts() == []


def test_interval_bounds_are_floats():
    spec = IntervalSpec(-1, 1)
    assert spec == IntervalSpec(-1.0, 1.0)
    assert type(spec.lo) is float and type(spec.hi) is float


def test_transformed_covers_outer_mass():
    # Outer tails via the z-transform must agree with brute quadrature on
    # a finite chunk of the tail evaluated in plain coordinates.
    from levelcross.moments import moment_arrays

    model = CovarianceModel.geometric(0.5)
    e = _ens(8, model, level=1.0)
    est = expected_crossings(e, IntervalSpec(1.25, 4.0))
    gamma = model.covariance(8)
    xs, ws = np.polynomial.legendre.leggauss(200)
    xs = 2.625 + 1.375 * xs
    total = 0.0
    for x, w, A, B, C in zip(xs, ws, *moment_arrays(gamma, 8, xs)):
        v = integrand(e, MomentTriple(A=float(A), B=float(B), C=float(C)))
        total += 1.375 * w * (v.F1 + v.F2)
    assert est.value == pytest.approx(total, rel=1e-8)


def test_panel_cap_flags_the_estimate(monkeypatch, capsys):
    # the full line at n = 64 starts as 12 segments: [-1, 1] cut at 0 and
    # four breakpoints, and each z half cut at two
    e = _ens(64, CovarianceModel.geometric(0.5), level=1.0)
    assert not expected_crossings(e, FULL_LINE, tol=1e-12).flagged
    monkeypatch.setattr(quadrature, "MAX_PANELS", 12)
    est = expected_crossings(e, FULL_LINE, tol=1e-12)
    assert est.flagged and est.abs_err > 1e-12 and len(est.pieces) == 12
    assert main(["compute", "--n", "64", "--model", "geometric:0.5", "--k", "1", "--tol", "1e-12"]) == 1
    assert capsys.readouterr().out.splitlines()[1].endswith(",1")


def test_adaptive_panels_stop_at_a_panel_too_narrow_to_bisect():
    # one float wide: its midpoint rounds to an end; F1 = node index squared,
    # where Kronrod and Gauss disagree, so the error stays above tol = 0
    def fun(pts, transformed):
        return np.arange(len(pts), dtype=float) ** 2, np.zeros(len(pts))

    (piece,) = quadrature._adaptive_panels(fun, [(1.0, math.nextafter(1.0, 2.0), False)], tol=0.0)
    assert piece.err > 0.0


# -- degree sweeps ------------------------------------------------------------


def test_table_value_grows_logarithmically():
    ns = [128, 256, 512, 1024]
    spec = IntervalSpec(-1.0, 1.0)
    vals = [expected_crossings(_ens(n), spec).value for n in ns]
    diffs = np.diff(vals)
    # Dyadic steps add roughly (1/pi) ln 2 each.
    np.testing.assert_allclose(diffs, math.log(2) / math.pi, rtol=0.25)
    for n in ns:
        assert interval_prediction(n, 0.0, spec, CovarianceModel.independent())  # a prediction, and so a ratio


def test_table_outer_f2_is_small():
    est = expected_crossings(_ens(512, CovarianceModel.geometric(0.5), level=1.0), IntervalSpec(1.0, math.inf))
    assert est.f2_part <= 0.05 * est.value


# -- exact oracle at n = 1 ------------------------------------------------------


def _linear_crossings_oracle(rho, K, spec):
    """P(a < (K - X0)/X1 < b) for unit normals X0, X1 with correlation rho.

    Given X1 = x, X0 ~ N(rho x, 1 - rho^2), and the root lies in (a, b)
    exactly when X0 lies between K - a x and K - b x: one integral over x
    of a difference of normal CDFs.
    """
    scipy_integrate = pytest.importorskip("scipy.integrate")
    from scipy.special import ndtr

    s = math.sqrt(1.0 - rho * rho)

    def integrand(x):
        ends = (K - spec.lo * x, K - spec.hi * x)
        lo, hi = min(ends), max(ends)
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * (
            ndtr((hi - rho * x) / s) - ndtr((lo - rho * x) / s))

    # split at x = 0, where an infinite bound times x is undefined
    return sum(scipy_integrate.quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
               for lo, hi in ((-math.inf, 0.0), (0.0, math.inf)))


@pytest.mark.parametrize("model_text", ["independent", "raised_cosine", "custom_fourier:1,-0.4"])
@pytest.mark.parametrize("K", [0.0, 1.3, 4.0])
@pytest.mark.parametrize("interval", ["-1..1", "1..inf", "-inf..-1", "-0.3..2.5"])
def test_linear_crossings_match_exact_oracle(model_text, K, interval):
    # n = 1: the one root (K - X0)/X1 is a ratio of correlated normals, so
    # E[N_K(a, b)] is a probability that shares no formula with F1 + F2
    model = CovarianceModel.parse(model_text)
    spec = IntervalSpec.parse(interval)
    est = expected_crossings(_ens(1, model, level=K), spec, tol=1e-12)
    rho = float(model.covariance(1)[1])
    assert abs(est.value - _linear_crossings_oracle(rho, K, spec)) <= 1e-12


# -- exact oracle at n = 2 ------------------------------------------------------


def _quadratic_crossings_oracle(gamma, K, spec):
    """E[N_K(a, b)] for X0 + X1 x + X2 x^2 with stationary lags gamma[0..2].

    Given (X1, X2), X0 is normal, and g(x) = K - X1 x - X2 x^2 is monotone
    on each side of its vertex -X1/(2 X2): each monotone piece of (a, b)
    holds one root exactly when X0 lies between g's values at the piece's
    ends.  So the mean is a 2-D Gaussian integral of normal-CDF
    differences, taken over X2 = t (split at 0, where the vertex leaves
    every bound) and then over X1 given X2 (split where the vertex crosses
    a or b).
    """
    scipy_integrate = pytest.importorskip("scipy.integrate")
    from scipy.special import ndtr

    r1, r2 = float(gamma[1]), float(gamma[2])
    s1 = math.sqrt(1.0 - r1 * r1)  # X1 | X2 = t ~ N(r1 t, s1^2)
    # X0 | (X1, X2) ~ N(c1 X1 + c2 X2, s0^2)
    c1, c2 = (r1 - r1 * r2) / (1.0 - r1 * r1), (r2 - r1 * r1) / (1.0 - r1 * r1)
    s0 = math.sqrt(1.0 - c1 * r1 - c2 * r2)
    a, b = spec.lo, spec.hi

    def count(x1, t):
        def g(x):
            return -math.copysign(math.inf, t) if math.isinf(x) else K - x1 * x - t * x * x

        mu, v = c1 * x1 + c2 * t, -x1 / (2.0 * t)
        total = 0.0
        for p, q in ((a, min(b, v)), (max(a, v), b)):
            if p < q:
                lo, hi = sorted((g(p), g(q)))
                total += ndtr((hi - mu) / s0) - ndtr((lo - mu) / s0)
        return total

    def given_x2(t):
        lo, hi = r1 * t - 10.0 * s1, r1 * t + 10.0 * s1
        kinks = [-2.0 * t * e for e in (a, b) if math.isfinite(e) and lo < -2.0 * t * e < hi]

        def f(x1):
            return math.exp(-0.5 * ((x1 - r1 * t) / s1) ** 2) / (s1 * math.sqrt(2.0 * math.pi)) * count(x1, t)

        return scipy_integrate.quad(f, lo, hi, points=kinks or None, epsabs=1e-13, epsrel=1e-12,
                                    limit=200)[0]

    def outer(t):
        return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi) * given_x2(t)

    return sum(scipy_integrate.quad(outer, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
               for lo, hi in ((-10.0, 0.0), (0.0, 10.0)))


@pytest.mark.parametrize("model_text, K, interval", [
    ("independent", 0.0, "-1..1"),
    ("independent", 1.3, "-1..1"),
    ("custom_fourier:1,-0.4", 1.3, "-0.3..2.5"),
    ("raised_cosine", 1.3, "-inf..inf"),
    ("geometric:0.5", 4.0, "1..inf"),
])
def test_quadratic_crossings_match_exact_oracle(model_text, K, interval):
    # n = 2: one root per monotone piece of a parabola that X0 reaches, a
    # probability that shares no formula with F1 + F2
    model = CovarianceModel.parse(model_text)
    spec = IntervalSpec.parse(interval)
    est = expected_crossings(_ens(2, model, level=K), spec, tol=1e-12)
    assert not est.flagged
    assert abs(est.value - _quadratic_crossings_oracle(model.covariance(2), K, spec)) <= 1e-10
