"""Tests for interval parsing, breakpoints, and the crossing quadrature."""

import math

import numpy as np
import pytest

from levelcross.moments import PolynomialEnsemble
from levelcross.quadrature import (
    FULL_LINE,
    Breakpoints,
    CrossingEstimate,
    IntervalSpec,
    KacRiceEvaluator,
    breakpoints,
    crossing_table,
    expected_crossings,
)
from levelcross.spectrum import CovarianceModel

from oracles import integrand


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
    b = breakpoints(10**6)
    assert b.inner == pytest.approx(1.0 - 1.0 / math.log(10**6))
    assert b.inner == pytest.approx(0.927617, abs=1e-6)
    assert b.near_edge == pytest.approx(1.0 - 2.6257e-6, abs=1e-9)


def test_breakpoints_n16():
    b = breakpoints(16)
    assert b.inner == pytest.approx(0.63933, abs=1e-5)
    assert b.near_edge == pytest.approx(1.0 - math.log(math.log(16.0)) / 16.0, rel=1e-12)
    assert b.inner < b.near_edge < 1.0


def test_breakpoints_rejects_small_n():
    with pytest.raises(ValueError):
        breakpoints(15)


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


def test_constant_model_rejected():
    with pytest.raises(ValueError):
        expected_crossings(_ens(5, CovarianceModel.constant(0.5)), FULL_LINE)


def test_evaluator_batches_match_scalar_integrand():
    from levelcross.moments import MomentTriple, moment_arrays

    model = CovarianceModel.geometric(0.5)
    e = _ens(15, model, level=1.0)
    ev = KacRiceEvaluator(e)
    xs = np.array([-0.8, -0.2, 0.1, 0.6, 0.95])
    F1, F2 = ev.inner(xs)
    gamma = model.covariance(15).as_array(15)
    A, B, C = moment_arrays(gamma, 15, xs)
    for i in range(xs.size):
        v = integrand(e, MomentTriple(A=float(A[i]), B=float(B[i]), C=float(C[i])))
        assert F1[i] == pytest.approx(v.F1, rel=1e-13)
        assert F2[i] == pytest.approx(v.F2, rel=1e-13)


def test_evaluator_transformed_matches_scalar_integrand():
    from levelcross.moments import MomentTriple, moment_arrays, scaled_outer_from_inner

    model = CovarianceModel.geometric(0.5)
    e = _ens(15, model, level=1.0)
    zs = np.array([-0.9, -0.4, 0.05, 0.5, 0.8])
    F1, F2 = KacRiceEvaluator(e).transformed(zs)
    gamma = model.covariance(15).as_array(15)
    for i, (A, B, C) in enumerate(zip(*moment_arrays(gamma, 15, zs))):
        At, Bt, Ct = scaled_outer_from_inner(15, float(zs[i]), A, B, C)
        v = integrand(e, MomentTriple(A=At, B=Bt, C=Ct, scale_exponent=30),
                      at_reciprocal=True, z=float(zs[i]))
        assert F1[i] == pytest.approx(v.F1, rel=1e-10)
        assert F2[i] == pytest.approx(v.F2, rel=1e-10)


def test_edge_clip_error_is_flagged(monkeypatch):
    import levelcross.quadrature as quadrature

    monkeypatch.setattr(quadrature, "EDGE_CLIP", 1e-3)
    est = expected_crossings(_ens(64), FULL_LINE)
    assert est.abs_err > 1e-6
    assert est.flagged


def test_transformed_covers_outer_mass():
    # Outer tails via the z-transform must agree with brute quadrature on
    # a finite chunk of the tail evaluated in plain coordinates.
    from levelcross.moments import moments_direct

    model = CovarianceModel.geometric(0.5)
    e = _ens(8, model, level=1.0)
    est = expected_crossings(e, IntervalSpec(1.25, 4.0))
    gamma = model.covariance(8)
    xs, ws = np.polynomial.legendre.leggauss(200)
    xs = 2.625 + 1.375 * xs
    total = 0.0
    for x, w in zip(xs, ws):
        v = integrand(e, moments_direct(e, gamma, float(x)))
        total += 1.375 * w * (v.F1 + v.F2)
    assert est.value == pytest.approx(total, rel=1e-8)


# -- crossing_table ------------------------------------------------------------


def test_table_single_row_delegates():
    rows = crossing_table(CovarianceModel.independent(), [1], 0.0, [IntervalSpec(-1.0, 1.0)])
    assert len(rows) == 1
    assert rows[0].value == pytest.approx(0.5, abs=1e-6)
    assert rows[0].n == 1 and rows[0].level == 0.0


def test_table_value_grows_logarithmically():
    ns = [128, 256, 512, 1024]
    rows = crossing_table(CovarianceModel.independent(), ns, 0.0, [IntervalSpec(-1.0, 1.0)])
    vals = [r.value for r in rows]
    diffs = np.diff(vals)
    # Dyadic steps add roughly (1/pi) ln 2 each.
    np.testing.assert_allclose(diffs, math.log(2) / math.pi, rtol=0.25)
    for r in rows:
        assert r.prediction is not None and r.ratio is not None


def test_table_outer_f2_is_small():
    rows = crossing_table(
        CovarianceModel.geometric(0.5), [512], 1.0, [IntervalSpec(1.0, math.inf)]
    )
    (row,) = rows
    assert row.f2_part <= 0.05 * row.value


def test_table_rejects_unsorted_n():
    with pytest.raises(ValueError):
        crossing_table(CovarianceModel.independent(), [8, 4], 0.0, [FULL_LINE])
