"""Tests for coefficient sampling and Monte Carlo crossing counts."""

import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelcross.montecarlo import (
    count_crossings_bisect_batch,
    count_level_crossings,
    empirical_covariance,
    estimate_crossings,
    sample_coefficients,
    write_counts_csv,
)
from levelcross.moments import PolynomialEnsemble
from levelcross.quadrature import FULL_LINE, IntervalSpec, expected_crossings
from levelcross.spectrum import CovarianceModel

from oracles import sturm_count


def _ens(n, model=None, level=0.0):
    return PolynomialEnsemble(n=n, model=model or CovarianceModel.independent(), level=level)


# -- sampling -----------------------------------------------------------------


def test_independent_sampling_lag1_near_zero():
    batch = sample_coefficients(CovarianceModel.independent(), 1, 10**5, seed=3)
    est, _ = empirical_covariance(batch, 1)
    assert abs(est) <= 5.0 / math.sqrt(10**5)


def test_geometric_sampling_matches_lag1():
    batch = sample_coefficients(CovarianceModel.geometric(0.5), 32, 10**5, seed=5)
    est, se = empirical_covariance(batch, 1)
    assert abs(est - 0.5) <= 5.0 * se


def test_constant_rho_sampling_far_lag():
    batch = sample_coefficients(CovarianceModel.constant(0.5), 8, 10**5, seed=9)
    est, se = empirical_covariance(batch, 5)
    assert abs(est - 0.5) <= 5.0 * se


def test_sampling_unit_variance():
    batch = sample_coefficients(CovarianceModel.geometric(0.9), 16, 10**5, seed=2)
    est, se = empirical_covariance(batch, 0)
    assert abs(est - 1.0) <= 5.0 * se


def test_sampling_seed_reproducible():
    a = sample_coefficients(CovarianceModel.geometric(0.5), 10, 500, seed=11)
    b = sample_coefficients(CovarianceModel.geometric(0.5), 10, 500, seed=11)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)
    c = sample_coefficients(CovarianceModel.geometric(0.5), 10, 500, seed=12)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_sampling_shape():
    batch = sample_coefficients(CovarianceModel.independent(), 7, 40, seed=0)
    assert batch.coeffs.shape == (40, 8)
    assert batch.count == 40


# -- deterministic root counting -------------------------------------------------


def test_count_quadratic_two_roots():
    assert count_level_crossings(np.array([-1.0, 0.0, 1.0]), 0.0, IntervalSpec(-2.0, 2.0)) == 2


def test_count_no_real_roots():
    assert count_level_crossings(np.array([1.0, 0.0, 1.0]), 0.0, FULL_LINE) == 0


def test_count_cubic_window():
    coeffs = np.array([0.0, -1.0, 0.0, 1.0])  # x^3 - x
    assert count_level_crossings(coeffs, 0.0, IntervalSpec(-0.5, 2.0)) == 2


def test_count_level_shift():
    # x^2 = 4 has two solutions in (-3, 3).
    assert count_level_crossings(np.array([0.0, 0.0, 1.0]), 4.0, IntervalSpec(-3.0, 3.0)) == 2


def test_bisect_matches_companion_on_gaussian_samples():
    batch = sample_coefficients(CovarianceModel.geometric(0.5), 24, 400, seed=21)
    for spec in (FULL_LINE, IntervalSpec(-1.0, 1.0), IntervalSpec(1.0, math.inf)):
        counts = count_crossings_bisect_batch(batch.coeffs, 0.7, spec)
        assert len(counts) == batch.count
        for row, got in zip(batch.coeffs, counts):
            assert count_level_crossings(row, 0.7, spec) == got


def test_counters_match_sturm_oracle_small_batch():
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 60:
        ints = rng.integers(-9, 10, size=7)
        if ints[-1] == 0 or not np.any(ints[:-1]):
            continue
        coeffs = ints.astype(float)
        frac = [Fraction(int(c)) for c in ints]
        lo, hi = Fraction(-101, 7), Fraction(100, 7)
        try:
            expect = sturm_count(frac, lo, hi)
        except ValueError:
            continue
        got = count_level_crossings(coeffs, 0.0, IntervalSpec(float(lo), float(hi)))
        assert got == expect, f"coeffs={ints}"
        checked += 1


@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=2, max_size=6))
@settings(max_examples=60, deadline=None)
def test_companion_counter_agrees_with_sturm(ints):
    if not ints or ints[-1] == 0 or all(c == 0 for c in ints[:-1]):
        return
    frac = [Fraction(c) for c in ints]
    try:
        expect = sturm_count(frac, -math.inf, math.inf)
    except ValueError:
        return
    got = count_level_crossings(np.array(ints, dtype=float), 0.0, FULL_LINE)
    assert got == expect


# -- estimator ----------------------------------------------------------------


def test_linear_estimate_is_one():
    est = estimate_crossings(_ens(1), FULL_LINE, count=2000, seed=1, counter="bisect")
    assert abs(est.mean - 1.0) <= 3.0 * max(est.std_error, 1e-12)


def test_estimate_matches_quadrature():
    e = _ens(50, CovarianceModel.geometric(0.5), level=1.0)
    spec = IntervalSpec(-1.0, 1.0)
    quad = expected_crossings(e, spec).value
    est = estimate_crossings(e, spec, count=3000, seed=4)
    assert abs(est.mean - quad) <= 3.0 * est.std_error


def test_estimate_counter_choice_consistent():
    e = _ens(20, level=0.5)
    a = estimate_crossings(e, FULL_LINE, count=500, seed=8, counter="companion")
    b = estimate_crossings(e, FULL_LINE, count=500, seed=8, counter="bisect")
    assert a.mean == b.mean  # identical samples, equivalent counters
    assert a.method != b.method


def test_estimate_requires_minimum_count():
    with pytest.raises(ValueError):
        estimate_crossings(_ens(5), FULL_LINE, count=50)


def test_constant_model_estimates():
    est = estimate_crossings(_ens(16, CovarianceModel.constant(0.5)), FULL_LINE, count=400, seed=6)
    assert est.mean > 0
    assert est.count == 400


def test_write_counts_csv():
    est = estimate_crossings(_ens(4), FULL_LINE, count=120, seed=2)
    buf = io.StringIO()
    write_counts_csv(est, buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == 121  # header + one row per sample
    assert lines[0].startswith("sample")
