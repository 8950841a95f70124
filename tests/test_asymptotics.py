"""Tests for asymptotic predictions, edge approximations, and slope fitting."""

import math

import numpy as np
import pytest

from levelcross.asymptotics import (
    fit_log_slope,
    interval_prediction,
    theorem_prediction,
)
from levelcross.moments import PolynomialEnsemble
from levelcross.quadrature import FULL_LINE, IntervalSpec
from levelcross.spectrum import CovarianceModel

from oracles import edge_moment_approx, geometric_density, independent_density, spectral_moments


# -- theorem_prediction --------------------------------------------------------


def test_prediction_bounded_inner():
    p = theorem_prediction(1000, 0.0, "inner")
    assert p == pytest.approx(math.log(1000) / math.pi)
    assert p == pytest.approx(2.1988, abs=1e-3)


def test_prediction_growing_inner():
    p = theorem_prediction(1000, 10.0, "inner")
    assert p == pytest.approx(math.log(10.0) / math.pi)
    assert p == pytest.approx(0.7329, abs=1e-3)


def test_prediction_growing_outer():
    p = theorem_prediction(1000, 10.0, "outer")
    assert p == pytest.approx(math.log(1000) / math.pi, rel=1e-12)


def test_prediction_consistency_k1():
    # K = 1 is the growing regime, whose inner term log(n / K^2) meets the bounded one
    assert theorem_prediction(500, 1.0, "inner") == theorem_prediction(500, 0.0, "inner")


def test_prediction_out_of_regime():
    with pytest.raises(ValueError):
        theorem_prediction(100, 10.0, "inner")
    with pytest.raises(ValueError):
        theorem_prediction(100, -10.0, "outer")
    with pytest.raises(ValueError):
        theorem_prediction(2, 0.0, "inner")
    with pytest.raises(ValueError):
        theorem_prediction(100, 0.0, "sideways")


# -- interval_prediction --------------------------------------------------------

INNER = IntervalSpec(-1.0, 1.0)
RIGHT_TAIL = IntervalSpec(1.0, math.inf)
LEFT_TAIL = IntervalSpec(-math.inf, -1.0)
IND = CovarianceModel.independent()


# n = 1000: (1/pi) log n = 2.1988..., and at K = 2 the inner term is (1/pi) log(n/4)
@pytest.mark.parametrize("K, spec, expect", [
    (0.0, INNER, 2.198806796638283),
    (0.0, RIGHT_TAIL, 1.0994033983191416),
    (0.0, LEFT_TAIL, 1.0994033983191416),
    (0.0, FULL_LINE, 4.397613593276566),
    (0.0, IntervalSpec(-1.0, math.inf), 3.2982101949574245),
    (2.0, INNER, 1.75753559633298),
    (2.0, RIGHT_TAIL, 1.0994033983191416),
    (2.0, LEFT_TAIL, 1.0994033983191416),
    (2.0, FULL_LINE, 3.956342392971263),
    (2.0, IntervalSpec(-math.inf, 1.0), 2.8569389946521215),
])
def test_interval_prediction_values(K, spec, expect):
    assert interval_prediction(1000, K, spec, IND) == expect


@pytest.mark.parametrize("spec", [
    IntervalSpec(-0.5, 0.5), IntervalSpec(0.0, 1.0), IntervalSpec(1.0, 2.0),
    IntervalSpec(2.0, math.inf), IntervalSpec(-math.inf, -2.0), IntervalSpec(-2.0, 2.0),
    IntervalSpec(-1.0, 3.0),
    # half lines that stop inside (-1, 1) hold a full tail but only part of the inner piece
    IntervalSpec(0.0, math.inf), IntervalSpec(-math.inf, 0.5), IntervalSpec(-0.5, math.inf),
    IntervalSpec(-math.inf, 0.0),
    # so narrow beyond 1e308 that 1/lo == 1/hi: spec.parts() is empty
    IntervalSpec(1e308, math.nextafter(1e308, math.inf)),
])
@pytest.mark.parametrize("K", [0.0, 2.0])
def test_interval_prediction_none_for_a_partial_piece(K, spec):
    assert interval_prediction(1000, K, spec, IND) is None


def test_interval_prediction_none_out_of_range():
    assert interval_prediction(2, 0.0, FULL_LINE, IND) is None
    assert interval_prediction(2, 1.0, INNER, IND) is None
    assert interval_prediction(100, 10.0, FULL_LINE, IND) is None  # K^2 = n
    assert interval_prediction(100, -11.0, INNER, IND) is None
    assert interval_prediction(100, 9.99, FULL_LINE, IND) is not None


@pytest.mark.parametrize("K", [1e-155, -1e-160, 1e-170])
def test_interval_prediction_none_when_k_squared_underflows(K):
    # n / K^2 overflows to inf (K^2 subnormal) or divides by zero (K^2 = 0)
    assert interval_prediction(64, K, INNER, IND) is None


@pytest.mark.parametrize("spec", [INNER, RIGHT_TAIL, FULL_LINE])
def test_interval_prediction_none_for_the_constant_model(spec):
    # the constant lag is an atom in the spectral measure, outside the paper's f > 0
    assert interval_prediction(1000, 0.0, spec, IND) is not None
    assert interval_prediction(1000, 0.0, spec, CovarianceModel.constant(0.5)) is None


@pytest.mark.parametrize("K", [-2e-3, 1e-150])
@pytest.mark.parametrize("n", [20, 64])
def test_prediction_small_level_takes_the_bounded_law(n, K):
    # log(n / K^2) would grow without bound as K -> 0; the count tends to its K = 0 value
    assert theorem_prediction(n, K, "inner") == math.log(n) / math.pi
    assert interval_prediction(n, K, INNER, IND) == math.log(n) / math.pi


# -- edge arctan forms (oracle) --------------------------------------------------


def test_edge_approx_independent_value():
    n = 10**6
    y = 1e-3
    m = edge_moment_approx(n, y, independent_density())
    L = math.log(n) / math.log(math.log(n))
    assert m.A == pytest.approx(math.atan(L) / (math.pi * y), rel=1e-12)
    assert m.B == pytest.approx(m.A / (2.0 * y), rel=1e-12)
    assert m.C == pytest.approx(m.A / (2.0 * y * y), rel=1e-12)


def test_edge_approx_gram_ratio():
    # sqrt(AC - B^2)/A collapses to 1/(2y) identically in the arctan form.
    m = edge_moment_approx(10**6, 1e-3, independent_density())
    assert math.sqrt(m.gram) / m.A == pytest.approx(1.0 / (2.0 * 1e-3), rel=1e-12)


def test_edge_approx_negative_side_flips_b():
    f = geometric_density(0.5)
    plus = edge_moment_approx(10**6, 1e-3, f, side=1)
    minus = edge_moment_approx(10**6, 1e-3, f, side=-1)
    assert plus.B > 0 > minus.B
    # The minus side is driven by f(pi), the plus side by f(0).
    ratio = minus.A / plus.A
    assert ratio == pytest.approx(float(f.evaluate(np.array([math.pi]))[0] / f.evaluate(np.array([0.0]))[0]), rel=1e-9)


def test_edge_approx_zone_enforced():
    with pytest.raises(ValueError):
        edge_moment_approx(10**6, 0.5, independent_density())
    with pytest.raises(ValueError):
        edge_moment_approx(10**6, 1e-9, independent_density())


def test_edge_approx_vs_exact_quadrature():
    # The arctan form underestimates the exact moment by exactly the
    # saturation deficit arctan(L)/(pi/2) at finite n; check the exact
    # relationship rather than a loose tolerance.
    n = 10**6
    y = 1e-3
    e = PolynomialEnsemble(n=n, model=CovarianceModel.independent())
    exact_A = (1.0 - (1.0 - y) ** (2 * n + 2)) / (1.0 - (1.0 - y) ** 2)
    m = edge_moment_approx(n, y, independent_density())
    L = math.log(n) / math.log(math.log(n))
    deficit = math.atan(L) / (math.pi / 2.0)
    assert m.A / exact_A == pytest.approx(deficit, rel=2e-2)


def test_edge_approx_saturation():
    # A * y -> f(0) * pi as n grows with y fixed in each zone.
    vals = []
    for n in (10**4, 10**8, 10**16):
        y = 0.5 / math.log(n)
        m = edge_moment_approx(n, y, independent_density())
        vals.append(m.A * y)
    target = math.pi / (2.0 * math.pi)
    assert abs(vals[-1] - target) < abs(vals[0] - target)
    assert vals[-1] == pytest.approx(target, rel=0.1)


def test_edge_approx_spectral_oracle_small_n():
    # At modest n the same deficit relation holds against the spectral path.
    n = 300
    y = 0.1  # inside (loglog n / n, 1/log n) for n = 300
    exact_A, _, _ = spectral_moments(n, independent_density(), 1.0 - y)
    m = edge_moment_approx(n, y, independent_density())
    L = math.log(n) / math.log(math.log(n))
    deficit = math.atan(L) / (math.pi / 2.0)
    assert m.A / exact_A == pytest.approx(deficit, rel=0.25)


# -- fit_log_slope ---------------------------------------------------------------


def test_fit_recovers_exact_log_law():
    ns = [128, 256, 512, 1024, 2048]
    vals = [math.log(n) / math.pi + 0.3 for n in ns]
    slope, intercept, resid = fit_log_slope(ns, vals)
    assert slope == pytest.approx(1.0 / math.pi, rel=1e-12)
    assert intercept == pytest.approx(0.3, abs=1e-12)
    assert resid < 1e-12


def test_fit_flat_rows_zero_slope():
    ns = [16, 32, 64, 128]
    slope, _, _ = fit_log_slope(ns, [2.0] * 4)
    assert slope == pytest.approx(0.0, abs=1e-14)


def test_fit_needs_four_rows():
    ns = [16, 32, 64]
    with pytest.raises(ValueError):
        fit_log_slope(ns, [1.0, 2.0, 3.0])


def test_prediction_is_a_float():
    assert type(theorem_prediction(100, 0.0, "outer")) is float
    assert type(theorem_prediction(100, 2.0, "inner")) is float
