"""Self-checks of the constant-covariance Kac-Rice oracle in oracles.py."""

import numpy as np
import pytest

from levelcross.moments import PolynomialEnsemble, moment_arrays
from levelcross.quadrature import FULL_LINE, expected_crossings
from levelcross.spectrum import CovarianceModel

from oracles import constant_covariance_crossings, constant_covariance_moments

GRID = np.linspace(-0.99, 0.99, 101)


@pytest.mark.parametrize("n", [64, 512])
def test_constant_oracle_at_rho_zero_is_independent_quadrature(n):
    e = PolynomialEnsemble(n=n, model=CovarianceModel.independent())
    quad = expected_crossings(e, FULL_LINE).value
    assert constant_covariance_crossings(n, 0.0) == pytest.approx(quad, rel=1e-7)


@pytest.mark.parametrize("rho", [0.25, 0.5, 0.75])
def test_constant_oracle_line_has_one_root(rho):
    assert constant_covariance_crossings(1, rho) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("rho", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("n", [10, 200])
def test_constant_oracle_moments_match_direct(n, rho):
    gamma = CovarianceModel.constant(rho).covariance(n)
    A, B, C, D = constant_covariance_moments(n, rho, GRID)
    Ad, Bd, Cd = moment_arrays(gamma, n, GRID)
    for j in range(len(GRID)):
        assert A[j] == pytest.approx(Ad[j], rel=1e-12)
        assert B[j] == pytest.approx(Bd[j], rel=1e-11, abs=1e-12 * Ad[j])
        assert C[j] == pytest.approx(Cd[j], rel=1e-12)
    # D has the rank-one terms cancelled by hand; it must still be AC - B^2
    assert np.all(np.abs(D - (A * C - B * B)) <= 1e-12 * A * C)

