"""Test oracles shared by the unit and acceptance suites.

Each oracle is written without the package, so that agreement with it is
evidence and not self-consistency: a rational-arithmetic Sturm root counter,
the scalar Kac-Rice integrand at one point, and the exact Kac-Rice mean for
constant covariance from its closed-form moments.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def _poly_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _poly_deriv(p):
    return [c * k for k, c in enumerate(p)][1:]


def _poly_rem(num, den):
    num = list(num)
    dd = len(den) - 1
    dc = den[-1]
    while len(num) - 1 >= dd and _poly_trim(num):
        shift = len(num) - 1 - dd
        factor = num[-1] / dc
        for i in range(len(den)):
            num[shift + i] -= factor * den[i]
        num = _poly_trim(num[:-1] + [Fraction(0)])[: len(num) - 1]
        num = _poly_trim(num)
        if not num:
            break
    return _poly_trim(num)


def sturm_chain(p):
    p = _poly_trim([Fraction(c) for c in p])
    if len(p) <= 1:
        raise ValueError("need a nonconstant polynomial")
    chain = [p, _poly_trim(_poly_deriv(p))]
    while chain[-1]:
        rem = _poly_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _sign_at(p, x):
    if x == math.inf:
        return 1 if p[-1] > 0 else -1
    if x == -math.inf:
        s = 1 if p[-1] > 0 else -1
        return s if (len(p) - 1) % 2 == 0 else -s
    v = _poly_eval(p, x)
    return (v > 0) - (v < 0)


def _variations(chain, x):
    signs = [s for s in (_sign_at(p, x) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(coeffs, lo, hi):
    """Distinct real roots in the open interval (lo, hi), exact arithmetic.

    coeffs are ascending; finite endpoints must be Fractions (or ints) at
    which the polynomial does not vanish.
    """
    chain = sturm_chain(coeffs)
    p = chain[0]
    for end in (lo, hi):
        if end not in (math.inf, -math.inf) and _poly_eval(p, Fraction(end)) == 0:
            raise ValueError("endpoint is a root; pick another")
    lo = lo if lo in (math.inf, -math.inf) else Fraction(lo)
    hi = hi if hi in (math.inf, -math.inf) else Fraction(hi)
    return _variations(chain, lo) - _variations(chain, hi)


GRAM_EPS = 1e-10  # AC - B^2 at or below this relative size is a removable zero


def erf_integral(x):
    """The unnormalized error integral int_0^x exp(-t^2) dt."""
    return 0.5 * math.sqrt(math.pi) * math.erf(x)


@dataclass(frozen=True)
class IntegrandValue:
    """Per-unit-length crossing intensities (F1: level term, F2: drift term)."""

    F1: float
    F2: float


def _gram_and_expfactor(A, B, C, K, exp_arg_num):
    """Removable-singularity handling for the F1 exponential.

    exp_arg_num is the numerator of the exponent (K^2 * C-like term); the
    full exponent is exp_arg_num / (2 * gram).  Returns (gram, expfactor).
    """
    gram = A * C - B * B
    ref = abs(A * C)
    if gram < -GRAM_EPS * ref:
        raise ValueError(f"degenerate moment triple: AC - B^2 = {gram:.3e} < 0 beyond tolerance")
    gram = max(gram, 0.0)
    if gram <= GRAM_EPS * ref:
        return gram, (1.0 if K == 0.0 else 0.0)
    return gram, math.exp(-exp_arg_num / (2.0 * gram))


def integrand(e, m, at_reciprocal=False, z=None):
    """F1, F2 of the crossing-intensity formula at one point, in scalar math.

    e needs .n and .level; m needs .A, .B, .C and .scale_exponent (0 for
    a plain triple, 2n for the scaled outer triple at x = 1/z).  Plain
    form, per unit x:

        F1 = (1/pi) sqrt(AC-B^2)/A * exp(-K^2 C / (2(AC-B^2)))
        F2 = (sqrt(2)/pi) |BK| / A^{3/2} * exp(-K^2/(2A))
             * erf_integral(|BK| / sqrt(2A(AC-B^2)))

    With at_reciprocal=True the values are per unit z and include the
    1/z^2 Jacobian, with the powers of z kept in underflow-safe form and
    the Gram determinant taken from the scaled triple itself.
    """
    K = abs(e.level)
    A, B, C = m.A, m.B, m.C

    if not at_reciprocal:
        if m.scale_exponent != 0:
            raise ValueError("scaled triple passed without at_reciprocal=True")
        gram, expfac = _gram_and_expfactor(A, B, C, K, K * K * C)
        F1 = math.sqrt(gram) / A * expfac / math.pi
        if K == 0.0:
            return IntegrandValue(F1=F1, F2=0.0)
        erf_arg = math.inf if gram == 0.0 else abs(B) * K / math.sqrt(2.0 * A * gram)
        F2 = (
            math.sqrt(2.0) / math.pi * abs(B) * K / A**1.5
            * math.exp(-K * K / (2.0 * A))
            * erf_integral(erf_arg)
        )
        return IntegrandValue(F1=F1, F2=F2)

    if z is None or z == 0.0:
        raise ValueError("at_reciprocal form requires the transform point z != 0")
    if m.scale_exponent != 2 * e.n:
        raise ValueError("at_reciprocal form requires a scaled outer triple")
    n = e.n
    az = abs(z)
    z2n = az ** (2 * n)
    gram, expfac = _gram_and_expfactor(A, B, C, K, K * K * z2n * C)
    F1 = math.sqrt(gram) / (az * A) * expfac / math.pi
    if K == 0.0:
        return IntegrandValue(F1=F1, F2=0.0)
    zn = az**n
    erf_arg = math.inf if gram == 0.0 else zn * abs(B) * K / math.sqrt(2.0 * A * gram)
    F2 = (
        math.sqrt(2.0) / math.pi * zn / az * abs(B) * K / A**1.5
        * math.exp(-K * K * z2n / (2.0 * A))
        * erf_integral(erf_arg)
    )
    return IntegrandValue(F1=F1, F2=F2)


_CHUNK = 64  # points per batch of power rows
_NODES = 40  # Gauss-Legendre nodes per panel; 30 and 60 give the same sums


def constant_covariance_moments(n, rho, x):
    """A, B, C and D = AC - B^2 at real x for Gamma = (1 - rho) delta + rho 1.

    With S(x) = sum_{k<=n} x^k the moments are A = (1 - rho) S(x^2) + rho S(x)^2,
    B = A'/2 and C = (1 - rho) sum_k k^2 x^{2k-2} + rho S'(x)^2; all sums are
    taken term by term.  D is formed with the rho^2 S^2 S'^2 terms of AC and
    B^2 cancelled by hand, so no precision is lost to the rank-one part.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    k = np.arange(1, n + 1, dtype=float)
    a, b, c, s, ds = (np.empty_like(x) for _ in range(5))
    for start in range(0, len(x), _CHUNK):
        xs = x[start:start + _CHUNK]
        p = xs[:, None] ** np.arange(n + 1)      # x^0 .. x^n
        q = p[:, :-1] ** 2                       # x^{2k-2}, k = 1..n
        part = slice(start, start + len(xs))
        s[part] = p.sum(axis=1)                  # S(x)
        ds[part] = p[:, :-1] @ k                 # S'(x)
        a[part] = (p * p).sum(axis=1)            # S(x^2)
        b[part] = xs * (q @ k)                   # sum k x^{2k-1}
        c[part] = q @ (k * k)                    # sum k^2 x^{2k-2}
    ind = 1.0 - rho
    A = ind * a + rho * s * s
    B = ind * b + rho * s * ds
    C = ind * c + rho * ds * ds
    D = ind * ind * (a * c - b * b) + ind * rho * (a * ds * ds - 2.0 * b * s * ds + c * s * s)
    return A, B, C, D


def constant_covariance_crossings(n, rho):
    """Exact E[N_0] over the whole real line for constant covariance rho.

    Integrates the Kac-Rice density sqrt(AC - B^2) / (pi A) over (-1, 1) by
    Gauss-Legendre on panels with breakpoints at +-(1 - 2^-j), the last
    panel at each end no wider than 1/(8(n+1)); the density is analytic on
    the closed panels.  Coefficient reversal leaves the law unchanged, so
    |x| > 1 holds as many roots on average as |x| < 1 and the result is
    twice the integral.  rho = 0 is the independent model.
    """
    depth = math.ceil(math.log2(n + 1)) + 3
    edges = np.append(1.0 - 2.0 ** -np.arange(depth + 1), 1.0)
    t, w = np.polynomial.legendre.leggauss(_NODES)
    mid = (edges[1:] + edges[:-1]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    x = (mid[:, None] + half[:, None] * t).ravel()
    wts = (half[:, None] * w).ravel()
    x = np.concatenate([x, -x])
    wts = np.concatenate([wts, wts])
    A, _, _, D = constant_covariance_moments(n, rho, x)
    return 2.0 * float(np.sum(wts * np.sqrt(D) / (math.pi * A)))
