"""Test oracles shared by the unit and acceptance suites.

Each oracle is written without the package, so that agreement with it is
evidence and not self-consistency: a rational-arithmetic Sturm root counter,
the certified bisection's Horner pass as one loop step per coefficient,
the companion counter's Newton polish with P and P' as separate Horner
loops, the scalar Kac-Rice integrand at one point, the moments A, B, C as dense
Toeplitz quadratic forms and as spectral integrals of the geometric-sum
kernel, their near-edge arctan forms, the exact Kac-Rice mean for constant
covariance from its closed-form moments, the Edelman-Kostlan density of
real roots for independent coefficients in mpmath, the empirical lag
covariance of a sample batch, the flat, Poisson-kernel and raised-cosine
spectral densities, the lags of a density by FFT, and the range of a
density over a grid.  A density f here is anything with a vectorized
f.evaluate(phi).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

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


def _primitive(p):
    """p times a positive rational, with coprime integer coefficients.

    A positive factor keeps every sign the chain is read at, and it keeps
    the coefficients of later remainders small (degree 50 in well under a
    second, against about 20 s with the plain rational remainders).
    """
    den = math.lcm(*(c.denominator for c in p))
    nums = [c.numerator * (den // c.denominator) for c in p]
    g = math.gcd(*nums)
    return [Fraction(v // g) for v in nums]


def sturm_chain(p):
    p = _poly_trim([Fraction(c) for c in p])
    if len(p) <= 1:
        raise ValueError("need a nonconstant polynomial")
    chain = [p, _poly_trim(_poly_deriv(p))]
    while chain[-1]:
        rem = _poly_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(_primitive([-c for c in rem]))
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


def fused_pass_reference(table, col, x, r):
    """Rows P(x), P'(x), S0(r), S1(r), S2(r) of polynomial col[i] at x[i], r[i].

    table holds one polynomial per column, descending coefficients.  The
    certified bisection's Horner pass with each sum updated by its own
    statements: P and its majorant S0 by acc * x + c, P' and S1 by the
    derivative recurrence, S2 / 2 by the next one, on [coefficients,
    |coefficients|] beside [x, r].  The package's stacked pass must equal
    it bit for bit.
    """
    g = table[:, col]
    coef = np.stack([g, np.abs(g)], axis=1)
    xr = np.stack([x, r])
    acc0, acc1, acc2 = coef[0].copy(), np.zeros_like(xr), np.zeros_like(xr)
    for j in range(1, len(coef)):
        acc2 *= xr
        acc2 += acc1
        acc1 *= xr
        acc1 += acc0
        acc0 *= xr
        acc0 += coef[j]
    return np.stack([acc0[0], acc1[0], acc0[1], acc1[1], 2.0 * acc2[1]])



def _horner_cols(coef, x):
    """Polynomial coef[:, i] (ascending) at x[i], in the order acc * x + c from zero."""
    acc = np.zeros_like(x)
    for c in coef[::-1]:
        acc *= x
        acc += c
    return acc


def polish_reference(coef, x):
    """Guarded Newton polish of x[i] as a root of coef[:, i] (ascending).

    The companion counter's polish with P and P' as two Horner loops, P'
    on the differentiated coefficients k a_k: up to 16 Newton steps per
    root, each capped at (1 + |x|) / 2, stopping early when P'(x) = 0,
    P(x) is not finite, or the step falls to 1e-15 (1 + |x|).  Returns the
    roots and whether each passes |P(x)| <= 1e-9 sum |a_k| |x|^k.
    """
    dcoef = coef[1:] * np.arange(1, len(coef))[:, None]
    x = x.copy()
    live = np.arange(len(x))
    for _ in range(16):
        if len(live) == 0:
            break
        xl = x[live]
        p = _horner_cols(coef[:, live], xl)
        dp = _horner_cols(dcoef[:, live], xl)
        go = (dp != 0.0) & np.isfinite(p)
        live, xl, p, dp = live[go], xl[go], p[go], dp[go]
        step = p / dp
        cap = 0.5 * (1.0 + np.abs(xl))
        step = np.where(np.abs(step) > cap, np.copysign(cap, step), step)
        xl -= step
        x[live] = xl
        live = live[~(np.abs(step) <= 1e-15 * (1.0 + np.abs(xl)))]
    scale = _horner_cols(np.abs(coef), np.abs(x))
    resid = np.abs(_horner_cols(coef, x))
    return x, resid <= 1e-9 * np.maximum(scale, 1e-300)

GRAM_EPS = 1e-10  # AC - B^2 at or below this relative size is a removable zero


def empirical_covariance(batch, lag):
    """(estimate, standard error) of Gamma(lag) from a batch."""
    x = batch.coeffs
    if lag == 0:
        prods = np.mean(x * x, axis=1)
    else:
        prods = np.mean(x[:, :-lag] * x[:, lag:], axis=1)
    return float(prods.mean()), float(prods.std(ddof=1) / math.sqrt(len(prods)))


TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SpectralDensity:
    """A density on [-pi, pi]: a vectorized evaluate(phi) and bounds on its values."""

    evaluate: Callable[[np.ndarray], np.ndarray]
    lower_bound: float = 0.0
    upper_bound: float = math.inf


def independent_density():
    """Flat density 1/(2 pi): independent coefficients, Gamma = (1, 0, 0, ...)."""
    c = 1.0 / TWO_PI
    return SpectralDensity(lambda phi: np.full_like(np.asarray(phi, dtype=float), c), c, c)


def geometric_density(rho):
    """Poisson kernel (1 - rho^2) / (2 pi (1 - 2 rho cos(phi) + rho^2)): Gamma(k) = rho^|k|."""
    def evaluate(phi):
        return (1.0 - rho * rho) / (TWO_PI * (1.0 - 2.0 * rho * np.cos(phi) + rho * rho))
    return SpectralDensity(evaluate, (1.0 - rho) / (1.0 + rho) / TWO_PI, (1.0 + rho) / (1.0 - rho) / TWO_PI)


def raised_cosine_density():
    """(1 + cos(phi)) / (2 pi): Gamma = (1, 1/2, 0, ...), touching zero at phi = +-pi."""
    return SpectralDensity(lambda phi: (1.0 + np.cos(phi)) / TWO_PI, 0.0, 2.0 / TWO_PI)


def covariance_from_density(f, m, tol=1e-12, max_points=1 << 20):
    """Fourier coefficients Gamma(0..m) of the density f, as a float array.

    Uses the periodic trapezoid rule (spectrally accurate for smooth f)
    with doubling of the grid until lags stabilize below tol.
    """
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    # At least 4 samples per resolved lag to stay clear of aliasing.
    npoints = 4096
    while npoints < 4 * (m + 1):
        npoints *= 2
    if 2 * npoints > max_points:
        raise ValueError(
            f"covariance to lag m = {m} needs grids of {npoints} and {2 * npoints} points "
            f"to converge, beyond max_points = {max_points}"
        )

    ks = np.arange(m + 1)
    signs = np.where(ks % 2 == 0, 1.0, -1.0)
    prev = None
    while npoints <= max_points:
        phi = -math.pi + TWO_PI * np.arange(npoints) / npoints
        coef = np.fft.fft(np.asarray(f.evaluate(phi), dtype=float))[: m + 1]
        gam = (TWO_PI / npoints) * signs * coef
        if np.max(np.abs(gam.imag)) > 1e-12:
            raise ValueError(
                "density is not even: covariance has imaginary residue "
                f"{np.max(np.abs(gam.imag)):.3e} > 1e-12"
            )
        cur = gam.real
        if prev is not None and np.max(np.abs(cur - prev)) <= tol:
            break
        prev = cur
        npoints *= 2
    else:
        raise ValueError("density too rough: covariance quadrature did not converge")

    if abs(cur[0] - 1.0) > 1e-8:
        raise ValueError(
            f"density is not normalized: Gamma(0) = {cur[0]!r} differs from 1 by more than 1e-8"
        )
    cur = np.clip(cur, -1.0, 1.0)
    cur[0] = 1.0
    return cur


def positivity_bounds(f, grid=1025):
    """(min, max) of the density f.evaluate over a uniform grid on [-pi, pi].

    The grid includes the endpoints and (for odd grid) phi = 0.  Raises
    if the minimum is not strictly positive.
    """
    if grid < 64:
        raise ValueError(f"grid must be at least 64 points, got {grid}")
    phi = np.linspace(-math.pi, math.pi, grid)
    vals = np.asarray(f.evaluate(phi), dtype=float)
    lo, hi = float(vals.min()), float(vals.max())
    if lo <= 0.0:
        raise ValueError(f"density not strictly positive: min over grid is {lo:.3e}")
    return lo, hi

def toeplitz_moments(gamma, n, xs):
    """A, B, C at each x of xs as dense Toeplitz quadratic forms.

    A = v^T T v, B = v^T T w and C = w^T T w with T[k, j] = gamma[|k - j|],
    v_k = x^k and w_k = k x^(k-1), k = 0..n: the covariance double sum
    itself, one matrix product, no FFT.  It runs in np.longdouble, so where
    that type is wider than a double (x86's 80-bit format) its own
    rounding stays far below that of a double-precision code under test.
    """
    k = np.arange(n + 1)
    g = np.asarray(gamma[: n + 1], dtype=np.longdouble)
    T = g[np.abs(k[:, None] - k[None, :])]
    x = np.asarray(xs, dtype=np.longdouble)
    V = x[None, :] ** k[:, None]
    W = np.zeros_like(V)
    W[1:] = k[1:, None] * V[:-1]
    TV, TW = T @ V, T @ W
    return tuple(np.asarray((P * Q).sum(axis=0), dtype=float) for P, Q in ((V, TV), (V, TW), (W, TW)))


def spectral_moments(n, f, x):
    """A, B, C at x (|x| < 1) as integrals of f against the geometric-sum kernels.

    With D(phi) = sum_{k<=n} (x e^{i phi})^k = (1 - (x e^{i phi})^{n+1})/(1 - x e^{i phi}),
    A = int |D|^2 f, B = int Re(conj(D) dD/dx) f and C = int |dD/dx|^2 f
    over [-pi, pi].  Periodic trapezoid rule with grid doubling until the
    triple settles within 1e-11 relative; raises past 2^18 points.
    """
    if abs(x) >= 1.0:
        raise ValueError(f"spectral moments require |x| < 1, got x = {x}")
    npoints = 2048
    prev = None
    while npoints <= 1 << 18:
        phi = -math.pi + 2.0 * math.pi * np.arange(npoints) / npoints
        fvals = np.asarray(f.evaluate(phi), dtype=float)
        s = np.exp(1j * phi)
        num = 1.0 - (x * s) ** (n + 1)
        den = 1.0 - x * s
        D = num / den
        dD = (-(n + 1) * x**n * s ** (n + 1) * den + num * s) / (den * den)
        kernels = (np.abs(D) ** 2, (np.conj(D) * dD).real, np.abs(dD) ** 2)
        cur = np.array([np.dot(k, fvals) for k in kernels]) * (2.0 * math.pi / npoints)
        if prev is not None:
            scale = np.maximum(np.abs(cur), np.abs(cur).max() * 1e-6)
            if np.max(np.abs(cur - prev) / scale) <= 1e-11:
                return float(cur[0]), float(cur[1]), float(cur[2])
        prev = cur
        npoints *= 2
    raise ValueError(f"spectral moments did not converge at x = {x}, n = {n}")


@dataclass(frozen=True)
class MomentTriple:
    """(A, B, C) at a point, possibly in scaled outer form.

    scale_exponent p is 0 for plain values.  For the outer form (x = 1/z,
    p = 2n) the true values are recovered as

        A(1/z) = z^{-p} A,   B(1/z) = -z^{-p+1} B,   C(1/z) = z^{-p+2} C.
    """

    A: float
    B: float
    C: float
    scale_exponent: int = 0

    @property
    def gram(self) -> float:
        return self.A * self.C - self.B * self.B


def edge_moment_approx(n, y, f, side=+1):
    """Arctan forms of A, B, C at x = side * (1 - y) in the near-edge zone.

    With L = log n / log log n the moments are A ~ (2 f / y) arctan(L),
    B ~ side (f / y^2) arctan(L) and C ~ (f / y^3) arctan(L), where f is the
    density at phi = 0 (side = +1) or phi = pi (side = -1).  Valid for
    log log n / n < y < 1/log n; raises outside that zone.
    """
    if side not in (+1, -1):
        raise ValueError(f"side must be +1 or -1, got {side}")
    lo = math.log(math.log(n)) / n
    hi = 1.0 / math.log(n)
    if not lo < y < hi:
        raise ValueError(f"y = {y} outside the edge zone ({lo:.3e}, {hi:.3e}) for n = {n}")
    phi = 0.0 if side == +1 else math.pi
    fv = float(np.asarray(f.evaluate(np.array([phi])))[0])
    at = math.atan(math.log(n) / math.log(math.log(n)))
    return MomentTriple(A=2.0 * fv / y * at, B=side * fv / (y * y) * at, C=fv / y**3 * at)


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

    e needs .n and .level; m is a MomentTriple, with scale_exponent 0 for
    a plain triple and 2n for the scaled outer triple at x = 1/z.  Plain
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


def edelman_kostlan_density(n, x, dps=80):
    """Exact density of real roots at x for independent coefficients (K = 0).

    Edelman and Kostlan's closed form
        (1/pi) sqrt(1/(1 - x^2)^2 - (n + 1)^2 x^(2n) / (1 - x^(2n+2))^2),
    evaluated in mpmath at dps digits for the float x taken exactly.  Near
    x = +-1 each term is about 1/(4 (1 - |x|)^2) and their difference about
    (n + 1)^2 / 12, so the default 80 digits leave more than 40 for the
    result whenever 1 - |x| >= 1e-16.
    """
    import mpmath

    with mpmath.workdps(dps):
        x = mpmath.mpf(float(x))
        m = n + 1
        gap = 1 / (1 - x * x) ** 2 - m * m * x ** (2 * n) / (1 - x ** (2 * m)) ** 2
        return float(mpmath.sqrt(gap) / mpmath.pi)
