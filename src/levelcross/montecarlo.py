"""Independent empirical oracle: sample coefficients, count real solutions.

Coefficient vectors are drawn with the exact Toeplitz covariance (via
circulant embedding, FFT-diagonalized, with a dense Cholesky fallback),
the constant-covariance model is realized exactly as
X_k = sqrt(rho) Z + sqrt(1-rho) Y_k, and crossings of P_n(x) = K are
counted per sample.

Two counters are provided:

* count_level_crossings: companion-matrix eigenvalues with acceptance
  thresholding, guarded Newton refinement, and de-duplication.  Exact
  (matches a rational Sturm oracle on small-degree polynomials) but
  O(n^3) per sample.
* count_crossings_bisect_batch: certified sign-change bisection, run on
  the whole sample batch at once, O(n) per evaluation.  One fused Horner
  pass per live interval [a, b] (midpoint m, half-width h) gives P(m),
  P'(m) and the majorants S0, S1, S2 of |P|, |P'|, |P''| on
  [-r, r], r = max(|a|, |b|).  Three certificates retire intervals: no
  root when |P(m)| beats the second-order Taylor bound over [a, b];
  at most one root when |P'(m)| > S2 h, which then counts the sign change
  P(a), P(b); and, on each half after a split, no root when an endpoint
  value exceeds S1 times the width.  A half narrower than 1e-12 (1 + |b|)
  counts its sign change, so tangencies and root pairs closer than that
  count as sign crossings.  For Gaussian samples this equals the
  distinct-root count almost surely.  Used by the estimator at large
  degree for speed; the two counters are cross-checked in the tests.  A
  single polynomial is a batch of one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import FULL_LINE, IntervalSpec
from .spectrum import CovarianceModel, cholesky_factor

_IMAG_ACCEPT = 1e-8    # |imag| threshold for direct acceptance
_IMAG_RESCUE = 1e-6    # candidates up to here kept only if refinement verifies
_DEDUPE = 1e-7         # relative radius for merging root clusters
_RNG_CHUNK = 512       # fixed visitor chunk so draws are scheduling-independent

__all__ = [
    "SampleBatch",
    "MCEstimate",
    "sample_coefficients",
    "count_level_crossings",
    "count_crossings_bisect_batch",
    "estimate_crossings",
    "empirical_covariance",
]


@dataclass(frozen=True)
class SampleBatch:
    """count coefficient vectors of length n+1, from a fixed master seed."""

    seed: int
    coeffs: np.ndarray

    @property
    def count(self) -> int:
        return self.coeffs.shape[0]


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_error: float
    count: int
    interval: IntervalSpec
    rejected_fraction: float = 0.0
    flagged: bool = False
    counts: tuple = ()
    method: str = "monte_carlo"


def _rng(seed: int) -> np.random.Generator:
    # counter-based generator so streams are reproducible and cheap to derive
    return np.random.Generator(np.random.Philox(key=seed))


def _circulant_eigenvalues(model: CovarianceModel, n: int) -> np.ndarray | None:
    """FFT eigenvalues of the padded covariance ring, or None if not PSD."""
    m = 1
    while m < 4 * (n + 1):
        m *= 2
    g = model.covariance(m // 2).as_array(m // 2)
    ring = np.concatenate([g, g[-2:0:-1]])
    lam = np.fft.fft(ring).real
    if lam.min() < -1e-9:
        return None
    return np.clip(lam, 0.0, None)


def sample_coefficients(model: CovarianceModel, n: int, count: int, seed: int) -> SampleBatch:
    """Gaussian coefficient vectors with the model's Toeplitz covariance."""
    if n + 1 < 2:
        raise ValueError(f"need at least 2 coefficients, got n = {n}")
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    rng = _rng(seed)

    if model.kind == "independent":
        out = rng.standard_normal((count, n + 1))
        return SampleBatch(seed=seed, coeffs=out)

    if model.kind == "constant_rho":
        rho = model.rho
        z = rng.standard_normal((count, 1))
        y = rng.standard_normal((count, n + 1))
        return SampleBatch(seed=seed, coeffs=math.sqrt(rho) * z + math.sqrt(1.0 - rho) * y)

    lam = _circulant_eigenvalues(model, n)
    if lam is None:
        # embedding not PSD for these lags: dense Toeplitz factorization
        lower = cholesky_factor(model, n + 1, jitter=1e-12)
        out = np.empty((count, n + 1))
        for start in range(0, count, _RNG_CHUNK):
            stop = min(start + _RNG_CHUNK, count)
            out[start:stop] = rng.standard_normal((stop - start, n + 1)) @ lower.T
        return SampleBatch(seed=seed, coeffs=out)

    m = len(lam)
    scale = np.sqrt(lam / m)
    out = np.empty((count, n + 1))
    pairs_needed = (count + 1) // 2
    written = 0
    while written < 2 * pairs_needed:
        k = min(_RNG_CHUNK, pairs_needed - written // 2)
        z = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
        w = np.fft.fft(scale * z, axis=1)
        block = np.concatenate([w.real[:, : n + 1], w.imag[:, : n + 1]])
        take = min(2 * k, count - written)
        out[written : written + take] = block[:take]
        written += 2 * k
    return SampleBatch(seed=seed, coeffs=out)


def empirical_covariance(batch: SampleBatch, lag: int) -> tuple[float, float]:
    """(estimate, standard error) of Gamma(lag) from a batch."""
    x = batch.coeffs
    if lag == 0:
        prods = np.mean(x * x, axis=1)
    else:
        prods = np.mean(x[:, :-lag] * x[:, lag:], axis=1)
    return float(prods.mean()), float(prods.std(ddof=1) / math.sqrt(len(prods)))


# ---------------------------------------------------------------------------
# companion-matrix counter
# ---------------------------------------------------------------------------


def _trimmed(coeffs, K: float) -> np.ndarray:
    c = np.array(coeffs, dtype=float)
    c[0] -= K
    nz = np.nonzero(c)[0]
    if len(nz) == 0:
        raise ValueError("polynomial is identically zero after level shift")
    return c[: nz[-1] + 1]


def _horner(coeffs_asc: np.ndarray, x: float) -> float:
    acc = 0.0
    for c in coeffs_asc[::-1]:
        acc = acc * x + c
    return acc


def _refine_root(coeffs_asc: np.ndarray, x0: float) -> tuple[float, bool]:
    """Guarded Newton polish; returns (root, backward-error verified)."""
    dcoef = coeffs_asc[1:] * np.arange(1, len(coeffs_asc))
    x = x0
    for _ in range(16):
        p = _horner(coeffs_asc, x)
        dp = _horner(dcoef, x)
        if dp == 0.0 or not math.isfinite(p):
            break
        step = p / dp
        cap = 0.5 * (1.0 + abs(x))
        if abs(step) > cap:
            step = math.copysign(cap, step)
        x -= step
        if abs(step) <= 1e-15 * (1.0 + abs(x)):
            break
    scale = _horner(np.abs(coeffs_asc), abs(x))
    resid = abs(_horner(coeffs_asc, x))
    return x, resid <= 1e-9 * max(scale, 1e-300)


def count_level_crossings(coeffs, K: float = 0.0, spec: IntervalSpec = FULL_LINE) -> int:
    """Distinct real solutions of P(x) = K in [spec.lo, spec.hi).

    Companion-matrix eigenvalues of the level-shifted polynomial; roots
    with small imaginary part are accepted, refined by guarded Newton,
    verified by a relative backward-error test, and de-duplicated.
    May raise numpy.linalg.LinAlgError if the eigensolver fails.
    """
    c = _trimmed(coeffs, K)
    if len(c) == 1:
        return 0
    roots = np.roots(c[::-1])
    re = roots.real
    im = np.abs(roots.imag)
    band = 1.0 + np.abs(re)
    strict = im <= _IMAG_ACCEPT * band
    rescue = ~strict & (im <= _IMAG_RESCUE * band)

    accepted = []
    for r in re[strict]:
        polished, ok = _refine_root(c, r)
        accepted.append(polished if ok else r)
    for r in re[rescue]:
        polished, ok = _refine_root(c, r)
        if ok:
            accepted.append(polished)

    accepted.sort()
    count = 0
    last = None
    for r in accepted:
        if last is not None and r - last <= _DEDUPE * (1.0 + abs(r)):
            continue
        last = r
        if spec.lo <= r < spec.hi:
            count += 1
    return count


# ---------------------------------------------------------------------------
# certified sign-change counter
# ---------------------------------------------------------------------------


_CHUNK_BYTES = 2 << 20   # per chunk: gathered coefficients beside their absolute values


def _fused_pass(table: np.ndarray, col: np.ndarray, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """One Horner pass per point: rows P(x), P'(x), S0(r), S1(r), S2(r).

    table holds one polynomial per column, descending coefficients.  P(x)
    uses the plain Horner order acc*x + c and P'(x) the derivative
    recurrence; S0, S1 and S2 are the majorants sum |a_k| r^k,
    sum k|a_k| r^(k-1) and sum k(k-1)|a_k| r^(k-2), which bound |P|, |P'|
    and |P''| on [-r, r].  The two sides run stacked, the coefficients
    beside their absolute values and x beside r, in chunks whose gathered
    coefficients take about _CHUNK_BYTES.
    """
    d = table.shape[0]
    chunk = max(1, min(len(col), _CHUNK_BYTES // (16 * d)))
    coef = np.empty((d, 2, chunk))
    out = np.empty((5, len(col)))
    for s in range(0, len(col), chunk):
        k = min(chunk, len(col) - s)
        g = coef[:, :, :k]
        # mode="clip" lets take write into the strided view unbuffered
        np.take(table, col[s : s + k], axis=1, out=g[:, 0], mode="clip")
        np.abs(g[:, 0], out=g[:, 1])
        xr = np.stack([x[s : s + k], r[s : s + k]])
        acc0, acc1, acc2 = g[0].copy(), np.zeros_like(xr), np.zeros_like(xr)
        for j in range(1, d):
            acc2 *= xr
            acc2 += acc1
            acc1 *= xr
            acc1 += acc0
            acc0 *= xr
            acc0 += g[j]
        out[:, s : s + k] = acc0[0], acc1[0], acc0[1], acc1[1], 2.0 * acc2[1]
    return out


def _batch_sign_crossings(table: np.ndarray, col: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                          htol: float = 1e-12) -> np.ndarray:
    """Sign crossings of polynomial col[i] on (lo[i], hi[i]), by certified bisection.

    table holds one polynomial per column, descending coefficients, with
    |lo|, |hi| <= 1; returns the counts summed per column.  Each live
    interval [a, b], with midpoint m, half-width h and r = max(|a|, |b|),
    gets one fused evaluation, and with the Horner slack delta = 4 d eps:

    * no root if |P(m)| - delta S0 > (|P'(m)| + delta S1) h + S2 h^2 / 2;
    * at most one root if |P'(m)| - delta S1 > S2 h, which then counts
      the endpoint sign change;
    * otherwise it splits, and a half is dropped when an endpoint value
      exceeds S1 times its width (no root), or counts its sign change
      once its width falls below htol (1 + |b|).
    """
    d = table.shape[0]
    counts = np.zeros(table.shape[1], dtype=np.int64)
    if d < 2:
        return counts
    live = lo < hi
    col, a, b = col[live], lo[live], hi[live]
    fa = _fused_pass(table, col, a, np.abs(a))[0]
    fb = _fused_pass(table, col, b, np.abs(b))[0]
    delta = 4.0 * d * np.finfo(float).eps
    for _ in range(80):
        if len(a) == 0:
            break
        mid = 0.5 * (a + b)
        h = 0.5 * (b - a)
        fm, dfm, s0, s1, s2 = _fused_pass(table, col, mid, np.maximum(np.abs(a), np.abs(b)))
        no_root = np.abs(fm) - delta * s0 > (np.abs(dfm) + delta * s1) * h + 0.5 * s2 * h * h
        monotone = ~no_root & (np.abs(dfm) - delta * s1 > s2 * h)
        np.add.at(counts, col[monotone & ((fa > 0) != (fb > 0))], 1)
        split = ~(no_root | monotone)
        a, b, mid, fa, fb, fm, s1, col = (
            v[split] for v in (a, b, mid, fa, fb, fm, s1, col))

        na, nb, nfa, nfb, ncol = [], [], [], [], []
        for (u, v, fu, fv) in ((a, mid, fa, fm), (mid, b, fm, fb)):
            width = v - u
            certified = np.maximum(np.abs(fu), np.abs(fv)) > s1 * width
            tiny = width <= htol * (1.0 + np.abs(v))
            crossing = tiny & ~certified & ((fu > 0) != (fv > 0))
            np.add.at(counts, col[crossing], 1)
            keep = ~(certified | tiny)
            na.append(u[keep])
            nb.append(v[keep])
            nfa.append(fu[keep])
            nfb.append(fv[keep])
            ncol.append(col[keep])
        a = np.concatenate(na)
        b = np.concatenate(nb)
        fa = np.concatenate(nfa)
        fb = np.concatenate(nfb)
        col = np.concatenate(ncol)
    return counts


def count_crossings_bisect_batch(coeffs: np.ndarray, K: float = 0.0, spec: IntervalSpec = FULL_LINE) -> np.ndarray:
    """Sign crossings of P(x) - K in spec, one count per row of coeffs.

    The parts of spec.parts() run as one bisection: the part in [-1, 1] on
    P itself, and each part beyond +-1 on the reversed polynomial
    z^n P(1/z), over its z = 1/x range.
    """
    c = np.asarray(coeffs, dtype=float)
    m, d = c.shape
    # columns 0..m-1: descending coefficients; m..2m-1: the reversed
    # polynomial, whose descending form is the ascending original
    table = np.empty((d, 2 * m))
    table[:, :m] = c[:, ::-1].T
    table[:, m:] = c.T
    table[-1, :m] -= K
    table[0, m:] -= K
    # one row (lo, hi, transformed) per part, m intervals each
    parts = np.array(spec.parts(), dtype=float).reshape(-1, 3)
    lo, hi, transformed = (np.repeat(v, m) for v in parts.T)
    col = np.tile(np.arange(m), len(parts)) + m * transformed.astype(np.int64)
    counts = _batch_sign_crossings(table, col, lo, hi)
    return counts[:m] + counts[m:]


# ---------------------------------------------------------------------------
# the estimator
# ---------------------------------------------------------------------------


def estimate_crossings(
    e,
    spec: IntervalSpec = FULL_LINE,
    count: int = 1000,
    seed: int = 0,
    counter: str = "auto",
) -> MCEstimate:
    """Monte Carlo mean and standard error of the crossing count.

    counter: "companion", "bisect", or "auto" (companion up to degree 128,
    bisection beyond, where the eigen-solve cost dominates).
    Deterministic for a fixed seed.
    """
    if count < 100:
        raise ValueError(f"need count >= 100 samples, got {count}")
    if counter not in ("auto", "companion", "bisect"):
        raise ValueError(f"unknown counter {counter!r}")
    batch = sample_coefficients(e.model, e.n, count, seed)
    use_bisect = counter == "bisect" or (counter == "auto" and e.n > 128)

    rejected = 0
    if use_bisect:
        counts = count_crossings_bisect_batch(batch.coeffs, e.level, spec)
    else:
        counts = np.empty(count, dtype=np.int64)
        for i in range(count):
            try:
                counts[i] = count_level_crossings(batch.coeffs[i], e.level, spec)
            except np.linalg.LinAlgError:
                counts[i] = -1
                rejected += 1
    valid = counts[counts >= 0]
    mean = float(valid.mean())
    se = float(valid.std(ddof=1) / math.sqrt(len(valid)))
    frac = rejected / count
    return MCEstimate(
        mean=mean,
        std_error=se,
        count=len(valid),
        interval=spec,
        rejected_fraction=frac,
        flagged=frac >= 1e-3,
        counts=tuple(int(v) for v in counts),
        method="monte_carlo/bisect" if use_bisect else "monte_carlo/companion",
    )

