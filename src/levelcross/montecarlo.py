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
* count_crossings_bisect_batch: certified sign-change bisection with
  interval derivative bounds, run on the whole sample batch at once,
  O(n) per evaluation.  Counts sign crossings, which for Gaussian samples
  equals the distinct-root count almost surely (tangencies have
  probability zero).  Used by the estimator at large degree for speed;
  the two counters are cross-checked in the tests.  A single polynomial
  is a batch of one row.
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
        # embedding not PSD for this density: dense Toeplitz factorization
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


def _heval_rows(desc: np.ndarray, si: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Horner evaluation of row si's descending coefficients at x[i]."""
    acc = desc[si, 0].astype(float)
    for j in range(1, desc.shape[1]):
        acc = acc * x + desc[si, j]
    return acc


def _batch_sign_crossings(desc: np.ndarray, lo: float, hi: float, htol: float = 1e-12) -> np.ndarray:
    """Per-row sign crossings on (lo, hi) by certified bisection.

    desc holds one polynomial per row, descending coefficients.  An
    interval is discarded once an endpoint value exceeds the interval
    derivative bound times its width (no root possible); unresolved
    intervals below the width tolerance contribute their sign change.
    """
    m, d = desc.shape
    counts = np.zeros(m, dtype=np.int64)
    if not lo < hi or d < 2:
        return counts
    asc = desc[:, ::-1]
    dabs_desc = (np.abs(asc[:, 1:]) * np.arange(1, d))[:, ::-1]

    si = np.arange(m)
    a = np.full(m, lo)
    b = np.full(m, hi)
    fa = _heval_rows(desc, si, a)
    fb = _heval_rows(desc, si, b)
    for _ in range(80):
        if len(a) == 0:
            break
        mid = 0.5 * (a + b)
        fm = _heval_rows(desc, si, mid)
        r = np.maximum(np.abs(a), np.abs(b))
        bound = _heval_rows(dabs_desc, si, r)

        na, nb, nfa, nfb, nsi = [], [], [], [], []
        for (u, v, fu, fv) in ((a, mid, fa, fm), (mid, b, fm, fb)):
            width = v - u
            certified = np.maximum(np.abs(fu), np.abs(fv)) > bound * width
            tiny = width <= htol * (1.0 + np.abs(v))
            crossing = tiny & ~certified & ((fu > 0) != (fv > 0))
            np.add.at(counts, si[crossing], 1)
            keep = ~(certified | tiny)
            na.append(u[keep])
            nb.append(v[keep])
            nfa.append(fu[keep])
            nfb.append(fv[keep])
            nsi.append(si[keep])
        a = np.concatenate(na)
        b = np.concatenate(nb)
        fa = np.concatenate(nfa)
        fb = np.concatenate(nfb)
        si = np.concatenate(nsi)
    return counts


def count_crossings_bisect_batch(coeffs: np.ndarray, K: float = 0.0, spec: IntervalSpec = FULL_LINE) -> np.ndarray:
    """Sign crossings of P(x) - K in spec, one count per row of coeffs.

    |x| > 1 is handled through the reversed polynomial at z = 1/x.
    """
    c = np.asarray(coeffs, dtype=float).copy()
    c[:, 0] -= K
    desc = c[:, ::-1]
    total = np.zeros(c.shape[0], dtype=np.int64)
    ilo = max(spec.lo, -1.0)
    ihi = min(spec.hi, 1.0)
    if ilo < ihi:
        total += _batch_sign_crossings(desc, ilo, ihi)
    # reversed polynomial: its descending form is the ascending original
    if spec.hi > 1.0:
        zlo = 0.0 if math.isinf(spec.hi) else 1.0 / spec.hi
        zhi = 1.0 / max(spec.lo, 1.0)
        total += _batch_sign_crossings(c, zlo, zhi)
    if spec.lo < -1.0:
        zlo = 1.0 / min(spec.hi, -1.0)
        zhi = 0.0 if math.isinf(spec.lo) else 1.0 / spec.lo
        total += _batch_sign_crossings(c, zlo, zhi)
    return total


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


def write_counts_csv(est: MCEstimate, fileobj) -> None:
    """Raw per-sample counts as 'sample_index,count' rows (rejected = -1)."""
    fileobj.write("sample_index,count\n")
    for i, v in enumerate(est.counts):
        fileobj.write(f"{i},{v}\n")
