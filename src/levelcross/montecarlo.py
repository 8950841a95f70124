"""Independent empirical oracle: sample coefficients, count real solutions.

Coefficient vectors are drawn with the exact Toeplitz covariance (via
circulant embedding, FFT-diagonalized, on a ring that doubles until it is
PSD), the constant-covariance model is realized exactly as
X_k = sqrt(rho) Z + sqrt(1-rho) Y_k, and crossings of P_n(x) = K are
counted per sample.

Two counters are provided.  Both take a batch of rows and a list of
intervals and return a (rows, intervals) int matrix, and both evaluate
polynomials by one Horner pass, _fused_pass: P(x), P'(x) and the
majorants S0, S1, S2 of |P|, |P'|, |P''| on [-r, r] for every point of a
batch, at about 3 numpy calls per coefficient and 128 bytes of work
memory per point at any degree.

* the companion counter (_companion_counts; count_level_crossings for one
  polynomial): companion-matrix eigenvalues with acceptance thresholding,
  guarded Newton refinement, and de-duplication, where a root within 1e-7
  (1 + |x|) of its predecessor merges into it.  O(n^3) per sample.  It
  matches a rational Sturm oracle on small integer polynomials, triple
  roots included, but (x-1)^4 counts 2 and (x-3)^4 counts 0, unrefused.
  Each sample's verified, distinct real roots are found once and then
  counted on every interval.  The matrices of a batch are solved in
  stacks, and all candidate roots of a stack are polished in one Newton
  pass, whose Horner pass at r = |x| gives the backward-error scale S0,
  or at 1/x on the reversed polynomial where S0 overflows.  A thread pool
  solves the stacks, a thread per CPU of the affinity mask but no more
  than there are stacks; the counts do not depend on the threads.  A
  sample is refused (count -1) when the eigensolver fails on it or a
  real eigenvalue fails the backward-error test after polishing.
* count_crossings_bisect_batch: certified sign-change bisection, run on
  the whole sample batch and every interval at once, O(n) per
  evaluation.  Each live interval [a, b] (midpoint m, half-width h) gets
  one Horner pass at m with r = max(|a|, |b|), and each bisection level
  runs one pass over every live interval.  The coefficient table holds
  each polynomial and its reversal, 32 (n + 1) bytes per sample.  Three
  certificates retire intervals: no root when |P(m)| beats the
  second-order Taylor bound over [a, b]; at most one root when
  |P'(m)| > S2 h, which then counts the sign change P(a), P(b); and, on
  each half after a split, no root when an endpoint value exceeds S1
  times the width.  A half narrower than 1e-12 (1 + |b|) counts its sign
  change, so a multiple root counts rounding noise: 2 for (x-1)^2.  A
  sample whose noise keeps more than 64 (n + 1) intervals live from one
  interval, as at (x-1/2)^3, (x-1)^3 and (x-1)^4, is refused (count -1),
  and so is every sample once n |K| overflows: the bound S1 is then inf.
  Gaussian samples have no multiple root almost surely.  Used by the
  estimator at large degree for speed; the two counters are cross-checked
  in the tests.

estimate_crossings_per_interval draws one batch per (ensemble, seed) and
returns one estimate per interval; estimate_crossings is its one-interval
call.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .quadrature import FULL_LINE, IntervalSpec
from .spectrum import CovarianceModel, ring_spectrum

_IMAG_ACCEPT = 1e-8    # |imag| threshold for direct acceptance
_IMAG_RESCUE = 1e-6    # candidates up to here kept only if refinement verifies
_DEDUPE = 1e-7         # relative radius for merging root clusters
_MIN_WIDTH = 1e-12     # relative width at which a bisection half counts its sign change
_LIVE_PER_COEFF = 64   # bisection refuses an interval with more live descendants than this * d
_RNG_CHUNK = 512       # fixed visitor chunk so draws are scheduling-independent
_CHUNK_BYTES = 2 << 20  # per chunk: a stack of companion matrices, or the
                        # bisection's Horner accumulators
COUNTERS = ("auto", "companion", "bisect")  # the estimator's counter names

__all__ = [
    "SampleBatch",
    "MCEstimate",
    "sample_coefficients",
    "count_level_crossings",
    "count_crossings_bisect_batch",
    "estimate_crossings",
    "estimate_crossings_per_interval",
]


@dataclass(frozen=True)
class SampleBatch:
    """count coefficient vectors of length n+1, one per row of coeffs."""

    coeffs: np.ndarray


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_error: float
    count: int
    rejected_fraction: float = 0.0
    flagged: bool = False
    counts: tuple = ()
    method: str = "monte_carlo"


def _rng(seed: int) -> np.random.Generator:
    # counter-based generator so streams are reproducible and cheap to derive
    return np.random.Generator(np.random.Philox(key=seed))


def _circulant_eigenvalues(model: CovarianceModel, n: int) -> tuple[np.ndarray, int]:
    """FFT eigenvalues of the first PSD covariance ring, and the first ring's size m0.

    The ring doubles from the power of two m0 >= 4(n + 1) while it is not
    PSD, until it holds every nonzero lag (lags m/2..m all zero) and so
    samples the Fourier sum; if that ring fails too, its ValueError goes out.
    """
    m0 = m = 1 << (4 * (n + 1) - 1).bit_length()
    gamma = model.covariance(m // 2)
    while True:
        try:
            lam = np.clip(ring_spectrum(gamma[: m // 2 + 1], m), 0.0, None)
            break
        except ValueError:
            gamma = model.covariance(m)  # the next ring's lags, asked for only now
            if not gamma[m // 2 :].any():
                raise
            m *= 2
    return np.concatenate([lam, lam[-2:0:-1]]), m0


def sample_coefficients(model: CovarianceModel, n: int, count: int, seed: int) -> SampleBatch:
    """Gaussian coefficient vectors with the model's Toeplitz covariance."""
    if n + 1 < 2:
        raise ValueError(f"need at least 2 coefficients, got n = {n}")
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    rng = _rng(seed)

    if model.kind == "independent":
        out = rng.standard_normal((count, n + 1))
        return SampleBatch(coeffs=out)

    if model.kind == "constant_rho":
        rho = model.covariance(1)[1]
        z = rng.standard_normal((count, 1))
        y = rng.standard_normal((count, n + 1))
        return SampleBatch(coeffs=math.sqrt(rho) * z + math.sqrt(1.0 - rho) * y)

    lam, m0 = _circulant_eigenvalues(model, n)
    m = len(lam)
    scale = np.sqrt(lam / m)
    # a grown ring draws fewer rows per block, so a block stays _RNG_CHUNK * m0 numbers
    rows = max(1, _RNG_CHUNK * m0 // m)
    out = np.empty((count, n + 1))
    # each complex draw gives two rows, its real and its imaginary part
    for start in range(0, count, 2 * rows):
        k = min(rows, (count - start + 1) // 2)
        z = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
        w = np.fft.fft(scale * z, axis=1)
        block = np.concatenate([w.real[:, : n + 1], w.imag[:, : n + 1]])
        out[start : start + 2 * k] = block[: count - start]
    return SampleBatch(coeffs=out)


# ---------------------------------------------------------------------------
# the Horner pass both counters share
# ---------------------------------------------------------------------------


def _fused_pass(table: np.ndarray, col: np.ndarray, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """One Horner pass per point: rows P(x), P'(x), S0(r), S1(r), S2(r).

    table[j, 0, i] is coefficient j (descending) of polynomial i, and
    table[j, 1, i] its absolute value.  P(x) uses the plain Horner order
    acc*x + c and P'(x) the derivative recurrence; S0, S1 and S2 are the
    majorants sum |a_k| r^k, sum k|a_k| r^(k-1) and sum k(k-1)|a_k| r^(k-2),
    which bound |P|, |P'| and |P''| on [-r, r].

    The accumulators of both sides sit in one stack acc[i, side, point]:
    acc[1..3] hold the value, first-derivative and half-second-derivative
    sums, at x on side 0 and at r on side 1, and acc[0] receives the next
    coefficient row of every point.  So one Horner step over every point
    is a gather, one multiply and one add, acc[1:] * (x, r) + acc[:3],
    with each sum formed as acc * x + next just as in a separate loop per
    sum: the five rows are bit for bit those of the scalar recurrences.
    Two such stacks, 128 bytes per point whatever the degree, are the work
    memory; points go in chunks of about _CHUNK_BYTES of it.
    """
    chunk = max(1, min(len(col), _CHUNK_BYTES // 128))
    out = np.empty((5, len(col)))
    for s in range(0, len(col), chunk):
        c = col[s : s + chunk]
        xr = np.stack([x[s : s + chunk], r[s : s + chunk]])
        acc, nxt = np.zeros((4, 2, len(c))), np.empty((4, 2, len(c)))
        np.take(table[0], c, axis=1, out=acc[1], mode="clip")
        for j in range(1, table.shape[0]):
            # mode="clip" lets take write into acc[0] directly; "raise" buffers it
            np.take(table[j], c, axis=1, out=acc[0], mode="clip")
            np.multiply(acc[1:], xr, out=nxt[1:])
            nxt[1:] += acc[:3]
            acc, nxt = nxt, acc
        sums = acc[1:]
        out[:, s : s + chunk] = sums[0, 0], sums[1, 0], sums[0, 1], sums[1, 1], 2.0 * sums[2, 1]
    return out


# ---------------------------------------------------------------------------
# companion-matrix counter
# ---------------------------------------------------------------------------


def _polish(table: np.ndarray, col: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Guarded Newton polish of x[i] as a root of polynomial col[i] of table.

    table is _fused_pass's (d, 2, polynomials) table.  Each root takes up to
    16 Newton steps, each capped at (1 + |x|) / 2, and stops early when
    P'(x) = 0, P(x) is not finite, or the step falls to 1e-15 (1 + |x|).
    Returns the roots and whether each passes the relative backward-error
    test |P(x)| <= 1e-9 S0(|x|), S0(r) = sum |a_k| r^k, or where S0(|x|)
    overflows, the same test on the reversed polynomial at 1/x.
    """
    x = x.copy()
    live = np.arange(len(x))
    for _ in range(16):
        if len(live) == 0:
            break
        xl = x[live]
        p, dp = _fused_pass(table, col[live], xl, np.abs(xl))[:2]
        go = (dp != 0.0) & np.isfinite(p)
        live, xl, p, dp = live[go], xl[go], p[go], dp[go]
        step = p / dp
        cap = 0.5 * (1.0 + np.abs(xl))
        step = np.where(np.abs(step) > cap, np.copysign(cap, step), step)
        xl -= step
        x[live] = xl
        live = live[~(np.abs(step) <= 1e-15 * (1.0 + np.abs(xl)))]
    p, _, scale = _fused_pass(table, col, x, np.abs(x))[:3]
    # where |x|^n overflows: the reversed polynomial at 1/x, its sums times |x|^-n
    far = ~np.isfinite(scale)
    z = 1.0 / x[far]
    p[far], _, scale[far] = _fused_pass(table[::-1], col[far], z, np.abs(z))[:3]
    return x, np.abs(p) <= 1e-9 * np.maximum(scale, 1e-300)


def _companion_eigvals(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of each row's companion matrix, in np.roots' layout.

    p holds descending coefficients, one polynomial of degree >= 0 per row,
    with p[:, 0] != 0.  The matrices are solved as one stack; if the
    eigensolver refuses the stack, row by row.  Returns (roots, solved),
    with roots NaN where solved is False.
    """
    rows, d = p.shape[0], p.shape[1] - 1
    a = np.zeros((rows, d, d))
    a[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    a[:, :1, :] = (-p[:, 1:] / p[:, :1])[:, None, :]
    solved = np.ones(rows, dtype=bool)
    try:
        return np.linalg.eigvals(a), solved
    except np.linalg.LinAlgError:
        roots = np.full((rows, d), np.nan, dtype=complex)
        for i in range(rows):
            try:
                roots[i] = np.linalg.eigvals(a[i])
            except np.linalg.LinAlgError:
                solved[i] = False
        return roots, solved


def _count_real_roots(c: np.ndarray, low: int, specs) -> np.ndarray:
    """Companion counts for rows c (ascending, nonzero top) with c[:, :low] == 0.

    Columns follow specs; a refused row reads -1 in every column.
    """
    rows = c.shape[0]
    counts = np.zeros((rows, len(specs)), dtype=np.int64)
    # np.roots strips the low zero coefficients and returns them as roots at 0
    roots, solved = _companion_eigvals(c[:, low:][:, ::-1])
    roots = np.concatenate([roots, np.zeros((rows, low), dtype=complex)], axis=1)
    re = roots.real
    im = np.abs(roots.imag)
    band = 1.0 + np.abs(re)
    strict = im <= _IMAG_ACCEPT * band
    rescue = ~strict & (im <= _IMAG_RESCUE * band)

    row, col = np.nonzero((strict | rescue) & solved[:, None])
    desc = c[:, ::-1].T
    x, ok = _polish(np.stack([desc, np.abs(desc)], axis=1), row, re[row, col])
    # a strict root the polish cannot verify refuses its sample
    refused = ~solved
    refused[row[strict[row, col] & ~ok]] = True
    keep = ok & ~refused[row]
    row, x = row[keep], x[keep]

    order = np.lexsort((x, row))
    row, x = row[order], x[order]
    # a root within the radius of its predecessor in the same row merges into it
    close = np.zeros(len(x), dtype=bool)
    close[1:] = (row[1:] == row[:-1]) & (x[1:] - x[:-1] <= _DEDUPE * (1.0 + np.abs(x[1:])))
    row, x = row[~close], x[~close]

    for j, spec in enumerate(specs):
        counts[:, j] = np.bincount(row[(spec.lo <= x) & (x < spec.hi)], minlength=rows)
    counts[refused] = -1
    return counts


def _workers() -> int:
    """The CPUs this process may run on: the companion counter's thread count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _companion_counts(coeffs: np.ndarray, K: float, specs) -> np.ndarray:
    """Distinct real solutions of P(x) = K per row of coeffs and per interval.

    Each row's roots are found once: companion-matrix eigenvalues of the
    level-shifted polynomial, the candidates with small imaginary part
    polished by guarded Newton and verified by a relative backward-error
    test, then de-duplicated.  Rows go in jobs whose companion matrices
    take at most about _CHUNK_BYTES, each solved as one stack and polished
    in one pass.  The jobs are dealt out to the calling thread and a
    ThreadPoolExecutor, at most one thread per CPU of _workers() in all
    (np.linalg.eigvals releases the GIL) and never more than a batch has
    chunks, so no job is much smaller than a chunk and at most one stack
    per thread is live.  A row's count depends neither on its job nor on
    its thread.  Returns counts of shape (rows, len(specs)); a row reads
    -1 where the eigensolver failed or a strict candidate failed
    verification.
    """
    from concurrent.futures import ThreadPoolExecutor  # here, as it loads logging
    c = np.array(coeffs, dtype=float, ndmin=2)
    c[:, 0] -= K
    nonzero = c != 0.0
    if not nonzero.any(axis=1).all():
        raise ValueError("polynomial is identically zero after level shift")
    d = c.shape[1]
    low = nonzero.argmax(axis=1)
    top = d - 1 - nonzero[:, ::-1].argmax(axis=1)
    counts = np.empty((c.shape[0], len(specs)), dtype=np.int64)
    workers = _workers()
    # rows sharing (low, top) share a companion size; Gaussian rows are one group
    groups, which = np.unique(low * d + top, return_inverse=True)
    jobs = []
    for g, key in enumerate(groups):
        lo_zeros, deg = divmod(int(key), d)
        rows = np.flatnonzero(which == g)
        size = max(deg - lo_zeros, 1)
        parts = -(-len(rows) // max(1, _CHUNK_BYTES // (8 * size * size)))
        # as many threads as the group has chunks, at most, and an equal
        # share for each: 300 rows of 104-row chunks on 2 CPUs make 4 jobs of 75
        w = min(workers, parts)
        parts = -(-parts // w) * w
        jobs += [(part, lo_zeros, deg) for part in np.array_split(rows, min(parts, len(rows)))]

    def run(share):
        with np.errstate(all="ignore"):  # numpy's error state is per thread
            for part, lo_zeros, deg in share:
                counts[part] = _count_real_roots(c[part, : deg + 1], lo_zeros, specs)

    # the caller works a share too, and the pool starts threads only on submit
    w = max(1, min(workers, len(jobs)))
    with ThreadPoolExecutor(max(1, w - 1)) as pool:
        helpers = [pool.submit(run, jobs[k::w]) for k in range(1, w)]
        run(jobs[0::w])
        for helper in helpers:
            helper.result()  # re-raises a helper's error, after the with joins every thread
    return counts


def count_level_crossings(coeffs, K: float = 0.0, spec: IntervalSpec = FULL_LINE) -> int:
    """Distinct real solutions of P(x) = K in [spec.lo, spec.hi).

    The companion counter on a batch of one row.  Returns -1 when the
    polynomial is refused: the eigensolver failed on it, or one of its real
    eigenvalues failed the backward-error test after polishing.
    """
    return int(_companion_counts(coeffs, K, [spec])[0, 0])


# ---------------------------------------------------------------------------
# certified sign-change counter
# ---------------------------------------------------------------------------


def _batch_sign_crossings(table: np.ndarray, col: np.ndarray, lo: np.ndarray,
                          hi: np.ndarray) -> np.ndarray:
    """Sign crossings of polynomial col[i] on (lo[i], hi[i]), by certified bisection.

    table is _fused_pass's (d, 2, polynomials) table, and |lo|, |hi| <= 1;
    returns one count per interval i.  Each live interval [a, b], with
    midpoint m, half-width h and r = max(|a|, |b|), gets one fused
    evaluation, and with the Horner slack delta = 4 d eps:

    * no root if |P(m)| - delta S0 > (|P'(m)| + delta S1) h + S2 h^2 / 2;
    * at most one root if |P'(m)| - delta S1 > S2 h, which then counts
      the endpoint sign change;
    * otherwise it splits, and a half is dropped when an endpoint value
      exceeds S1 times its width (no root), or counts its sign change
      once its width falls below _MIN_WIDTH (1 + |b|).

    Interval i reads -1 once more than _LIVE_PER_COEFF d of its descendants
    are live at one level, as at a multiple root, whose rounding noise
    would otherwise split without bound.
    """
    d = table.shape[0]
    counts = np.zeros(len(lo), dtype=np.int64)
    i = np.flatnonzero(lo < hi)  # each live interval by its index in lo, hi
    a, b = lo[i], hi[i]
    fa = _fused_pass(table, col[i], a, np.abs(a))[0]
    fb = _fused_pass(table, col[i], b, np.abs(b))[0]
    delta = 4.0 * d * np.finfo(float).eps
    for _ in range(80):
        if len(a) == 0:
            break
        refused = np.bincount(i, minlength=len(lo)) > _LIVE_PER_COEFF * d
        if refused.any():
            counts[refused] = -1
            live = ~refused[i]
            i, a, b, fa, fb = i[live], a[live], b[live], fa[live], fb[live]
        mid = 0.5 * (a + b)
        h = 0.5 * (b - a)
        fm, dfm, s0, s1, s2 = _fused_pass(table, col[i], mid, np.maximum(np.abs(a), np.abs(b)))
        no_root = np.abs(fm) - delta * s0 > (np.abs(dfm) + delta * s1) * h + 0.5 * s2 * h * h
        monotone = ~no_root & (np.abs(dfm) - delta * s1 > s2 * h)
        np.add.at(counts, i[monotone & ((fa > 0) != (fb > 0))], 1)
        split = ~(no_root | monotone)
        i, a, b, mid, fa, fb, fm, s1 = (v[split] for v in (i, a, b, mid, fa, fb, fm, s1))
        # both halves of every split interval: all the [a, mid], then all the [mid, b]
        i, s1 = np.concatenate([i, i]), np.concatenate([s1, s1])
        u, v = np.concatenate([a, mid]), np.concatenate([mid, b])
        fu, fv = np.concatenate([fa, fm]), np.concatenate([fm, fb])
        width = v - u
        certified = np.maximum(np.abs(fu), np.abs(fv)) > s1 * width
        tiny = width <= _MIN_WIDTH * (1.0 + np.abs(v))
        np.add.at(counts, i[tiny & ~certified & ((fu > 0) != (fv > 0))], 1)
        keep = ~(certified | tiny)
        i, a, b, fa, fb = i[keep], u[keep], v[keep], fu[keep], fv[keep]
    return counts


def count_crossings_bisect_batch(coeffs: np.ndarray, K: float, specs) -> np.ndarray:
    """Sign crossings of P(x) - K per row of coeffs and per interval of specs.

    Returns counts of shape (rows, len(specs)), as the companion counter
    does; a row that bisection refuses on any part reads -1 in every
    column.  The parts of every spec's parts() run as one bisection over one
    table: the part in [-1, 1] on P itself, and each part beyond +-1 on the
    reversed polynomial z^n P(1/z), over its z = 1/x range.
    """
    c = np.asarray(coeffs, dtype=float)
    m, d = c.shape
    # polynomials m..2m-1: the reversed polynomial, whose descending form is
    # the ascending original, shifted by K; 0..m-1: the same rows reversed,
    # so the descending coefficients of P - K; each beside its absolute value
    table = np.empty((d, 2, 2 * m))
    table[:, 0, m:] = c.T
    table[0, 0, m:] -= K
    table[:, 0, :m] = table[::-1, 0, m:]
    if not table[:, 0, m:].any(axis=0).all():
        raise ValueError("polynomial is identically zero after level shift")
    np.abs(table[:, 0], out=table[:, 1])
    # one row (spec index, lo, hi, transformed) per part, m intervals each
    parts = np.array([(j, *part) for j, spec in enumerate(specs) for part in spec.parts()],
                     dtype=float).reshape(-1, 4)
    lo, hi, transformed = (np.repeat(v, m) for v in parts[:, 1:].T)
    col = np.tile(np.arange(m), len(parts)) + m * transformed.astype(np.int64)
    with np.errstate(over="ignore", invalid="ignore"):  # sums overflow at huge |K|
        crossings = _batch_sign_crossings(table, col, lo, hi).reshape(len(parts), m)
    counts = np.empty((m, len(specs)), dtype=np.int64)
    for j in range(len(specs)):
        counts[:, j] = crossings[parts[:, 0] == j].sum(axis=0)
    counts[(crossings < 0).any(axis=0)] = -1
    return counts


# ---------------------------------------------------------------------------
# the estimator
# ---------------------------------------------------------------------------


def estimate_crossings_per_interval(
    e,
    specs,
    count: int = 1000,
    seed: int = 0,
    counter: str = "auto",
) -> list[MCEstimate]:
    """Monte Carlo mean and standard error of the crossing count, per interval.

    One batch of count samples is drawn for (e, seed) and each sample's
    crossings are counted on every interval of specs, so the estimates are
    those of estimate_crossings on each interval alone.
    counter: "companion", "bisect", or "auto" (companion up to degree 128,
    bisection beyond).  The companion counter refuses a sample whose roots
    it cannot verify, and bisection one at a multiple root; a refused
    fraction of 1e-3 or more flags the estimates.  Under "auto" the refused
    samples are counted again by bisection instead, and method reads
    "monte_carlo/companion+bisect".  Deterministic for a fixed seed.
    """
    if count < 100:
        raise ValueError(f"need count >= 100 samples, got {count}")
    if counter not in COUNTERS:
        raise ValueError(f"unknown counter {counter!r}")
    specs = list(specs)
    coeffs = sample_coefficients(e.model, e.n, count, seed).coeffs
    if counter == "bisect" or (counter == "auto" and e.n > 128):
        counts, method = count_crossings_bisect_batch(coeffs, e.level, specs), "monte_carlo/bisect"
    else:
        counts, method = _companion_counts(coeffs, e.level, specs), "monte_carlo/companion"
        refused = counts[:, 0] < 0  # a refused row reads -1 in every column
        if counter == "auto" and refused.any():
            counts[refused] = count_crossings_bisect_batch(coeffs[refused], e.level, specs)
            method = "monte_carlo/companion+bisect"
    out = []
    for spec, col in zip(specs, counts.T):
        valid = col[col >= 0]
        frac = (count - len(valid)) / count
        mean = se = math.nan  # too few samples left: the estimate is flagged
        if len(valid) > 1:
            mean = float(valid.mean())
            se = float(valid.std(ddof=1) / math.sqrt(len(valid)))
        out.append(MCEstimate(
            mean=mean,
            std_error=se,
            count=len(valid),
            rejected_fraction=frac,
            flagged=frac >= 1e-3,
            counts=tuple(int(v) for v in col),
            method=method,
        ))
    return out


def estimate_crossings(
    e,
    spec: IntervalSpec = FULL_LINE,
    count: int = 1000,
    seed: int = 0,
    counter: str = "auto",
) -> MCEstimate:
    """Monte Carlo estimate on one interval; see estimate_crossings_per_interval."""
    (est,) = estimate_crossings_per_interval(e, [spec], count, seed, counter)
    return est
