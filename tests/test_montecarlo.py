"""Tests for coefficient sampling and Monte Carlo crossing counts."""

import math
import os
import resource
import subprocess
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
from numpy.polynomial.polynomial import polyfromroots
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelcross import montecarlo
from levelcross.cli import main
from levelcross.montecarlo import (
    count_crossings_bisect_batch,
    count_level_crossings,
    estimate_crossings,
    estimate_crossings_per_interval,
    sample_coefficients,
)
from levelcross.moments import PolynomialEnsemble
from levelcross.quadrature import FULL_LINE, IntervalSpec, expected_crossings
from levelcross.spectrum import CovarianceModel, ring_spectrum

from oracles import empirical_covariance, fused_pass_reference, polish_reference, sturm_chain, sturm_count


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


# Lags with a nonnegative Fourier sum whose first sampler ring is not PSD at
# n = 1..7, so sample_coefficients grows the ring there (to 64 points).
RING_NOT_PSD = [(1.0 - k / 21.0) * math.cos(0.3 * k) for k in range(21)]


@pytest.mark.parametrize("n", [1, 4, 7])
def test_grown_ring_draws_the_toeplitz_covariance(n):
    model = CovarianceModel.from_fourier(RING_NOT_PSD)
    m0 = 1 << (4 * (n + 1) - 1).bit_length()  # the first ring's size
    with pytest.raises(ValueError):
        ring_spectrum(model.covariance(m0 // 2), m0)
    x = sample_coefficients(model, n, 20_000, seed=7).coeffs
    k = np.arange(n + 1)
    toeplitz = model.covariance(n)[np.abs(k[:, None] - k)]
    se = np.sqrt((1.0 + toeplitz**2) / len(x))  # Var(x_i x_j) = 1 + Gamma(|i - j|)^2
    assert np.all(np.abs(x.T @ x / len(x) - toeplitz) <= 5.0 * se)


def test_ring_that_holds_every_lag_and_is_not_psd_is_refused():
    # 1 + cos(phi) + cos(2 phi) dips to -1/8: no stationary sequence has these
    # lags (from_fourier refuses them), and the ring stops doubling once it
    # holds them all
    model = CovarianceModel("unchecked", lambda m: ((1.0, 0.5, 0.5) + (0.0,) * m)[: m + 1])
    with pytest.raises(ValueError, match="does not define a nonnegative density"):
        sample_coefficients(model, 5, 10, seed=0)


def test_dense_fallback_compare_agrees_with_quadrature(capsys):
    model = "custom_fourier:" + ",".join(repr(g) for g in RING_NOT_PSD)
    code = main(["compare", "--n", "5", "--model", model, "--count", "4000", "--seed", "3"])
    lines = capsys.readouterr().out.splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert code == 0 and len(rows) == 2
    for row in rows:
        assert row["flagged"] == "0" and abs(float(row["z"])) <= 5.0


def test_sampling_seed_reproducible():
    a = sample_coefficients(CovarianceModel.geometric(0.5), 10, 500, seed=11)
    b = sample_coefficients(CovarianceModel.geometric(0.5), 10, 500, seed=11)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)
    c = sample_coefficients(CovarianceModel.geometric(0.5), 10, 500, seed=12)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_sampling_shape():
    batch = sample_coefficients(CovarianceModel.independent(), 7, 40, seed=0)
    assert batch.coeffs.shape == (40, 8)
    with pytest.raises(ValueError, match="need at least 2 coefficients, got n = 0"):
        sample_coefficients(CovarianceModel.independent(), 0, 40, seed=0)
    with pytest.raises(ValueError, match="need count >= 1, got 0"):
        sample_coefficients(CovarianceModel.independent(), 7, 0, seed=0)


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


@pytest.mark.parametrize("count", [
    lambda c: count_level_crossings(c[0], 1.0, IntervalSpec(-1.0, 1.0)),
    lambda c: count_crossings_bisect_batch(c, 1.0, [IntervalSpec(-1.0, 1.0)]),
], ids=["companion", "bisect"])
def test_identically_zero_polynomial_is_refused(count):
    # P - K == 0: no bisection certificate holds anywhere, so it must not start
    with pytest.raises(ValueError, match="identically zero after level shift"):
        count(np.array([[1.0, 0.0, 0.0]]))


@pytest.mark.parametrize("roots, expect", [
    ((0.5, 0.5, 0.5), 1),
    ((1.0, 1.0, 1.0, -2.0), 2),
    ((1.0, 1.0, 2.0, 2.0, 2.0), 2),
])
def test_companion_merges_multiple_roots_as_sturm(roots, expect):
    # a multiple root's eigenvalues scatter; the ones that pass as real count once
    coeffs = polyfromroots(roots)
    assert sturm_count([Fraction(c) for c in coeffs], -math.inf, math.inf) == expect
    assert count_level_crossings(coeffs, 0.0, FULL_LINE) == expect


@pytest.mark.parametrize("roots, simple, expect", [
    ((1.0, 1.0, 1.0), (-2.0, 0.5, 3.0), [3, 1]),
    ((1.0, 1.0, 1.0, 1.0), (-2.0, -0.5, 0.5, 3.0), [4, 2]),
])
def test_bisection_refuses_a_multiple_root_in_bounded_memory(roots, simple, expect):
    # rounding noise at a multiple root used to split without bound, and at
    # (x-1)^4 took memory until the process was killed; a row of simple roots
    # beside it keeps its counts on the line and on [-1, 1)
    code = f"""
import time
import numpy as np
from numpy.polynomial.polynomial import polyfromroots
from levelcross.montecarlo import count_crossings_bisect_batch
from levelcross.quadrature import FULL_LINE, IntervalSpec
rows = np.array([polyfromroots({roots!r}), polyfromroots({simple!r})])
start = time.perf_counter()
counts = count_crossings_bisect_batch(rows, 0.0, [FULL_LINE, IntervalSpec(-1.0, 1.0)])
print(counts.tolist(), time.perf_counter() - start)
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    done = subprocess.run([sys.executable, "-c", code], env=env, preexec_fn=cap,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    counts, seconds = done.stdout.rsplit(" ", 1)
    assert counts == f"{[[-1, -1], expect]}"
    assert float(seconds) < 1.0


def test_bisect_matches_companion_on_gaussian_samples():
    batch = sample_coefficients(CovarianceModel.geometric(0.5), 24, 400, seed=21)
    for spec in (FULL_LINE, IntervalSpec(-1.0, 1.0), IntervalSpec(1.0, math.inf)):
        counts = count_crossings_bisect_batch(batch.coeffs, 0.7, [spec])[:, 0]
        assert len(counts) == len(batch.coeffs)
        for row, got in zip(batch.coeffs, counts):
            assert count_level_crossings(row, 0.7, spec) == got


@pytest.mark.parametrize("lo, hi", [(-1, 1), (0, 1), (-2, 3)])
def test_bisect_accepts_int_bounds(lo, hi):
    batch = sample_coefficients(CovarianceModel.geometric(0.5), 12, 100, seed=4)
    spec = IntervalSpec(lo, hi)
    counts = count_crossings_bisect_batch(batch.coeffs, 0.3, [spec])[:, 0]
    assert counts.tolist() == [count_level_crossings(row, 0.3, spec) for row in batch.coeffs]


def test_interval_with_no_parts_has_no_crossings():
    spec = IntervalSpec(1e308, 1.0000000000000002e308)  # 1/lo == 1/hi
    batch = sample_coefficients(CovarianceModel.independent(), 6, 5, seed=1)
    assert count_crossings_bisect_batch(batch.coeffs, 0.0, [spec])[:, 0].tolist() == [0] * 5
    assert expected_crossings(_ens(6), spec).value == 0.0


def _from_roots(*roots):
    """Ascending real coefficients of prod (x - r); complex roots come in pairs."""
    return np.real(np.poly(roots))[::-1].copy()


EDGE_SPECS = (FULL_LINE, IntervalSpec(-1.0, 1.0), IntervalSpec(1.0, math.inf),
              IntervalSpec(-2.0, 3.0), IntervalSpec(-math.inf, -0.5))


@pytest.mark.parametrize("K", [0.0, 1.5])
def test_nonzero_constant_has_no_crossings(K):
    # degree 0 after the level shift: one coefficient, tiny, subnormal or huge
    rows = np.array([[1e-300], [5e-324], [-1e308], [K + 2.0]])
    zeros = np.zeros((len(rows), len(EDGE_SPECS)), dtype=np.int64)
    np.testing.assert_array_equal(count_crossings_bisect_batch(rows, K, EDGE_SPECS), zeros)
    np.testing.assert_array_equal(montecarlo._companion_counts(rows, K, EDGE_SPECS), zeros)


# Real roots are non-dyadic, so none lands on a bisection midpoint.
@pytest.mark.parametrize("real_roots, other_roots", [
    ((0.3, 0.30001, -0.45), (0.2 + 0.9j, 0.2 - 0.9j)),   # a pair 1e-5 apart
    ((0.999, -0.37), (0.6 + 0.1j, 0.6 - 0.1j)),          # a root beside the +-1 seam
    ((1.7, 0.13, -0.71), (-3.1 + 1j, -3.1 - 1j)),        # a root beyond 1
    ((-0.61, 1.3), ()),                                 # degree 2: P'' is constant
    ((-2.3,), ()),                                      # degree 1: P'' is zero
    ((0.41,), ()),
])
def test_bisect_counts_deterministic_roots(real_roots, other_roots):
    coeffs = _from_roots(*real_roots, *other_roots)
    for spec in EDGE_SPECS:
        expect = sum(spec.lo <= r < spec.hi for r in real_roots)
        (got,) = count_crossings_bisect_batch(coeffs[None, :], 0.0, [spec])[:, 0]
        assert got == expect, f"roots {real_roots} on {spec}"
        assert count_level_crossings(coeffs, 0.0, spec) == expect


SMALL_CHUNK = 128 * 37  # _CHUNK_BYTES for 37 points: one pass spans several chunks


@pytest.mark.parametrize("chunk_bytes", [None, SMALL_CHUNK])
@pytest.mark.parametrize("d", [2, 3, 9, 65, 513])
def test_fused_pass_equals_reference_bit_for_bit(monkeypatch, d, chunk_bytes):
    if chunk_bytes:
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(d)
    # coefficients over six decades, so that rounding differs from step to step
    table = rng.standard_normal((d, 7)) * 10.0 ** rng.integers(-3, 4, (d, 7))
    col = rng.integers(0, 7, 300)
    x = rng.uniform(-1.0, 1.0, 300)
    r = np.maximum(np.abs(x), rng.uniform(0.0, 1.0, 300))
    got = montecarlo._fused_pass(np.stack([table, np.abs(table)], axis=1), col, x, r)
    want = fused_pass_reference(table, col, x, r)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_bisect_counts_do_not_depend_on_chunking(monkeypatch):
    batch = sample_coefficients(CovarianceModel.geometric(0.5), 64, 150, seed=3)
    want = [count_crossings_bisect_batch(batch.coeffs, 0.7, [spec])[:, 0].tolist() for spec in EDGE_SPECS]
    monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", SMALL_CHUNK)
    got = [count_crossings_bisect_batch(batch.coeffs, 0.7, [spec])[:, 0].tolist() for spec in EDGE_SPECS]
    assert got == want


@pytest.mark.parametrize("n", [1, 2, 3, 8, 30, 64])
def test_bisect_matches_companion_sweep(n):
    batch = sample_coefficients(CovarianceModel.geometric(0.5), n, 150, seed=100 + n)
    for K in (0.0, 0.7, 3.0):
        for spec in EDGE_SPECS:
            counts = count_crossings_bisect_batch(batch.coeffs, K, [spec])[:, 0]
            expect = [count_level_crossings(row, K, spec) for row in batch.coeffs]
            assert counts.tolist() == expect, f"n = {n}, K = {K}, {spec}"


@pytest.mark.parametrize("n", [8, 30, 64])
def test_bisect_counts_all_intervals_in_one_call_as_companion(n):
    batch = sample_coefficients(CovarianceModel.independent(), n, 200, seed=300 + n)
    for K in (0.0, 1.5):
        got = count_crossings_bisect_batch(batch.coeffs, K, EDGE_SPECS)
        assert got.shape == (len(batch.coeffs), len(EDGE_SPECS))
        np.testing.assert_array_equal(got, montecarlo._companion_counts(batch.coeffs, K, EDGE_SPECS))


def _check_polish_against_reference(monkeypatch):
    """Patch the companion counter's polish to compare each call with the reference.

    Returns the list of (candidates, verdicts agree, worst |x - reference| /
    (eps (1 + |reference|))) for the calls made while the patch is on.
    """
    polish, seen = montecarlo._polish, []

    def checked(table, col, x):
        got, ok = polish(table, col, x)
        want, want_ok = polish_reference(np.ascontiguousarray(table[::-1, 0][:, col]), x)
        err = np.abs(got - want) / (np.finfo(float).eps * (1.0 + np.abs(want)))
        seen.append((len(x), np.array_equal(ok, want_ok), float(err.max(initial=0.0))))
        return got, ok

    monkeypatch.setattr(montecarlo, "_polish", checked)
    return seen


@pytest.mark.parametrize("n, model, K", [
    (50, CovarianceModel.geometric(0.5), 1.0),
    (64, CovarianceModel.independent(), 3.0),
])
def test_polish_matches_reference_on_criterion_5_batch(monkeypatch, n, model, K):
    # every tenth sample of criterion 5's batch, for time
    coeffs = sample_coefficients(model, n, 10**4, seed=7).coeffs[::10]
    seen = _check_polish_against_reference(monkeypatch)
    montecarlo._companion_counts(coeffs, K, [FULL_LINE])
    assert sum(m for m, _, _ in seen) > 2000
    assert all(agree and err <= 4.0 for _, agree, err in seen), seen


def test_polish_matches_reference_on_repeated_integer_roots(monkeypatch):
    # criterion 10's polynomials, keeping those whose gcd with P' is not constant
    rng = np.random.default_rng(20260826)
    repeated, total = [], 0
    while total < 1000:
        ints = rng.integers(-9, 10, size=int(rng.integers(1, 7)) + 1)
        if ints[-1] == 0 or not np.any(ints):
            continue
        frac = [Fraction(int(c)) for c in ints]
        try:
            sturm_count(frac, Fraction(-201, 2), Fraction(201, 2))
        except ValueError:
            continue
        total += 1
        if len(sturm_chain(frac)[-1]) > 1:
            repeated.append(ints.astype(float))
    assert repeated
    seen = _check_polish_against_reference(monkeypatch)
    for coeffs in repeated:
        count_level_crossings(coeffs, 0.0, FULL_LINE)
    assert all(agree and err <= 4.0 for _, agree, err in seen), seen


def _mixed_shape_batch():
    """Rows of four (low, top) shapes at n = 30, K = 0.5: some with zero low
    coefficients after the level shift, some with zero top coefficients."""
    coeffs = sample_coefficients(CovarianceModel.geometric(0.5), 30, 200, seed=21).coeffs
    coeffs[1::2, -3:] = 0.0  # rows 1 and 3 mod 4: degree 27
    for start in (2, 3):
        coeffs[start::4, :2] = 0.5, 0.0  # rows 2 and 3 mod 4: two roots at 0
    return coeffs, 0.5


@pytest.mark.parametrize("batch", ["geometric_n50", "independent_n64", "mixed_shapes"])
def test_companion_counts_do_not_depend_on_workers_or_chunking(monkeypatch, batch):
    # criterion 5's two shapes (300 of its samples each), and a batch of mixed (low, top)
    if batch == "mixed_shapes":
        coeffs, K = _mixed_shape_batch()
    else:
        n, model, K = {"geometric_n50": (50, CovarianceModel.geometric(0.5), 1.0),
                       "independent_n64": (64, CovarianceModel.independent(), 3.0)}[batch]
        coeffs = sample_coefficients(model, n, 300, seed=7).coeffs
    monkeypatch.setattr(montecarlo, "_workers", lambda: 1)
    want = montecarlo._companion_counts(coeffs, K, EDGE_SPECS)
    count_real_roots, threads = montecarlo._count_real_roots, set()

    def recorded(*args):
        threads.add(threading.current_thread())
        return count_real_roots(*args)

    monkeypatch.setattr(montecarlo, "_count_real_roots", recorded)
    switch, active = sys.getswitchinterval(), threading.active_count()
    sys.setswitchinterval(1e-5)  # threads trade the interpreter lock often
    try:
        for chunk_bytes in (montecarlo._CHUNK_BYTES, 3 * 8 * 64 * 64):  # the latter: a few rows a job
            monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", chunk_bytes)
            for workers in (1, 2, 3):
                monkeypatch.setattr(montecarlo, "_workers", lambda: workers)
                threads.clear()
                got = montecarlo._companion_counts(coeffs, K, EDGE_SPECS)
                assert np.array_equal(got, want), (chunk_bytes, workers)
                assert len(threads) == workers
                assert threading.active_count() == active  # every helper thread has ended
    finally:
        sys.setswitchinterval(switch)


def test_companion_counts_one_row_starts_no_thread(monkeypatch):
    monkeypatch.setattr(montecarlo, "_workers", lambda: 3)
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
    assert count_level_crossings(np.array([-1.0, 0.0, 1.0]), 0.0, FULL_LINE) == 2
    assert started == []


def test_companion_jobs_do_not_shrink_with_the_cpu_count(monkeypatch):
    # mc_compare's batch: 300 rows at n = 50 fill three 104-row chunks; many
    # CPUs must not cut it into tiny jobs, each paying the polish's fixed cost
    coeffs = sample_coefficients(CovarianceModel.geometric(0.5), 50, 300, seed=1).coeffs
    count_real_roots, jobs = montecarlo._count_real_roots, []

    def recorded(c, *args):
        jobs.append((threading.current_thread(), len(c)))
        return count_real_roots(c, *args)

    monkeypatch.setattr(montecarlo, "_count_real_roots", recorded)
    for workers, sizes in ((1, [100, 100, 100]), (2, [75, 75, 75, 75]), (3, [100, 100, 100]),
                           (64, [100, 100, 100])):
        monkeypatch.setattr(montecarlo, "_workers", lambda: workers)
        jobs.clear()
        montecarlo._companion_counts(coeffs, 1.0, EDGE_SPECS)
        assert sorted(size for _, size in jobs) == sizes, workers
        assert len({thread for thread, _ in jobs}) == min(workers, 3)


def test_companion_worker_exception_reaches_the_caller(monkeypatch):
    # a job run by a worker thread, not by the caller, raises
    monkeypatch.setattr(montecarlo, "_workers", lambda: 2)
    monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 8 * 20 * 20 * 100)  # 100 rows of n = 20 a chunk
    count_real_roots, caller = montecarlo._count_real_roots, threading.current_thread()

    def failing(*args):
        if threading.current_thread() is not caller:
            raise RuntimeError("injected failure")
        return count_real_roots(*args)

    monkeypatch.setattr(montecarlo, "_count_real_roots", failing)
    coeffs = sample_coefficients(CovarianceModel.independent(), 20, 300, seed=1).coeffs
    active = threading.active_count()
    with pytest.raises(RuntimeError, match="injected failure"):
        montecarlo._companion_counts(coeffs, 0.0, [FULL_LINE])
    assert threading.active_count() == active


def test_workers_falls_back_to_the_cpu_count(monkeypatch):
    # a platform without sched_getaffinity: the same counts, on os.cpu_count() threads
    coeffs = sample_coefficients(CovarianceModel.geometric(0.5), 50, 300, seed=1).coeffs
    want = montecarlo._companion_counts(coeffs, 1.0, EDGE_SPECS)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert montecarlo._workers() == (os.cpu_count() or 1)
    np.testing.assert_array_equal(montecarlo._companion_counts(coeffs, 1.0, EDGE_SPECS), want)


def test_companion_counter_emits_no_warning_from_worker_threads(monkeypatch):
    # at K = 1e8 the polish of n = 128 overflows; every thread must keep it quiet
    monkeypatch.setattr(montecarlo, "_workers", lambda: 3)
    e = _ens(128, level=1e8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimate_crossings(e, FULL_LINE, count=300, seed=5, counter="companion")
    assert est.rejected_fraction == 0.0


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


def test_eigensolver_failure_refuses_only_its_sample(monkeypatch):
    e = _ens(12, CovarianceModel.geometric(0.5), level=0.4)
    clean = estimate_crossings(e, FULL_LINE, count=200, seed=3, counter="companion")
    coeffs = sample_coefficients(e.model, e.n, 200, seed=3).coeffs
    bad = 17
    marker = -coeffs[bad, -2] / coeffs[bad, -1]  # top-left entry of its companion matrix
    eigvals = np.linalg.eigvals

    def failing(a):
        if np.any(np.asarray(a)[..., 0, 0] == marker):
            raise np.linalg.LinAlgError("injected failure")
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    est = estimate_crossings(e, FULL_LINE, count=200, seed=3, counter="companion")
    expect = list(clean.counts)
    expect[bad] = -1
    assert list(est.counts) == expect
    assert est.count == 199
    assert est.rejected_fraction == 1 / 200 and est.flagged


def test_companion_counter_emits_no_warning_at_n128():
    e = _ens(128, CovarianceModel.geometric(0.5), level=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimate_crossings(e, FULL_LINE, count=300, seed=3, counter="companion")
    assert est.rejected_fraction == 0.0


def test_companion_counter_at_huge_level_refuses_or_matches_sturm():
    # At K = 1e60 the level term dwarfs the integer coefficients, and a real
    # eigenvalue whose polish fails the backward-error test refuses its sample.
    rng = np.random.default_rng(60)
    outcomes = []
    for _ in range(8):
        ints = rng.integers(-9, 10, size=51)
        ints[-1] = rng.integers(1, 10)
        coeffs = ints.astype(float)
        frac = [Fraction(c) for c in coeffs]
        frac[0] = Fraction(coeffs[0] - 1e60)  # the level shift as the counter computes it
        expect = sturm_count(frac, -math.inf, math.inf)
        got = count_level_crossings(coeffs, 1e60, FULL_LINE)
        assert got in (-1, expect), f"coeffs={ints.tolist()}"
        outcomes.append(got)
    assert -1 in outcomes


def test_all_samples_refused_gives_flagged_nan_without_warnings():
    e = _ens(50, level=1e150)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimate_crossings(e, FULL_LINE, count=100, seed=1, counter="companion")
    assert est.count == 0 and est.rejected_fraction == 1.0 and est.flagged
    assert math.isnan(est.mean) and math.isnan(est.std_error)


@pytest.mark.parametrize("level, value, code", [("1.7e308", "nan", 1), ("1e306", "1.1000000000000001", 0)])
def test_bisection_at_huge_level_emits_no_warning(capsys, level, value, code):
    # the Horner sums overflow; at 1.7e308 every sample is refused and the row is flagged
    argv = ["simulate", "--n", "50", "--model", "independent", "--k", level, "--counter", "bisect",
            "--count", "100"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == code
    out = capsys.readouterr()
    header, line = out.out.splitlines()
    row = dict(zip(header.split(","), line.split(",")))
    assert (row["value"], row["flagged"], out.err) == (value, str(code), "")


def test_companion_counts_it_accepts_at_huge_level_are_bisections():
    # At K = 1e300 the eigenvalues spread over |x| = 3e4..3e7 and |x|^50
    # overflows, so S0 = inf there; a candidate passes the backward-error
    # test only on the reversed polynomial at 1/x.
    e = _ens(50, level=1e300)
    coeffs = sample_coefficients(e.model, e.n, 300, seed=0).coeffs
    companion = montecarlo._companion_counts(coeffs, e.level, [FULL_LINE])[:, 0]
    bisect = count_crossings_bisect_batch(coeffs, e.level, [FULL_LINE])[:, 0]
    accepted = companion >= 0
    assert accepted.any() and np.array_equal(companion[accepted], bisect[accepted])
    auto = estimate_crossings(e, FULL_LINE, count=300, seed=0, counter="auto")
    assert auto.mean == estimate_crossings(e, FULL_LINE, count=300, seed=0, counter="bisect").mean


@pytest.mark.parametrize("level", [1e60, 1e150])
def test_auto_counter_recounts_refused_samples_by_bisection(level):
    # The companion counter refuses most samples at these levels; under
    # "auto" those samples are counted by bisection, so the estimate answers.
    e = _ens(50, level=level)
    auto = estimate_crossings(e, FULL_LINE, count=200, seed=2, counter="auto")
    bisect = estimate_crossings(e, FULL_LINE, count=200, seed=2, counter="bisect")
    assert auto.method == "monte_carlo/companion+bisect"
    assert not auto.flagged and auto.rejected_fraction == 0.0 and auto.count == 200
    assert auto.counts == bisect.counts

# -- estimator ----------------------------------------------------------------


@pytest.mark.parametrize("counter", ["companion", "bisect"])
def test_per_interval_estimates_match_single_interval_calls(counter):
    e = _ens(40, CovarianceModel.constant(0.5), level=1.5)
    specs = [FULL_LINE, IntervalSpec(0.5, 2.0), IntervalSpec(-1.0, 1.0), IntervalSpec(1.0, math.inf)]
    ests = estimate_crossings_per_interval(e, specs, count=300, seed=9, counter=counter)
    assert len(ests) == len(specs)
    for spec, est in zip(specs, ests):
        assert est == estimate_crossings(e, spec, count=300, seed=9, counter=counter)


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


def test_estimate_rejects_unknown_counter():
    with pytest.raises(ValueError, match="unknown counter 'fast'"):
        estimate_crossings(_ens(5), FULL_LINE, count=100, counter="fast")


def test_constant_model_estimates():
    est = estimate_crossings(_ens(16, CovarianceModel.constant(0.5)), FULL_LINE, count=400, seed=6)
    assert est.mean > 0
    assert est.count == 400

