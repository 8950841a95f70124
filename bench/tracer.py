"""Per-layer spans for the traced benchmark run.

The tracer wraps levelcross functions from outside, at the module
attribute each caller looks them up by, records one span per call
(layer, start, end, parent) and work counts taken from the arguments and
results, and restores every original on uninstall.  Nothing in the
package itself changes.  A target that no longer exists, or whose counter
no longer fits its signature, is reported as a missing layer instead of
failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np


def _moment_points(args, kwargs, result):
    xs = kwargs["xs"] if "xs" in kwargs else args[2]
    return {"moments.points": int(np.size(xs))}


def _pieces(args, kwargs, result):
    return {"quadrature.panels": len(result.pieces)}


def _samples(args, kwargs, result):
    return {"montecarlo.samples": int(result.coeffs.shape[0])}


def _bisect_rows(args, kwargs, result):
    return {"montecarlo.bisect_rows": int(np.shape(result)[0])}


def _rejected(args, kwargs, result):
    return {"montecarlo.rejected_sum": float(result.rejected_fraction)}


# (module, attribute path, layer, counter).  Each attribute path is where the
# caller on the CLI path resolves the name at call time, so wrapping it there
# sees every call the CLI makes and no others.
TARGETS = [
    ("levelcross.cli", "main", "cli", None),
    ("levelcross.quadrature", "covariance_from_density", "spectrum.covariance", None),
    ("levelcross.quadrature", "moment_arrays", "moments.moment_arrays", _moment_points),
    ("levelcross.quadrature", "KacRiceEvaluator.inner", "quadrature.integrand", None),
    ("levelcross.quadrature", "KacRiceEvaluator.transformed", "quadrature.integrand", None),
    # crossing_table (sweep) calls the quadrature global; compare calls the cli import
    ("levelcross.quadrature", "expected_crossings", "quadrature.panel", _pieces),
    ("levelcross.cli", "expected_crossings", "quadrature.panel", _pieces),
    ("levelcross.cli", "estimate_crossings", "montecarlo.estimator", _rejected),
    ("levelcross.montecarlo", "sample_coefficients", "montecarlo.sample", _samples),
    ("levelcross.montecarlo", "count_level_crossings", "montecarlo.companion", None),
    ("levelcross.montecarlo", "count_crossings_bisect_batch", "montecarlo.bisect", _bisect_rows),
    # _interval_prediction imports theorem_prediction from the module at call time
    ("levelcross.asymptotics", "theorem_prediction", "asymptotics", None),
    ("levelcross.cli", "fit_log_slope", "asymptotics", None),
]


class Tracer:
    """Installs the wrappers and keeps spans and counts in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def install(self) -> None:
        for module_name, path, layer, counter in TARGETS:
            owner_path, _, attr = f"{module_name}.{path}".rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                for part in path.split(".")[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.add(f"{owner_path}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, layer, counter, f"{owner_path}.{attr}"))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _wrap(self, original, layer, counter, name):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [layer, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            counts[f"{layer}.calls"] += 1
            if counter is not None:
                try:
                    for key, value in counter(args, kwargs, result).items():
                        counts[key] += value
                except (IndexError, KeyError, AttributeError, TypeError):
                    self.missing.add(f"{name} (counter)")
            return result

        return wrapper

    def layer_times(self) -> tuple[dict, dict]:
        """(inclusive seconds, self seconds) per layer over the recorded spans.

        Self time is a span's duration minus the durations of its direct
        children; calls are sequential, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i, (layer, start, end, parent) in enumerate(self.spans):
            total[layer] += end - start
            own[layer] += end - start - child[i]
        return total, own

    def pass_metrics(self) -> dict:
        """Per-layer metrics for the spans and counts recorded since reset()."""
        total, own = self.layer_times()
        c = self.counts

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        main_s = total["cli"]
        return {
            "spectrum.covariance_s": total["spectrum.covariance"],
            "spectrum.covariance_calls": c["spectrum.covariance.calls"],
            "moments.moment_arrays_s": total["moments.moment_arrays"],
            "moments.batches": c["moments.moment_arrays.calls"],
            "moments.points": c["moments.points"],
            "moments.us_per_point": ratio(total["moments.moment_arrays"], c["moments.points"], 1e6),
            "quadrature.integrand_self_s": own["quadrature.integrand"],
            "quadrature.integrand_calls": c["quadrature.integrand.calls"],
            "quadrature.panel_self_s": own["quadrature.panel"],
            "quadrature.panels": c["quadrature.panels"],
            "quadrature.rows": c["quadrature.panel.calls"],
            "montecarlo.sample_s": total["montecarlo.sample"],
            "montecarlo.samples": c["montecarlo.samples"],
            "montecarlo.companion_s": total["montecarlo.companion"],
            "montecarlo.companion_calls": c["montecarlo.companion.calls"],
            "montecarlo.companion_ms_per_sample": ratio(
                total["montecarlo.companion"], c["montecarlo.companion.calls"], 1e3),
            "montecarlo.bisect_s": total["montecarlo.bisect"],
            "montecarlo.bisect_ms_per_sample": ratio(
                total["montecarlo.bisect"], c["montecarlo.bisect_rows"], 1e3),
            "montecarlo.estimator_self_s": own["montecarlo.estimator"],
            "montecarlo.rejected_frac": ratio(
                c["montecarlo.rejected_sum"], c["montecarlo.estimator.calls"]),
            "asymptotics.s": total["asymptotics"],
            "cli.self_s": own["cli"],
            "trace.attributed_frac": ratio(main_s - own["cli"], main_s),
        }


UNITS = {
    "spectrum.covariance_s": "s",
    "spectrum.covariance_calls": "count",
    "moments.moment_arrays_s": "s",
    "moments.batches": "count",
    "moments.points": "count",
    "moments.us_per_point": "us",
    "quadrature.integrand_self_s": "s",
    "quadrature.integrand_calls": "count",
    "quadrature.panel_self_s": "s",
    "quadrature.panels": "count",
    "quadrature.rows": "count",
    "montecarlo.sample_s": "s",
    "montecarlo.samples": "count",
    "montecarlo.companion_s": "s",
    "montecarlo.companion_calls": "count",
    "montecarlo.companion_ms_per_sample": "ms",
    "montecarlo.bisect_s": "s",
    "montecarlo.bisect_ms_per_sample": "ms",
    "montecarlo.estimator_self_s": "s",
    "montecarlo.rejected_frac": "fraction",
    "asymptotics.s": "s",
    "cli.self_s": "s",
    "trace.attributed_frac": "fraction",
    "trace.overhead_frac": "fraction",
    "trace.missing_layers": "count",
}

# Work counts that must repeat exactly for fixed inputs and seed.
EXACT_COUNTERS = (
    "moments.points",
    "moments.batches",
    "quadrature.panels",
    "montecarlo.samples",
    "montecarlo.companion_calls",
)
