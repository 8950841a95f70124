"""levelcross benchmark: whole CLI invocations through levelcross.cli.main.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
./src.  A run is one process.  It makes one untimed warm-up pass over the
workload's invocations, then repeats timed passes until S seconds have
gone by.  An invocation run twice must print the same bytes both times,
and every output is checked against references independent of the code
under test (Wilkins' expansion, the companion counter, z-scores) outside
the timed window.

--trace 0 reports the end-to-end metrics:
  wall_s       speed-scaled seconds (below) per pass spent in main(argv):
               the mean over the run's timed passes, less the highest and
               the lowest fifth
  setup_s      speed-scaled seconds from spawning a fresh interpreter until
               `import levelcross.cli` returns: the median over
               SETUP_PROBES interpreters
  peak_rss_mb  ru_maxrss of this process
and prints two more that stay out of the JSON result: mc_samples_per_s
(Monte Carlo workloads only) and fail_frac (0 on a correct run), which the
result's attempted and failed fields carry.
--trace 1 alternates traced and untraced passes and reports the per-layer
metrics of tracer.py (means over traced passes) and the tracing overhead.

Speed scaling.  On the machine this was tuned on (2 shared vCPUs, see
BASELINE.md) the same code runs up to 1.8x slower at one time than at
another: each vCPU switches between speeds within fractions of a second,
and slow stretches also last for minutes.  Raw seconds then measure the
host more than the program.  So a run samples the speed the whole time it
measures (SpeedGauge): every PROBE_EVERY seconds a timer signal runs a
fixed probe of about a millisecond (an interpreter loop and small-array
numpy calls; no levelcross code) in the main thread.  Each interval
counts as its raw seconds, less the probes inside it, times PROBE_REF_S
over the mean time of those probes and their two neighbours: the seconds
it would take at the speed at which the probe takes PROBE_REF_S.  The
set-up probes, whose work runs in a child process, are scaled by blocks
of probes run just before and after each.  Raw seconds and probe times
are printed as well.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SETUP_PROBES = 7
TOL = 1e-6  # the CLI's default quadrature tolerance
SWEEP_NS = [256, 512, 1024, 2048]
BISECT_COUNT = 100
BISECT_RECOUNT_ROWS = (0, 1)
COMPARE_COUNT = 300
PROBE_EVERY = 0.1  # seconds between speed probes
PROBE_LOOP = 10_000
PROBE_CALLS = 100
PROBE_REF_S = 1e-3  # the probe's seconds at the speed the scaled seconds assume
BLOCK_PROBES = 30
Z_LIMIT = 5.0

PROBE = (
    "import time\n"
    "import levelcross.cli, levelcross\n"
    "print(repr(time.monotonic()), levelcross.__file__)\n"
)


def wilkins(n: int) -> float:
    """Wilkins (1988): E[N_n] for independent coefficients at K = 0, to O(n^-2)."""
    return 2.0 / math.pi * math.log(n) + 0.6257358072 + 2.0 / (n * math.pi)


def csv_rows(text: str) -> list[dict]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return list(csv.DictReader(lines))


@dataclass
class Workload:
    argvs: Callable[[int], list[list[str]]]  # pass index -> that pass's invocations
    check: Callable[[int, list[str], str], list[str]]  # (index in pass, argv, stdout) -> problems
    mc_samples: int = 0  # Monte Carlo samples counted per pass


# Why each workload exists is recorded in BENCHMARK.json.


def quad_sweep(seed: int) -> Workload:
    # Quadrature is deterministic: the seed does not enter this workload.
    models = [("independent", "fixed:0"), ("geometric:0.5", "fixed:1")]
    n_spec = f"{SWEEP_NS[0]}:{SWEEP_NS[-1]}:x2"
    argvs = [["sweep", "--n", n_spec, "--model", m, "--k-rule", k, "--interval", "-inf..inf"]
             for m, k in models]

    def check(i: int, argv: list[str], out: str) -> list[str]:
        rows = csv_rows(out)
        problems = []
        if [int(r["n"]) for r in rows] != SWEEP_NS:
            problems.append(f"rows for n = {[r['n'] for r in rows]}, expected {SWEEP_NS}")
        for r in rows:
            n, value, err = int(r["n"]), float(r["value"]), float(r["err"])
            if not err <= TOL or r["flagged"] != "0":
                problems.append(f"n = {n}: err = {err:g}, flagged = {r['flagged']}")
            if models[i][0] == "independent" and abs(value - wilkins(n)) > err + 1.0 / n**2:
                problems.append(f"n = {n}: value {value!r} vs Wilkins {wilkins(n)!r}")
        return problems

    return Workload(lambda p: argvs, check)


def mc_bisect(seed: int) -> Workload:
    # The bisection counter's time varies between batches of this count with
    # a coefficient of variation of 11-14%, so pass p draws its own batches,
    # with the CLI seed seed * 1000 + p: a run averages over all its passes.
    models = ["constant:0.5", "independent"]

    def argvs(p: int) -> list[list[str]]:
        return [["simulate", "--n", "512", "--model", m, "--k", "0", "--counter", "bisect",
                 "--count", str(BISECT_COUNT), "--seed", str(seed * 1000 + p),
                 "--interval", "-inf..inf"] for m in models]

    first = seed * 1000  # pass 0's seed, re-drawn and re-counted below
    recount = {m: companion_recount(m, first) for m in models}  # model -> (mean, problems)

    def check(i: int, argv: list[str], out: str) -> list[str]:
        rows = csv_rows(out)
        if len(rows) != 1:
            return [f"{len(rows)} rows, expected 1"]
        value, err = float(rows[0]["value"]), float(rows[0]["err"])
        problems = []
        if int(argv[argv.index("--seed") + 1]) == first:
            mean, problems = recount[models[i]]
            problems = list(problems)
            if rows[0]["value"] != f"{mean:.17g}":
                problems.append(f"mean {rows[0]['value']} differs from the re-drawn batch's {mean!r}")
        if rows[0]["flagged"] != "0":
            problems.append("row flagged")
        if models[i] == "independent" and not abs(value - wilkins(512)) <= Z_LIMIT * err:
            problems.append(f"mean {value!r} is not within {Z_LIMIT} SE of Wilkins {wilkins(512)!r}")
        return problems

    return Workload(argvs, check, mc_samples=BISECT_COUNT * len(models))


def companion_recount(model_text: str, seed: int) -> tuple[float, list[str]]:
    """Re-count a few of the workload's samples with the companion counter.

    estimate_crossings with the workload's seed draws the same coefficient
    rows as the CLI (the first rows of a batch of BISECT_COUNT), and its
    per-sample bisection counts must equal count_level_crossings exactly.
    Returns the batch mean, which the CLI must print, and the mismatches.
    """
    import levelcross as lc

    model = {"constant:0.5": lambda: lc.CovarianceModel.constant(0.5),
             "independent": lc.CovarianceModel.independent}[model_text]()
    est = lc.estimate_crossings(lc.PolynomialEnsemble(n=512, model=model, level=0.0),
                                lc.FULL_LINE, count=BISECT_COUNT, seed=seed, counter="bisect")
    coeffs = lc.sample_coefficients(model, 512, BISECT_COUNT, seed).coeffs
    problems = []
    for row in BISECT_RECOUNT_ROWS:
        exact = lc.count_level_crossings(coeffs[row], 0.0, lc.FULL_LINE)
        if exact != est.counts[row]:
            problems.append(f"sample {row}: bisection {est.counts[row]} vs companion {exact}")
    return est.mean, problems


def mc_compare(seed: int) -> Workload:
    argvs = [["compare", "--n", "50", "--model", "geometric:0.5", "--k", "1",
              "--count", str(COMPARE_COUNT), "--seed", str(seed)]]

    def check(i: int, argv: list[str], out: str) -> list[str]:
        rows = csv_rows(out)
        problems = [] if len(rows) == 2 else [f"{len(rows)} rows, expected 2"]
        for r in rows:
            interval = f"{r['interval_lo']}..{r['interval_hi']}"
            if r["flagged"] != "0":
                problems.append(f"{interval}: row flagged")
            if not abs(float(r["z"] or "nan")) <= Z_LIMIT:
                problems.append(f"{interval}: |z| = {r['z']} > {Z_LIMIT}")
        return problems

    return Workload(lambda p: argvs, check, mc_samples=COMPARE_COUNT * 2)


WORKLOADS = {"quad_sweep": quad_sweep, "mc_bisect": mc_bisect, "mc_compare": mc_compare}


class SpeedGauge:
    """Samples the machine's speed with a fixed probe, to scale intervals to a fixed speed.

    While running (a context manager), a SIGALRM every PROBE_EVERY seconds
    runs the probe in the main thread, between two bytecodes of whatever
    runs there.  An interval's scaled seconds are its raw seconds, less the
    probes run inside it, times PROBE_REF_S over the mean time of those
    probes and the one on either side.  Where the main thread only waits
    for a child process, blocks of probes run before and after instead.
    """

    def __init__(self):
        import numpy as np

        self.row = np.random.default_rng(12345).uniform(-1.0, 1.0, 300)
        self.stamps: list[float] = []  # perf_counter at the end of each probe
        self.costs: list[float] = []  # each probe's seconds
        self.probe_block()  # warm-up
        self.stamps.clear()
        self.costs.clear()

    def probe(self, *_) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOP):  # interpreter
            total += i * i % 7
        acc = self.row
        for _ in range(PROBE_CALLS):  # small-array numpy calls
            acc = 0.5 * acc * self.row + self.row
        end = time.perf_counter()
        self.stamps.append(end)
        self.costs.append(end - start)

    def probe_block(self) -> None:
        for _ in range(BLOCK_PROBES):
            self.probe()

    def __enter__(self) -> "SpeedGauge":
        self.handler = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.handler)

    def scale(self, start: float, end: float, reach: int = 1) -> float:
        """Scaled seconds of the interval from start to end (perf_counter
        stamps), from the probes inside it and `reach` probes on either side."""
        i = bisect.bisect_left(self.stamps, start)
        j = bisect.bisect_right(self.stamps, end)
        busy = math.fsum(self.costs[i:j])
        around = self.costs[max(i - reach, 0):j + reach]
        return (end - start - busy) * PROBE_REF_S / statistics.fmean(around)


@dataclass
class Invocation:
    argv: list[str]
    rc: object  # exit code, or the traceback text if main raised
    out: str
    err: str
    start: float  # perf_counter
    seconds: float
    warnings: list[str]
    scaled: float = 0.0  # seconds at the speed PROBE_REF_S fixes


def invoke(cli, argv: list[str]) -> Invocation:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except (Exception, SystemExit):  # an invocation that raises or exits counts as failed
            rc = traceback.format_exc()
        seconds = time.perf_counter() - start
    return Invocation(argv, rc, out.getvalue(), err.getvalue(), start, seconds, [str(w.message) for w in caught])


def measure_setup(root: Path, env: dict, gauge: SpeedGauge) -> list[float]:
    """Seconds from spawning a fresh interpreter until levelcross.cli is imported.

    Each probe's seconds are speed-scaled by blocks of speed probes run
    before and after it.  Both share one CPU, so that the speed probes see
    the speed the child ran at.  The first probe is discarded: it may
    compile the package's bytecode.
    """
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    try:
        return [probe_setup(root, env, gauge) for _ in range(SETUP_PROBES + 1)][1:]
    finally:
        os.sched_setaffinity(0, affinity)


def probe_setup(root: Path, env: dict, gauge: SpeedGauge) -> float:
    gauge.probe_block()
    start, start_perf = time.monotonic(), time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    stamp, path = proc.stdout.split(maxsplit=1)
    if not Path(path.strip()).resolve().is_relative_to(root / "src"):
        raise RuntimeError(f"probe imported levelcross from {path}, not from {root / 'src'}")
    seconds = float(stamp) - start
    gauge.probe_block()
    return gauge.scale(start_perf, start_perf + seconds, reach=BLOCK_PROBES)


def openblas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def trimmed_mean(values: list[float]) -> float:
    """Mean of the values left after dropping the highest and the lowest fifth."""
    cut = len(values) // 5
    return statistics.fmean(sorted(values)[cut:len(values) - cut])


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4g} q3={q3:.4g} min={min(values):.4g} max={max(values):.4g}"


def timed_passes(cli, workload: Workload, seconds: float, gauge: SpeedGauge,
                 tracer) -> tuple[list, list, list]:
    """Warm-up pass, then passes until `seconds` have gone by.

    The warm-up runs pass 0's invocations, and the timed passes run passes
    0, 1, 2, ...  With a tracer they run 0, 0, 1, 1, ..., alternately
    traced and untraced, so that both see the same inputs, and at least
    two of each.  Returns (warm-up invocations, [(traced, invocations)],
    per-layer metrics of each traced pass).
    """
    def run_pass(p: int, traced: bool) -> list[Invocation]:
        invs = []
        for argv in workload.argvs(p):
            if traced:
                tracer.install()
            try:
                invs.append(invoke(cli, argv))
            finally:
                if traced:
                    tracer.uninstall()
            invs[-1].scaled = gauge.scale(invs[-1].start, invs[-1].start + invs[-1].seconds)
        return invs

    reference = run_pass(0, False)
    passes, layer_passes = [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 0
        if traced:
            tracer.reset()
        p = len(passes) if tracer is None else len(passes) // 2
        passes.append((traced, run_pass(p, traced)))
        if traced:
            layer_passes.append(tracer.pass_metrics())
        enough = tracer is None or len(passes) >= 4
        if enough and time.perf_counter() - start >= seconds:
            return reference, passes, layer_passes


def failures(workload: Workload, reference: list[Invocation], passes: list) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every invocation, warm-up included.

    An invocation fails if it raised or exited non-zero (a flagged row exits
    1), printed other bytes than the first invocation with the same argv
    did, or its output fails the workload's check.
    """
    attempted = failed = 0
    problems: set[str] = set()
    verdicts: dict[tuple, tuple[str, list[str]]] = {}  # argv -> (first output, its problems)
    for invs in [reference] + [invs for _, invs in passes]:
        for i, inv in enumerate(invs):
            argv = inv.argv
            if tuple(argv) not in verdicts:
                verdicts[tuple(argv)] = (inv.out, workload.check(i, argv, inv.out))
            first, bad = verdicts[tuple(argv)]
            bad = list(bad)
            if inv.rc != 0:
                bad.append(f"exit {inv.rc} {inv.err.strip()}")
            if inv.out != first:
                bad.append("output differs from the first run of the same invocation")
            attempted += 1
            failed += bool(bad)
            problems.update(f"{' '.join(argv)}: {b}" for b in bad)
    return attempted, failed, sorted(problems)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "levelcross" / "cli.py").is_file():
        print(f"error: no levelcross sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    gauge = SpeedGauge()
    setup = measure_setup(root, env, gauge) if args.trace == 0 else []

    sys.path.insert(0, str(src))
    import levelcross.cli as cli

    workload = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import EXACT_COUNTERS, UNITS, Tracer

        tracer = Tracer()
    with gauge:
        reference, passes, layer_passes = timed_passes(cli, workload, args.seconds, gauge, tracer)
    attempted, failed, problems = failures(workload, reference, passes)
    correct = failed == 0

    untraced_wall = [sum(inv.scaled for inv in invs) for traced, invs in passes if not traced]
    wall_s = trimmed_mean(untraced_wall)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} timed passes of {len(reference)} invocations")
    for i, argv in enumerate(workload.argvs(0)):
        per = [invs[i].seconds for traced, invs in passes if not traced]
        print(f"  invocation {i}: raw median {statistics.median(per):.4g} s ({quartiles(per)}); "
              f"in pass 0: levelcross {' '.join(argv)}")
    raw_wall = [sum(inv.seconds for inv in invs) for traced, invs in passes if not traced]
    print(f"  raw seconds per pass: median {statistics.median(raw_wall):.4g} s ({quartiles(raw_wall)})")
    print(f"  speed probe: median {statistics.median(gauge.costs) * 1e3:.4g} ms "
          f"(reference {PROBE_REF_S * 1e3:.4g} ms; {quartiles(gauge.costs)})")
    for problem in problems:
        print(f"  FAILED {problem}")
    for warning in sorted({w for invs in [reference] + [i for _, i in passes] for inv in invs
                           for w in inv.warnings}):
        print(f"  warning (recorded, not a failure): {warning}")
    print(f"env: {json.dumps(environment(), sort_keys=True)}")

    if tracer is None:
        metrics = {
            "wall_s": (wall_s, "s", quartiles(untraced_wall)),
            "setup_s": (statistics.median(setup), "s", quartiles(setup)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", ""),
        }
        shown = dict(metrics)
        if workload.mc_samples:
            shown["mc_samples_per_s"] = (workload.mc_samples / wall_s, "1/s", "")
        shown["fail_frac"] = (failed / attempted, "fraction", f"{failed} of {attempted} invocations")
    else:
        layers = {k: statistics.fmean(p[k] for p in layer_passes) for k in layer_passes[0]}
        for key in EXACT_COUNTERS:
            values = sorted({p[key] for p in layer_passes})
            if len(values) > 1:
                correct = False
                print(f"  FAILED work counter {key} differs between repeats: {values}")
        traced_wall = [sum(inv.scaled for inv in invs) for traced, invs in passes if traced]
        layers["trace.overhead_frac"] = trimmed_mean(traced_wall) / wall_s - 1.0
        layers["trace.missing_layers"] = len(tracer.missing)
        for name in sorted(tracer.missing):
            print(f"  missing layer: {name}")
        metrics = shown = {k: (v, UNITS[k], "") for k, v in layers.items()}

    width = max(map(len, shown))
    for name, (value, unit, note) in shown.items():
        print(f"  {name:<{width}}  {value:<22.10g} {unit:<9} {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
