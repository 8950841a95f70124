"""Command-line front end.

Subcommands:

* compute  -- Kac-Rice quadrature values for (n, K, model, intervals)
* simulate -- Monte Carlo estimates for the same parameters
* compare  -- both, with z-scores (mc - quadrature) / mc_err; a row whose
              legs disagree beyond their errors is flagged
* sweep    -- crossing table over an n-list plus a log-slope summary

Every command builds its rows in one loop: for each n it sets K = K(n),
draws one Monte Carlo batch for simulate and compare, and writes one row
per interval.  Flags lie over the fields of a --config JSON object: n,
model, k, k_rule, interval (or intervals), tol, count, seed, counter and
output.  Null means unset, and an unknown field or a bad value exits 2
naming it.  K(n) comes from --k-rule, then --k, then the config's k_rule,
then its k, then 0; 'fixed:K' and 'growing:c' rules apply to every
command.  Output is CSV (fixed column order, 17 significant digits) or
strict JSON records with identical field names (an infinite interval
bound is the string "-inf" or "inf", any other non-finite number null).
Intervals use 'a..b' with -inf/inf tokens; degrees use 'start:stop:x2'
(dyadic) or comma lists, each >= 1 and strictly ascending.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass

from .asymptotics import fit_log_slope, interval_prediction
from .montecarlo import COUNTERS, estimate_crossings_per_interval
from .moments import PolynomialEnsemble
from .quadrature import IntervalSpec, expected_crossings
from .spectrum import CovarianceModel

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _parse_n_spec(text: str) -> list[int]:
    """Degrees from a comma list or a sweep 'start:stop:xF': each >= 1, strictly ascending."""
    if ":" in text:
        start_s, stop_s, step_s = text.split(":")
        if not step_s.startswith("x"):
            raise ValueError(f"n sweep step must look like 'x2', got {step_s!r}")
        start, stop, factor = int(start_s), int(stop_s), int(step_s[1:])
        if factor < 2:
            raise ValueError("n sweep factor must be >= 2")
        if stop < start:
            raise ValueError(f"n sweep {text!r} is empty: stop {stop} < start {start}")
        ns = [start]  # a start below 1 never grows past stop; the check below names it
        while start >= 1 and ns[-1] * factor <= stop:
            ns.append(ns[-1] * factor)
    else:
        ns = [int(tok) for tok in text.split(",")]
    if min(ns) < 1:
        raise ValueError(f"degree must be >= 1, got {min(ns)}")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"degrees must be strictly ascending, got {text!r}")
    return ns


def _parse_k_rule(text: str, n_list: list[int]) -> Callable[[int], float]:
    """n -> K from 'fixed:K' (or a bare number) or 'growing:c', K(n) = c sqrt(n/loglog n)/log n.

    The growing rule needs log log n > 0, so the smallest n of n_list must be at least 3.
    """
    name, _, arg = text.partition(":")
    if name == "growing":
        c = float(arg)
        if n_list[0] < 3:
            raise ValueError(f"growing:c needs log log n > 0, so n >= 3; got n = {n_list[0]}")
        return lambda n: c * math.sqrt(n / math.log(math.log(n))) / math.log(n)
    return _fixed_level(arg if name == "fixed" else text)


def _fixed_level(value) -> Callable[[int], float]:
    level = float(value)
    return lambda n: level


@dataclass
class RunConfig:
    command: str
    n_list: list
    k_rule: Callable[[int], float]
    model_text: str
    intervals: list
    tol: float
    count: int
    seed: int
    counter: str
    fmt: str
    output: str | None


def _json_value(key: str, value):
    """value as strict JSON: an infinite interval bound as the token "-inf"
    or "inf" that --interval reads, any other non-finite float as null."""
    if not isinstance(value, float) or math.isfinite(value):
        return value
    if key in ("interval_lo", "interval_hi") and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return None


def _emit(rows: list[dict], fmt: str, out, comments: list[str] = ()) -> None:
    """Write rows, whose keys are the columns in output order, as CSV or JSON."""
    if fmt == "json":
        rows = [{k: _json_value(k, v) for k, v in row.items()} for row in rows]
        out.write(json.dumps({"rows": rows, "summary": list(comments)}, indent=2, allow_nan=False))
        out.write("\n")
        return
    out.write(",".join(rows[0]) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row.values()) + "\n")
    for line in comments:
        out.write(f"# {line}\n")


METHODS = {"compute": "kac_rice", "sweep": "kac_rice", "simulate": "monte_carlo", "compare": "compare"}


# -ln P(|Z| > 5), about 14.4: (1 - p)^count <= P(|Z| > 5) once p >= this / count
_ZERO_SE_RATE = -math.log(math.erfc(5.0 / math.sqrt(2.0)))


def _legs_disagree(mc, quad) -> bool:
    """Whether the Monte Carlo and quadrature legs of a compare row disagree.

    They do when |mc - quad| > 5 sqrt(SE^2 + abs_err^2).  When SE = 0, every
    sample gave the same count, and they do when |mc - quad| > _ZERO_SE_RATE
    / count + 5 abs_err: if a fraction p >= _ZERO_SE_RATE / count of the
    samples counted otherwise, all would agree about as rarely as a normal
    estimate strays 5 SE.
    """
    gap = abs(mc.mean - quad.value)
    if mc.std_error > 0:
        return gap > 5.0 * math.hypot(mc.std_error, quad.abs_err)
    return mc.count > 0 and gap > _ZERO_SE_RATE / mc.count + 5.0 * quad.abs_err


def _table(cfg: RunConfig) -> list[dict]:
    """One row per (n, interval): quadrature, a Monte Carlo estimate, or both for compare.

    Each degree's Monte Carlo batch is drawn once and counted on every interval.
    """
    model = CovarianceModel.parse(cfg.model_text)
    sampled = cfg.command in ("simulate", "compare")
    rows = []
    for n in cfg.n_list:
        K = cfg.k_rule(n)
        ens = PolynomialEnsemble(n=n, model=model, level=K)
        mcs = (estimate_crossings_per_interval(ens, cfg.intervals, count=cfg.count,
                                               seed=cfg.seed, counter=cfg.counter)
               if sampled else [None] * len(cfg.intervals))
        for spec, mc in zip(cfg.intervals, mcs):
            quad = None if cfg.command == "simulate" else expected_crossings(ens, spec, tol=cfg.tol)
            value, err = (mc.mean, mc.std_error) if sampled else (quad.value, quad.abs_err)
            pred = interval_prediction(n, K, spec, model)
            row = {
                "n": n, "K": K, "model": model.label,
                "interval_lo": spec.lo, "interval_hi": spec.hi,
                "method": METHODS[cfg.command],
                "value": value, "err": err,
                "f1_part": quad.f1_part if quad else None,
                "f2_part": quad.f2_part if quad else None,
                "prediction": pred,
                "ratio": value / pred if pred else None,
            }
            flagged = any(est.flagged for est in (quad, mc) if est)
            if cfg.command == "compare":
                row["quad_value"] = quad.value
                row["z"] = (mc.mean - quad.value) / mc.std_error if mc.std_error > 0 else None
                flagged = flagged or _legs_disagree(mc, quad)
            row["flagged"] = flagged
            rows.append(row)
    return rows


def _slope_lines(cfg: RunConfig, rows: list[dict]) -> list[str]:
    """The log-slope fit of each interval's values, for intervals with at least 4 degrees.

    The target is the slope of the same fit over the rows' predictions, and
    is empty when any row has none.
    """
    lines = []
    for i, spec in enumerate(cfg.intervals):
        sub = rows[i::len(cfg.intervals)]
        if len(sub) >= 4:
            ns = [r["n"] for r in sub]
            slope, intercept, resid = fit_log_slope(ns, [r["value"] for r in sub])
            preds = [r["prediction"] for r in sub]
            target = None if None in preds else fit_log_slope(ns, preds)[0]
            lines.append(
                f"interval {spec}: slope={_fmt(slope)} intercept={_fmt(intercept)} "
                f"max_resid={_fmt(resid)} target={_fmt(target)}"
            )
    return lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levelcross",
        description="Expected K-level crossings of random polynomials "
                    "with stationary dependent Gaussian coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("compute", "simulate", "compare", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--n", help="degree, comma list, or dyadic sweep 'a:b:x2'")
        p.add_argument("--model", help="independent | geometric:RHO | raised_cosine | "
                                        "constant:RHO | custom_fourier:G0,G1,...")
        p.add_argument("--k", type=float, default=None, help="crossing level K")
        p.add_argument("--interval", action="append",
                       help="interval 'a..b' (-inf/inf allowed); repeatable")
        p.add_argument("--tol", type=float, help="quadrature error target (default 1e-6)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", help="output path (default stdout)")
        if name in ("simulate", "compare"):
            p.add_argument("--count", type=int, help="Monte Carlo samples (default 1000)")
            p.add_argument("--seed", type=int, help="master seed (default 0)")
            p.add_argument("--counter", choices=COUNTERS, help="root counter (default auto)")
        if name == "sweep":
            p.add_argument("--k-rule", dest="k_rule",
                           help="'fixed:K' or 'growing:c' (K(n)=c*sqrt(n/loglog n)/log n)")
    return parser


def _integer(value) -> int:
    """int(value), refusing to truncate a fractional number."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _seed(value) -> int:
    """A generator key: an integer in [0, 2**128)."""
    seed = _integer(value)
    if not 0 <= seed < 2**128:
        raise ValueError(f"expected an integer in [0, 2**128), got {seed}")
    return seed


def _counter(value) -> str:
    if value not in COUNTERS:
        raise ValueError(f"expected one of {', '.join(COUNTERS)}, got {value!r}")
    return value


def _typed(key, convert, value):
    """convert(value), None kept; a wrong JSON type or a bad value names its field."""
    if value is None:
        return None
    if isinstance(value, (bool, list, dict)):
        raise ValueError(f"{key}: expected a number or a string, got {json.dumps(value)}")
    try:
        return convert(value)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


# config field -> (converter, default); n, model, K and the intervals are resolved on their own
_FIELDS = {"tol": (float, 1e-6), "count": (_integer, 1000), "seed": (_seed, 0),
           "counter": (_counter, "auto"), "output": (str, None)}


def _load_config(args) -> RunConfig:
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config: expected a JSON object, got {type(file_cfg).__name__}")
        unknown = file_cfg.keys() - _FIELDS.keys() - {"n", "model", "k", "k_rule", "interval", "intervals"}
        if unknown:
            raise ValueError(f"config: unknown field {', '.join(map(repr, sorted(unknown)))}")
    # flags over the config's set (non-null) fields; a K flag hides both config K fields, so
    # K(n) comes from --k-rule, then --k, then the config's k_rule, then its k, then 0
    given = {key: v for key, v in vars(args).items() if v is not None}
    hidden = ("k", "k_rule") if given.keys() & {"k", "k_rule"} else ()
    fields = {key: v for key, v in file_cfg.items() if v is not None and key not in hidden}
    intervals_raw = given.get("interval") or fields.get("intervals") or fields.get("interval")
    fields.update(given)
    for key, what in (("n", "degree"), ("model", "model")):
        if key not in fields:
            raise ValueError(f"{key}: {what} is required (flag --{key} or config field '{key}')")
    if intervals_raw is None:
        # compare defaults to the inner/outer split, everything else to the line
        intervals_raw = ["-1..1", "1..inf"] if args.command == "compare" else ["-inf..inf"]
    if not isinstance(intervals_raw, list):
        intervals_raw = [intervals_raw]
    if not intervals_raw:
        raise ValueError("intervals: expected at least one interval 'a..b', got []")
    n_list = _typed("n", lambda v: _parse_n_spec(str(v)), fields["n"])
    key = "k_rule" if "k_rule" in fields else "k"
    return RunConfig(
        command=args.command,
        n_list=n_list,
        k_rule=_typed(key, lambda v: _parse_k_rule(str(v), n_list) if key == "k_rule" else _fixed_level(v),
                      fields.get(key, 0.0)),
        model_text=_typed("model", str, fields["model"]),
        intervals=[_typed("intervals", lambda v: IntervalSpec.parse(str(v)), t) for t in intervals_raw],
        fmt=args.format,
        **{f: _typed(f, convert, fields.get(f, default)) for f, (convert, default) in _FIELDS.items()},
    )


def run(cfg: RunConfig) -> int:
    rows = _table(cfg)
    comments = _slope_lines(cfg, rows) if cfg.command == "sweep" else []
    with open(cfg.output, "w") if cfg.output else nullcontext(sys.stdout) as out:
        _emit(rows, cfg.fmt, out, comments)
    return 1 if any(r["flagged"] for r in rows) else 0


def _glue_values(argv: list) -> list:
    """Join '--interval -1..1' into '--interval=-1..1' (likewise --n, --k and
    --k-rule) so argparse does not mistake a value starting with '-', such
    as the bound -1 or the level -2e-3, for an option flag."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok in ("--interval", "--n", "--k", "--k-rule") and i + 1 < len(argv)
                and argv[i + 1].startswith("-")):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_glue_values(list(argv)))
    cfg = None
    try:
        cfg = _load_config(args)
        return run(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        at = f" at n = {','.join(map(str, cfg.n_list))} with count = {cfg.count}" if cfg else ""
        print(f"error: out of memory{at}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
