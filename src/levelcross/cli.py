"""Command-line front end.

Subcommands:

* compute  -- Kac-Rice quadrature values for (n, K, model, intervals)
* simulate -- Monte Carlo estimates for the same parameters
* compare  -- both, with z-scores (mc - quadrature) / mc_err
* sweep    -- crossing table over an n-list plus a log-slope summary

Output is CSV (fixed column order, 17 significant digits) or JSON records
with identical field names.  Intervals use 'a..b' with -inf/inf tokens;
n-sweeps use 'start:stop:x2' (dyadic) or comma lists.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from .asymptotics import fit_log_slope, interval_prediction
from .montecarlo import estimate_crossings
from .moments import PolynomialEnsemble
from .quadrature import CrossingRow, IntervalSpec, crossing_table, expected_crossings
from .spectrum import CovarianceModel

COLUMNS = [
    "n", "K", "model", "interval_lo", "interval_hi", "method",
    "value", "err", "f1_part", "f2_part", "prediction", "ratio",
]
COMPARE_EXTRA = ["quad_value", "z"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _parse_n_spec(text: str) -> list[int]:
    if ":" in text:
        start_s, stop_s, step_s = text.split(":")
        if not step_s.startswith("x"):
            raise ValueError(f"n sweep step must look like 'x2', got {step_s!r}")
        start, stop, factor = int(start_s), int(stop_s), int(step_s[1:])
        if factor < 2:
            raise ValueError("n sweep factor must be >= 2")
        out = []
        n = start
        while n <= stop:
            out.append(n)
            n *= factor
        return out
    return [int(tok) for tok in text.split(",")]


def _parse_k_rule(text: str):
    """'fixed:K' (or a bare number) or 'growing:c' for K(n) = c sqrt(n/loglog n)/log n."""
    name, _, arg = text.partition(":")
    if name == "fixed":
        return float(arg)
    if name == "growing":
        c = float(arg)
        return lambda n: c * math.sqrt(n / math.log(math.log(n))) / math.log(n)
    return float(text)


@dataclass
class RunConfig:
    command: str
    n_list: list
    level: float | None
    k_rule_text: str | None
    model_text: str
    intervals: list
    tol: float
    count: int
    seed: int
    counter: str
    fmt: str
    output: str | None


def _row_dict(row: CrossingRow, method: str, err=None, value=None, extra=None) -> dict:
    d = {
        "n": row.n,
        "K": row.level,
        "model": row.model,
        "interval_lo": row.interval.lo,
        "interval_hi": row.interval.hi,
        "method": method,
        "value": row.value if value is None else value,
        "err": row.abs_err if err is None else err,
        "f1_part": row.f1_part,
        "f2_part": row.f2_part,
        "prediction": row.prediction,
        "ratio": row.ratio,
    }
    if extra:
        d.update(extra)
    d["flagged"] = row.flagged
    return d


def _emit(rows: list[dict], columns: list[str], fmt: str, out, comments: list[str] = ()) -> None:
    if fmt == "json":
        out.write(json.dumps({"rows": rows, "summary": list(comments)}, indent=2))
        out.write("\n")
        return
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join(_fmt(row.get(col)) for col in columns) + "\n")
    for line in comments:
        out.write(f"# {line}\n")


def _quadrature_rows(cfg: RunConfig) -> list[dict]:
    model = CovarianceModel.parse(cfg.model_text)
    rows = crossing_table(model, cfg.n_list, cfg.level, cfg.intervals, tol=cfg.tol)
    return [_row_dict(r, "kac_rice") for r in rows]


def _simulate_rows(cfg: RunConfig) -> list[dict]:
    model = CovarianceModel.parse(cfg.model_text)
    out = []
    for n in cfg.n_list:
        ens = PolynomialEnsemble(n=n, model=model, level=cfg.level)
        for spec in cfg.intervals:
            est = estimate_crossings(ens, spec, count=cfg.count, seed=cfg.seed, counter=cfg.counter)
            pred = interval_prediction(n, cfg.level, spec)
            out.append({
                "n": n, "K": cfg.level, "model": model.label,
                "interval_lo": spec.lo, "interval_hi": spec.hi,
                "method": "monte_carlo",
                "value": est.mean, "err": est.std_error,
                "f1_part": None, "f2_part": None,
                "prediction": pred,
                "ratio": est.mean / pred if pred else None,
                "flagged": est.flagged,
            })
    return out


def _compare_rows(cfg: RunConfig) -> list[dict]:
    model = CovarianceModel.parse(cfg.model_text)
    out = []
    for n in cfg.n_list:
        ens = PolynomialEnsemble(n=n, model=model, level=cfg.level)
        for spec in cfg.intervals:
            quad = expected_crossings(ens, spec, tol=cfg.tol)
            mc = estimate_crossings(ens, spec, count=cfg.count, seed=cfg.seed, counter=cfg.counter)
            pred = interval_prediction(n, cfg.level, spec)
            z = (mc.mean - quad.value) / mc.std_error if mc.std_error > 0 else None
            out.append({
                "n": n, "K": cfg.level, "model": model.label,
                "interval_lo": spec.lo, "interval_hi": spec.hi,
                "method": "compare",
                "value": mc.mean, "err": mc.std_error,
                "f1_part": quad.f1_part, "f2_part": quad.f2_part,
                "prediction": pred,
                "ratio": mc.mean / pred if pred else None,
                "quad_value": quad.value, "z": z,
                "flagged": quad.flagged or mc.flagged,
            })
    return out


def _sweep(cfg: RunConfig) -> tuple[list[dict], list[str]]:
    model = CovarianceModel.parse(cfg.model_text)
    k_rule = _parse_k_rule(cfg.k_rule_text) if cfg.k_rule_text else cfg.level
    rows = crossing_table(model, cfg.n_list, k_rule, cfg.intervals, tol=cfg.tol)
    dicts = [_row_dict(r, "kac_rice") for r in rows]
    comments = []
    for spec in cfg.intervals:
        sub = [r for r in rows if r.interval == spec]
        if len(sub) >= 4:
            slope, intercept, resid = fit_log_slope(sub)
            comments.append(
                f"interval {spec}: slope={_fmt(slope)} intercept={_fmt(intercept)} "
                f"max_resid={_fmt(resid)} target={_fmt(1.0 / math.pi)}"
            )
    return dicts, comments


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
            p.add_argument("--counter", choices=("auto", "companion", "bisect"),
                           help="root counter (default auto)")
        if name == "sweep":
            p.add_argument("--k-rule", dest="k_rule",
                           help="'fixed:K' or 'growing:c' (K(n)=c*sqrt(n/loglog n)/log n)")
    return parser


def _load_config(args) -> RunConfig:
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)

    def pick(flag_value, key, default=None):
        """The flag if given, else the config field if set, else the default."""
        if flag_value is not None:
            return flag_value
        value = file_cfg.get(key)
        return default if value is None else value

    n_text = pick(args.n, "n")
    if n_text is None:
        raise ValueError("n: degree is required (flag --n or config field 'n')")
    model_text = pick(args.model, "model")
    if model_text is None:
        raise ValueError("model: model is required (flag --model or config field 'model')")
    intervals_raw = pick(args.interval, "intervals") or pick(None, "interval")
    if intervals_raw is None:
        # compare defaults to the inner/outer split, everything else to the line
        intervals_raw = ["-1..1", "1..inf"] if args.command == "compare" else ["-inf..inf"]
    if isinstance(intervals_raw, str):
        intervals_raw = [intervals_raw]
    level = pick(args.k, "k", 0.0)

    return RunConfig(
        command=args.command,
        n_list=_parse_n_spec(str(n_text)),
        level=float(level),
        k_rule_text=pick(getattr(args, "k_rule", None), "k_rule"),
        model_text=str(model_text),
        intervals=[IntervalSpec.parse(str(t)) for t in intervals_raw],
        tol=float(pick(args.tol, "tol", 1e-6)),
        count=int(pick(getattr(args, "count", None), "count", 1000)),
        seed=int(pick(getattr(args, "seed", None), "seed", 0)),
        counter=str(pick(getattr(args, "counter", None), "counter", "auto")),
        fmt=args.format,
        output=pick(args.output, "output"),
    )


def run(cfg: RunConfig) -> int:
    comments: list[str] = []
    if cfg.command == "compute":
        rows = _quadrature_rows(cfg)
        columns = COLUMNS + ["flagged"]
    elif cfg.command == "simulate":
        rows = _simulate_rows(cfg)
        columns = COLUMNS + ["flagged"]
    elif cfg.command == "compare":
        rows = _compare_rows(cfg)
        columns = COLUMNS + COMPARE_EXTRA + ["flagged"]
    elif cfg.command == "sweep":
        rows, comments = _sweep(cfg)
        columns = COLUMNS + ["flagged"]
    else:
        raise ValueError(f"unknown command {cfg.command!r}")

    if cfg.output:
        with open(cfg.output, "w") as fh:
            _emit(rows, columns, cfg.fmt, fh, comments)
    else:
        _emit(rows, columns, cfg.fmt, sys.stdout, comments)
    return 1 if any(r.get("flagged") for r in rows) else 0


def _glue_interval_values(argv: list) -> list:
    """Join '--interval -1..1' into '--interval=-1..1' so argparse does not
    mistake interval bounds starting with '-' for option flags."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--interval", "--n") and i + 1 < len(argv) and argv[i + 1].startswith("-"):
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
    args = parser.parse_args(_glue_interval_values(list(argv)))
    try:
        cfg = _load_config(args)
        return run(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
