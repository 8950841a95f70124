"""End-to-end tests for the command-line interface."""

import io
import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

from levelcross import cli, montecarlo
from levelcross.cli import main
from levelcross.quadrature import MAX_DEGREE, expected_crossings

from oracles import constant_covariance_crossings

GOLDEN_DIR = Path(__file__).parent / "golden"

# Golden files: name -> argv.  Each tests/golden/<name>.txt holds the exact
# stdout of main(argv); a refactor must reproduce every file byte for byte.
# Regenerate with `PYTHONPATH=src python tests/test_cli.py --regen` only
# when an output is meant to change, and say why in the change log.
GOLDEN = {
    "compute_geometric_n50_k1_intervals": [
        "compute", "--n", "50", "--model", "geometric:0.5", "--k", "1",
        "--interval", "-1..1", "--interval", "1..inf", "--interval", "-inf..-1",
        "--interval", "-2..3"],
    "compute_constant_n64_full_line": [
        "compute", "--n", "64", "--model", "constant:0.5", "--k", "0",
        "--interval", "-inf..inf"],
    "compute_independent_small_n_json": [
        "compute", "--n", "1,2,16", "--model", "independent", "--k", "0",
        "--interval", "-inf..inf", "--format", "json"],
    "compute_raised_cosine_n200_k2": [
        "compute", "--n", "200", "--model", "raised_cosine", "--k", "2",
        "--interval", "-inf..inf"],
    "sweep_independent_fixed0": [
        "sweep", "--n", "16:256:x2", "--model", "independent", "--k-rule", "fixed:0",
        "--interval", "-inf..inf"],
    "sweep_geometric_growing1": [
        "sweep", "--n", "64:512:x2", "--model", "geometric:0.3", "--k-rule", "growing:1",
        "--interval", "-inf..inf"],
    "compare_independent_n20_seed5": [
        "compare", "--n", "20", "--model", "independent", "--k", "0.5",
        "--count", "400", "--seed", "5"],
    "simulate_bisect_constant_n200": [
        "simulate", "--n", "200", "--model", "constant:0.5", "--k", "0.5",
        "--count", "200", "--seed", "3", "--counter", "bisect", "--interval", "-inf..inf"],
    "simulate_companion_geometric_n30": [
        "simulate", "--n", "30", "--model", "geometric:0.5", "--k", "1",
        "--count", "300", "--seed", "11", "--counter", "companion",
        "--interval", "-1..1", "--interval", "1..inf"],
    "simulate_companion_constant_overlapping": [
        "simulate", "--n", "5,128", "--model", "constant:0.5", "--k", "1.5",
        "--count", "100", "--seed", "13", "--counter", "companion",
        "--interval", "-inf..inf", "--interval", "0.5..2", "--interval", "-1..1"],
    "simulate_companion_geometric_json": [
        "simulate", "--n", "5,40", "--model", "geometric:0.5", "--k", "1",
        "--count", "100", "--seed", "2", "--counter", "companion",
        "--interval", "-1..1", "--interval", "1..inf", "--format", "json"],
    "compare_raised_cosine_n12_json": [
        "compare", "--n", "12", "--model", "raised_cosine", "--k", "0.5",
        "--count", "200", "--seed", "4", "--format", "json"],
    "sweep_geometric_growing1_json": [
        "sweep", "--n", "16:128:x2", "--model", "geometric:0.5", "--k-rule", "growing:1",
        "--interval", "-inf..inf", "--format", "json"],
}


def _golden_stdout(argv) -> bytes:
    buf = io.StringIO()
    with redirect_stdout(buf):
        main(argv)
    return buf.getvalue().encode()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(name):
    assert _golden_stdout(GOLDEN[name]) == (GOLDEN_DIR / f"{name}.txt").read_bytes()


def _strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity, which are not JSON."""
    def refuse(token):
        raise ValueError(f"non-finite JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("name", sorted(name for name in GOLDEN if name.endswith("_json")))
def test_golden_json_is_strict(name):
    assert _strict_json((GOLDEN_DIR / f"{name}.txt").read_text())["rows"]


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _src_env():
    src = str(Path(__file__).parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _run_capped(argv):
    """The CLI in a child process whose address space is capped at 2 GB, for at most 30 s."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    return subprocess.run([sys.executable, "-m", "levelcross.cli", *argv], env=_src_env(),
                          preexec_fn=cap, capture_output=True, text=True, timeout=30)


def _rows(csv_text):
    lines = [l for l in csv_text.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_compute_linear_full_line(capsys):
    code, out = _run(capsys, ["compute", "--n", "1", "--model", "independent",
                              "--k", "0", "--interval", "-inf..inf"])
    assert code == 0
    (row,) = _rows(out)
    assert float(row["value"]) == pytest.approx(1.0, abs=1e-6)
    assert row["n"] == "1"


def test_compute_multiple_intervals(capsys):
    code, out = _run(capsys, ["compute", "--n", "1", "--model", "independent",
                              "--k", "0", "--interval", "-1..1", "--interval", "1..inf"])
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 2
    assert float(rows[0]["value"]) == pytest.approx(0.5, abs=1e-6)
    assert float(rows[1]["value"]) == pytest.approx(0.25, abs=1e-6)


def test_compute_json_format(capsys):
    code, out = _run(capsys, ["compute", "--n", "5", "--model", "geometric:0.5",
                              "--k", "1", "--interval", "-1..1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert "rows" in doc and "summary" in doc
    assert doc["rows"][0]["n"] == 5


def test_compare_z_scores_small(capsys):
    code, out = _run(capsys, ["compare", "--n", "50", "--model", "geometric:0.5",
                              "--k", "1", "--count", "1000", "--seed", "7"])
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 2  # default inner/outer split
    for row in rows:
        assert abs(float(row["z"])) <= 3.0


def test_compare_flags_legs_that_disagree(capsys):
    # at K = 1e150 quadrature misses the crossing near z = K^(-1/n) and reads 0,
    # while bisection counts about one per sample
    code, out = _run(capsys, ["compare", "--n", "50", "--model", "independent", "--k", "1e150",
                              "--interval", "-inf..inf", "--counter", "bisect", "--count", "100"])
    (row,) = _rows(out)
    assert float(row["quad_value"]) == 0.0 and float(row["value"]) > 0.5
    assert row["flagged"] == "1"
    assert code == 1


@pytest.mark.parametrize("shift, abs_err, flagged", [
    (0.0, None, "0"), (0.01, None, "0"), (0.143, None, "0"), (0.145, None, "1"), (0.5, None, "1"),
    (0.5, 0.08, "0"),  # 5 abs_err = 0.4 widens the bound to 0.544
])
def test_compare_row_builder_flags_a_planted_disagreement(monkeypatch, capsys, shift, abs_err, flagged):
    # n = 1: every sample has exactly one crossing, so SE = 0 and the bound is
    # -ln P(|Z| > 5) / count + 5 abs_err = 0.1437 + 4e-9 at count 100
    def planted(*a, **k):
        quad = expected_crossings(*a, **k)
        return replace(quad, value=1.0 + shift, abs_err=quad.abs_err if abs_err is None else abs_err)

    monkeypatch.setattr(cli, "expected_crossings", planted)
    code, out = _run(capsys, ["compare", "--n", "1", "--model", "independent", "--k", "0",
                              "--interval", "-inf..inf", "--count", "100"])
    (row,) = _rows(out)
    assert (row["value"], row["err"], row["z"], row["flagged"]) == ("1", "0", "", flagged)
    assert code == int(flagged)


@pytest.mark.parametrize("shift, flagged", [(0.0, "0"), (0.6, "1")])
def test_compare_flag_weighs_both_errors(monkeypatch, capsys, shift, flagged):
    # a quadrature leg moved by 0.6, far beyond 5 SE, passes when its abs_err admits it
    def planted(*a, **k):
        quad = expected_crossings(*a, **k)
        return replace(quad, value=quad.value + 0.6, abs_err=0.6 - shift)

    monkeypatch.setattr(cli, "expected_crossings", planted)
    code, out = _run(capsys, ["compare", "--n", "20", "--model", "independent", "--k", "0",
                              "--interval", "-1..1", "--count", "400", "--tol", "1"])
    (row,) = _rows(out)
    assert abs(float(row["z"])) > 5.0
    assert row["flagged"] == flagged
    assert code == int(flagged)


def test_compare_deterministic(capsys):
    argv = ["compare", "--n", "20", "--model", "independent", "--k", "1",
            "--count", "300", "--seed", "42", "--interval", "-1..1"]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    assert first == second


def test_simulate_writes_rows(capsys):
    code, out = _run(capsys, ["simulate", "--n", "8", "--model", "constant:0.5",
                              "--k", "0", "--count", "200", "--seed", "3",
                              "--interval", "-inf..inf"])
    assert code == 0
    (row,) = _rows(out)
    assert float(row["value"]) >= 0.0
    assert "monte_carlo" in row["method"]


def test_sweep_emits_slope_comment(capsys):
    code, out = _run(capsys, ["sweep", "--n", "128:1024:x2", "--model", "independent",
                              "--k-rule", "fixed:0", "--interval", "-1..1"])
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 4
    slope_lines = [l for l in out.splitlines() if l.startswith("#") and "slope=" in l]
    assert len(slope_lines) == 1
    slope = float(slope_lines[0].split("slope=")[1].split()[0])
    assert slope == pytest.approx(1.0 / math.pi, rel=0.3)


def _sweep_target(capsys, model, k_rule, interval):
    code, out = _run(capsys, ["sweep", "--n", "16:128:x2", "--model", model,
                              "--k-rule", k_rule, "--interval", interval])
    (line,) = [l for l in out.splitlines() if l.startswith("#")]
    return line.split("target=")[1]


@pytest.mark.parametrize("interval, slope", [("-1..1", 1.0 / math.pi), ("-inf..inf", 2.0 / math.pi)])
def test_sweep_target_is_the_slope_of_the_law(capsys, interval, slope):
    # K = 0: the inner piece and the two tails each grow like (1/pi) log n
    assert float(_sweep_target(capsys, "independent", "fixed:0", interval)) == pytest.approx(slope, rel=1e-12)


def test_sweep_target_is_empty_without_predictions(capsys):
    # the constant model gets no prediction, so its sweep has no target
    assert _sweep_target(capsys, "constant:0.5", "fixed:0", "-1..1") == ""


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "n": "1", "model": "independent", "k": 0.0, "interval": "-1..1"
    }))
    code, out = _run(capsys, ["compute", "--config", str(cfg)])
    assert code == 0
    assert float(_rows(out)[0]["value"]) == pytest.approx(0.5, abs=1e-6)
    # flag overrides the config interval
    code, out = _run(capsys, ["compute", "--config", str(cfg), "--interval", "1..inf"])
    assert float(_rows(out)[0]["value"]) == pytest.approx(0.25, abs=1e-6)


def test_explicit_tol_beats_config_tol(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "n": "50", "model": "geometric:0.5", "k": 1.0, "interval": "-1..1", "tol": 1e-3
    }))
    _, loose = _run(capsys, ["compute", "--config", str(cfg)])
    code, out = _run(capsys, ["compute", "--config", str(cfg), "--tol", "1e-6"])
    assert code == 0
    assert float(_rows(loose)[0]["err"]) > 1e-6  # the config tol is in force without the flag
    assert float(_rows(out)[0]["err"]) <= 1e-6


def test_simulate_count_zero_is_rejected(capsys):
    code = main(["simulate", "--n", "8", "--model", "independent", "--k", "0",
                 "--count", "0", "--interval", "-1..1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "count" in captured.err


def test_config_null_fields_take_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "n": "8", "model": "independent", "interval": "-1..1",
        "count": None, "seed": None, "counter": None, "tol": None,
    }))
    _, with_nulls = _run(capsys, ["simulate", "--config", str(cfg)])
    _, plain = _run(capsys, ["simulate", "--n", "8", "--model", "independent",
                             "--interval", "-1..1", "--count", "1000", "--seed", "0"])
    assert with_nulls == plain


@pytest.mark.parametrize("fields, field", [
    ({"count": [1]}, "count"),
    ({"seed": {"a": 1}}, "seed"),
    ({"k": [0.5]}, "k"),
    ({"tol": True}, "tol"),
    ({"count": "many"}, "count"),
    ({"seed": 1.7}, "seed"),
    ({"intervals": [[-1, 1]]}, "intervals"),
    ({"interval": []}, "intervals"),
])
def test_config_field_of_wrong_type_is_reported(tmp_path, capsys, fields, field):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": "8", "model": "independent", **fields}))
    code = main(["simulate", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}: ")


def test_config_that_is_not_an_object_is_reported(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text("[1]")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: config: ")


@pytest.mark.parametrize("command", ["compute", "simulate"])
@pytest.mark.parametrize("fields, named", [
    ({"cuont": 5}, "'cuont'"),
    ({"format": "json"}, "'format'"),
    ({"tolerance": 1e-3}, "'tolerance'"),
    ({"format": "json", "cuont": 5}, "'cuont', 'format'"),
])
def test_config_unknown_field_is_refused(tmp_path, capsys, command, fields, named):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": "8", "model": "independent", "count": 100, **fields}))
    code = main([command, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: config: unknown field {named}\n"


@pytest.mark.parametrize("command", ["compute", "simulate", "compare", "sweep"])
@pytest.mark.parametrize("counter", ["fast", 5])
def test_config_bad_counter_is_reported_on_every_command(tmp_path, capsys, command, counter):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": "8", "model": "independent", "count": 100, "counter": counter}))
    code = main([command, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: counter: ")


@pytest.mark.parametrize("field, file_value, flag, flag_value", [
    ("count", 200, "--count", 300),
    ("seed", 1, "--seed", 2),
    ("counter", "bisect", "--counter", "companion"),
    ("output", "from_file.csv", "--output", "from_flag.csv"),
])
def test_flag_beats_config_field(tmp_path, field, file_value, flag, flag_value):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": "8", "model": "independent", field: file_value}))

    def load(*extra):
        args = cli.build_parser().parse_args(["simulate", "--config", str(cfg), *extra])
        return getattr(cli._load_config(args), field)

    assert load() == file_value
    assert load(flag, str(flag_value)) == flag_value


def test_non_finite_covariance_lag_is_reported(capsys):
    code = main(["compute", "--n", "8", "--model", "custom_fourier:1,nan"])
    assert code == 2
    assert "Gamma(1) = nan" in capsys.readouterr().err


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, _ = _run(capsys, ["compute", "--n", "1", "--model", "independent",
                            "--k", "0", "--interval", "-1..1", "--output", str(target)])
    assert code == 0
    assert "value" in target.read_text().splitlines()[0]


def test_bad_model_is_reported(capsys):
    code = main(["compute", "--n", "4", "--model", "mystery", "--k", "0",
                 "--interval", "-1..1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


def test_constant_model_computes(capsys):
    code, out = _run(capsys, ["compute", "--n", "4", "--model", "constant:0.5", "--k", "0",
                              "--interval", "-1..1"])
    assert code == 0
    (row,) = _rows(out)
    assert row["model"] == "constant:0.5" and row["flagged"] == "0"
    # reversal symmetry: (-1, 1) holds half the mean count of the whole line
    assert float(row["value"]) == pytest.approx(constant_covariance_crossings(4, 0.5) / 2, abs=1e-6)


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_is_rejected(capsys, tol):
    code = main(["compute", "--n", "8", "--model", "independent", "--tol", tol])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: tol must be positive and finite")


def test_non_finite_value_is_flagged(capsys):
    # K * K overflows at K = 1.7e308: the NaN that follows must not go out unflagged.
    code, out = _run(capsys, ["compute", "--n", "50", "--model", "independent",
                              "--k", "1.7e308", "--interval", "-inf..inf"])
    (row,) = _rows(out)
    assert row["flagged"] == "1"
    assert code == 1


def test_non_finite_json_value_is_null(capsys):
    code, out = _run(capsys, ["compute", "--n", "50", "--model", "independent",
                              "--k", "1.7e308", "--interval", "-inf..inf", "--format", "json"])
    (row,) = _strict_json(out)["rows"]
    assert (row["interval_lo"], row["interval_hi"], row["value"]) == ("-inf", "inf", None)
    assert row["flagged"] is True
    assert code == 1


def test_level_whose_square_underflows_gets_no_prediction(capsys):
    code, out = _run(capsys, ["compute", "--n", "64", "--model", "independent",
                              "--k", "1e-170", "--interval", "-1..1"])
    assert code == 0
    (row,) = _rows(out)
    assert (row["prediction"], row["ratio"]) == ("", "")


@pytest.mark.parametrize("argv, K", [
    (["compute", "--k", "-2e-3"], -2e-3),
    (["compute", "--k", "-1e-200"], -1e-200),
    (["sweep", "--k-rule", "-2e-3"], -2e-3),
    (["sweep", "--k-rule", "-1e-200"], -1e-200),
])
def test_negative_level_in_exponent_form_is_read(capsys, argv, K):
    # argparse takes '-2e-3' for an option unless the value is glued to its flag
    code, out = _run(capsys, argv + ["--n", "20", "--model", "independent", "--interval", "-1..1"])
    assert code == 0
    (row,) = _rows(out)
    assert float(row["K"]) == K


@pytest.mark.parametrize("n", [MAX_DEGREE + 1, 1 << 40])
def test_degree_above_quadrature_limit_is_refused(capsys, n):
    tracemalloc.start()
    try:
        code = main(["compute", "--n", str(n), "--model", "geometric:0.5"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"n = {n} " in captured.err
    assert peak < 1 << 20  # refused before any lag or moment array exists


def test_cli_runs_without_scipy():
    # numpy is the only runtime dependency: no command loads any scipy module.
    code = """
import contextlib, io, sys
from levelcross.cli import main
# the companion counter imports its thread pool, and so logging, only when it runs
assert "concurrent.futures" not in sys.modules
runs = [
    ["compute", "--n", "20", "--model", "geometric:0.5", "--k", "1", "--interval", "-inf..inf"],
    ["sweep", "--n", "16:32:x2", "--model", "independent", "--k-rule", "fixed:1", "--interval", "-1..1"],
    ["compare", "--n", "10", "--model", "independent", "--k", "0.5", "--count", "100", "--seed", "1"],
    ["simulate", "--n", "10", "--model", "raised_cosine", "--k", "1", "--count", "100", "--counter", "companion"],
    ["simulate", "--n", "10", "--model", "raised_cosine", "--k", "1", "--count", "100", "--counter", "bisect"],
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    done = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"


def test_huge_monte_carlo_batch_is_refused():
    done = _run_capped(["simulate", "--n", "1073741824", "--model", "independent", "--count", "100"])
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: out of memory at n = 1073741824 with count = 100\n"


def test_out_of_memory_names_the_degrees_and_count(monkeypatch, capsys):
    # the MemoryError handler, reached without allocating a real batch
    def no_memory(*args):
        raise MemoryError

    monkeypatch.setattr(montecarlo, "sample_coefficients", no_memory)
    code = main(["simulate", "--n", "8,16", "--model", "independent", "--count", "100"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: out of memory at n = 8,16 with count = 100\n"


def test_long_custom_fourier_lags_are_checked_in_bounded_memory(tmp_path):
    # Fejer lags 1 - k/N: their Fourier sum is the nonnegative Fejer kernel.
    lags = ",".join(repr(1.0 - k / 100_000) for k in range(100_000))
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": "8", "model": f"custom_fourier:{lags}"}))
    done = _run_capped(["compute", "--config", str(cfg)])
    assert done.returncode == 0, done.stderr
    (row,) = _rows(done.stdout)
    assert row["model"] == "fourier_sum" and row["flagged"] == "0"


def test_long_custom_fourier_ring_grows_in_bounded_memory(tmp_path):
    # The first sampler ring (32 points) cuts these lags short and is not PSD,
    # so it doubles to 2^18 points, where it holds every nonzero lag; the draw
    # block must not grow with it.
    lags = ",".join(repr((1.0 - k / 100_000) * math.cos(0.3 * k)) for k in range(100_000))
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": "5", "model": f"custom_fourier:{lags}", "count": 400}))
    done = _run_capped(["simulate", "--config", str(cfg)])
    assert done.returncode == 0, done.stderr
    (row,) = _rows(done.stdout)
    assert row["model"] == "fourier_sum" and row["flagged"] == "0"


@pytest.mark.parametrize("lags, err", [
    ("1,0.5", ""),
    ("1,0.5,0.5", "error: covariance sequence does not define a nonnegative density: min -1.989e-02 < 0\n"),
])
def test_custom_fourier_positivity_decision(capsys, lags, err):
    # 1 + cos(phi) touches zero and is kept; 1 + cos(phi) + cos(2 phi) dips to -1/8.
    code = main(["compute", "--n", "8", "--model", f"custom_fourier:{lags}"])
    assert (code, capsys.readouterr().err) == (2 if err else 0, err)


def test_missing_n_is_reported(capsys):
    code = main(["compute", "--model", "independent", "--k", "0", "--interval", "-1..1"])
    assert code == 2


def test_missing_model_is_reported(capsys):
    assert main(["compute", "--n", "8"]) == 2
    assert capsys.readouterr().err.startswith("error: model: model is required")


def test_n_spec_comma_list(capsys):
    code, out = _run(capsys, ["compute", "--n", "4,8", "--model", "independent",
                              "--k", "0", "--interval", "-1..1"])
    assert code == 0
    assert [r["n"] for r in _rows(out)] == ["4", "8"]


@pytest.mark.parametrize("argv, err", [
    (["sweep", "--n", "1,2,4,8", "--k-rule", "growing:1"],
     "k_rule: growing:c needs log log n > 0, so n >= 3; got n = 1"),
    (["sweep", "--n", "4,8", "--k-rule", "growing:abc"], "k_rule: could not convert"),
    (["simulate", "--n", "8", "--seed", "-1"], "seed: expected an integer in [0, 2**128), got -1"),
    (["compute", "--n", "8", "--interval", "1:2"], "intervals: interval must look like 'a..b'"),
])
def test_bad_flag_value_names_its_field(capsys, argv, err):
    assert main(argv + ["--model", "independent"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {err}")


@pytest.mark.parametrize("spec", ["0:10:x2", "-4:10:x2", "8:4:x2", "8,4", "4,4", "4,0", "8:64:2", "8:64:x1"])
def test_bad_n_sweep_is_reported(capsys, spec):
    # degrees are >= 1 and strictly ascending on every command; stop < start sweeps nothing
    for command in ("compute", "simulate", "compare", "sweep"):
        assert main([command, "--n", spec, "--model", "independent"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: n: ")


GROWING_AT_8 = 1.5896929994689812  # growing:1 at n = 8: sqrt(8 / log log 8) / log 8


@pytest.mark.parametrize("command", ["compute", "simulate", "compare"])
def test_config_k_rule_applies_to_every_command(tmp_path, capsys, command):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": "8", "model": "independent", "k_rule": "growing:1",
                               "interval": "-1..1", "count": 100}))
    code, out = _run(capsys, [command, "--config", str(cfg)])
    assert code == 0
    assert [float(r["K"]) for r in _rows(out)] == [GROWING_AT_8]


@pytest.mark.parametrize("command", ["compute", "sweep"])
def test_k_flag_beats_config_k_rule(tmp_path, capsys, command):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": "8", "model": "independent", "k_rule": "growing:1",
                               "interval": "-1..1"}))
    code, out = _run(capsys, [command, "--config", str(cfg), "--k", "0.5"])
    assert code == 0
    assert [r["K"] for r in _rows(out)] == ["0.5"]


@pytest.mark.parametrize("fields, K", [
    ({"k": 0.5, "k_rule": "growing:1"}, GROWING_AT_8),
    ({"k": 0.5, "k_rule": None}, 0.5),
])
def test_config_k_rule_beats_config_k_unless_null(tmp_path, capsys, fields, K):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": "8", "model": "independent", "interval": "-1..1", **fields}))
    code, out = _run(capsys, ["compute", "--config", str(cfg)])
    assert code == 0
    assert [float(r["K"]) for r in _rows(out)] == [K]


def _golden_table(text):
    """Rows of a golden output as dicts: the JSON 'rows' or the CSV lines."""
    return json.loads(text)["rows"] if text.startswith("{") else _rows(text)


def _number(v):
    try:
        return float(v)
    except (TypeError, ValueError):
        return None


def _regen_report(old: str, new: str) -> tuple[list, list]:
    """What a rewrite of one golden file changes: (report lines, offending lines).

    The report gives the largest |delta| in each numeric column, every
    changed non-numeric cell and every changed comment line.  The offending
    lines, which the report also holds, are what a regeneration must not
    do: a row whose |delta value| exceeds its old err, a row whose flagged
    changed, or a change in the row count or the columns.
    """
    old_rows, new_rows = _golden_table(old), _golden_table(new)
    if len(old_rows) != len(new_rows) or any(o.keys() != w.keys() for o, w in zip(old_rows, new_rows)):
        line = f"  row count or columns changed: {len(old_rows)} -> {len(new_rows)} rows"
        return [line], [line]
    lines, offending, largest = [], [], {}
    for i, (o, w) in enumerate(zip(old_rows, new_rows)):
        row = f"  row {i} (n={o['n']} {o['interval_lo']}..{o['interval_hi']}):"
        for col in o:
            a, b = _number(o[col]), _number(w[col])
            if col != "flagged" and a is not None and b is not None:
                largest[col] = max(largest.get(col, 0.0), 0.0 if a == b else abs(b - a))
            elif o[col] != w[col]:
                lines.append(f"{row} {col} {o[col]} -> {w[col]}")
                if col == "flagged":
                    offending.append(lines[-1])
        dvalue = abs(float(w["value"]) - float(o["value"]))
        if not dvalue <= float(o["err"]):
            lines.append(f"{row} |delta value| {dvalue:.3g} > old err {float(o['err']):.3g}")
            offending.append(lines[-1])
    comments = [[l for l in text.splitlines() if l.startswith("#")] for text in (old, new)]
    for a, b in zip(*comments):
        if a != b:
            lines += [f"  comment: {a}", f"       ->  {b}"]
    numeric = ", ".join(f"{col} {d:.3g}" for col, d in largest.items())
    return [f"  max |delta|: {numeric}"] + lines, offending


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli.py --regen  (rewrites tests/golden/ and reports the changes)")
    GOLDEN_DIR.mkdir(exist_ok=True)
    offending = []
    for name, argv in sorted(GOLDEN.items()):
        path = GOLDEN_DIR / f"{name}.txt"
        new = _golden_stdout(argv)
        old = path.read_bytes() if path.exists() else None
        if new == old:
            print(f"{name}: unchanged")
            continue
        path.write_bytes(new)
        print(f"{name}: {'rewritten' if old is not None else 'created'}")
        if old is not None:
            lines, bad = _regen_report(old.decode(), new.decode())
            print("\n".join(lines))
            offending += [f"{name}:{line}" for line in bad]
    if offending:
        # The files are rewritten all the same; the exit status carries the gate.
        print(f"{len(offending)} offending rows: a value moved by more than its old err, "
              "a flagged changed, or the rows or columns changed")
        print("\n".join(offending))
        sys.exit(1)
