"""End-to-end tests for the command-line interface."""

import io
import json
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from levelcross.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

# Golden files: name -> argv.  Each tests/golden/<name>.txt holds the exact
# stdout of main(argv); a refactor must reproduce every file byte for byte.
# Regenerate with `python tests/test_cli.py --regen` only when an output is
# meant to change, and say why in the change log.
GOLDEN = {
    "compute_geometric_n50_k1_intervals": [
        "compute", "--n", "50", "--model", "geometric:0.5", "--k", "1",
        "--interval", "-1..1", "--interval", "1..inf", "--interval", "-inf..-1",
        "--interval", "-2..3"],
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
}


def _golden_stdout(argv) -> bytes:
    buf = io.StringIO()
    with redirect_stdout(buf):
        main(argv)
    return buf.getvalue().encode()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(name):
    assert _golden_stdout(GOLDEN[name]) == (GOLDEN_DIR / f"{name}.txt").read_bytes()


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


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


def test_constant_model_rejected_for_quadrature(capsys):
    code = main(["compute", "--n", "4", "--model", "constant:0.5", "--k", "0",
                 "--interval", "-1..1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_n_is_reported(capsys):
    code = main(["compute", "--model", "independent", "--k", "0", "--interval", "-1..1"])
    assert code == 2


def test_n_spec_comma_list(capsys):
    code, out = _run(capsys, ["compute", "--n", "4,8", "--model", "independent",
                              "--k", "0", "--interval", "-1..1"])
    assert code == 0
    assert [r["n"] for r in _rows(out)] == ["4", "8"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_cli.py --regen  (rewrites tests/golden/)")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in sorted(GOLDEN.items()):
        (GOLDEN_DIR / f"{name}.txt").write_bytes(_golden_stdout(argv))
