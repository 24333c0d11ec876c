import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from convexlab.cli import main


def run(args):
    return main(args)


def test_approximate_writes_valid_spline(tmp_path, capsys):
    out = tmp_path / "s.json"
    code = run(["approximate", "--function", "exp:alpha=1", "--r", "1",
                "--n", "32", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "N_threshold" in text
    doc = json.loads(out.read_text())
    assert set(doc) >= {"knots", "order", "pieces", "convex_certified", "trace", "meta"}
    assert doc["order"] == 3
    assert len(doc["pieces"]) == 32
    assert doc["convex_certified"] is True
    assert all(set(p) == {"center", "halfwidth", "coeffs"} for p in doc["pieces"])


def test_approximate_below_threshold_exits_2(capsys):
    code = run(["approximate", "--function", "truncpow:r=1,eps=1e-6",
                "--r", "1", "--n", "8"])
    assert code == 2
    assert "N_threshold" in capsys.readouterr().out


def test_approximate_concave_input_exits_1(capsys):
    code = run(["approximate", "--function", "poly:coeffs=0,0,-1",
                "--r", "2", "--n", "64"])
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_approximate_reproduction_flag(tmp_path, capsys):
    out = tmp_path / "s.json"
    code = run(["approximate", "--function", "poly:coeffs=0,0,0,0,1",
                "--r", "3", "--n", "32", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["meta"]["reproduction"] is True


def test_approximate_partition_file(tmp_path):
    knots = tmp_path / "knots.txt"
    # tight end gaps, coarse middle: admissible for exp
    rows = [-1.0, -0.99] + [round(-0.8 + 1.6 * i / 8, 6) for i in range(9)] + [0.99, 1.0]
    knots.write_text("\n".join(str(v) for v in rows) + "\n")
    out = tmp_path / "s.json"
    code = run(["approximate", "--function", "exp:alpha=1", "--r", "1",
                "--partition", str(knots), "--out", str(out)])
    assert code == 0


def test_approximate_coarse_partition_exits_2(tmp_path, capsys):
    knots = tmp_path / "knots.txt"
    knots.write_text("\n".join(str(v) for v in [-1.0, -0.5, 0.0, 0.5, 1.0]) + "\n")
    code = run(["approximate", "--function", "exp:alpha=1", "--r", "1",
                "--partition", str(knots)])
    assert code == 2
    assert "too coarse" in capsys.readouterr().out


def test_certify_round_trip(tmp_path, capsys):
    spline = tmp_path / "s.json"
    report = tmp_path / "rep.json"
    assert run(["approximate", "--function", "exp:alpha=1", "--r", "1",
                "--n", "32", "--out", str(spline)]) == 0
    code = run(["certify", "--function", "exp:alpha=1", "--r", "1", "--n", "32",
                "--spline", str(spline), "--grid-size", "65",
                "--density", "256", "--out", str(report)])
    assert code == 0
    text = capsys.readouterr().out
    assert text.count("sup_ratio") == 6
    doc = json.loads(report.read_text())
    assert len(doc["bounds"]) == 6
    assert doc["convexity"]["convex"] is True
    for rep in doc["bounds"]:
        assert math.isfinite(rep["sup_ratio"])


def test_certify_rejects_spline_with_jump(tmp_path, capsys):
    spline = tmp_path / "s.json"
    assert run(["approximate", "--function", "exp:alpha=1", "--r", "1",
                "--n", "16", "--out", str(spline)]) == 0
    doc = json.loads(spline.read_text())
    doc["pieces"][8]["coeffs"][0] += 0.5
    spline.write_text(json.dumps(doc))
    capsys.readouterr()
    code = run(["certify", "--function", "exp:alpha=1", "--r", "1", "--n", "16",
                "--spline", str(spline), "--grid-size", "65", "--density", "256"])
    assert code == 1
    assert "convexity certified = False" in capsys.readouterr().out


def test_certify_corrupted_spline_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"knots": [0, 1]}')
    code = run(["certify", "--function", "exp:alpha=1", "--r", "1", "--n", "32",
                "--spline", str(bad)])
    assert code == 1


def test_certify_mismatched_n_exits_1(tmp_path, capsys):
    spline = tmp_path / "s.json"
    assert run(["approximate", "--function", "exp:alpha=1", "--r", "1",
                "--n", "32", "--out", str(spline)]) == 0
    code = run(["certify", "--function", "exp:alpha=1", "--r", "1", "--n", "64",
                "--spline", str(spline)])
    assert code == 1
    assert "mismatched" in capsys.readouterr().out.lower()


def test_sweep_csv_schema(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["sweep", "--function", "exp:alpha=1", "--r", "1",
                "--n", "16:64:x2", "--grid-size", "65", "--density", "256",
                "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ("n,N_threshold,sup_ratio_2_3,sup_ratio_2_4,sup_ratio_2_5,"
                       "sup_ratio_2_11,sup_ratio_2_12,sup_ratio_2_13,wall_ms")
    assert len(lines) == 4
    assert all(line.endswith(",0") for line in lines[1:])  # timing off


def test_sweep_arithmetic_range(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["sweep", "--function", "exp:alpha=1", "--r", "1",
                "--n", "16:32:+16", "--grid-size", "65", "--density", "256",
                "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert [ln.split(",")[0] for ln in lines[1:]] == ["16", "32"]


@pytest.mark.parametrize("density", ["64", "100"])
def test_sweep_low_density_is_finite_and_deterministic(density, tmp_path):
    # --density is also the lattice steps per knot interval of bound 2.13;
    # 100 is not a multiple of 2 * 16 step columns, so its steps are uneven
    texts = []
    for tag in ("a", "b"):
        out = tmp_path / f"sweep_{tag}.csv"
        assert run(["sweep", "--function", "truncpow:r=1,eps=0.2", "--r", "1",
                    "--n", "32:64:x2", "--grid-size", "65", "--density", density,
                    "--out", str(out)]) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    rows = texts[0].decode().strip().split("\n")[1:]
    assert len(rows) == 2
    for row in rows:
        cell = float(row.split(",")[7])  # sup_ratio_2_13
        assert math.isfinite(cell) and cell > 0.0


@pytest.mark.parametrize("flags, message", [
    (["--n", "0:8:x2"], "range start must be >= 1"),
    (["--n", "16:32:x2", "--density", "0"], "grid must be >= 64"),
    (["--n", "16:32:x2", "--density", "1"], "grid must be >= 64"),
    (["--n", "16:32:x2", "--grid-size", "0"], "grid_size must be >= 1"),
])
def test_sweep_degenerate_input_exits_1(flags, message, capsys):
    code = run(["sweep", "--function", "exp:alpha=1", "--r", "1"] + flags)
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and message in err[0]


def test_counterexample_prints_threshold(tmp_path, capsys):
    out = tmp_path / "w.json"
    code = run(["counterexample", "--r", "1", "--m", "3", "--x-last", "0.9",
                "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    printed = float(text.split("epsilon_threshold = ")[1].split("\n")[0])
    assert printed == pytest.approx(0.025)
    assert "contradiction = True" in text
    doc = json.loads(out.read_text())
    assert doc["contradiction"] is True
    assert doc["epsilon_threshold"] == pytest.approx(0.025)


def test_modulus_command(capsys):
    code = run(["modulus", "--function", "exp:alpha=1", "--k", "2",
                "--t", "0.5", "--interval", "-1,1", "--grid", "128"])
    assert code == 0
    text = capsys.readouterr().out
    assert "modulus = " in text
    value = float(text.split("modulus = ")[1].split(" at")[0])
    want = 2.0 * (math.cosh(0.5) - 1.0) * math.exp(0.5)
    assert value == pytest.approx(want, rel=1e-4)


def test_modulus_command_passes_kinks(capsys):
    # sup |delta^3_u f| of (x - 0.7)_+^2 is 1.5 u^2, at x = 0.7 - 1.5 u; without
    # the kink window the lattice reads 1.4984e-4
    code = run(["modulus", "--function", "truncpow:r=1,eps=0.3", "--k", "3", "--t", "0.01"])
    assert code == 0
    text = capsys.readouterr().out
    value = float(text.split("modulus = ")[1].split(" at")[0])
    assert value == pytest.approx(1.5e-4, rel=1e-12)


@pytest.mark.parametrize("alpha", ["inf", "nan"])
def test_non_finite_parameter_exits_1(alpha, capsys):
    code = run(["approximate", "--function", f"exp:alpha={alpha}", "--r", "1",
                "--n", "16"])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "alpha" in err[0]


@pytest.mark.parametrize("command, alpha, r", [
    ("approximate", "700", "2"), ("sweep", "700", "2"),
    ("approximate", "709", "2"), ("approximate", "700", "3"),
])
def test_ill_conditioned_endpoint_data_exits_1(command, alpha, r, capsys):
    # f^(nu)(1) overflows for some nu <= r: refused before f is sampled
    code = run([command, "--function", f"exp:alpha={alpha}", "--r", r, "--n", "64"])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: endpoint data is non-finite: f^(")
    assert err[0].endswith(f"(1.0) = inf for exp:alpha={alpha}")


@pytest.mark.parametrize("argv", [
    ["approximate", "--function", "exp:alpha=700", "--r", "2", "--n", "64"],
    ["sweep", "--function", "exp:alpha=700", "--r", "2", "--n", "64"],
    ["approximate", "--function", "exp:alpha=709", "--r", "2", "--n", "64"],
    ["approximate", "--function", "exp:alpha=700", "--r", "3", "--n", "64"],
    ["modulus", "--function", "exp:alpha=710", "--k", "2", "--t", "0.1"],
    # finite endpoint data, but an end block's p''' overflows in its certificate
    ["approximate", "--function", "exp:alpha=690", "--r", "2", "--n", "64"],
], ids=["approximate-700-2", "sweep-700-2", "approximate-709-2", "approximate-700-3",
        "modulus-710", "approximate-690-2"])
def test_non_finite_oracle_data_prints_one_line(argv):
    # a fresh interpreter with numpy's default warning filters: any
    # RuntimeWarning would reach stderr ahead of the refusal
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-m", "convexlab.cli", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 1
    err = proc.stderr.splitlines()
    assert len(err) == 1, proc.stderr
    assert err[0].startswith("error:") and "non-finite" in err[0]
    assert "modulus = " not in proc.stdout


def test_modulus_nan_step_exits_1(capsys):
    code = run(["modulus", "--function", "exp:alpha=1", "--k", "2", "--t", "nan"])
    assert code == 1
    captured = capsys.readouterr()
    assert "modulus = " not in captured.out
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("interval", ["-inf,1", "-1,inf", "nan,1"])
def test_modulus_non_finite_interval_exits_1(interval, capsys):
    code = run(["modulus", "--function", "exp:alpha=1", "--k", "2", "--t", "0.1",
                "--interval", interval])
    assert code == 1
    captured = capsys.readouterr()
    assert "modulus = " not in captured.out
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "finite" in err[0]


@pytest.mark.parametrize("flags, message", [
    (["--m", "1"], "m >= 2"),
    (["--m", "3", "--epsilon", "nan"], "epsilon"),
    (["--m", "3", "--epsilon", "inf"], "epsilon"),
    (["--m", "3", "--epsilon", "0"], "epsilon"),
])
def test_counterexample_degenerate_input_exits_1(flags, message, tmp_path, capsys):
    out = tmp_path / "w.json"
    code = run(["counterexample", "--r", "1", "--x-last", "0.5", "--out", str(out)] + flags)
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and message in err[0]


@pytest.mark.parametrize("command, c0", [
    (["approximate", "--n", "64"], "-1"),
    (["approximate", "--n", "64"], "0"),
    (["approximate", "--n", "64"], "nan"),
    (["sweep", "--n", "32:64:x2"], "inf"),
])
def test_bad_c0_exits_1(command, c0, capsys):
    code = run(command[:1] + ["--function", "exp:alpha=1", "--r", "2", "--c0", c0]
               + command[1:])
    assert code == 1
    captured = capsys.readouterr()
    assert "convex_certified" not in captured.out
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "c0" in err[0]


def test_unknown_function_exits_1(capsys):
    code = run(["approximate", "--function", "sin:freq=1", "--r", "1", "--n", "8"])
    assert code == 1


def test_cli_outputs_byte_identical(tmp_path):
    paths = []
    for tag in ("a", "b"):
        spline = tmp_path / f"s_{tag}.json"
        csvp = tmp_path / f"sweep_{tag}.csv"
        wit = tmp_path / f"w_{tag}.json"
        assert run(["approximate", "--function", "f0:r=1", "--r", "1",
                    "--n", "32", "--out", str(spline)]) == 0
        assert run(["sweep", "--function", "exp:alpha=1", "--r", "1",
                    "--n", "16:32:x2", "--grid-size", "65",
                    "--density", "256", "--out", str(csvp)]) == 0
        assert run(["counterexample", "--r", "2", "--m", "4",
                    "--x-last", "0.5", "--out", str(wit)]) == 0
        paths.append((spline.read_bytes(), csvp.read_bytes(), wit.read_bytes()))
    assert paths[0] == paths[1]
