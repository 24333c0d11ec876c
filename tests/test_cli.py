import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from convexlab.cli import main
from convexlab.polynomial import ConvexityCertificate, convexity_certificate
from helpers import Poly


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


def test_approximate_affine_below_two_pieces_exits_2(tmp_path, capsys):
    out = tmp_path / "s.json"
    code = run(["approximate", "--function", "poly:coeffs=1,2", "--r", "1", "--n", "1",
                "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().out == "n below threshold: N_threshold = 2\n"
    assert not out.exists()


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


def test_approximate_refuses_n_with_partition(tmp_path, capsys):
    # the knots come from the file alone, so an --n beside it would be ignored
    knots = tmp_path / "knots.txt"
    knots.write_text("\n".join(str(v) for v in [-1.0, -0.99, 0.0, 0.99, 1.0]) + "\n")
    out = tmp_path / "s.json"
    code = run(["approximate", "--function", "exp:alpha=1", "--r", "1", "--n", "64",
                "--partition", str(knots), "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == ["error: give --n or --partition, not both"]
    assert not out.exists()


def test_approximate_coarse_partition_exits_2(tmp_path, capsys):
    knots = tmp_path / "knots.txt"
    knots.write_text("\n".join(str(v) for v in [-1.0, -0.5, 0.0, 0.5, 1.0]) + "\n")
    code = run(["approximate", "--function", "exp:alpha=1", "--r", "1",
                "--partition", str(knots)])
    assert code == 2
    assert "too coarse" in capsys.readouterr().out


def test_approximate_partition_with_non_finite_knot_exits_1(tmp_path, capsys):
    knots = tmp_path / "knots.txt"
    knots.write_text("-1\n0\ninf\n")
    code = run(["approximate", "--function", "exp:alpha=1", "--r", "1",
                "--partition", str(knots)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: knots must be finite and strictly increasing"]


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


@pytest.mark.parametrize("data, message", [
    (b"", "bad spline file: Expecting value: line 1 column 1 (char 0)\n"),
    (b"[1,2", "bad spline file: Expecting ',' delimiter: line 1 column 5 (char 4)\n"),
    (b"\xff{", "bad spline file: 'utf-8' codec can't decode byte 0xff in position 0: "
                "invalid start byte\n"),
], ids=["empty", "truncated", "not utf-8"])
def test_certify_spline_file_not_json_exits_1_in_one_line(data, message, tmp_path, capsys):
    spline = tmp_path / "s.json"
    spline.write_bytes(data)
    code = run(["certify", "--function", "exp:alpha=1", "--r", "2", "--n", "16",
                "--spline", str(spline), "--out", str(tmp_path / "rep.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == message and captured.err == ""
    assert not (tmp_path / "rep.json").exists()


def test_certify_row_longer_than_order_exits_1(tmp_path, capsys):
    spline = tmp_path / "s.json"
    assert run(["approximate", "--function", "exp:alpha=1", "--r", "1",
                "--n", "16", "--out", str(spline)]) == 0
    doc = json.loads(spline.read_text())
    doc["pieces"][8]["coeffs"].append(0.0)
    spline.write_text(json.dumps(doc))
    capsys.readouterr()
    code = run(["certify", "--function", "exp:alpha=1", "--r", "1", "--n", "16",
                "--spline", str(spline)])
    assert code == 1
    assert capsys.readouterr().out == "bad spline file: piece degree exceeds declared order\n"


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(meta=[1]), "bad spline file: meta must be an object"),
    (lambda doc: doc["pieces"][3]["coeffs"].__setitem__(2, math.nan),
     "bad spline file: piece 3 has a non-finite value"),
    (lambda doc: doc["pieces"][3].update(center=math.nan),
     "bad spline file: piece 3 has a non-finite value"),
    (lambda doc: doc["pieces"][3]["coeffs"].__setitem__(slice(2, 4), [1e308, 1e308]),
     "bad spline file: piece 3 has a non-finite value"),
    (lambda doc: doc.update(order=4.9), "bad spline file: order must be a whole number, got 4.9"),
    (lambda doc: doc.update(convex_certified="no"),
     "bad spline file: convex_certified must be true or false, got 'no'"),
    (lambda doc: doc.update(knots=[str(x) for x in doc["knots"]]),
     "bad spline file: knots must be numbers, got '-1.0'"),
    (lambda doc: doc["pieces"][0]["coeffs"].__setitem__(0, str(doc["pieces"][0]["coeffs"][0])),
     "bad spline file: piece 0 coeffs must be numbers, got '"),
    (lambda doc: doc["pieces"][2].update(center=str(doc["pieces"][2]["center"])),
     "bad spline file: piece 2 center and halfwidth must be numbers, got '"),
], ids=["meta list", "nan coefficient", "nan center", "huge coefficients", "fractional order",
        "certified as a string", "knots as strings", "coefficient as a string",
        "center as a string"])
def test_certify_malformed_spline_exits_1_in_one_line(edit, message, tmp_path, capsys):
    spline = tmp_path / "s.json"
    assert run(["approximate", "--function", "exp:alpha=1", "--r", "2",
                "--n", "16", "--out", str(spline)]) == 0
    doc = json.loads(spline.read_text())
    edit(doc)
    spline.write_text(json.dumps(doc))
    capsys.readouterr()
    code = run(["certify", "--function", "exp:alpha=1", "--r", "2", "--n", "16",
                "--spline", str(spline), "--out", str(tmp_path / "rep.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.startswith(message) and captured.out.count("\n") == 1
    assert captured.err == ""
    assert not (tmp_path / "rep.json").exists()


# 2**57 float64 or int64 entries are 2**60 bytes, more than any 64-bit address
# space maps, so the allocation fails at once under every overcommit policy
HUGE = 2 ** 57
# the benchmark's convex cubic: poly has no lower end of omega, so its
# denominators are sampled on the --density lattice
CONVEX_CUBIC = "poly:coeffs=0.5,-0.25,1,0.125"


@pytest.mark.parametrize("argv", [
    ["approximate", "--function", "exp:alpha=1", "--r", "2", "--n", str(HUGE)],
    ["sweep", "--function", "exp:alpha=1", "--r", "2", "--n", str(HUGE)],
    ["certify", "--function", "exp:alpha=1", "--r", "2", "--n", "16", "--grid-size", str(HUGE)],
    # exp divides by its closed-form lower ends of omega, which no density reaches
    ["certify", "--function", CONVEX_CUBIC, "--r", "2", "--n", "16", "--density", str(HUGE)],
    ["modulus", "--function", "exp:alpha=1", "--k", "2", "--t", "0.1", "--interval", "-1,1",
     "--grid", str(HUGE)],
    ["certify", "--function", "exp:alpha=1", "--r", "2", "--n", "16", "--order", str(2 ** 50)],
], ids=["approximate n", "sweep n", "certify grid-size", "certify density", "modulus grid",
        "spline order"])
def test_size_too_large_to_allocate_exits_1_in_one_line(argv, tmp_path, capsys):
    """A size whose arrays cannot be allocated ends in one error line, not
    in numpy's MemoryError traceback.  The spline file's order is 2**50:
    its 16 rows of that many float64 are 2**57 bytes."""
    spline = tmp_path / "s.json"
    assert run(["approximate", "--function", argv[2], "--r", "2",
                "--n", "16", "--out", str(spline)]) == 0
    if "--order" in argv:
        doc = json.loads(spline.read_text())
        doc["order"] = int(argv.pop())
        argv.pop()
        spline.write_text(json.dumps(doc))
    if argv[0] == "certify":
        argv += ["--spline", str(spline)]
    capsys.readouterr()
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: out of memory: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_certify_builds_no_poly_or_certificate(tmp_path, monkeypatch):
    """certify loads the spline straight into its coefficient matrix and
    certifies every piece in array passes: at n = 1024 it builds no
    ConvexityCertificate (and src/ has no per-piece polynomial class)."""
    spline = tmp_path / "s.json"
    assert run(["approximate", "--function", "exp:alpha=1", "--r", "2",
                "--n", "1024", "--out", str(spline)]) == 0
    built = dict.fromkeys(["ConvexityCertificate"], 0)

    def counting(cls):
        init = cls.__init__

        def wrapper(self, *args, **kwargs):
            built[cls.__name__] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", wrapper)

    counting(ConvexityCertificate)
    assert run(["certify", "--function", "exp:alpha=1", "--r", "2", "--n", "1024",
                "--spline", str(spline), "--grid-size", "65", "--density", "256"]) == 0
    assert built == {"ConvexityCertificate": 0}
    convexity_certificate(Poly(0.0, 1.0, (0.0, 0.0, 1.0)), (-1.0, 1.0))  # the counter counts
    assert built == {"ConvexityCertificate": 1}


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
    # 100 is not a multiple of 2 * 16 step columns, so its steps are uneven.
    # The lattice is sampled for the cubic, which has no lower end of omega
    for spec in ("truncpow:r=1,eps=0.2", CONVEX_CUBIC):
        texts = []
        for tag in ("a", "b"):
            out = tmp_path / f"sweep_{tag}.csv"
            assert run(["sweep", "--function", spec, "--r", "1",
                        "--n", "32:64:x2", "--grid-size", "65", "--density", density,
                        "--out", str(out)]) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]
        rows = texts[0].decode().strip().split("\n")[1:]
        assert len(rows) == 2
        for row in rows:
            cell = float(row.split(",")[7])  # sup_ratio_2_13
            assert math.isfinite(cell) and cell > 0.0


@pytest.mark.parametrize("spec, r", [("exp:alpha=1", 2), ("truncpow:r=1,eps=0.2", 1),
                                     (CONVEX_CUBIC, 1)])
def test_density_reaches_only_sampled_denominators(spec, r, tmp_path):
    # an oracle with lower ends of omega divides by them, whatever the
    # lattice; the cubic's sampled denominators move with it
    texts = []
    for density in ("64", "100", "2048"):
        out = tmp_path / f"sweep_{density}.csv"
        assert run(["sweep", "--function", spec, "--r", str(r), "--n", "32:64:x2",
                    "--grid-size", "65", "--density", density, "--out", str(out)]) == 0
        texts.append(out.read_bytes())
    if spec == CONVEX_CUBIC:
        assert len(set(texts)) == 3
    else:
        assert texts[0] == texts[1] == texts[2]


@pytest.mark.parametrize("flags, message", [
    (["--n", "0:8:x2"], "range start must be >= 1"),
    (["--n", "16:32:x2", "--density", "0"], "grid must be >= 64"),
    (["--n", "16:32:x2", "--density", "1"], "grid must be >= 64"),
    (["--n", "16:32:x2", "--grid-size", "0"], "grid_size must be >= 1"),
    (["--n", "0"], "range start must be >= 1"),
    (["--n", "-5"], "range start must be >= 1"),
    # n=2 is below the threshold, so no bound report reads the lattice
    (["--n", "2", "--density", "3"], "grid must be >= 64"),
    (["--n", "2", "--grid-size", "0"], "grid_size must be >= 1"),
])
def test_sweep_degenerate_input_exits_1(flags, message, capsys):
    code = run(["sweep", "--function", "exp:alpha=1", "--r", "1"] + flags)
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and message in err[0]


def test_sweep_refuses_non_finite_differences_in_one_line(capsys):
    # p'' = 2e307 + 7.2e307 x^2 + 2.8e307 x^3 is finite, max |p^(4)| is past
    # the float range, so the upper end of omega_2 reads inf and the sampled
    # modulus decides; its order-2 differences overflow, and the preparation
    # refuses before any bound
    code = run(["sweep", "--function", "poly:coeffs=0,0,1e307,0,6e306,1.4e306", "--r", "2",
                "--n", "32:64:x2"])
    assert code == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: order-2 differences of the oracle on [-1.0, 1.0] are non-finite"]


@pytest.mark.parametrize("flags, message", [
    (["--density", "10"], "grid must be >= 64"),
    (["--grid-size", "0"], "grid_size must be >= 1"),
])
def test_degenerate_lattices_exit_1_where_reports_keep_no_point(flags, message,
                                                                tmp_path, capsys):
    # truncpow at n=64 keeps no point in bounds 2.4 to 2.12, which then build
    # no modulus row; certify and sweep still refuse the lattice
    spline = tmp_path / "s.json"
    base = ["--function", "truncpow:r=1,eps=0.2", "--r", "1", "--n", "64"]
    assert run(["approximate", *base, "--out", str(spline)]) == 0
    capsys.readouterr()
    for cmd in (["certify", *base, "--spline", str(spline)], ["sweep", *base]):
        assert run(cmd + flags) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0], cmd


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


def test_modulus_json_keys(tmp_path):
    out = tmp_path / "m.json"
    assert run(["modulus", "--function", "exp:alpha=1", "--k", "2", "--t", "0.5",
                "--grid", "128", "--out", str(out)]) == 0
    assert list(json.loads(out.read_text())) == [
        "function", "k", "t", "interval", "grid", "value", "arg_u", "arg_x"]


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
], ids=["approximate-700-2", "sweep-700-2", "approximate-709-2", "approximate-700-3",
        "modulus-710"])
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


def test_steep_finite_endpoint_data_builds_certified(tmp_path):
    # exp:alpha=690: finite endpoint data near the top of the float range.
    # Below its threshold N = 166 it is refused with exit 2, at N it builds
    # certified, and no numpy warning reaches stderr
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = tmp_path / "s.json"
    for n, code, line in [("64", 2, "n below threshold: N_threshold = 166"),
                          ("166", 0, f"wrote {out}")]:
        proc = subprocess.run([sys.executable, "-m", "convexlab.cli", "approximate", "--function",
                               "exp:alpha=690", "--r", "2", "--n", n, "--out", str(out)],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == code
        assert (proc.stdout + proc.stderr).strip().splitlines()[-1] == line
        assert "Warning" not in proc.stderr
    assert json.loads(out.read_text())["convex_certified"] is True


def test_exp_700_at_r_1_keeps_its_threshold_and_refusals(tmp_path):
    # max |f''| overflows, delta max |f''| does not, so the upper end of
    # omega_2 decides H1, as the sampled modulus did before it (the same N):
    # below N = 167 exit 2; at and above it p'' of the rows next to the right
    # end overflows, exit 1 in one error line, in a fresh interpreter with
    # numpy's default warning filters
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = tmp_path / "s.json"
    for n, code in (("64", 2), ("167", 1), ("400", 1)):
        proc = subprocess.run([sys.executable, "-m", "convexlab.cli", "approximate", "--function",
                               "exp:alpha=700", "--r", "1", "--n", n, "--out", str(out)],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == code, (n, proc.stderr)
        if code == 2:
            assert (proc.stdout, proc.stderr) == ("n below threshold: N_threshold = 167\n", "")
        else:
            assert proc.stdout == ""
            err = proc.stderr.splitlines()
            assert len(err) == 1 and err[0].startswith("error: "), proc.stderr
    assert not out.exists()


def test_steep_sweep_refusal_names_the_input_and_the_row(tmp_path, capsys):
    """cosh:beta=703 at r = 1 has N = 210; at n = 256 the left end block of
    the glued spline overflows, so the sweep exits 1 with one error line
    that names the input, the row and the interval, and writes no CSV."""
    out = tmp_path / "s.csv"
    code = run(["sweep", "--function", "cosh:beta=703", "--r", "1", "--n", "32:512:x2",
                "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and len(err) == 1
    assert err[0].startswith("error: the glued spline of cosh:beta=703 at n=256 overflows on "
                             "[-1.0, "), err
    assert not out.exists()


@pytest.mark.parametrize("alpha, n", [("700", "400"), ("690", "166")])
def test_steep_exp_is_refused_at_its_endpoint_data_or_builds(alpha, n, tmp_path, capsys):
    """exp:alpha=700 is refused for its overflowing endpoint data, with exit
    1 and one error line, at any n; exp:alpha=690 builds certified at its
    threshold N = 166."""
    out = tmp_path / "s.json"
    code = run(["approximate", "--function", f"exp:alpha={alpha}", "--r", "2", "--n", n,
                "--out", str(out)])
    captured = capsys.readouterr()
    if alpha == "700":
        assert code == 1
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: endpoint data is non-finite")
        assert not out.exists()
    else:
        assert code == 0 and captured.err == ""
        doc = json.loads(out.read_text())
        assert doc["meta"]["N_threshold"] == 166 and doc["convex_certified"] is True


def test_modulus_nan_step_exits_1(capsys):
    code = run(["modulus", "--function", "exp:alpha=1", "--k", "2", "--t", "nan"])
    assert code == 1
    captured = capsys.readouterr()
    assert "modulus = " not in captured.out
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_modulus_negative_step_exits_1(capsys):
    code = run(["modulus", "--function", "exp:alpha=1", "--k", "2", "--t", "-1"])
    assert code == 1
    captured = capsys.readouterr()
    assert "modulus = " not in captured.out
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and ">= 0" in err[0]
    assert run(["modulus", "--function", "exp:alpha=1", "--k", "2", "--t", "0"]) == 0
    assert capsys.readouterr().out.startswith("modulus = 0.0 ")


@pytest.mark.parametrize("t", ["inf", "-inf"])
def test_modulus_non_finite_step_exits_1(t, tmp_path, capsys):
    """An infinite --t is refused before the library, which takes it, would
    write "t": Infinity, which is not JSON, into the output file."""
    out = tmp_path / "m.json"
    code = run(["modulus", "--function", "exp:alpha=1", "--k", "2", f"--t={t}",
                "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert "modulus = " not in captured.out
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0] == f"error: --t must be finite, got {float(t)!r}"
    assert not out.exists()


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


@pytest.mark.parametrize("function, interval", [("f0:r=2", "-3,-1"),
                                                ("truncpow:r=1,eps=0.5", "1,3"),
                                                ("exp:alpha=1", "-1,1.5")])
def test_modulus_interval_outside_the_domain_exits_1(function, interval, capsys):
    # f0's evaluator clips 1 + x at 0, so on [-3, -1] it would read modulus 0
    code = run(["modulus", "--function", function, "--k", "2", "--t", "0.5",
                "--interval", interval])
    assert code == 1
    captured = capsys.readouterr()
    assert "modulus = " not in captured.out
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "not inside the domain" in err[0]


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


@pytest.mark.parametrize("flags", [
    ["--r", "2000", "--m", "4", "--x-last", "0.9"],
    ["--r", "2", "--m", "4", "--x-last", "0.9", "--epsilon", "1e200"],
    ["--r", "2", "--m", "4", "--x-last", "0.9", "--epsilon", "1e-200"],
])
def test_counterexample_outside_the_float_range_exits_1(flags, tmp_path, capsys):
    # 1e-200 wrote markov_lhs = markov_rhs = 0.0 with "contradiction": true
    out = tmp_path / "w.json"
    assert run(["counterexample", "--out", str(out)] + flags) == 1
    assert not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: the Markov terms")


@pytest.mark.parametrize("argv, message", [
    (["approximate", "--function", "-exp:alpha=1", "--r", "2", "--n", "16"],
     "error: unknown function family '-exp'; "
     "choose from ['cosh', 'exp', 'f0', 'poly', 'truncpow', 'xpow']"),
    (["certify", "--function", "exp:alpha=1", "--r", "1", "--n", "16", "--grid-size", "-1e3"],
     "error: argument --grid-size: invalid int value: '-1e3'"),
    (["sweep", "--function", "exp:alpha=1", "--r", "2", "--n", "-1:4:x2"],
     "error: range start must be >= 1, got -1"),
    (["counterexample", "--r", "1", "--m", "3", "--x-last", "0.5", "--epsilon", "-1e-3"],
     "error: epsilon must be finite and positive, got -0.001"),
    (["modulus", "--function", "exp:alpha=1", "--k", "2", "--t", "-inf"],
     "error: --t must be finite, got -inf"),
    (["modulus", "--function", "exp:alpha=1", "--k", "2", "--t", "-1e-3"],
     "error: modulus step t must be >= 0, got -0.001"),
], ids=["approximate", "certify", "sweep", "counterexample", "modulus-inf", "modulus-1e-3"])
def test_a_value_with_a_leading_dash_reaches_its_own_check(argv, message, capsys):
    """argparse takes "-1" for a negative number but "-inf" or "-1e-3" for
    an option; every option that takes a value takes either as its value."""
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message + "\n"


def test_a_value_with_a_leading_dash_runs(tmp_path, monkeypatch, capsys):
    """A leading-dash value is used as given: --x-last -5e-1 is -0.5, and a
    spline file named -s.json is written and read back."""
    run(["counterexample", "--r", "1", "--m", "3", "--x-last=-0.5"])
    want = capsys.readouterr().out
    assert run(["counterexample", "--r", "1", "--m", "3", "--x-last", "-5e-1"]) == 0
    assert capsys.readouterr().out == want
    monkeypatch.chdir(tmp_path)
    assert run(["approximate", "--function", "exp:alpha=1", "--r", "1", "--n", "16",
                "--out", "-s.json"]) == 0
    assert run(["certify", "--function", "exp:alpha=1", "--r", "1", "--n", "16",
                "--spline", "-s.json"]) == 0
    assert "convexity certified = True" in capsys.readouterr().out


def test_a_flag_does_not_take_the_next_token_as_its_value(capsys):
    # --timing takes no value, so a leading-dash token after it stays an argument
    assert run(["sweep", "--function", "exp:alpha=1", "--r", "2", "--n", "32",
                "--timing", "-5"]) == 1
    assert capsys.readouterr().err == "error: unrecognized arguments: -5\n"


@pytest.mark.parametrize("n", ["0", "-3"])
def test_approximate_n_below_one_exits_1(n, capsys):
    code = run(["approximate", "--function", "exp:alpha=1", "--r", "2", "--n", n])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: need n >= 1, got {n}\n"


@pytest.mark.parametrize("spec", ["xpow:m=1.5", "truncpow:r=1.9,eps=0.1", "f0:r=2.5"])
def test_non_integral_int_parameter_exits_1(spec, tmp_path, capsys):
    out = tmp_path / "s.json"
    code = run(["approximate", "--function", spec, "--r", "1", "--n", "16",
                "--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: parameter") and "must be an integer" in err[0]


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


@pytest.mark.parametrize("argv, message", [
    (["--function", "exp:alpha=1", "--r", "2", "--n", "64", "--bogus"], "--bogus"),
    (["--function", "exp:alpha=1", "--n", "64"], "--r"),
    (["--function", "exp:alpha=1", "--r", "x", "--n", "64"], "'x'"),
])
def test_usage_error_exits_1(argv, message, capsys):
    # exit code 2 means "below threshold", so a usage error must not use it
    assert run(["approximate"] + argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and message in err[0]


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["approximate", "--help"])
    assert exc.value.code == 0
    assert "--function" in capsys.readouterr().out


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


def _partition_file(tmp_path):
    knots = tmp_path / "knots.txt"
    knots.write_text("\n".join(str(v) for v in [-1.0, -0.99, -0.5, 0.0, 0.5, 0.99, 1.0]) + "\n")
    return str(knots)


LAYOUT_ARTIFACTS = {
    "approximate r=1": ["approximate", "--function", "exp:alpha=1", "--r", "1", "--n", "32"],
    "approximate r=2 n=4096": ["approximate", "--function", "exp:alpha=1", "--r", "2",
                               "--n", "4096"],
    "approximate affine": ["approximate", "--function", "poly:coeffs=2,-3", "--r", "2",
                           "--n", "16"],
    "approximate partition": ["approximate", "--function", "exp:alpha=1", "--r", "1",
                              "--partition", _partition_file],
    "certify": ["certify", "--function", "exp:alpha=1", "--r", "1", "--n", "32",
                "--grid-size", "65", "--density", "256", "--spline", "spline"],
    "counterexample": ["counterexample", "--r", "2", "--m", "4", "--x-last", "0.5"],
    "modulus": ["modulus", "--function", "truncpow:r=1,eps=0.3", "--k", "3", "--t", "0.01"],
}


@pytest.mark.parametrize("name", list(LAYOUT_ARTIFACTS))
def test_json_artifacts_are_json_dumps_indent_2(name, tmp_path):
    """Every JSON file the CLI writes is json.dumps(obj, indent=2) plus a
    newline, byte for byte: floats round-trip through their repr, so
    re-encoding the loaded object pins the layout with no golden file."""
    spline = tmp_path / "spline.json"
    assert run(["approximate", "--function", "exp:alpha=1", "--r", "1", "--n", "32",
                "--out", str(spline)]) == 0
    argv = [arg(tmp_path) if callable(arg) else str(spline) if arg == "spline" else arg
            for arg in LAYOUT_ARTIFACTS[name]]
    out = tmp_path / "out.json"
    assert run(argv + ["--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


BAD_OUT_ARGV = {
    "approximate": ["approximate", "--function", "exp:alpha=1", "--r", "2", "--n", "64"],
    "certify": ["certify", "--function", "exp:alpha=1", "--r", "1", "--n", "32",
                "--grid-size", "65", "--density", "256"],
    "sweep": ["sweep", "--function", "exp:alpha=1", "--r", "2", "--n", "32"],
    "counterexample": ["counterexample", "--r", "1", "--m", "3", "--x-last", "0.9"],
    "modulus": ["modulus", "--function", "exp:alpha=1", "--k", "2", "--t", "0.5"],
}


@pytest.mark.parametrize("bad", ["missing parent", "parent is a file", "a directory"])
@pytest.mark.parametrize("command", list(BAD_OUT_ARGV))
def test_bad_out_is_refused_before_any_work(command, bad, tmp_path, capsys, monkeypatch):
    """An --out that cannot be written ends in one error line, exit 1,
    before the subcommand runs: nothing is printed or written."""
    spline = tmp_path / "s.json"
    assert run(["approximate", "--function", "exp:alpha=1", "--r", "1", "--n", "32",
                "--out", str(spline)]) == 0
    work = tmp_path / "work"
    work.mkdir()
    out = {"missing parent": work / "missing" / "x.json",
           "parent is a file": spline / "x.json",
           "a directory": work}[bad]
    extra = ["--spline", str(spline)] if command == "certify" else []
    capsys.readouterr()
    for name in BAD_OUT_ARGV:  # a subcommand that ran would raise out of main
        monkeypatch.setattr(f"convexlab.cli.cmd_{name}", None)
    assert run(BAD_OUT_ARGV[command] + extra + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: --out {out}")
    assert list(work.iterdir()) == []


def test_main_builds_its_parser_once_and_runs_each_subcommand(tmp_path, capsys):
    """main calls in a row share one parser and still run the subcommand
    each call names: the same exit codes, output and files as calls that
    each build a fresh parser."""
    from convexlab import cli

    spline = tmp_path / "s.json"
    calls = [["approximate", "--function", "exp:alpha=1", "--r", "1", "--n", "32",
              "--out", str(spline)],
             ["certify", "--function", "exp:alpha=1", "--r", "1", "--n", "32", "--spline",
              str(spline), "--grid-size", "65", "--density", "256", "--out", "{out}"],
             ["sweep", "--function", "exp:alpha=1", "--r", "1", "--n", "32:64:x2",
              "--out", "{out}"],
             ["counterexample", "--r", "1", "--m", "3", "--x-last", "0.9", "--out", "{out}"],
             ["modulus", "--function", "exp:alpha=1", "--k", "2", "--t", "-inf"]]

    def outcomes(fresh):
        seen = []
        for i, argv in enumerate(calls):
            if fresh:
                cli.build_parser.cache_clear()
            out = tmp_path / f"{'fresh' if fresh else 'shared'}{i}.out"
            code = run([str(out) if a == "{out}" else a for a in argv])
            text = out.read_text() if out.exists() else None
            seen.append((code, capsys.readouterr().out.replace(str(out), "OUT"), text))
        return seen

    want = outcomes(fresh=True)
    cli.build_parser.cache_clear()
    assert outcomes(fresh=False) == want
    assert cli.build_parser.cache_info().misses == 1
    assert [code for code, _, _ in want] == [0, 0, 0, 0, 1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_steep_sweep_below_its_threshold_prints_no_warning():
    """cosh:beta=703 at r = 1 has N = 210: find_H's certificates of steep
    trial blocks overflow to inf without a numpy warning, in a fresh
    interpreter with numpy's default filters."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-m", "convexlab.cli", "sweep", "--function",
                           "cosh:beta=703", "--r", "1", "--n", "32:64:x2"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("rows below N_threshold = 210: [32, 64]\n")
