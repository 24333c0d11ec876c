"""Each benchmark check passes real convexlab output and rejects a corrupted copy.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from checks import CheckFailed, Spline  # noqa: E402
from convexlab.certify import sweep  # noqa: E402
from convexlab.domain import parse_function  # noqa: E402
from convexlab.glue import NBelowThreshold, chebyshev_threshold, construct_chebyshev  # noqa: E402

EXP = "exp:alpha=1"
CUBIC = "poly:coeffs=0.5,-0.25,1,0.125"


def _doc(spec, r, n):
    return construct_chebyshev(parse_function(spec), r, n)[0].to_json_dict()


@pytest.fixture(scope="module")
def exp_doc():
    return _doc(EXP, 2, 64)


@pytest.fixture(scope="module")
def cubic_doc():
    return _doc(CUBIC, 2, 64)


@pytest.fixture(scope="module")
def exp_sweep_csv():
    return sweep(parse_function(EXP), 2, [32, 64]).to_csv()


def _corrupt(doc, piece, k, fn):
    bad = copy.deepcopy(doc)
    bad["pieces"][piece]["coeffs"][k] = fn(bad["pieces"][piece]["coeffs"][k])
    return bad


# -- splines ------------------------------------------------------------------

def test_real_splines_pass(exp_doc, cubic_doc):
    assert checks.check_spline(exp_doc, EXP, 2, 64) == 64
    assert checks.check_spline(cubic_doc, CUBIC, 2, 64) == 64


@pytest.mark.parametrize("piece,k", [(0, 0), (0, 1), (-1, 2)])
def test_endpoint_derivative_rejects(exp_doc, piece, k):
    bad = _corrupt(exp_doc, piece, k, lambda c: c * (1 + 1e-6) + 1e-9)
    with pytest.raises(CheckFailed, match=r"S\^"):
        checks.check_endpoint_derivatives(Spline(bad), checks.closed_form(EXP), 2)


def test_convexity_rejects_concave_piece(exp_doc):
    bad = _corrupt(exp_doc, 30, 2, lambda c: -c)
    with pytest.raises(CheckFailed, match="p''"):
        checks.check_convexity(Spline(bad))


def test_convexity_rejects_jump(exp_doc):
    bad = _corrupt(exp_doc, 30, 0, lambda c: c + 1e-6)
    with pytest.raises(CheckFailed, match="jump"):
        checks.check_convexity(Spline(bad))


def test_convexity_rejects_falling_knot_slope():
    # x on [-1, 0] then 0 on [0, 1]: continuous, linear pieces, concave kink
    doc = {"knots": [-1.0, 0.0, 1.0], "convex_certified": True, "pieces": [
        {"center": -0.5, "halfwidth": 0.5, "coeffs": [-0.5, 0.5]},
        {"center": 0.5, "halfwidth": 0.5, "coeffs": [0.0, 0.0]}]}
    with pytest.raises(CheckFailed, match="knot slopes"):
        checks.check_convexity(Spline(doc))


def test_reproduction_rejects(cubic_doc):
    bad = _corrupt(cubic_doc, 20, 3, lambda c: c + 1e-6)
    with pytest.raises(CheckFailed, match="not reproduced"):
        checks.check_reproduction(Spline(bad), checks.closed_form(CUBIC))


def test_spline_rejects_uncertified_or_wrong_knots(exp_doc):
    bad = copy.deepcopy(exp_doc)
    bad["convex_certified"] = False
    with pytest.raises(CheckFailed, match="certified"):
        checks.check_spline(bad, EXP, 2, 64)
    with pytest.raises(CheckFailed, match="pieces"):
        checks.check_spline(exp_doc, EXP, 2, 32)


# -- sweep CSV ------------------------------------------------------------------

def test_real_sweep_passes(exp_sweep_csv):
    rows = checks.parse_sweep_csv(exp_sweep_csv, [32, 64])
    for row in rows:
        n = int(row["n"])
        mine = checks.exp_ratio_2_3(Spline(_doc(EXP, 2, n)), 1.0, 2, n)
        checks.check_exp_ratio(row["ratios"]["2.3"], mine, n)
        # the recomputation is not vacuous: it lands within 0.1% of the program
        assert mine <= row["ratios"]["2.3"] <= mine * 1.001


def _edit_csv(text, line, col, value):
    lines = text.splitlines()
    cells = lines[line].split(",")
    cells[col] = value
    lines[line] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_sweep_rejects_lowered_ratio(exp_sweep_csv):
    rows = checks.parse_sweep_csv(_edit_csv(exp_sweep_csv, 2, 2, "1e-3"), [32, 64])
    mine = checks.exp_ratio_2_3(Spline(_doc(EXP, 2, 64)), 1.0, 2, 64)
    with pytest.raises(CheckFailed, match="below the closed-form"):
        checks.check_exp_ratio(rows[1]["ratios"]["2.3"], mine, 64)


@pytest.mark.parametrize("edit", [
    lambda t: _edit_csv(t, 1, 3, ""),                 # computed row missing a ratio
    lambda t: _edit_csv(t, 1, 4, "nan"),              # non-finite ratio
    lambda t: _edit_csv(t, 0, 0, "N"),                # wrong header
    lambda t: _edit_csv(t, 1, 1, "40"),               # n below N yet computed
    lambda t: "\n".join(t.splitlines()[:2]) + "\n",   # a row missing
])
def test_sweep_rejects_malformed_csv(exp_sweep_csv, edit):
    with pytest.raises(CheckFailed):
        checks.parse_sweep_csv(edit(exp_sweep_csv), [32, 64])


# -- thresholds -----------------------------------------------------------------

@pytest.fixture(scope="module")
def truncpow_threshold():
    f = parse_function("truncpow:r=1,eps=0.01")
    N, H = chebyshev_threshold(f, 1)
    return f, N, H


def test_real_threshold_passes(truncpow_threshold):
    f, N, H = truncpow_threshold
    checks.check_threshold(N, H)
    checks.check_refusal(construct_chebyshev, NBelowThreshold, f, 1, N)
    checks.check_markov(0.01, 1, N)


@pytest.mark.parametrize("dN", [-1, 1])
def test_threshold_rejects_wrong_N(truncpow_threshold, dN):
    _, N, H = truncpow_threshold
    with pytest.raises(CheckFailed, match="ceil"):
        checks.check_threshold(N + dN, H)


def test_threshold_rejects_uncovered_end_gap(truncpow_threshold):
    _, N, H = truncpow_threshold
    with pytest.raises(CheckFailed, match="end gap"):
        checks.check_threshold(N // 4, H)


def test_refusal_rejects_too_large_N(truncpow_threshold):
    f, N, _ = truncpow_threshold
    with pytest.raises(CheckFailed, match="not refused"):
        checks.check_refusal(construct_chebyshev, NBelowThreshold, f, 1, N + 3)


def test_markov_rejects_small_N():
    with pytest.raises(CheckFailed, match="Markov"):
        checks.check_markov(1e-4, 1, 10)


def test_growth():
    checks.check_growth([0.1, 0.01, 0.001], [39, 121, 380])
    with pytest.raises(CheckFailed, match="fell"):
        checks.check_growth([0.1, 0.01, 0.001], [39, 121, 100])
