import math

import pytest

from convexlab.certify import (
    BOUND_IDS,
    MismatchedInputs,
    counterexample_witness,
    pointwise_bound_report,
    polynomial_counterexample,
    sweep,
    threshold_growth,
    verify_convexity,
)
from convexlab.domain import even_power_oracle, exp_oracle, parse_function
from convexlab.glue import construct_chebyshev, polygonal_baseline
from convexlab.piecewise import PiecewisePoly
from convexlab.polynomial import Poly


def test_verify_convexity_accepts_baseline():
    rep = verify_convexity(polygonal_baseline(exp_oracle(1.0), 16))
    assert rep.convex
    assert not rep.offending_pieces


def test_verify_convexity_flags_bad_piece():
    S = polygonal_baseline(exp_oracle(1.0), 8)
    bad = list(S.pieces)
    lo, hi = float(S.knots[3]), float(S.knots[4])
    bad[3] = Poly(0.5 * (lo + hi), 0.5 * (hi - lo), (0.0, 0.0, -1.0))
    broken = PiecewisePoly(S.knots, tuple(bad), order=3)
    rep = verify_convexity(broken)
    assert not rep.convex
    assert 3 in rep.offending_pieces


def test_verify_convexity_affine_spline():
    from convexlab.domain import poly_oracle
    S = polygonal_baseline(poly_oracle([1.0, 2.0]), 8)
    rep = verify_convexity(S)
    assert rep.convex
    assert all(c.min_second_derivative == pytest.approx(0.0, abs=1e-12)
               for c in rep.piece_certificates)


def test_verify_convexity_flags_jump():
    # both pieces are convex and the one-sided slopes agree (2.0) at x = 1,
    # but the spline jumps from 1 to 6 there
    S = PiecewisePoly(knots=[0.0, 1.0, 2.0],
                      pieces=(Poly(0.5, 0.5, (0.25, 0.5, 0.25)),
                              Poly(1.5, 0.5, (7.25, 1.5, 0.25))),
                      order=3)
    rep = verify_convexity(S)
    assert not rep.convex
    assert not rep.continuous
    assert rep.slopes_ok and not rep.offending_pieces


def test_bound_report_reproduction_all_zero():
    f = even_power_oracle(2)
    S, _, _ = construct_chebyshev(f, 3, 32)
    for b in BOUND_IDS:
        rep = pointwise_bound_report(f, S, 3, 32, b, grid_size=65, density=256)
        assert rep.sup_ratio == 0.0, b


def test_bound_report_finite_ratios_exp():
    f = exp_oracle(1.0)
    S, _, _ = construct_chebyshev(f, 1, 32)
    for b in BOUND_IDS:
        rep = pointwise_bound_report(f, S, 1, 32, b, grid_size=65, density=512)
        assert math.isfinite(rep.sup_ratio), b
        for x, err in rep.excluded_points:
            assert err <= 1e-10 * (1.0 + math.e)


def test_bound_report_sup_is_max_of_rows():
    f = exp_oracle(1.0)
    S, _, _ = construct_chebyshev(f, 1, 32)
    rep = pointwise_bound_report(f, S, 1, 32, "2.3", grid_size=65, density=512)
    assert rep.sup_ratio == pytest.approx(max(row[3] for row in rep.grid))


def test_bound_report_mismatched_inputs():
    f = exp_oracle(1.0)
    S, _, _ = construct_chebyshev(f, 1, 32)
    with pytest.raises(MismatchedInputs):
        pointwise_bound_report(f, S, 1, 64, "2.3")


def test_bound_report_strips_exclude_endpoints():
    f = exp_oracle(1.0)
    S, _, _ = construct_chebyshev(f, 1, 32)
    rep = pointwise_bound_report(f, S, 1, 32, "2.4", grid_size=65, density=512)
    xs = [row[0] for row in rep.grid] + [p[0] for p in rep.excluded_points]
    assert all(-1.0 < x < 1.0 for x in xs)
    w = 1.0 / 32**2
    assert all(x <= -1.0 + w or x >= 1.0 - w for x in xs)


def test_sweep_rows_and_flags():
    f = exp_oracle(1.0)
    tab = sweep(f, 1, [4, 16, 32], grid_size=65, density=256)
    assert [row["n"] for row in tab.rows] == [4, 16, 32]
    assert not tab.rows[0]["computed"]  # 4 < threshold
    assert tab.rows[1]["computed"] and tab.rows[2]["computed"]
    csv_text = tab.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("n,N_threshold,sup_ratio_2_3")
    assert len(lines) == 4


def test_sweep_deterministic_bytes():
    f = exp_oracle(1.0)
    a = sweep(f, 1, [16, 32], grid_size=65, density=256).to_csv()
    b = sweep(f, 1, [16, 32], grid_size=65, density=256).to_csv()
    assert a == b


def test_witness_threshold_arithmetic():
    w = counterexample_witness(1, 3, 0.9)
    assert w.epsilon_threshold == pytest.approx(0.025)
    assert w.contradiction  # auto epsilon = threshold/2


def test_witness_explicit_epsilon():
    w = counterexample_witness(1, 3, 0.9, epsilon=0.01)
    assert w.markov_lhs == pytest.approx(0.02)
    assert w.markov_rhs == pytest.approx(0.008)
    assert w.contradiction


@pytest.mark.parametrize("m, epsilon", [
    (1, "auto"), (0, "auto"), (3, math.nan), (3, math.inf), (3, 0.0), (3, -0.01)])
def test_witness_refuses_degenerate_input(m, epsilon):
    # order 1 forces no derivative, and a witness must stay finite for JSON
    with pytest.raises(ValueError):
        counterexample_witness(1, m, 0.5, epsilon=epsilon)


def test_witness_contradiction_iff_below_threshold():
    # pure arithmetic: exact equivalence over a deterministic sweep
    cases = 0
    for r in (1, 2, 3, 4):
        for m in (2, 3, 5):
            for x_last in (-0.5, 0.0, 0.5, 0.9, 0.99):
                w0 = counterexample_witness(r, m, x_last)
                for eps in (0.5 * w0.epsilon_threshold,
                            0.999 * w0.epsilon_threshold,
                            w0.epsilon_threshold,
                            1.5 * w0.epsilon_threshold):
                    w = counterexample_witness(r, m, x_last, epsilon=eps)
                    assert w.contradiction == (eps < w.epsilon_threshold)
                    cases += 1
    assert cases >= 100


def test_polynomial_variant_ratio():
    for r in (1, 2, 3):
        for n in (4, 9, 16, 33, 64):
            out = polynomial_counterexample(r, n)
            assert out["ratio"] == pytest.approx(r + 1.0, rel=1e-12)


def test_threshold_growth_truncpow():
    out = threshold_growth(1, [0.1, 0.01, 0.001])
    col = [row["N_threshold"] for row in out["rows"]]
    assert out["nondecreasing"]
    assert col[-1] > col[0]


@pytest.mark.parametrize("r, eps_list", [(2, [1e-4, 1e-5]), (1, [1e-6, 1e-7])])
def test_threshold_growth_monotone_for_tiny_corners(r, eps_list):
    assert threshold_growth(r, eps_list)["nondecreasing"]


def test_threshold_growth_validates_order():
    with pytest.raises(ValueError):
        threshold_growth(1, [0.01, 0.1])
    with pytest.raises(ValueError, match="c0"):
        threshold_growth(1, [0.1, 0.01], c0=-1.0)


# sup ratios in BOUND_IDS order, pinned so that a change to the modulus
# engine or to the bound table cannot move a certified ratio unnoticed;
# f0:r=2 adds nonzero 2.4, 2.5 and 2.11 ratios, which the other two cases
# leave below the noise floor
PINNED_SUP_RATIOS = [
    ("exp:alpha=1", 2, 64, (0.07843981337683607, 0.0, 0.0, 0.0, 0.0,
                            0.004006491938542441)),
    ("truncpow:r=1,eps=0.2", 1, 64, (0.04675527766815244, 0.0, 0.0, 0.0, 0.0,
                                     0.04242651343101159)),
    ("f0:r=2", 2, 64, (0.25552197402699717, 0.0601506446361374, 0.04286605005819232,
                       0.24880531696590197, 0.0, 0.023690004687598243)),
]


@pytest.mark.parametrize("spec,r,n,want", PINNED_SUP_RATIOS,
                         ids=[case[0] for case in PINNED_SUP_RATIOS])
def test_bound_report_sup_ratios_pinned(spec, r, n, want):
    f = parse_function(spec)
    S, _, _ = construct_chebyshev(f, r, n)
    got = [pointwise_bound_report(f, S, r, n, b).sup_ratio for b in BOUND_IDS]
    assert got == pytest.approx(list(want), rel=1e-12, abs=0.0)
