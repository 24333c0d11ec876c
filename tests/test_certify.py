import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from convexlab import certify, smoothness
from convexlab.certify import (
    BOUND_IDS,
    MismatchedInputs,
    SweepTable,
    counterexample_witness,
    pointwise_bound_report,
    pointwise_bound_reports,
    polynomial_counterexample,
    sweep,
    threshold_growth,
    verify_convexity,
)
from convexlab.domain import even_power_oracle, exp_oracle, f0_oracle, parse_function
from convexlab.glue import construct_chebyshev, polygonal_baseline
from convexlab.piecewise import PiecewisePoly
from helpers import Poly, pieces_of, reference_bound_report, spline_of


def test_verify_convexity_accepts_baseline():
    rep = verify_convexity(polygonal_baseline(exp_oracle(1.0), 16))
    assert rep.convex
    assert not rep.offending_pieces


def test_verify_convexity_flags_bad_piece():
    S = polygonal_baseline(exp_oracle(1.0), 8)
    bad = pieces_of(S)
    lo, hi = float(S.knots[3]), float(S.knots[4])
    bad[3] = Poly(0.5 * (lo + hi), 0.5 * (hi - lo), (0.0, 0.0, -1.0))
    broken = spline_of(S.knots, bad, 3)
    rep = verify_convexity(broken)
    assert not rep.convex
    assert 3 in rep.offending_pieces


def test_verify_convexity_affine_spline():
    from convexlab.domain import poly_oracle
    S = polygonal_baseline(poly_oracle([1.0, 2.0]), 8)
    rep = verify_convexity(S)
    assert rep.convex
    assert all(m == pytest.approx(0.0, abs=1e-12) for m in rep.piece_min_second_derivative)


def test_verify_convexity_flags_jump():
    # both pieces are convex and the one-sided slopes agree (2.0) at x = 1,
    # but the spline jumps from 1 to 6 there
    S = spline_of([0.0, 1.0, 2.0],
                  [Poly(0.5, 0.5, (0.25, 0.5, 0.25)),
                   Poly(1.5, 0.5, (7.25, 1.5, 0.25))], 3)
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


@pytest.mark.parametrize("where", [0, 17, -1])
def test_bound_report_nan_error_makes_sup_ratio_nan(where):
    """A NaN error at one grid point of any bound is kept, also where every
    other point is noise: its bound is read as over the full profile (or from
    the oracle's lower ends of omega), and its NaN ratio is the sup."""
    f = exp_oracle(1.0)
    S, _, _ = construct_chebyshev(f, 2, 16)
    for f, b in [(oracle, b) for oracle in (f, dataclasses.replace(f, omega_enclosure=None))
                 for b in BOUND_IDS]:
        rep = pointwise_bound_report(f, S, 2, 16, b, grid_size=65)
        assert math.isfinite(rep.sup_ratio), b
        nan_x = np.sort(np.concatenate([rep.grid[:, 0], rep.excluded_points[:, 0]]))[where]

        class NaNAt(PiecewisePoly):
            def __call__(self, x):
                return np.where(x == nan_x, np.nan, super().__call__(x))

        broken = NaNAt(S.knots, S.coeffs, S.centers, S.halfwidths)
        rep = pointwise_bound_report(f, broken, 2, 16, b, grid_size=65)
        assert math.isnan(rep.sup_ratio), b
        row = rep.grid[np.isnan(rep.grid[:, 1])]
        assert row.shape == (1, 4) and row[0, 0] == nan_x and math.isfinite(row[0, 2]), b
        want = reference_bound_report(f, broken, 2, 16, b, 65, certify.CERTIFICATION_DENSITY)
        assert np.array_equal(rep.grid, want.grid, equal_nan=True), b


# (oracle, r, n) whose reports must equal the full-profile reference, each
# with its omega enclosure and without it (sampled moduli): exp at n=32
# keeps points in every bound, at n=128 bounds 2.4 to 2.12 keep none;
# truncpow adds kink windows and a densified grid; xpow:m=2 at r=3 is the
# all-zero reproduction
REFERENCE_CASES = [
    ("exp:alpha=1", 2, 32),
    ("exp:alpha=1", 2, 128),
    ("f0:r=2", 2, 64),
    ("truncpow:r=1,eps=0.2", 1, 64),
    ("cosh:beta=1.3", 1, 64),
    ("xpow:m=2", 3, 32),
]


@pytest.mark.parametrize("grid_size,density", [(65, 256), (257, 2048)])
@pytest.mark.parametrize("spec,r,n", REFERENCE_CASES,
                         ids=[f"{s}-r{r}-n{n}" for s, r, n in REFERENCE_CASES])
def test_bound_report_equals_full_profile_reference(spec, r, n, grid_size, density):
    f = parse_function(spec)
    S, _, _ = construct_chebyshev(f, r, n)
    for f, b in [(oracle, b) for oracle in (f, dataclasses.replace(f, omega_enclosure=None))
                 for b in BOUND_IDS]:
        got = pointwise_bound_report(f, S, r, n, b, grid_size, density)
        want = reference_bound_report(f, S, r, n, b, grid_size, density)
        assert np.array_equal(got.grid, want.grid), b
        assert np.array_equal(got.excluded_points, want.excluded_points), b
        assert got.sup_ratio == want.sup_ratio, b


def test_bound_report_builds_only_the_rows_its_kept_points_read(monkeypatch):
    """exp:alpha=1, r=2 at n=128 with sampled moduli: bounds 2.4, 2.5, 2.11
    and 2.12 keep no point and compute no modulus row, 2.3 computes no step
    above its largest kept one, and 2.13 evaluates only the knot intervals
    that hold a kept point and the two end intervals."""
    f = dataclasses.replace(parse_function("exp:alpha=1"), omega_enclosure=None)
    n = 128
    S, _, _ = construct_chebyshev(f, 2, n)
    steps, intervals = [], []
    row_maxima, lower_bounds = smoothness._row_maxima, certify.modulus_lower_bounds

    def spy_rows(fn, k, us, *args):
        steps.append(us)
        return row_maxima(fn, k, us, *args)

    def spy_bounds(fn, k, ts, *args, **kwargs):
        intervals.append(len(ts))
        return lower_bounds(fn, k, ts, *args, **kwargs)

    monkeypatch.setattr(smoothness, "_row_maxima", spy_rows)
    monkeypatch.setattr(certify, "modulus_lower_bounds", spy_bounds)
    for b in BOUND_IDS:
        steps.clear()
        intervals.clear()
        rep = pointwise_bound_report(f, S, 2, n, b)
        rows = sum(us.size for us in steps)
        if b == "2.3":
            kept_steps = certify._PROFILE_BOUNDS[b][1](rep.grid[:, 0], n)
            assert kept_steps.size > 0 and 0 < rows
            assert max(us.max(initial=0.0) for us in steps) <= kept_steps.max()
        elif b == "2.13":
            held = np.unique(np.clip(
                np.searchsorted(S.knots, rep.grid[:, 0], side="right") - 1, 1, n - 2))
            assert held.size > 0 and 0 < sum(intervals) <= held.size + 2
        else:
            assert rep.grid.shape == (0, 4) and rows == 0, b


@pytest.mark.parametrize("flags, message", [
    ({"density": 10}, "grid must be >= 64"),
    ({"grid_size": 0}, "grid_size must be >= 1"),
])
def test_bound_report_refuses_degenerate_lattices_when_no_point_is_kept(flags, message):
    # at n=128, bounds 2.4 to 2.12 of exp keep no point and build no row,
    # and still refuse a lattice the modulus layer or the grid cannot take
    f = exp_oracle(1.0)
    S, _, _ = construct_chebyshev(f, 2, 128)
    lattice = {"grid_size": certify.DEFAULT_GRID_SIZE,
               "density": certify.CERTIFICATION_DENSITY, **flags}
    for b in BOUND_IDS:
        with pytest.raises(ValueError, match=message):
            pointwise_bound_report(f, S, 2, 128, b, **flags)
        with pytest.raises(ValueError, match=message):
            certify._setups(f, S, 2, 128, (b,), **lattice)


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


def test_bound_report_rows_follow_the_exclusion_rules():
    """Every report of exp:alpha=1, r=2 at n=1024: each kept row's ratio is
    err / max(bound, DENOM_FLOOR) and its point is not excluded, each
    excluded point is float noise or (under a zero bound) below ATOL_REL, the
    sup is the largest kept ratio, and 0.0 where every point is excluded, as
    for bound 2.3 here; the JSON holds plain lists of floats."""
    f = exp_oracle(1.0)
    S, _, _ = construct_chebyshev(f, 2, 1024)
    for b in BOUND_IDS:
        rep = pointwise_bound_report(f, S, 2, 1024, b, grid_size=65, density=256)
        assert rep.grid.shape[1:] == (4,) and rep.excluded_points.shape[1:] == (2,)
        xs = np.concatenate([rep.grid[:, 0], rep.excluded_points[:, 0]])
        scale = 1.0 + float(np.max(np.abs(f(xs))))
        noise, atol = certify.NOISE_REL * scale, certify.ATOL_REL * scale
        for x, err, bnd, ratio in rep.grid.tolist():
            assert ratio == err / max(bnd, certify.DENOM_FLOOR)
            assert err > noise and not (bnd <= certify.DENOM_FLOOR and err <= atol)
        for x, err in rep.excluded_points.tolist():
            assert err <= noise or err <= atol
        assert rep.sup_ratio == max(rep.grid[:, 3].tolist(), default=0.0)
        doc = rep.to_json_dict()
        for key, width in (("grid", 4), ("excluded_points", 2)):
            assert type(doc[key]) is list
            assert all(type(row) is list and len(row) == width
                       and all(type(v) is float for v in row) for row in doc[key])
        if b == "2.3":
            assert rep.grid.shape == (0, 4) and len(rep.excluded_points) == 65
            assert rep.sup_ratio == 0.0 and doc["grid"] == []


def test_bound_report_refuses_an_oracle_off_the_chebyshev_domain():
    # f on [0, 1] would be evaluated at x = -1 by the grid on [-1, 1]
    S, _, _ = construct_chebyshev(f0_oracle(2), 2, 16)
    for b in BOUND_IDS:
        with pytest.raises(ValueError, match="oracle on \\[-1, 1\\]"):
            pointwise_bound_report(f0_oracle(2, domain=(0.0, 1.0)), S, 2, 16, b)


def test_bound_report_mismatched_inputs():
    f = exp_oracle(1.0)
    S, _, _ = construct_chebyshev(f, 1, 32)
    with pytest.raises(MismatchedInputs):
        pointwise_bound_report(f, S, 1, 64, "2.3")
    with pytest.raises(MismatchedInputs):
        pointwise_bound_reports(f, S, 1, 64)
    with pytest.raises(MismatchedInputs):
        certify._setups(f, S, 1, 64, BOUND_IDS, certify.DEFAULT_GRID_SIZE,
                        certify.CERTIFICATION_DENSITY)


@pytest.mark.parametrize("spec, r", [("exp:alpha=1", 2), ("truncpow:r=1,eps=0.2", 1)])
def test_sweep_sets_up_each_row_in_one_pass(spec, r, monkeypatch):
    """A computed row checks the knots once, for all six bounds, and
    evaluates f on their grids in one call; 2.4 and 2.5 read one strip grid."""
    f = parse_function(spec)
    events = []
    partition, construct, value = (certify.chebyshev_partition, certify._construct_chebyshev,
                                   f.derivs[0])

    def spy_partition(n):
        events.append(("knots", n))
        return partition(n)

    def spy_value(x):
        events.append(("f", np.size(x)))
        return value(x)

    def quiet_construct(prep, g, *args):  # the spline is built from the unspied oracle
        events.append(("row", args[-1]))
        return construct(prep, f, *args)

    spied = dataclasses.replace(f, derivs=(spy_value, *f.derivs[1:]))
    monkeypatch.setattr(certify, "chebyshev_partition", spy_partition)
    monkeypatch.setattr(certify, "_construct_chebyshev", quiet_construct)
    tab = sweep(spied, r, [32, 64, 128])
    assert [row["computed"] for row in tab.rows] == [True] * 3
    rows = [i for i, event in enumerate(events) if event[0] == "row"]
    assert len(rows) == 3
    for n, start, stop in zip((32, 64, 128), rows, rows[1:] + [len(events)]):
        S, _, _ = construct_chebyshev(f, r, n)
        setups = certify._setups(f, S, r, n, BOUND_IDS, certify.DEFAULT_GRID_SIZE,
                                 certify.CERTIFICATION_DENSITY)
        assert setups[1].xs is setups[2].xs
        points = sum({id(s.xs): s.xs.size for s in setups}.values())
        assert events[start:stop] == [("row", n), ("knots", n), ("f", points)]


def test_bound_reports_equal_the_one_bound_reports():
    f = parse_function("truncpow:r=1,eps=0.2")
    S, _, _ = construct_chebyshev(f, 1, 64)
    reports = pointwise_bound_reports(f, S, 1, 64, grid_size=129, density=512)
    assert [rep.bound_id for rep in reports] == list(BOUND_IDS)
    for rep in reports:
        one = pointwise_bound_report(f, S, 1, 64, rep.bound_id, 129, 512)
        assert rep.to_json_dict() == one.to_json_dict()
    with pytest.raises(ValueError, match="unknown bound id"):
        pointwise_bound_reports(f, S, 1, 64, ("2.3", "2.6"))


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


def _same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


# f0:r=2 is a cusp whose 2.3 sup sits at the smallest steps, truncpow a kink
# with focus windows and a densified grid, exp:alpha=1 at n=256 leaves 2.4 to
# 2.12 all noise (0.0); 65/256 and 129/512 are the lattices of the tests and
# of demos/05_certified_bounds.py
SWEEP_EQUALITY_CASES = [
    ("f0:r=2", 2, [32, 64, 128, 256], 257, 2048),
    ("truncpow:r=1,eps=0.2", 1, [32, 64, 256], 257, 2048),
    ("exp:alpha=1", 2, [32, 256], 257, 2048),
    ("exp:alpha=1", 1, [16, 32], 65, 256),
    ("f0:r=2", 2, [16, 32, 64], 129, 512),
    ("truncpow:r=1,eps=0.2", 1, [32, 64], 65, 256),
]


@pytest.mark.parametrize("term_batch", [certify.TERM_BATCH, 1])
@pytest.mark.parametrize("spec,r,ns,grid_size,density", SWEEP_EQUALITY_CASES,
                         ids=[f"{c[0]}-r{c[1]}-{c[3]}-{c[4]}" for c in SWEEP_EQUALITY_CASES])
def test_sweep_sup_ratios_equal_the_reports_bit_for_bit(spec, r, ns, grid_size, density,
                                                        term_batch, monkeypatch):
    """A sweep computes only the modulus rows and interval terms that can move
    a sup ratio, and each ratio is the report's float; with one 2.13 interval
    per round, the rounds after the first are exercised too."""
    monkeypatch.setattr(certify, "TERM_BATCH", term_batch)
    f = parse_function(spec)
    tab = sweep(f, r, ns, grid_size=grid_size, density=density)
    assert all(row["computed"] for row in tab.rows)
    for row in tab.rows:
        n = row["n"]
        S, _, _ = construct_chebyshev(f, r, n)
        for b in BOUND_IDS:
            want = pointwise_bound_report(f, S, r, n, b, grid_size, density).sup_ratio
            assert _same_float(row["sup_ratio"][b], want), (n, b, row["sup_ratio"][b], want)
        if spec == "exp:alpha=1" and n == 256:
            assert row["sup_ratio"]["2.4"] == 0.0


@pytest.mark.parametrize("term_batch", [certify.TERM_BATCH, 1])
@pytest.mark.parametrize("spec,r,ns,grid_size,density", SWEEP_EQUALITY_CASES,
                         ids=[f"{c[0]}-r{c[1]}-{c[3]}-{c[4]}" for c in SWEEP_EQUALITY_CASES])
def test_sampled_sweep_sup_ratios_equal_the_reports_bit_for_bit(spec, r, ns, grid_size, density,
                                                                term_batch, monkeypatch):
    """Without the oracle's omega enclosure (as for poly and a user oracle)
    the sweep samples only the modulus rows and interval terms that can move
    a sup ratio, and each ratio is the report's float; with one 2.13 interval
    per round, the rounds after the first are exercised too."""
    monkeypatch.setattr(certify, "TERM_BATCH", term_batch)
    f = dataclasses.replace(parse_function(spec), omega_enclosure=None)
    tab = sweep(f, r, ns, grid_size=grid_size, density=density)
    assert all(row["computed"] for row in tab.rows)
    for row in tab.rows:
        n = row["n"]
        S, _, _ = construct_chebyshev(f, r, n)
        for b in BOUND_IDS:
            want = pointwise_bound_report(f, S, r, n, b, grid_size, density).sup_ratio
            assert _same_float(row["sup_ratio"][b], want), (n, b, row["sup_ratio"][b], want)


@pytest.mark.parametrize("spec, r", [("exp:alpha=1", 2), ("cosh:beta=1.3", 1), ("xpow:m=2", 1),
                                     ("f0:r=2", 2), ("truncpow:r=1,eps=0.2", 1)])
def test_enclosed_oracles_sample_no_modulus(spec, r, monkeypatch):
    """Every family with a lower end of omega divides by it alone: a sweep
    and the six reports call none of the sampling engines."""
    f = parse_function(spec)
    S, _, _ = construct_chebyshev(f, r, 32)

    def refuse(*args, **kwargs):
        raise AssertionError("sampled a modulus")

    for name in ("ModulusProfile", "modulus_lower_bounds", "profile_probe", "lattice_probe"):
        monkeypatch.setattr(certify, name, refuse)
        monkeypatch.setattr(smoothness, name, refuse)
    monkeypatch.setattr(smoothness, "_row_maxima", refuse)
    tab = sweep(f, r, [32, 64])
    assert all(row["computed"] for row in tab.rows)
    for b in BOUND_IDS:
        assert pointwise_bound_report(f, S, r, 32, b).sup_ratio == tab.rows[0]["sup_ratio"][b]


def _swept_and_reported(monkeypatch, f, r, n, change, bound_id):
    """A one-row sweep whose spline is change(S), and the report of bound_id
    on that spline."""
    construct = certify._construct_chebyshev

    def changed(*args):
        S, trace, extra = construct(*args)
        return change(S), trace, extra

    with monkeypatch.context() as m:
        m.setattr(certify, "_construct_chebyshev", changed)
        got = sweep(f, r, [n], grid_size=65, density=256).rows[0]["sup_ratio"][bound_id]
    S, _, _ = construct_chebyshev(f, r, n)
    return got, pointwise_bound_report(f, change(S), r, n, bound_id, 65, 256).sup_ratio


@pytest.mark.parametrize("bound_id", BOUND_IDS)
def test_sweep_equals_the_report_on_a_broken_spline(bound_id, monkeypatch):
    """A NaN, +inf, -inf or 1e308 value at one kept point gives both sides
    the same ratio (NaN, inf, inf, and 1e308 over the bound, which may
    overflow).  Under x^2 at r = 2, f'' is constant, every bound is 0 and a
    spline off by 1e-6 keeps every point, each ratio dividing by
    DENOM_FLOOR."""
    f = exp_oracle(1.0)
    S, _, _ = construct_chebyshev(f, 2, 32)
    kept = pointwise_bound_report(f, S, 2, 32, bound_id, 65, 256).grid
    broken_x = kept[len(kept) // 2, 0]

    def broken_at(value):
        class BrokenAt(PiecewisePoly):
            def __call__(self, x):
                return np.where(x == broken_x, value, super().__call__(x))

        return lambda S: BrokenAt(S.knots, S.coeffs, S.centers, S.halfwidths)

    class Off(PiecewisePoly):
        def __call__(self, x):
            return super().__call__(x) + 1e-6

    for value in (np.nan, np.inf, -np.inf, 1e308):
        got, want = _swept_and_reported(monkeypatch, f, 2, 32, broken_at(value), bound_id)
        assert _same_float(got, want), (value, got, want)
        assert math.isnan(got) if math.isnan(value) else got > 1e200
    got, want = _swept_and_reported(monkeypatch, even_power_oracle(1), 2, 16, lambda S: Off(
        S.knots, S.coeffs, S.centers, S.halfwidths), bound_id)
    assert got == want and want > 1e200


def test_sweep_builds_fewer_rows_and_lattices_than_the_report(monkeypatch):
    """exp:alpha=1, r=2 at n=256 with sampled moduli: the report's 2.13
    builds one lattice per knot interval holding a kept point and the two end
    ones, 196, and its 2.3 profile 189 rows; the sweep builds at most 10
    lattices and 112 rows."""
    f = dataclasses.replace(parse_function("exp:alpha=1"), omega_enclosure=None)
    n = 256
    S, _, _ = construct_chebyshev(f, 2, n)
    rows, lattices = [], []
    row_maxima, lower_bounds = smoothness._row_maxima, certify.modulus_lower_bounds

    def spy_rows(fn, k, us, a, b, cols, focus):
        if cols.size == certify.CERTIFICATION_DENSITY:  # a built row, not a probe
            rows.append(us.size)
        return row_maxima(fn, k, us, a, b, cols, focus)

    def spy_bounds(fn, k, ts, *args, **kwargs):
        lattices.append(len(ts))
        return lower_bounds(fn, k, ts, *args, **kwargs)

    monkeypatch.setattr(smoothness, "_row_maxima", spy_rows)
    monkeypatch.setattr(certify, "modulus_lower_bounds", spy_bounds)
    counts = {}
    for b in ("2.3", "2.13"):
        setup = certify._setups(f, S, 2, n, (b,), certify.DEFAULT_GRID_SIZE,
                                certify.CERTIFICATION_DENSITY)[0]
        for label, call in (("report", lambda: pointwise_bound_report(f, S, 2, n, b)),
                            ("sweep", lambda: certify._sup_ratio(setup))):
            rows.clear()
            lattices.clear()
            call()
            counts[label, b] = sum(rows) + sum(lattices)
    assert counts["report", "2.3"] == 189 and counts["sweep", "2.3"] <= 112
    assert counts["report", "2.13"] == 196 and counts["sweep", "2.13"] <= 10


def test_sweep_refuses_domain_before_preparing(monkeypatch):
    # both rows lie below the threshold N = 9 of [0, 1], so a check made per
    # computed row never runs; the refusal must come before the preparation
    prepared = []
    monkeypatch.setattr(certify, "_prepare", lambda *args: prepared.append(args))
    with pytest.raises(ValueError, match="on \\[-1, 1\\]"):
        sweep(exp_oracle(1.0, domain=(0.0, 1.0)), 2, [2, 3])
    assert not prepared


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


@pytest.mark.parametrize("r, m, x_last, epsilon", [
    (2000, 4, 0.9, "auto"),   # eps^r overflows
    (2, 4, 0.9, 1e200),       # eps^r overflows
    (2, 4, 0.9, 1e-200),      # both sides underflow to 0 = 0
    (1, 4, 0.9, 1e-200),      # the cap side underflows
    (2, 10 ** 200, 0.9, "auto"),  # 2 (m-1)^2 overflows
])
def test_witness_refuses_terms_outside_the_float_range(r, m, x_last, epsilon):
    with pytest.raises(ValueError, match="not finite"):
        counterexample_witness(r, m, x_last, epsilon=epsilon)


@pytest.mark.parametrize("r, n", [(200, 10), (2, 10 ** 200), (2, 10 ** 400)])
def test_polynomial_variant_refuses_terms_outside_the_float_range(r, n):
    # (200, 10) divided 0 by 0; the others overflowed converting n^2
    with pytest.raises(ValueError, match="not finite and positive"):
        polynomial_counterexample(r, n)


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


def _record_keys(rec):
    return [fld.name for fld in dataclasses.fields(rec)]


def test_report_json_keys_are_the_record_fields():
    S, _, _ = construct_chebyshev(exp_oracle(1.0), 1, 32)
    conv = verify_convexity(S)
    assert list(conv.to_json_dict()) == _record_keys(conv) == [
        "convex", "continuous", "slopes_ok", "offending_pieces",
        "piece_min_second_derivative"]
    rep = pointwise_bound_report(exp_oracle(1.0), S, 1, 32, "2.3", grid_size=33, density=256)
    assert list(rep.to_json_dict()) == _record_keys(rep)
    w = counterexample_witness(2, 4, 0.9)
    assert list(w.to_json_dict()) == _record_keys(w)


def test_sweep_csv_header_follows_bound_ids():
    assert SweepTable.CSV_FIELDS == (
        "n", "N_threshold", *(f"sup_ratio_{b.replace('.', '_')}" for b in BOUND_IDS),
        "wall_ms")


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


# sup ratios in BOUND_IDS order with sampled moduli (the oracles' omega
# enclosures removed), pinned so that a change to the modulus engine or to
# the bound table cannot move a certified ratio unnoticed; f0:r=2 adds
# nonzero 2.4, 2.5 and 2.11 ratios, which the other two cases leave below
# the noise floor
PINNED_SUP_RATIOS = [
    ("exp:alpha=1", 2, 64, (0.2497459137115802, 0.0, 0.0, 0.0, 0.0,
                            0.010415394625393311)),
    ("truncpow:r=1,eps=0.2", 1, 64, (0.04675527766815244, 0.0, 0.0, 0.0, 0.0,
                                     0.04242651343101159)),
    ("f0:r=2", 2, 64, (0.2555219839727828, 0.06015067423535457, 0.042876596795048086,
                       0.24909643553605496, 0.0, 0.023690004437646666)),
]


@pytest.mark.parametrize("spec,r,n,want", PINNED_SUP_RATIOS,
                         ids=[case[0] for case in PINNED_SUP_RATIOS])
def test_bound_report_sup_ratios_pinned(spec, r, n, want):
    f = dataclasses.replace(parse_function(spec), omega_enclosure=None)
    S, _, _ = construct_chebyshev(f, r, n)
    got = [pointwise_bound_report(f, S, r, n, b).sup_ratio for b in BOUND_IDS]
    assert got == pytest.approx(list(want), rel=1e-12, abs=0.0)


# the same cases with the oracles' lower ends of omega in the denominators;
# each moves from the sampled pin by under 7e-12 relative
PINNED_ENCLOSED_SUP_RATIOS = [
    ("exp:alpha=1", 2, 64, (0.24974591371175553, 0.0, 0.0, 0.0, 0.0,
                            0.010415394625404062)),
    ("truncpow:r=1,eps=0.2", 1, 64, (0.0467552776682216, 0.0, 0.0, 0.0, 0.0,
                                     0.042426513432431014)),
    ("f0:r=2", 2, 64, (0.2555219839730075, 0.06015067423541376, 0.04287659679508709,
                       0.2490964355344452, 0.0, 0.02369000443766485)),
]


@pytest.mark.parametrize("spec,r,n,want", PINNED_ENCLOSED_SUP_RATIOS,
                         ids=[case[0] for case in PINNED_ENCLOSED_SUP_RATIOS])
def test_bound_report_enclosed_sup_ratios_pinned(spec, r, n, want):
    f = parse_function(spec)
    S, _, _ = construct_chebyshev(f, r, n)
    got = [pointwise_bound_report(f, S, r, n, b).sup_ratio for b in BOUND_IDS]
    assert got == pytest.approx(list(want), rel=1e-12, abs=0.0)


def _bench_checks():
    path = Path(__file__).resolve().parent.parent / "bench" / "checks.py"
    spec = importlib.util.spec_from_file_location("bench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n", [32, 64, 128, 256])
def test_bench_exp_ratio_gate(n):
    # the benchmark's sweep check: ratio 2.3 divides by a lower bound of the
    # modulus, so it may not fall below the closed-form recomputation; it is
    # sensitive to the last bits of the spline, most of all at n = 256
    checks = _bench_checks()
    f = parse_function("exp:alpha=1")
    S, _, _ = construct_chebyshev(f, 2, n)
    mine = checks.exp_ratio_2_3(checks.Spline(S.to_json_dict()), 1.0, 2, n)
    checks.check_exp_ratio(pointwise_bound_report(f, S, 2, n, "2.3").sup_ratio, mine, n)


@pytest.mark.parametrize("n", [32, 64, 128, 256, 512])
def test_exp_ratio_is_at_least_the_exact_one(n):
    # ratio 2.3 divides by a proved lower bound of the modulus, so it is at
    # least the benchmark's recomputation with the exact modulus, with no
    # margin: a sampled modulus read above the exact one at n = 256 and 512
    checks = _bench_checks()
    f = parse_function("exp:alpha=1")
    S, _, _ = construct_chebyshev(f, 2, n)
    exact = checks.exp_ratio_2_3(checks.Spline(S.to_json_dict()), 1.0, 2, n)
    assert pointwise_bound_report(f, S, 2, n, "2.3").sup_ratio >= exact
