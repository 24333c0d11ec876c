import math

import numpy as np
import pytest

from convexlab.domain import (
    Partition,
    chebyshev_partition,
    cosh_oracle,
    even_power_oracle,
    exp_oracle,
    f0_oracle,
    normalize_to_unit,
    poly_oracle,
    tangent_line,
    truncpow_oracle,
    uniform_partition,
)
from convexlab.endblocks import integrated_L, mirrored_L
from convexlab.glue import (
    NBelowThreshold,
    PartitionTooCoarse,
    chebyshev_threshold,
    construct_chebyshev,
    construct_spline,
    polygonal_baseline,
)
from convexlab import glue
from convexlab.localconvex import build_sigma
from convexlab.polynomial import Poly


def max_err(f, S, lo=-1.0, hi=1.0, npts=2001):
    xs = np.linspace(lo, hi, npts)
    return float(np.max(np.abs(np.asarray(f(xs)) - S(xs))))


def test_reproduction_of_convex_polynomials():
    cases = [
        (poly_oracle([0.0, 0.0, 1.0]), 1),
        (poly_oracle([0.2, 0.5, 1.0, 0.1]), 2),
        (even_power_oracle(2), 3),
    ]
    for f, r in cases:
        S, trace, N = construct_chebyshev(f, r, 16)
        scale = 1.0 + float(np.max(np.abs(f(np.linspace(-1, 1, 101)))))
        assert max_err(f, S) <= 1e-9 * scale
        assert abs(trace.delta) <= 1e-9 * scale
        assert abs(trace.delta_tilde) <= 1e-9 * scale
        assert trace.lambda_ == pytest.approx(1.0, abs=1e-6)


def test_case_routing_on_delta_hat():
    # the case flag must agree with the sign of the recorded defect difference
    for f, r, n in [(exp_oracle(1.0), 1, 64), (cosh_oracle(1.0), 2, 32),
                    (f0_oracle(1), 1, 64), (exp_oracle(-1.5), 1, 64)]:
        S, trace, _ = construct_chebyshev(f, r, n)
        assert trace.case == (1 if trace.delta_hat >= 0 else 2)
        assert 0.0 < trace.lambda_ <= 1.0
        assert abs(trace.delta_hat) < 0.5 * trace.M
        assert abs(trace.delta) < 0.25 * trace.M
        assert abs(trace.delta_tilde) < 0.25 * trace.M


def test_seam_values_match_blocks():
    f = exp_oracle(1.0)
    r, n = 2, 32
    S, trace, _ = construct_chebyshev(f, r, n)
    g, amap = normalize_to_unit(f)
    X = chebyshev_partition(n)
    u = (X.knots + 1.0) / 2.0
    left = integrated_L(g, 0.0, float(u[1]), r)
    right = mirrored_L(g, 1.0, 1.0 - float(u[-2]), r)
    scale = 1.0 + float(np.max(np.abs(f(X.knots))))
    x1 = float(X.knots[1])
    xn1 = float(X.knots[-2])
    fa, fb = float(f(amap.shift)), float(f(amap.shift + amap.scale))
    want_left = left.poly(float(u[1])) + (fa + (fb - fa) * float(u[1]))
    want_right = right.poly(float(u[-2])) + (fa + (fb - fa) * float(u[-2]))
    assert abs(S(x1) - want_left) <= 1e-9 * scale
    assert abs(S(xn1) - want_right) <= 1e-9 * scale


def test_endpoint_derivative_matching():
    for f, r in [(exp_oracle(1.0), 1), (cosh_oracle(1.0), 2), (f0_oracle(2), 2)]:
        S, _, N = construct_chebyshev(f, r, 24 if 24 >= chebyshev_threshold(f, r)[0] else 64)
        for x, side in ((-1.0, "+"), (1.0, "-")):
            for nu in range(r + 1):
                want = float(f.deriv(nu, x))
                got = S.deriv_value(x, nu, side)
                assert got == pytest.approx(want, rel=1e-8, abs=1e-8), (f.label(), nu, x)


def test_output_class_and_shape():
    for f, r in [(exp_oracle(1.0), 1), (f0_oracle(1), 1), (truncpow_oracle(1, 0.1), 1)]:
        N, _ = chebyshev_threshold(f, r)
        S, trace, _ = construct_chebyshev(f, r, 2 * N)
        assert S.order == r + 2
        assert S.convex_certified
        assert S.is_continuous()


def test_monotone_lambda_geometry_case1():
    # in case 1, sigma minus the tangent at the first interior knot is
    # nonnegative and nondecreasing on the middle span
    f = exp_oracle(1.0)
    r, n = 1, 64
    S, trace, _ = construct_chebyshev(f, r, n)
    if trace.case != 1:
        pytest.skip("construction routed to case 2 for this oracle")
    g, amap = normalize_to_unit(f)
    X = chebyshev_partition(n)
    u = (X.knots + 1.0) / 2.0
    sigma = build_sigma(g, Partition(u), r)
    sl, il = tangent_line(g, float(u[1]))
    grid = np.linspace(float(u[1]), float(u[-2]), 1000)
    vals = sigma(grid) - (sl * grid + il)
    assert np.all(vals >= -1e-10)
    assert np.all(np.diff(vals) >= -1e-10)


def test_seam_defect_bound():
    # |s - sigma| <= |delta| + |delta_tilde| on the middle span
    f = cosh_oracle(1.3)
    r, n = 2, 48
    S, trace, _ = construct_chebyshev(f, r, n)
    g, amap = normalize_to_unit(f)
    X = chebyshev_partition(n)
    u = (X.knots + 1.0) / 2.0
    sigma = build_sigma(g, Partition(u), r)
    grid_u = np.linspace(float(u[1]), float(u[-2]), 800)
    grid_x = amap.shift + amap.scale * grid_u
    fa, fb = float(f(amap.shift)), float(f(amap.shift + amap.scale))
    sigma_x = sigma(grid_u) + (fa + (fb - fa) * grid_u)
    gap = np.abs(S(grid_x) - sigma_x)
    budget = abs(trace.delta) + abs(trace.delta_tilde)
    scale = 1.0 + float(np.max(np.abs(sigma_x)))
    assert np.all(gap <= budget + 1e-9 * scale)


def test_partition_too_coarse():
    f = exp_oracle(1.0)
    X = uniform_partition(-1.0, 1.0, 4)  # end gaps of 0.5 exceed any H <= 0.5/2
    with pytest.raises(PartitionTooCoarse) as ei:
        construct_spline(f, X, 1)
    assert ei.value.h_required > 0


def test_construct_spline_general_partition():
    f = exp_oracle(1.0)
    N, H = chebyshev_threshold(f, 1)
    # hand-made partition: tight end intervals, coarse middle
    knots = np.concatenate([[-1.0, -1.0 + H / 2], np.linspace(-0.6, 0.6, 7),
                            [1.0 - H / 2, 1.0]])
    S, trace = construct_spline(f, Partition(knots), 1)
    assert S.convex_certified
    assert max_err(f, S) < 0.05


def test_n_below_threshold():
    f = truncpow_oracle(1, 0.01)
    N, _ = chebyshev_threshold(f, 1)
    assert N > 8
    with pytest.raises(NBelowThreshold) as ei:
        construct_chebyshev(f, 1, 8)
    assert ei.value.n_threshold == N


def test_threshold_arithmetic():
    # H = 0.01 -> N = ceil(3 / 0.1) = 30: verified through the public API by
    # checking the formula against the reported H
    for f, r in [(exp_oracle(1.0), 1), (f0_oracle(1), 1)]:
        N, H = chebyshev_threshold(f, r)
        assert N == math.ceil(3.0 / math.sqrt(H))


@pytest.mark.parametrize("f, r, want", [
    (truncpow_oracle(2, 1e-4), 2, (851, 1.24489701598951e-05)),
    (exp_oracle(6.0), 3, (14, 0.05176901730731967)),
    (f0_oracle(3), 3, (7, 0.19706965199411913)),
    # the kink windows of omega_2: without them N halves on these two
    (truncpow_oracle(1, 1e-3), 1, (380, 6.248437533587503e-05)),
    (truncpow_oracle(1, 0.01), 1, (121, 0.0006234374995346542)),
])
def test_threshold_pinned(f, r, want):
    # exact (N, H): the modulus engine's row maxima are bit-for-bit stable
    assert chebyshev_threshold(f, r) == want


@pytest.mark.parametrize("c0", [-1.0, 0.0, math.nan, math.inf])
def test_threshold_refuses_bad_c0(c0):
    # c0 <= 0 would pass every smallness test, and nan none of them
    f = exp_oracle(1.0)
    with pytest.raises(ValueError, match="c0"):
        chebyshev_threshold(f, 2, c0=c0)
    with pytest.raises(ValueError, match="c0"):
        construct_chebyshev(f, 2, 64, c0=c0)


def test_threshold_endpoint_gap_admissible():
    # for every n >= N the Chebyshev end gap fits under H
    f = exp_oracle(1.0)
    N, H = chebyshev_threshold(f, 1)
    for n in (N, N + 3, 4 * N):
        gap = 2.0 * math.sin(math.pi / (2 * n)) ** 2
        assert gap <= math.pi**2 / (2 * n * n) <= 5.0 / N**2 + 1e-15
        assert gap <= H * (1 + 1e-12)


def test_affine_short_circuit():
    f = poly_oracle([2.0, -3.0])
    S, trace, N = construct_chebyshev(f, 1, 16)
    assert N == 2
    assert max_err(f, S) <= 1e-12
    assert S.convex_certified


def test_trace_json_fields():
    f = exp_oracle(1.0)
    _, trace, _ = construct_chebyshev(f, 1, 32)
    d = trace.to_json_dict()
    assert set(d) == {"M", "x_star", "H1", "H", "delta", "delta_tilde",
                      "delta_hat", "case", "lambda", "c0_used"}


def test_polygonal_baseline_properties():
    f = exp_oracle(1.0)
    P = polygonal_baseline(f, 16)
    assert P.order == 2
    assert P.convex_certified
    knots = P.knots
    # interpolation is exact by construction; floats allow a couple of ulps
    assert np.allclose(P(knots), f(knots), rtol=5e-16, atol=5e-16)
    slopes = [pair for pair in P.knot_slopes()]
    flat = [s for pair in slopes for s in pair]
    assert all(s2 >= s1 - 1e-12 for s1, s2 in zip(flat, flat[1:]))


def test_polygonal_baseline_affine():
    f = poly_oracle([1.0, 2.0])
    P = polygonal_baseline(f, 8)
    assert max_err(f, P) <= 1e-13


def test_certify_or_raise_rejects_nonconvex_assembly():
    from convexlab.glue import NotConvexOutput, _certify_or_raise
    from convexlab.piecewise import PiecewisePoly
    from convexlab.polynomial import Poly
    bad = PiecewisePoly(
        knots=np.array([0.0, 1.0, 2.0]),
        pieces=(Poly(0.5, 0.5, (0.25, 0.5, 0.25)),      # (x/...)^2-ish, convex
                Poly(1.5, 0.5, (1.0, 1.0, -1.0))),      # concave piece
        order=3)
    with pytest.raises(NotConvexOutput):
        _certify_or_raise(bad)


def test_construction_against_brute_force_checks():
    # independent verification path: dense second differences for convexity,
    # dense evaluation for continuity, no certificates involved
    f = exp_oracle(0.8)
    S, _, _ = construct_chebyshev(f, 2, 48)
    xs = np.linspace(-1.0, 1.0, 20001)
    vals = S(xs)
    second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
    assert np.all(second >= -1e-11 * (1.0 + np.max(np.abs(vals))))
    jumps = np.abs(np.diff(vals))
    assert np.max(jumps) < 4.0 * np.max(np.abs(vals)) * (xs[1] - xs[0]) + 1e-9


def test_random_admissible_partitions_fuzz():
    rng = np.random.default_rng(1234)
    for f, r in [(exp_oracle(1.0), 1), (cosh_oracle(1.2), 2), (f0_oracle(1), 1)]:
        from convexlab.glue import _prepare
        prep = _prepare(f, r, 16.0)
        H_orig = prep.H * 2.0
        for _ in range(5):
            n_mid = int(rng.integers(4, 12))
            mid = np.sort(rng.uniform(-0.7, 0.7, n_mid))
            mid = mid[np.concatenate([[True], np.diff(mid) > 0.02])]
            knots = np.concatenate([
                [-1.0, -1.0 + 0.8 * H_orig], mid, [1.0 - 0.8 * H_orig, 1.0]])
            S, trace = construct_spline(f, Partition(knots), r)
            assert S.convex_certified
            assert S.is_continuous()
            assert 0.0 < trace.lambda_ <= 1.0
            xs = np.linspace(-1, 1, 1001)
            assert np.max(np.abs(np.asarray(f(xs)) - S(xs))) < 1.0


def test_blend_and_denormalize_equal_poly_arithmetic():
    """_assemble blends and denormalises all pieces as one coefficient matrix;
    each piece must equal Poly's own arithmetic in Python floats bit for bit:
    lam * p plus a line for the blended pieces, then rescale_domain and
    plus_line for all, with pieces of one to four coefficients."""
    f = exp_oracle(1.5)
    _, amap = normalize_to_unit(f)
    unit = [Poly(0.05, 0.05, (0.3,)), Poly(0.2, 0.1, (0.2, -0.7, 1.1)),
            Poly(0.45, 0.15, (-0.4, 0.3, 0.9, 0.05)), Poly(0.7, 0.1, (0.6,)),
            Poly(0.9, 0.1, (0.1, 1.3))]
    lam, slope, icept = 0.7, 0.37, -0.21 + 0.013
    knots = amap.shift + amap.scale * np.array([0.0, 0.1, 0.3, 0.6, 0.8, 1.0])
    S = glue._denormalize(*glue._blend(unit, 4, lam, slope, icept), knots, amap, f)

    a, length = amap.shift, amap.scale
    slope_x = (float(f(a + length)) - float(f(a))) / length
    intercept_x = float(f(a)) - slope_x * a
    blended = [unit[0]] + [Poly(p.center, p.halfwidth, [lam * c for c in p.coeffs])
                           .plus_line(slope, icept) for p in unit[1:-1]] + [unit[-1]]
    want = [p.rescale_domain(a, length).plus_line(slope_x, intercept_x) for p in blended]
    assert S.pieces == tuple(want)
    assert [len(p.coeffs) for p in S.pieces] == [2, 3, 4, 2, 2]
