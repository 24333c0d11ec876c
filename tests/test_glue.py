import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convexlab.domain import (
    InvalidN,
    Partition,
    chebyshev_partition,
    cosh_oracle,
    even_power_oracle,
    exp_oracle,
    f0_oracle,
    parse_function,
    poly_oracle,
    tangent_line,
    truncpow_oracle,
)
from convexlab.endblocks import find_H, integrated_L, mirrored_L
from convexlab.glue import (
    GlueTrace,
    NBelowThreshold,
    NotConvexOutput,
    PartitionTooCoarse,
    chebyshev_threshold,
    construct_chebyshev,
    construct_spline,
    polygonal_baseline,
)
from convexlab import glue, localconvex, polynomial, smoothness
from convexlab.localconvex import build_sigma
from convexlab.polynomial import ConvexityCertificate, convexity_certificate
from convexlab.smoothness import modulus
from convexlab.piecewise import PiecewisePoly
from helpers import Poly, poly_of, reference_find_H, reference_row_maxima, spline_of


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
    X = chebyshev_partition(n)
    x1 = float(X.knots[1])
    xn1 = float(X.knots[-2])
    left = integrated_L(f, -1.0, x1 + 1.0, r)
    right = mirrored_L(f, 1.0, 1.0 - xn1, r)
    scale = 1.0 + float(np.max(np.abs(f(X.knots))))
    assert abs(S(x1) - poly_of(left)(x1)) <= 1e-9 * scale
    assert abs(S(xn1) - poly_of(right)(xn1)) <= 1e-9 * scale


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
    X = chebyshev_partition(n)
    sigma = build_sigma(f, X, r)
    sl, il = tangent_line(f, float(X.knots[1]))
    grid = np.linspace(float(X.knots[1]), float(X.knots[-2]), 1000)
    vals = sigma(grid) - (sl * grid + il)
    assert np.all(vals >= -1e-10)
    assert np.all(np.diff(vals) >= -1e-10)


def test_seam_defect_bound():
    # |s - sigma| <= |delta| + |delta_tilde| on the middle span
    f = cosh_oracle(1.3)
    r, n = 2, 48
    S, trace, _ = construct_chebyshev(f, r, n)
    X = chebyshev_partition(n)
    sigma = build_sigma(f, X, r)
    grid_x = np.linspace(float(X.knots[1]), float(X.knots[-2]), 800)
    sigma_x = sigma(grid_x)
    gap = np.abs(S(grid_x) - sigma_x)
    budget = abs(trace.delta) + abs(trace.delta_tilde)
    scale = 1.0 + float(np.max(np.abs(sigma_x)))
    assert np.all(gap <= budget + 1e-9 * scale)


def test_partition_too_coarse():
    f = exp_oracle(1.0)
    X = Partition(np.linspace(-1.0, 1.0, 5))  # end gaps of 0.5 exceed any H <= 0.5/2
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
    (truncpow_oracle(2, 1e-4), 2, (851, 1.244896879733226e-05)),
    (exp_oracle(6.0), 3, (14, 0.05176901719491191)),
    (f0_oracle(3), 3, (7, 0.19706965209621868)),
    # the kink windows of omega_2: without them N halves on these two
    (truncpow_oracle(1, 1e-3), 1, (380, 6.248437521911426e-05)),
    (truncpow_oracle(1, 0.01), 1, (121, 0.0006234375072939335)),
])
def test_threshold_pinned(f, r, want):
    # exact (N, H): the modulus engine's row maxima are bit-for-bit stable
    assert chebyshev_threshold(f, r) == want


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("spec, want", [("cosh:beta=703", 210), ("exp:alpha=703", 168)])
def test_steep_threshold_raises_no_runtime_warning(spec, want):
    # find_H's trial blocks here have p'' past the float range: the
    # certificate reads it as inf, and numpy's overflow is not a warning
    assert chebyshev_threshold(parse_function(spec), 1)[0] == want


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


def test_affine_input_below_two_pieces_is_refused():
    with pytest.raises(NBelowThreshold) as ei:
        construct_chebyshev(poly_oracle([1.0, 2.0]), 1, 1)
    assert ei.value.n_threshold == 2
    S, _, N = construct_chebyshev(poly_oracle([1.0, 2.0]), 1, 2)
    assert (S.n, N) == (2, 2)


def test_trace_json_fields():
    f = exp_oracle(1.0)
    _, trace, _ = construct_chebyshev(f, 1, 32)
    d = trace.to_json_dict()
    assert set(d) == {"M", "x_star", "H1", "H", "H1_certified", "H1_halvings", "delta",
                      "delta_tilde", "delta_hat", "case", "lambda", "hermite_rows",
                      "blend_rows", "lp_rows", "parabola_fallback_rows", "secant_rows"}
    assert [d[k] for k in d if k.endswith("_rows")] == [0, 0, 30, 0, 0]
    # x*, H1 and H are x values: H <= H1 <= half the distance from x* to the nearer end
    assert -1.0 < d["x_star"] < 1.0
    assert 0.0 < d["H"] <= d["H1"] <= 0.5 * min(d["x_star"] + 1.0, 1.0 - d["x_star"])


@pytest.mark.parametrize("f", [poly_oracle([1.0, 2.0]), exp_oracle(1.0)],
                         ids=["affine", "blended"])
def test_one_construction_builds_one_trace(monkeypatch, f):
    """Both paths build their trace at one site, and its JSON keys are its
    fields in order, lambda_ written as lambda."""
    built = []

    def counting(*args, **kwargs):
        built.append(GlueTrace(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(glue, "GlueTrace", counting)
    _, trace, _ = construct_chebyshev(f, 1, 32)
    assert built == [trace] and built[0] is trace
    assert list(trace.to_json_dict()) == [
        "lambda" if fld.name == "lambda_" else fld.name for fld in dataclasses.fields(trace)]


def test_affine_trace_has_no_blend():
    _, trace, _ = construct_chebyshev(poly_oracle([1.0, 2.0]), 1, 16)
    d = trace.to_json_dict()
    assert [d[k] for k in ("delta", "delta_tilde", "delta_hat", "case", "lambda")] == \
        [0.0, 0.0, 0.0, 1, 1.0]


@pytest.mark.parametrize("n", [0, -3])
def test_construct_chebyshev_refuses_n_below_one_before_the_threshold(n):
    # a threshold refusal would read "need n >= 7"; n < 1 is no partition
    for f in (exp_oracle(1.0), poly_oracle([1.0, 2.0])):
        with pytest.raises(InvalidN, match=f"need n >= 1, got {n}"):
            construct_chebyshev(f, 2, n)


def test_trace_counts_rows_by_source(monkeypatch):
    """The trace counts the rows between the end blocks by source; every
    row of an affine input is a secant."""
    _, trace, _ = construct_chebyshev(poly_oracle([1.0, 2.0]), 1, 16)
    assert (trace.lp_rows, trace.parabola_fallback_rows, trace.secant_rows) == (0, 0, 16)
    _, trace, _ = construct_chebyshev(exp_oracle(20.0), 2, 28)
    assert (trace.hermite_rows, trace.blend_rows, trace.lp_rows,
            trace.parabola_fallback_rows, trace.secant_rows) == (20, 6, 0, 0, 0)

    real = localconvex._fit_points

    def not_finite(*args):
        d, e = real(*args)
        return d, np.full_like(e, np.nan)

    # fit data that is not finite gives no blend weight, so every row is P
    monkeypatch.setattr(localconvex, "_fit_points", not_finite)
    _, trace, _ = construct_chebyshev(exp_oracle(1.0), 1, 32)
    assert (trace.lp_rows, trace.parabola_fallback_rows, trace.secant_rows) == (0, 30, 0)


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


def test_polygonal_baseline_refuses_an_oracle_off_the_chebyshev_domain():
    # the Chebyshev knots would evaluate f at x = -1, outside [0, 1]
    with pytest.raises(ValueError, match="oracle on \\[-1, 1\\]"):
        polygonal_baseline(f0_oracle(2, domain=(0.0, 1.0)), 8)


def test_chebyshev_threshold_refuses_an_oracle_off_the_chebyshev_domain():
    # on [0, 1] the threshold of N Chebyshev knots on [-1, 1] means nothing
    with pytest.raises(ValueError, match="oracle on \\[-1, 1\\]"):
        chebyshev_threshold(f0_oracle(2, domain=(0.0, 1.0)), 2)


def test_certify_or_raise_rejects_nonconvex_assembly():
    from convexlab.glue import NotConvexOutput, _certify_or_raise
    bad = spline_of(
        [0.0, 1.0, 2.0],
        [Poly(0.5, 0.5, (0.25, 0.5, 0.25)),      # (x/...)^2-ish, convex
         Poly(1.5, 0.5, (1.0, 1.0, -1.0))],      # concave piece
        3)
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
        prep = _prepare(f, r)
        H_orig = prep.H
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


def test_blend_equals_poly_arithmetic():
    """_glue blends all pieces as one coefficient matrix; each row must equal
    Poly's own arithmetic in Python floats bit for bit, zero-padded to the
    order: lam * p plus a line for the interior pieces, the end blocks as
    they are, with pieces of one to four coefficients."""
    pieces = [Poly(-0.9, 0.1, (0.3,)), Poly(-0.6, 0.2, (0.2, -0.7, 1.1)),
              Poly(-0.1, 0.3, (-0.4, 0.3, 0.9, 0.05)), Poly(0.4, 0.2, (0.6,)),
              Poly(0.8, 0.2, (0.1, 1.3))]
    lam, slope, icept = 0.7, 0.37, -0.21 + 0.013
    knots = np.array([-1.0, -0.8, -0.4, 0.2, 0.6, 1.0])
    interior = spline_of(knots[1:-1], pieces[1:-1], 4)
    S = PiecewisePoly(knots, *glue._blend(pieces[0], interior, pieces[-1], lam, slope, icept))

    want = [pieces[0]] + [Poly(p.center, p.halfwidth, [lam * c for c in p.coeffs])
                          .plus_line(slope, icept) for p in pieces[1:-1]] + [pieces[-1]]
    assert S.order == 4
    assert S.coeffs.tolist() == [list(p.coeffs) + [0.0] * (4 - len(p.coeffs)) for p in want]
    assert S.centers.tolist() == [p.center for p in want]
    assert S.halfwidths.tolist() == [p.halfwidth for p in want]


def test_construction_builds_no_poly_per_piece(monkeypatch):
    """The pieces are born as coefficient rows: the ConvexityCertificate
    objects of one construction (the end blocks' checks) do not grow with n,
    and the polygonal baseline and an affine input, all secant rows, build
    none.  No construction computes slacks or calls the divided-difference
    interpolant."""
    built = {"hermite_interpolant": 0, "ConvexityCertificate": 0, "_slacks": 0}
    cert_init = ConvexityCertificate.__init__

    def counting_cert(self, *args, **kwargs):
        built["ConvexityCertificate"] += 1
        cert_init(self, *args, **kwargs)

    def counted(name, fn):
        def wrapper(*args):
            built[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ConvexityCertificate, "__init__", counting_cert)
    for module, name in ((polynomial, "hermite_interpolant"), (localconvex, "_slacks")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    f = exp_oracle(1.0)
    counts = {}
    for n in (64, 1024, 4096):
        built.update(dict.fromkeys(built, 0))
        construct_chebyshev(f, 2, n)
        counts[n] = built["ConvexityCertificate"]
        assert built["_slacks"] == built["hermite_interpolant"] == 0
    for n in (1024, 4096):
        assert counts[n] <= counts[64]
    for build in (lambda: polygonal_baseline(exp_oracle(1.0), 4096),
                  lambda: construct_chebyshev(poly_oracle([1.0, 2.0]), 1, 4096)):
        built.update(dict.fromkeys(built, 0))
        build()
        assert built == {"hermite_interpolant": 0, "ConvexityCertificate": 0, "_slacks": 0}
    localconvex._secant_piece(f, -1.0, 1.0)  # the counters do count
    polynomial.hermite_interpolant([(-1.0, [1.0, 0.5]), (1.0, [2.0])])
    block = integrated_L(f, -1.0, 0.5, 2)
    convexity_certificate(block, block.interval)
    assert built == {"hermite_interpolant": 1, "ConvexityCertificate": 1, "_slacks": 1}


def _prepare_reference(f, r):
    """_prepare's (M, x*, H1, H), all in x, with the full modulus profile
    built at every tried radius, and the number of radii tried."""
    fa, fb = float(f(-1.0)), float(f(1.0))
    slope = (fb - fa) / 2.0

    def depth(x):
        return fa + slope * (x + 1.0) - f(x)

    xs = np.linspace(-1.0, 1.0, glue.SCAN_POINTS)
    vals = np.asarray(depth(xs), dtype=float)
    i_max = int(np.argmax(vals))
    dx = 2.0 / (glue.SCAN_POINTS - 1)
    x_ref, deepest = glue._golden_max(lambda x: float(depth(x)), max(-1.0, xs[i_max] - dx),
                                      min(1.0, xs[i_max] + dx))
    if deepest >= vals[i_max]:
        x_star, M = float(x_ref), float(deepest)
    else:
        x_star, M = float(xs[i_max]), float(vals[i_max])
    fr = f.deriv_fn(r)
    H1 = 0.5 * min(x_star + 1.0, 1.0 - x_star)
    tried = 0
    while True:
        tried += 1
        boundary_ok = max(float(depth(-1.0 + H1)), float(depth(1.0 - H1))) < 0.5 * M
        if boundary_ok and 4.0 * glue.C0 * H1 ** r * modulus(
                fr, 2, H1, (-1.0, 1.0), glue.HYPOTHESIS_GRID, f.nonsmooth).value < M:
            break
        H1 *= 0.5
    return (M, x_star, H1, min(find_H(f, (-1.0, 1.0), r, 0.5), H1)), tried


_PREPARE_CASES = [
    ("truncpow:r=1,eps=0.01", 1), ("truncpow:r=1,eps=0.3", 1), ("truncpow:r=1,eps=1e-4", 1),
    ("truncpow:r=2,eps=0.001", 2), ("f0:r=1", 1), ("f0:r=2", 2), ("f0:r=3", 3),
    ("cosh:beta=3.1", 2), ("cosh:beta=0.7", 1), ("exp:alpha=2.3", 2), ("exp:alpha=0.5", 1),
    ("exp:alpha=8", 3), ("exp:alpha=20", 2), ("xpow:m=3", 2),
]


def test_prepare_equals_full_profile_at_every_radius():
    # the oracle's bound decides each radius without the sampled profile;
    # the accepted radius and everything derived from it stay bit-identical
    tried = {}
    for spec, r in _PREPARE_CASES:
        prep = glue._prepare(parse_function(spec), r)
        want, tried[spec, r] = _prepare_reference(parse_function(spec), r)
        assert (prep.M, prep.x_star, prep.H1, prep.H) == want, (spec, r)
    # several radii rejected before the accepted one
    for case in [("truncpow:r=1,eps=0.01", 1), ("f0:r=1", 1), ("cosh:beta=3.1", 2)]:
        assert tried[case] >= 3, (case, tried[case])


@pytest.mark.parametrize("spec, r", _PREPARE_CASES)
def test_prepare_equals_the_reference_kernels_bit_for_bit(monkeypatch, spec, r):
    # the row kernel and the threshold ladder against their plain forms
    got = dataclasses.astuple(glue._prepare(parse_function(spec), r))
    monkeypatch.setattr(smoothness, "_row_maxima", reference_row_maxima)
    monkeypatch.setattr(glue, "find_H", reference_find_H)
    want = dataclasses.astuple(glue._prepare(parse_function(spec), r))
    assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


@pytest.mark.parametrize("spec, r, rows", [
    ("truncpow:r=1,eps=0.01", 1, [512, 512, 512]),
    ("exp:alpha=2.3", 2, [512]),
])
def test_prepare_builds_one_full_profile(monkeypatch, spec, r, rows):
    # a finite bound decides every radius without a modulus row; without
    # omega_enclosure each radius that passes the boundary test gets the
    # HYPOTHESIS_GRID rows of one full profile, and the others none
    seen = []
    row_maxima = smoothness._row_maxima

    def spy(f, k, us, *args):
        seen.append(us.size)
        return row_maxima(f, k, us, *args)

    monkeypatch.setattr(smoothness, "_row_maxima", spy)
    f = parse_function(spec)
    assert not glue._prepare(dataclasses.replace(f, omega_enclosure=None), r).H1_certified
    assert seen == rows
    seen.clear()
    assert glue._prepare(f, r).H1_certified
    assert seen == []


def test_a_finite_bound_refusal_is_final():
    # the exp:alpha=1 bound, scaled to twice M at the radius the sample
    # accepts, refuses it, and the sample is not asked instead
    f = parse_function("exp:alpha=1")
    sampled = glue._prepare(dataclasses.replace(f, omega_enclosure=None), 1)
    upper = f.omega_enclosure(2, 1, sampled.H1, -1.0, 1.0)[1]
    k = 2.0 * sampled.M / (4.0 * glue.C0 * sampled.H1 * upper)
    assert k > 1.0
    prep = glue._prepare(dataclasses.replace(
        f, omega_enclosure=lambda *args: (None, k * f.omega_enclosure(*args)[1])), 1)
    assert prep.H1_certified
    assert prep.H1_halvings > sampled.H1_halvings
    assert prep.H1 < sampled.H1


# -- steep and wide inputs: every one builds certified -------------------------


@pytest.mark.parametrize("spec, r, n", [
    ("exp:alpha=20", 2, 28), ("exp:alpha=20", 2, 112), ("exp:alpha=25", 2, None),
    ("exp:alpha=40", 2, None), ("cosh:beta=40", 2, 144), ("exp:alpha=5", 2, 4096),
    ("exp:alpha=1", 5, 512), ("exp:alpha=690", 2, None),
])
def test_steep_and_fine_cases_build_certified(spec, r, n):
    # n = None builds at the threshold N itself; exp:alpha=690 has N = 166
    f = parse_function(spec)
    N, _ = chebyshev_threshold(f, r)
    S, trace, _ = construct_chebyshev(f, r, n or N)
    assert S.convex_certified
    assert trace.parabola_fallback_rows == 0
    if spec == "exp:alpha=690":
        assert N == 166


# The standing failure: at these n the one-sided knot slopes of the rows next
# to the ends drop by about ulp(f)/h, past verify_convexity's tolerance, and
# construct_chebyshev raises NotConvexOutput.  A fix must remove the marker.
_KNOT_SLOPE_DROP = pytest.mark.xfail(strict=True, raises=NotConvexOutput,
                                     reason="one-sided knot slopes are not nondecreasing")


@pytest.mark.parametrize("spec, r, n", [
    pytest.param("f0:r=1", 1, 32768, marks=_KNOT_SLOPE_DROP),
    pytest.param("exp:alpha=1", 1, 65536, marks=_KNOT_SLOPE_DROP),
    pytest.param("exp:alpha=1", 2, 65536, marks=_KNOT_SLOPE_DROP),
    pytest.param("cosh:beta=1", 1, 65536, marks=_KNOT_SLOPE_DROP),
    pytest.param("f0:r=2", 2, 65536, marks=_KNOT_SLOPE_DROP),
    ("xpow:m=2", 1, 65536), ("exp:alpha=1", 2, 32768),
])
def test_very_large_n_builds_certified(spec, r, n):
    S, _, _ = construct_chebyshev(parse_function(spec), r, n)
    assert S.convex_certified


@pytest.mark.parametrize("n", [256, 1024])
def test_end_values_and_derivatives_within_a_few_ulps(n):
    """S^(j)(+-1) = f^(j)(+-1) to a few ulps for j <= r: no secant is added
    to the end blocks' rows."""
    f, r = exp_oracle(8.0), 2
    S, _, _ = construct_chebyshev(f, r, n)
    for x, side in ((-1.0, "+"), (1.0, "-")):
        for j in range(r + 1):
            want = float(f.deriv(j, x))
            assert abs(S.deriv_value(x, j, side) - want) <= 8 * np.spacing(want), (x, j)


_FAMILIES = st.one_of(
    st.floats(0.5, 40.0).map(lambda a: (f"exp:alpha={a!r}", 8)),
    st.floats(0.5, 40.0).map(lambda b: (f"cosh:beta={b!r}", 8)),
    st.integers(1, 4).map(lambda m: (f"xpow:m={m}", 8)),
    st.tuples(st.integers(1, 2), st.floats(1e-3, 0.5)).map(
        lambda t: (f"truncpow:r={t[0]},eps={t[1]!r}", t[0])),
    st.integers(1, 3).map(lambda r: (f"f0:r={r}", r)),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(family=_FAMILIES, r=st.integers(1, 4), k=st.integers(1, 8))
def test_every_family_builds_certified_or_is_below_threshold(family, r, k):
    """Each drawn (f, r, n = k N capped at 1024) ends in a certified spline
    or in NBelowThreshold, never in another refusal."""
    spec, smoothness_order = family
    f, r = parse_function(spec), min(r, smoothness_order)
    N, _ = chebyshev_threshold(f, r)
    n = min(k * N, 1024)
    if n < N:
        with pytest.raises(NBelowThreshold):
            construct_chebyshev(f, r, n)
    else:
        S, _, _ = construct_chebyshev(f, r, n)
        assert S.convex_certified


# every builtin family at several r: the bench's threshold families and
# parameters past them, convex polynomials whose f^(r) is linear or
# constant, and corners from gentle to sharp; then bench cells that a looser
# sinh form left to the sample, and one that the Taylor form of exp left to it
_BOUND_CENSUS = (
    [(f"exp:alpha={a}", r) for a in (0.5, 2.3, 7.43, 8, 20, -3) for r in (1, 2, 3)]
    + [(f"cosh:beta={b}", r) for b in (0.7, 1.84, 4, 6, -2) for r in (1, 2, 3)]
    + [("cosh:beta=0.505689", 1), ("cosh:beta=0.524556", 1), ("cosh:beta=1.76752", 3),
       ("exp:alpha=7.42788", 2)]
    + [(f"xpow:m={m}", r) for m in (1, 2, 3) for r in (1, 2)]
    + [(f"poly:coeffs={c}", r) for c in ("0.5,-0.25,1,0.125", "0,0,1", "0,0,1,0,1")
       for r in (1, 2, 3)]
    + [(f"f0:r={r}", r) for r in (1, 2, 3, 4, 5)]
    + [(f"truncpow:r=1,eps={e}", 1) for e in (1.5, 0.3, 0.01, 1e-3, 1e-4)]
    + [("truncpow:r=2,eps=0.1", 2), ("truncpow:r=2,eps=1e-3", 2), ("truncpow:r=3,eps=0.01", 3)]
)


@pytest.mark.parametrize("spec, r", _BOUND_CENSUS)
def test_omega2_bound_is_above_the_sampled_modulus(spec, r):
    # the sample _prepare would compute, at radii around the one it accepts,
    # at a step a millionth of it, and at 0.8, where on [-1, 1] the sinh
    # form's monotone range 3(t + delta) <= 2 ends; also on an interval
    # off-center and inside [-1, 1]
    f = parse_function(spec)
    H1 = glue._prepare(f, r).H1
    fr = f.deriv_fn(r)
    for lo, hi in ((-1.0, 1.0), (-0.3, 0.9)):
        kinks = [p for p in f.nonsmooth if lo <= p <= hi]
        for t in (0.8, 4.0 * H1, 2.0 * H1, H1, 0.5 * H1, 0.125 * H1, 1e-6 * H1):
            sample = modulus(fr, 2, t, (lo, hi), glue.HYPOTHESIS_GRID, kinks).value
            assert f.omega_enclosure(2, r, t, lo, hi)[1] >= sample, (lo, hi, t, sample)


@pytest.mark.parametrize("spec, r", [(spec, r) for spec, r in _BOUND_CENSUS
                                     if spec.startswith(("exp:", "cosh:", "f0:"))])
def test_omega2_bound_is_tight_at_H1(spec, r):
    # the closed forms are the exact omega_2 plus the rounding slack, and at
    # H1 the sample reaches their argmax: the step H1 at the end column of
    # its centers (the right end for exp with alpha > 0 and for cosh, the
    # left for alpha < 0 and for f0's cusp)
    f = parse_function(spec)
    H1 = glue._prepare(f, r).H1
    sample = modulus(f.deriv_fn(r), 2, H1, (-1.0, 1.0), glue.HYPOTHESIS_GRID).value
    assert f.omega_enclosure(2, r, H1, -1.0, 1.0)[1] / sample - 1.0 <= 1e-4, (H1, sample)


@pytest.mark.parametrize("spec, r", _BOUND_CENSUS)
def test_prepare_is_the_same_with_and_without_omega2_bound(spec, r):
    # without the hook (a user oracle) every radius is sampled
    f = parse_function(spec)
    prep = glue._prepare(f, r)
    sampled = glue._prepare(dataclasses.replace(f, omega_enclosure=None), r)
    assert prep == sampled
    assert [float(v).hex() for v in dataclasses.astuple(prep)[:-1]] == \
        [float(v).hex() for v in dataclasses.astuple(sampled)[:-1]]
    assert not sampled.H1_certified


def test_bound_accepts_every_bench_cell():
    # the 29 cells of a bench threshold round at seed 1, three of which
    # (exp:alpha=7.42788 r=2, cosh:beta=1.83661 r=1, f0:r=1) the Taylor and
    # omega_1 forms missed at 1.06 to 1.10 times M
    cells = [(f"truncpow:r={r},eps={e}", r) for r in (1, 2)
             for e in (0.1, 0.03, 0.01, 0.003, 0.001, 3e-4, 1e-4)]
    cells += [(f"exp:alpha={a}", r) for a in (1.00387, 7.42788) for r in (1, 2, 3)]
    cells += [(f"cosh:beta={b}", r) for b in (1.83661, 2.69637) for r in (1, 2, 3)]
    cells += [(f"f0:r={r}", r) for r in (1, 2, 3)]
    sampled = [(spec, r) for spec, r in cells
               if not glue._prepare(parse_function(spec), r).H1_certified]
    assert sampled == []


def test_trace_counts_the_radii_refused_before_H1():
    # the first radius is half the distance from x* to the nearer end, and
    # each refused one is halved, exactly in floats
    for spec, r, halvings in (("exp:alpha=1", 1, 2), ("truncpow:r=1,eps=0.01", 1, 3),
                              ("f0:r=2", 2, 2)):
        f = parse_function(spec)
        _, trace, _ = construct_chebyshev(f, r, chebyshev_threshold(f, r)[0])
        assert trace.H1_halvings == halvings, spec
        first = 0.5 * min(trace.x_star + 1.0, 1.0 - trace.x_star)
        assert trace.H1 == first * 0.5 ** halvings, spec
    _, trace, _ = construct_chebyshev(poly_oracle([1.0, 2.0]), 1, 16)
    assert trace.H1_halvings == 0


def test_overflowing_bound_takes_the_sampled_path():
    # max |p^(3)| = 24 * 6e306 + 60 * 1.4e306 is past the float range, so the
    # Taylor form of the upper end reads inf at every radius, while p' and
    # its sampled differences stay finite
    f = parse_function("poly:coeffs=0,0,1e307,0,6e306,1.4e306")
    prep = glue._prepare(f, 1)
    assert f.omega_enclosure(2, 1, prep.H1, -1.0, 1.0)[1] == math.inf
    assert not prep.H1_certified
    assert dataclasses.astuple(prep) == \
        dataclasses.astuple(glue._prepare(dataclasses.replace(f, omega_enclosure=None), 1))


@pytest.mark.parametrize("spec, r", [("exp:alpha=700", 1), ("exp:alpha=-700", 1),
                                     ("cosh:beta=700", 1), ("cosh:beta=-700", 1),
                                     ("cosh:beta=690", 3)])
def test_bound_terms_do_not_overflow_needlessly(spec, r):
    # max |f^(r+1)| overflows on its own, but delta times it does not: the
    # upper end is finite and decides the same M, x*, H1 and H as the sample
    f = parse_function(spec)
    prep = glue._prepare(f, r)
    assert prep.H1_certified
    sampled = glue._prepare(dataclasses.replace(f, omega_enclosure=None), r)
    assert [float(v).hex() for v in dataclasses.astuple(prep)[:-1]] == \
        [float(v).hex() for v in dataclasses.astuple(sampled)[:-1]]


def test_trace_records_how_H1_was_accepted():
    _, trace, _ = construct_chebyshev(exp_oracle(1.0), 1, 32)
    assert trace.H1_certified is True and trace.to_json_dict()["H1_certified"] is True
    _, trace, _ = construct_chebyshev(dataclasses.replace(exp_oracle(1.0), omega_enclosure=None),
                                      1, 32)
    assert trace.H1_certified is False
    _, trace, _ = construct_chebyshev(poly_oracle([1.0, 2.0]), 1, 16)
    assert trace.H1_certified is False
