import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import linprog as scipy_linprog
from scipy.sparse import block_diag

from convexlab.domain import (
    ConvexOracle,
    Partition,
    chebyshev_partition,
    cosh_oracle,
    even_power_oracle,
    exp_oracle,
    f0_oracle,
    parse_function,
    poly_oracle,
    truncpow_oracle,
    uniform_partition,
)
from convexlab import localconvex
from convexlab.glue import chebyshev_threshold, construct_chebyshev
from convexlab.localconvex import (
    NotConvexInput,
    SolverStall,
    build_sigma,
    convex_parabola,
    convex_piece,
    convex_pieces,
)
from convexlab.polynomial import convexity_certificate, convexity_certificates, horner_rows
from convexlab.smoothness import modulus
from helpers import Poly, lp_blocks, pieces_of

# pieces per LP of the reference solves below, and a unit of partition sizes
CHUNK = 16


def sample_max_error(f, S, npts=200):
    xs = np.linspace(S.a, S.b, npts)
    return float(np.max(np.abs(f(xs) - S(xs))))


def test_parabola_reproduces_square():
    # worked through the construction: g'(0) = -1, g'(1) = 1, first branch,
    # re-adding the secant yields x^2 itself
    f = poly_oracle([0.0, 0.0, 1.0])
    S, sources, slacks = convex_parabola(f, (0.0, 1.0))
    xs = np.linspace(0, 1, 50)
    assert (S.n, S.order, sources, slacks.shape) == (1, 3, ["parabola"], (1, 2))
    assert np.allclose(S(xs), xs**2, atol=1e-13)
    assert slacks[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert slacks[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_parabola_of_affine_is_affine():
    f = poly_oracle([3.0, -2.0])
    S, _, _ = convex_parabola(f, (-1.0, 1.0))
    xs = np.linspace(-1, 1, 20)
    assert np.allclose(S(xs), f(xs), atol=1e-13)


def test_parabola_exp_branch_arithmetic():
    # g'(0) = 2 - e, g'(1) = 1, so the first branch fires and the parabola in
    # normalized coordinates is (2 - e)(v - v^2)
    f = exp_oracle(1.0, domain=(0.0, 1.0))
    S, _, slacks = convex_parabola(f, (0.0, 1.0))
    e = math.e
    vs = np.linspace(0, 1, 33)
    expected = (2.0 - e) * (vs - vs**2) + (1.0 + (e - 1.0) * vs)
    assert np.allclose(S(vs), expected, atol=1e-12)
    # inner-end slope drops below f': P'(1) = e - 2 <= g'(1) = 1
    assert slacks[0, 1] >= -1e-12
    assert slacks[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_parabola_interpolates_and_certifies():
    for f in (exp_oracle(1.0), cosh_oracle(2.0), f0_oracle(1)):
        S, _, slacks = convex_parabola(f, (-0.5, 0.75))
        a, b = S.a, S.b
        assert (a, b) == (-0.5, 0.75)
        scale = 1.0 + max(abs(float(f(a))), abs(float(f(b))))
        assert abs(S(a) - float(f(a))) <= 1e-10 * scale
        assert abs(S(b) - float(f(b))) <= 1e-10 * scale
        assert np.all(slacks >= -1e-10 * scale)
        assert convexity_certificate(pieces_of(S)[0], (a, b)).convex


def test_parabola_rejects_concave_input():
    f = poly_oracle([0.0, 0.0, -1.0])
    with pytest.raises(NotConvexInput):
        convex_parabola(f, (-1.0, 1.0))


def test_parabola_rows_stay_convex_on_intervals_where_rounding_flips_a_slope_sign():
    """On the shortest intervals of a fine partition the rounded g'(0) or
    g'(1) of exp can take the wrong sign; the parabola keeps c2 >= 0 anyway
    and still interpolates f at both ends."""
    f = exp_oracle(1.0)
    knots = chebyshev_partition(65536).knots
    a, b = knots[:-1], knots[1:]
    P = localconvex._parabola(f, a, b)
    assert np.all(P[:, 2] >= 0.0)
    scale = 1.0 + np.maximum(np.abs(f(a)), np.abs(f(b)))
    assert np.all(np.abs(horner_rows(P, -1.0) - f(a)) <= 1e-15 * scale)
    assert np.all(np.abs(horner_rows(P, 1.0) - f(b)) <= 1e-15 * scale)


def test_exp_builds_certified_where_a_parabola_row_would_be_concave():
    """construct_chebyshev(exp:alpha=1, 2, 32768) blends a rejected Hermite
    row with the parabola on the last interior interval, 1.4e-8 wide; with
    the parabola's c2 rounded below 0 there, that row fell back to a
    concave parabola and the spline was refused."""
    S, _, _ = construct_chebyshev(exp_oracle(1.0), 2, 32768)
    assert S.convex_certified


def test_piece_reproduces_polynomials():
    # any convex polynomial of degree <= requested degree comes back exactly:
    # degree 2 from the LP, higher degrees as Hermite rows
    cases = [
        (poly_oracle([0.0, 0.0, 1.0]), 2, "lp"),
        (poly_oracle([0.1, -0.3, 1.0, 0.1]), 3, "hermite"),
        (even_power_oracle(2), 4, "hermite"),
    ]
    for f, degree, source in cases:
        S, sources, _ = convex_piece(f, (0.0, 1.0), degree)
        assert sample_max_error(f, S) <= 1e-9
        assert sources == [source] and S.order == degree + 1


def test_piece_x4_reproduction():
    f = even_power_oracle(2)
    S, _, _ = convex_piece(f, (0.0, 1.0), 4)
    xs = np.linspace(0, 1, 100)
    assert np.max(np.abs(S(xs) - xs**4)) <= 1e-9


def test_piece_beats_parabola():
    # the parabola is in the LP's feasible set, so the optimum cannot be worse
    # on the LP's own sample grid
    cases = [(f, interval, 2) for f in (exp_oracle(1.0), cosh_oracle(1.3), f0_oracle(2))
             for interval in ((-0.8, -0.2), (0.1, 0.9))]
    cases.append((exp_oracle(1.0, domain=(0.0, 1.0)), (0.0, 1.0), 2))
    for f, interval, degree in cases:
        a, b = interval
        zeta = 0.5 * (a + b) - 0.5 * (b - a) * np.cos(np.pi * np.arange(8 * degree) / (8 * degree - 1))
        lp, _, _ = convex_piece(f, interval, degree)
        par, _, _ = convex_parabola(f, interval)
        err = lambda S: float(np.max(np.abs(f(zeta) - S(zeta))))
        assert err(lp) <= err(par) + 1e-9


def test_piece_certified_convex_on_oracles():
    for f in (exp_oracle(1.0), f0_oracle(1), truncpow_oracle(1, 0.3)):
        S, _, _ = convex_piece(f, (0.4, 0.95), 2)
        assert convexity_certificate(pieces_of(S)[0], (0.4, 0.95)).convex


def test_build_sigma_reproduces_square():
    f = poly_oracle([0.0, 0.0, 1.0])
    X = chebyshev_partition(8)
    sigma = build_sigma(f, X, 1)
    xs = np.linspace(-1, 1, 301)
    assert np.max(np.abs(sigma(xs) - xs**2)) <= 1e-9
    assert sigma.convex_certified


def test_build_sigma_knot_interpolation():
    f = exp_oracle(1.0)
    X = chebyshev_partition(12)
    sigma = build_sigma(f, X, 2)
    vals = sigma(X.knots)
    want = f(X.knots)
    assert np.allclose(vals, want, rtol=1e-10, atol=1e-10)


def test_build_sigma_globally_convex():
    f = exp_oracle(1.0)
    X = chebyshev_partition(16)
    sigma = build_sigma(f, X, 2)
    assert sigma.convex_certified
    slopes = sigma.knot_slopes()
    flat = [s for pair in slopes for s in pair]
    tol = 1e-9 * sigma.slope_scale()
    assert all(s2 >= s1 - tol for s1, s2 in zip(flat, flat[1:]))


@pytest.mark.parametrize("f, r, n", [
    (exp_oracle(1.0), 2, 4096), (exp_oracle(1.0), 3, 4096), (exp_oracle(1.0), 5, 4096),
    (exp_oracle(1.0), 2, 8192), (cosh_oracle(1.0), 2, 4096),
], ids=["exp-2-4096", "exp-3-4096", "exp-5-4096", "exp-2-8192", "cosh-2-4096"])
def test_build_sigma_certified_on_fine_partitions(f, r, n):
    # the Hermite rows' end slopes are f' up to rounding, so the knot chain
    # holds on the shortest intervals too
    X = chebyshev_partition(n)
    sigma = build_sigma(f, X, r)
    assert sigma.convex_certified
    _, sources, slacks = convex_pieces(f, X, r)
    assert sources == ["hermite"] * n
    assert np.all(slacks >= -1e-14 * np.max(np.abs(f.deriv(1, X.knots))))


def test_sigma_slopes_sandwich_derivative():
    f = cosh_oracle(1.0)
    X = uniform_partition(-1.0, 1.0, 10)
    _, _, slacks = convex_pieces(f, X, 2)
    scale = 1.0 + float(np.max(np.abs(f.deriv(1, X.knots))))
    assert slacks.shape == (X.n, 2)
    assert np.all(slacks >= -1e-9 * scale)


def test_sigma_error_contract_stable_in_n():
    # ||f - sigma|| on interior intervals, against len^r * omega_2(f^(r), len),
    # must not grow between n = 32 and n = 256
    for f, r in ((exp_oracle(1.0), 1), (f0_oracle(2), 2)):
        ratios = {}
        for n in (32, 256):
            X = chebyshev_partition(n)
            sigma = build_sigma(f, X, r)
            worst = 0.0
            for j in range(2, n):  # interior intervals
                lo, hi = X.interval(j)
                length = hi - lo
                xs = np.linspace(lo, hi, 33)
                err = float(np.max(np.abs(f(xs) - sigma(xs))))
                if err <= 1e-13 * (1.0 + float(np.max(np.abs(f(xs))))):
                    continue  # at rounding scale: satisfied-degenerate
                den = max(length**r * modulus(f.deriv_fn(r), 2, length,
                                              (lo, hi), grid=64).value, 1e-300)
                worst = max(worst, err / den)
            ratios[n] = worst
        assert math.isfinite(ratios[256])
        assert ratios[256] <= 1.5 * ratios[32] + 1e-9


# -- the Hermite rows of degree >= 3 and their blend with the parabola ---------


@pytest.mark.parametrize("f", [exp_oracle(1.0), exp_oracle(8.0), cosh_oracle(1.3), f0_oracle(3),
                               even_power_oracle(3)], ids=lambda f: f.label())
@pytest.mark.parametrize("degree", [3, 4, 5, 7])
def test_hermite_row_interpolates_f_and_f_prime(f, degree):
    """A Hermite row matches f at both ends and at its degree - 3 interior
    Chebyshev-Lobatto nodes, and f' at both ends: its slope slacks are 0 up
    to rounding."""
    X = chebyshev_partition(64)
    a, b = X.knots[1:-2], X.knots[2:-1]  # f0's cusp at -1 is left out
    S = localconvex._midpoint_spline(X.knots[1:-1], localconvex._hermite_rows(f, a, b, degree))
    nodes = np.cos(np.pi * np.arange(1, degree - 2) / (degree - 2))
    x = np.column_stack([a, b, S.centers[:, None] + S.halfwidths[:, None] * nodes])
    j = np.repeat(np.arange(S.n)[:, None], x.shape[1], axis=1)
    fx = f(x)
    assert np.all(np.abs(S._eval(j, x) - fx) <= 1e-14 * np.max(np.abs(fx)))
    slacks = localconvex._slacks(f, S)
    assert np.all(np.abs(slacks) <= 1e-13 * np.max(np.abs(f.deriv(1, X.knots[1:-1]))))


@pytest.mark.parametrize("degree", [3, 4, 5, 6])
def test_hermite_row_reproduces_polynomials(degree):
    """A convex polynomial of degree <= the rows' degree comes back as itself."""
    polys = [(2, poly_oracle([0.3, -0.2, 1.0])), (3, poly_oracle([0.1, -0.3, 1.0, 0.1])),
             (4, even_power_oracle(2)), (5, poly_oracle([0.0, 0.2, 1.0, 0.1, 0.2, 0.05])),
             (6, even_power_oracle(3))]
    xs = np.linspace(-1.0, 1.0, 301)
    for f in (f for p, f in polys if p <= degree):
        S, sources, _ = convex_pieces(f, chebyshev_partition(12), degree - 1)
        assert sources == ["hermite"] * 12
        assert np.max(np.abs(S(xs) - f(xs))) <= 1e-13 * (1.0 + np.max(np.abs(f(xs))))


def test_rejected_hermite_row_is_blended_with_the_parabola():
    """On the wide middle pieces of exp:alpha=20 at n = 28 some cubic
    Hermite rows are not convex.  Each becomes H + t (P - H), bit for bit,
    with t = -min H'' / (P'' - min H'') times 1 + 1e-6 in (0, 1], certified
    convex, interpolating f at both ends, with slope slacks >= 0; the other
    rows stay Hermite rows."""
    f = exp_oracle(20.0)
    knots = chebyshev_partition(28).knots[1:-1]
    a, b = knots[:-1], knots[1:]
    center, w = 0.5 * (a + b), 0.5 * (b - a)
    H = localconvex._hermite_rows(f, a, b, 3)
    S, sources = localconvex._convex_pieces(f, knots, 3)
    blended = np.flatnonzero(np.array(sources) == "blend")
    assert blended.size == 6 and sources.count("hermite") == S.n - 6
    assert not np.any(S.piece_certificates()[0] == False)  # noqa: E712
    assert np.array_equal(np.delete(S.coeffs, blended, axis=0), np.delete(H, blended, axis=0))
    ok, minimum, _ = convexity_certificates(H, center, w, a, b)
    assert np.array_equal(np.flatnonzero(~ok), blended)
    P = np.pad(localconvex._parabola(f, a[blended], b[blended]), ((0, 0), (0, 1)))
    m = minimum[blended]
    t = -m / (2.0 * P[:, 2] / (w[blended] * w[blended]) - m) * (1.0 + 1e-6)
    assert np.all((0.0 < t) & (t <= 1.0))
    assert np.array_equal(S.coeffs[blended], H[blended] + t[:, None] * (P - H[blended]))
    ends = np.r_[a[blended], b[blended]]
    j = np.r_[blended, blended]
    assert np.allclose(S._eval(j, ends), f(ends), rtol=1e-13, atol=0.0)
    slacks = localconvex._slacks(f, S)[blended]
    assert np.all(slacks >= -1e-12 * np.max(np.abs(f.deriv(1, knots))))


@pytest.mark.parametrize("spec, r, n", [
    ("exp:alpha=1", 2, 64), ("exp:alpha=20", 2, 28), ("cosh:beta=40", 2, 37), ("xpow:m=4", 3, 13),
    ("xpow:m=6", 2, 18), ("truncpow:r=2,eps=0.01", 2, 87), ("f0:r=3", 3, 32), ("exp:alpha=1", 5, 48),
])
def test_every_hermite_row_is_the_hermite_solve_bit_for_bit(spec, r, n):
    """A row whose source is "hermite" is _hermite_rows' row of its interval,
    byte for byte: its weight toward the parabola is 0 and moves nothing."""
    f = parse_function(spec)
    knots = chebyshev_partition(n).knots
    S, sources = localconvex._convex_pieces(f, knots, r + 1)
    kept = np.array(sources) == "hermite"
    assert kept.any()
    H = localconvex._hermite_rows(f, knots[:-1], knots[1:], r + 1)
    assert S.coeffs[kept].tobytes() == H[kept].tobytes()


def test_blend_that_fails_falls_back_to_parabola(monkeypatch):
    """A Hermite row whose blend too is refused becomes the parabola."""
    f = exp_oracle(1.0)
    X = chebyshev_partition(CHUNK + 4)
    interval = X.interval(5)
    seen = _failing_certificate(monkeypatch, interval, times=2)
    S, sources, _ = convex_pieces(f, X, 2)
    assert len(seen) == 2
    assert sources[4] == "parabola-fallback"
    assert pieces_of(S)[4] == _padded(_parabola(f, interval), 4)
    assert sources[:4] + sources[5:] == ["hermite"] * (X.n - 1)


def test_one_rejected_hermite_row_is_blended(monkeypatch):
    """A Hermite row whose certificate fails once is blended, and its blend
    is certified convex."""
    f = exp_oracle(1.0)
    X = chebyshev_partition(CHUNK + 4)
    interval = X.interval(5)
    _failing_certificate(monkeypatch, interval, times=1)
    S, sources, _ = convex_pieces(f, X, 2)
    assert sources[4] == "blend"
    assert convexity_certificate(pieces_of(S)[4], interval).convex


# -- r = 1: the fit data, and the rows of one spline ---------------------------


def _fit(f, a, b):
    """(d, e): the r = 1 fit data of the pieces [a[i], b[i]], as
    _convex_pieces computes it for its degree-2 rows."""
    S = np.pad(localconvex._secant(f, a, b), ((0, 0), (0, 1)))
    return localconvex._fit_points(f, a, b, S, localconvex._parabola(f, a, b) - S)


def _linprog_spy(monkeypatch):
    """Record the number of pieces of each of localconvex's linprog calls."""
    real = localconvex.linprog
    calls = []

    def spy(c, **kwargs):
        calls.append(c.size // 2)
        return real(c, **kwargs)

    monkeypatch.setattr(localconvex, "linprog", spy)
    return calls


def _failing_certificate(monkeypatch, interval, times):
    """The first `times` certificates of a piece on `interval` fail; all
    others are real."""
    real = localconvex.convexity_certificates
    seen = []

    def certs(coeffs, centers, halfwidths, a, b):
        convex, minimum, witness = real(coeffs, centers, halfwidths, a, b)
        for i in np.flatnonzero((a == interval[0]) & (b == interval[1])):
            if len(seen) < times:
                seen.append(interval)
                convex[i], minimum[i], witness[i] = False, -1.0, a[i]
        return convex, minimum, witness

    monkeypatch.setattr(localconvex, "convexity_certificates", certs)
    return seen


def _padded(p, order):
    """p with its coefficients zero-padded to order, as convex_pieces returns it."""
    return Poly(p.center, p.halfwidth, p.coeffs + (0.0,) * (order - len(p.coeffs)))


def _parabola(f, interval):
    """The Poly of convex_parabola's one row on the interval."""
    return pieces_of(convex_parabola(f, interval)[0])[0]


def _one_at_a_time(f, X, r):
    """(Poly, source) of each interval's convex_piece, solved alone."""
    out = []
    for j in range(1, X.n + 1):
        S, sources, _ = convex_piece(f, X.interval(j), r + 1)
        assert S.knots.tolist() == list(X.interval(j))
        out.append((pieces_of(S)[0], sources[0]))
    return out


@pytest.mark.parametrize("f,r", [(exp_oracle(1.0), 2), (truncpow_oracle(1, 0.3), 1)])
def test_convex_pieces_match_pieces_solved_one_at_a_time(f, r):
    X = chebyshev_partition(3 * CHUNK + 5)
    S, sources, _ = convex_pieces(f, X, r)
    for got, source, (want, want_source) in zip(pieces_of(S), sources, _one_at_a_time(f, X, r)):
        assert source == want_source
        assert (got.center, got.halfwidth) == (want.center, want.halfwidth)
        scale = float(np.max(np.abs(want.coeffs)))
        assert np.allclose(got.coeffs, want.coeffs, rtol=0.0, atol=1e-12 * scale)


def _dip_oracle(centers=(0.45, 0.75), depth=0.005, width=0.002):
    """x^2/2 - sum of depth*width*log cosh((x - c)/width) over the centers c:
    f'' = 1 - sum of (depth/width) sech^2 dips below 0 near each c, over a
    span much shorter than a Chebyshev interval there, so only the spot check
    sees it; the LP stays feasible."""
    zs = [lambda x, c=c: (np.asarray(x, dtype=float) - c) / width for c in centers]
    derivs = (
        lambda x: 0.5 * np.asarray(x, dtype=float) ** 2 - depth * width * sum(
            np.logaddexp(z(x), -z(x)) - math.log(2.0) for z in zs),
        lambda x: np.asarray(x, dtype=float) - depth * sum(np.tanh(z(x)) for z in zs),
        lambda x: 1.0 - depth / width * sum(
            1.0 / np.cosh(np.clip(z(x), -300, 300)) ** 2 for z in zs),
    )
    return ConvexOracle("dip", {}, 2, (-1.0, 1.0), derivs)


def test_convex_pieces_name_first_nonconvex_interval():
    f = _dip_oracle()
    X = chebyshev_partition(3 * CHUNK + 5)
    first_bad = None
    for j in range(1, X.n + 1):
        try:
            convex_piece(f, X.interval(j), 3)
        except NotConvexInput as exc:
            first_bad = (j, str(exc))
            break
    j, message = first_bad
    lo, hi = X.interval(j)
    assert lo < 0.45 < hi and j > CHUNK  # the first dip, past the first chunk
    second = int(np.searchsorted(X.knots, 0.75))  # interval of the second dip
    assert second > j and (second - 1) // CHUNK == (j - 1) // CHUNK
    with pytest.raises(NotConvexInput) as ei:
        convex_pieces(f, X, 2)
    assert str(ei.value) == message


def _open(d, e):
    """The indices of the pieces whose sigma _known_weights leaves open."""
    return np.flatnonzero(np.isnan(localconvex._known_weights(d, e)))


def test_convex_pieces_are_the_rows_of_one_spline(monkeypatch):
    """convex_pieces returns _convex_pieces' spline and sources, bit for bit,
    with a parabola fallback (piece 4, whose fit data holds a NaN) and a
    secant (piece 9, at rounding scale) among the LP rows, and each row's
    slope slacks as the reference Poly arithmetic gives them."""
    f = even_power_oracle(1)
    cheb = chebyshev_partition(CHUNK + 4).knots
    knots = np.insert(cheb, 9, np.nextafter(cheb[9], -np.inf))
    X = Partition(knots)
    real = localconvex._fit_points

    def fit_points(f, a, b, S, D):
        d, e = real(f, a, b, S, D)
        e[a == knots[4], 5] = np.nan
        return d, e

    monkeypatch.setattr(localconvex, "_fit_points", fit_points)
    spline, sources = localconvex._convex_pieces(f, knots, 2)
    S, got_sources, slacks = convex_pieces(f, X, 1)
    assert sources[4] == "parabola-fallback" and sources[9] == "secant"
    assert sources.count("lp") == X.n - 2
    assert got_sources == sources
    for name in ("knots", "coeffs", "centers", "halfwidths"):
        assert np.array_equal(getattr(S, name), getattr(spline, name)), name
    want = [[p.deriv_value(a) - float(f.deriv(1, a)), float(f.deriv(1, b)) - p.deriv_value(b)]
            for p, (a, b) in zip(pieces_of(S), zip(knots[:-1].tolist(), knots[1:].tolist()))]
    assert slacks.tolist() == want


@pytest.mark.parametrize("spec, n", [("xpow:m=1", 128), ("truncpow:r=1,eps=0.01", 1024)])
def test_open_pieces_get_the_closed_form_sigma(spec, n):
    """Every piece's row is S + sigma (P - S), byte for byte, with the sigma
    of _blend_weights, which is _known_weights' sigma bit for bit wherever
    that decides it."""
    f = parse_function(spec)
    knots = chebyshev_partition(n).knots
    a, b = knots[:-1], knots[1:]
    d, e = _fit(f, a, b)
    known = localconvex._known_weights(d, e)
    sigma = localconvex._blend_weights(d, e)
    decided = ~np.isnan(known)
    assert decided.any() and not decided.all()
    assert sigma[decided].tobytes() == known[decided].tobytes()
    assert np.all((0.0 <= sigma) & (sigma <= 1.0))
    spline, sources = localconvex._convex_pieces(f, knots, 2)
    assert sources == ["lp"] * n
    S = np.pad(localconvex._secant(f, a, b), ((0, 0), (0, 1)))
    P = localconvex._parabola(f, a, b)
    want = np.where(sigma[:, None] == 0.0, S, S + sigma[:, None] * (P - S))
    assert spline.coeffs.tobytes() == want.tobytes()


def _g(sigma, d, e):
    """g(sigma) = max_j |sigma d_j - e_j| of one piece, at every sigma given."""
    return np.max(np.abs(np.asarray(sigma)[..., None] * d - e), axis=-1)


@pytest.mark.parametrize("spec, n", [("xpow:m=1", 256), ("cosh:beta=0.5", 4096),
                                     ("f0:r=1", 4096), ("truncpow:r=1,eps=0.001", 1024)])
def test_closed_form_sigma_minimises_g(spec, n):
    """On every piece that _known_weights leaves open, g at the closed-form
    sigma, in units of the piece's largest |P - S|, is within 1e-12 of g's
    least value on a 20,001-point sigma grid, and of g at the sigma of the
    reference LP that linprog solves.  Where P = S (d = 0), sigma is 0.0,
    bit for bit."""
    f = parse_function(spec)
    knots = chebyshev_partition(n).knots
    d, e = _fit(f, knots[:-1], knots[1:])
    sigma = localconvex._blend_weights(d, e)
    todo = _open(d, e)
    assert todo.size > 0
    lp = np.empty(todo.size)
    for s in range(0, todo.size, CHUNK):
        i = todo[s:s + CHUNK]
        cost, blocks = lp_blocks(d[i], e[i])
        lp[s:s + CHUNK] = np.clip(localconvex.linprog(cost, **blocks)[0::2], 0.0, 1.0)
    grid = np.linspace(0.0, 1.0, 20001)
    for k, lp_sigma in zip(todo, lp):
        got = _g(sigma[k], d[k], e[k])
        assert got <= np.min(_g(grid, d[k], e[k])) + 1e-12, k
        assert got <= _g(lp_sigma, d[k], e[k]) + 1e-12, k
    flat = np.all(d == 0.0, axis=1)
    assert flat.any() == spec.startswith("truncpow")
    assert sigma[flat].tobytes() == np.zeros(np.count_nonzero(flat)).tobytes()


# -- the shortcut sigma: the LP's answer where it decides -------------------


@pytest.mark.parametrize("spec", ["exp:alpha=1", "cosh:beta=1", "xpow:m=2", "f0:r=1",
                                  "truncpow:r=1,eps=0.1", "poly:coeffs=0.5,-0.25,1,0.125"])
def test_known_sigma_is_the_lp_sigma_bit_for_bit(spec):
    """On every chunk whose sigmas are all known in closed form, at N, 4N
    and 1024 pieces, the chunk's LP gives the same sigmas, bit for bit."""
    f = parse_function(spec)
    N, _ = chebyshev_threshold(f, 1)
    decided = 0
    for n in (N, 4 * N, 1024):
        knots = chebyshev_partition(n).knots
        a, b = knots[:-1], knots[1:]
        d, e = _fit(f, a, b)
        known = localconvex._known_weights(d, e)
        for s in range(0, n, CHUNK):
            i = slice(s, s + CHUNK)
            if np.isnan(known[i]).any():
                continue
            decided += 1
            cost, blocks = lp_blocks(d[i], e[i])
            sigma = np.clip(localconvex.linprog(cost, **blocks)[0::2], 0.0, 1.0)
            assert sigma.tobytes() == known[i].tobytes(), (n, s)
    assert decided > 0


def test_a_piece_with_a_value_not_finite_gets_no_weight():
    """A NaN or an infinity in a piece's fit data leaves its sigma NaN, in
    the shortcut and in the closed form alike, so its row becomes P; the
    other pieces keep theirs."""
    knots = chebyshev_partition(CHUNK).knots
    d, e = _fit(even_power_oracle(1), knots[:-1], knots[1:])
    todo = _open(d, e)
    decided = np.setdiff1d(np.arange(CHUNK), todo)
    assert todo.size and decided.size
    known, sigma = localconvex._known_weights(d, e), localconvex._blend_weights(d, e)
    assert not np.isnan(sigma).any()
    for k in (todo[0], decided[0]):
        for values, value in [(e, np.nan), (d, np.nan), (e, np.inf), (d, -np.inf)]:
            saved = values[k, 5]
            values[k, 5] = value
            got_known, got = localconvex._known_weights(d, e), localconvex._blend_weights(d, e)
            values[k, 5] = saved
            assert np.isnan(got_known[k]) and np.isnan(got[k])
            assert np.array_equal(np.delete(got_known, k), np.delete(known, k), equal_nan=True)
            assert np.array_equal(np.delete(got, k), np.delete(sigma, k))
    flat = np.zeros((2, 16))  # P = S: sigma 0, unless f - S is not finite
    e = np.ones((2, 16))
    e[1, 7] = np.nan
    assert localconvex._blend_weights(flat, e).tolist()[0] == 0.0
    assert np.isnan(localconvex._blend_weights(flat, e)[1])


@pytest.mark.parametrize("spec, n", [("exp:alpha=1", 1024), ("xpow:m=2", 13),
                                     ("truncpow:r=1,eps=0.01", 1024)])
def test_no_construction_calls_linprog(monkeypatch, spec, n):
    """No r = 1 construction solves an LP: exp:alpha=1 at n = 1024 knows
    every sigma from the shortcut; xpow:m=2 at its N = 13 has a middle piece
    of sigma 0.589 and truncpow has hundreds of open pieces, all filled by
    the closed form."""
    calls = _linprog_spy(monkeypatch)
    _, trace, _ = construct_chebyshev(parse_function(spec), 1, n)
    assert trace.lp_rows > 0
    assert calls == []


# -- the blend-weight LP: its rows against an exact 1-D minimax ---------------


def _exact_minimax(d, e):
    """The sigma in [0, 1] minimising max_i |sigma d_i - e_i| and that
    maximum, from the breakpoints: the convex piecewise-linear maximum has
    its minimum at 0, at 1 or where two of its lines cross."""
    cand = [0.0, 1.0]
    lines = np.concatenate([np.stack([d, -e], 1), np.stack([-d, e], 1)])  # slope, intercept
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            if lines[i, 0] != lines[j, 0]:
                x = (lines[j, 1] - lines[i, 1]) / (lines[i, 0] - lines[j, 0])
                if 0.0 < x < 1.0:
                    cand.append(x)
    worst = [np.max(np.abs(x * d - e)) for x in cand]
    k = int(np.argmin(worst))
    return cand[k], worst[k]


@pytest.mark.parametrize("spec", ["exp:alpha=1", "cosh:beta=40", "truncpow:r=2,eps=0.001"])
def test_lp_rows_are_minimax_blends_of_secant_and_parabola(spec):
    """Each r = 1 LP row is S + sigma (P - S) with sigma in [0, 1], its c2 is
    sigma times P's and >= 0 exactly, and its largest |row - f| at the 16
    Chebyshev points is the exact 1-D minimax over sigma to 1e-12 relative."""
    f = parse_function(spec)
    N, _ = chebyshev_threshold(f, 1)
    knots = chebyshev_partition(N).knots[1:-1]
    a, b = knots[:-1], knots[1:]
    spline, sources = localconvex._convex_pieces(f, knots, 2)
    assert sources == ["lp"] * a.size
    rows = spline.coeffs
    S = np.pad(localconvex._secant(f, a, b), ((0, 0), (0, 1)))
    P = localconvex._parabola(f, a, b)
    assert np.all(rows[:, 2] >= 0.0) and np.all(P[:, 2] >= 0.0)
    sigma = rows[:, 2] / np.where(P[:, 2] > 0.0, P[:, 2], 1.0)
    assert np.all((0.0 <= sigma) & (sigma <= 1.0))
    assert np.array_equal(rows, S + sigma[:, None] * (P - S))
    u = np.cos(np.pi * np.arange(16) / 15)
    z = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * u
    fz = f(z)
    for i in range(a.size):
        row, s_row, p_row = (np.polynomial.polynomial.polyval(u, c) for c in (rows[i], S[i], P[i]))
        _, best = _exact_minimax(p_row - s_row, fz[i] - s_row)
        got = np.max(np.abs(row - fz[i]))
        assert got <= best + 1e-12 * max(best, np.max(np.abs(fz[i] - s_row))), (i, got, best)


# -- the direct HiGHS model against scipy.optimize.linprog ---------------------


@pytest.fixture
def fresh_solver():
    """A new module solver, for the test and after it."""
    localconvex._solver.cache_clear()
    yield
    localconvex._solver.cache_clear()


def _blocks(f, a, b):
    """lp_blocks of the pieces [a[i], b[i]], from their fit data."""
    return lp_blocks(*_fit(f, a, b))


def _scipy_solve(cost, blocks):
    """scipy.optimize.linprog on the same LP, its blocks made block-diagonal,
    with the presolve and tolerances the direct model uses."""
    return scipy_linprog(cost, A_ub=block_diag(list(blocks["A_ub"])), b_ub=blocks["b_ub"],
                         bounds=blocks["bounds"], method="highs",
                         options={"presolve": True, "primal_feasibility_tolerance": 1e-10,
                                  "dual_feasibility_tolerance": 1e-10})


@pytest.mark.parametrize("f,r,n", [(exp_oracle(1.0), 2, 3 * CHUNK),
                                   (truncpow_oracle(1, 0.3), 1, 3 * CHUNK),
                                   (f0_oracle(2), 2, 3 * CHUNK),
                                   (exp_oracle(1.0), 2, CHUNK + 1)])  # then one piece
def test_direct_solve_equals_scipy_linprog_bit_for_bit(monkeypatch, f, r, n):
    """Every chunk LP of the n pieces is scipy's solution bit for bit, and
    building the pieces of order r + 2 solves no LP."""
    knots = chebyshev_partition(n).knots
    for s in range(0, n, CHUNK):
        a, b = knots[:-1][s:s + CHUNK], knots[1:][s:s + CHUNK]
        cost, blocks = _blocks(f, a, b)
        got = localconvex.linprog(cost, **blocks)
        want = _scipy_solve(cost, blocks)
        assert want.status == 0
        assert np.array_equal(got, want.x)
    calls = _linprog_spy(monkeypatch)
    convex_pieces(f, Partition(knots), r)
    assert calls == []


def _model_error_blocks():
    """A chunk LP with one entry at 1e16, past the largest matrix value
    HiGHS accepts (1e15), which HiGHS refuses."""
    knots = chebyshev_partition(CHUNK).knots
    cost, blocks = _blocks(exp_oracle(1.0), knots[:-1], knots[1:])
    blocks["A_ub"][0, 2, 0] = 1e16
    return cost, blocks


def test_model_error_is_a_failure_on_both_paths():
    cost, blocks = _model_error_blocks()
    with pytest.raises(SolverStall, match="Model error"):
        localconvex.linprog(cost, **blocks)
    assert _scipy_solve(cost, blocks).status != 0


def test_kept_solver_solves_cold(fresh_solver):
    """passModel clears the kept solver's model, basis and solution, so a
    chunk gives the same x, bit for bit, and the same simplex iteration count
    as on a fresh solver, whatever the solver solved before it: another
    chunk, an LP that HiGHS refuses, or a one-piece LP."""
    f = exp_oracle(1.0)
    knots = chebyshev_partition(4096).knots  # its first chunk takes simplex iterations
    a, b = knots[:-1], knots[1:]
    chunk = _blocks(f, a[:CHUNK], b[:CHUNK])
    other = _blocks(f, a[CHUNK:2 * CHUNK], b[CHUNK:2 * CHUNK])
    one = _blocks(f, a[CHUNK:CHUNK + 1], b[CHUNK:CHUNK + 1])

    def solve(lp):
        """(x, simplex iterations) of the module's solver, or None on a stall."""
        try:
            x = localconvex.linprog(lp[0], **lp[1])
        except SolverStall:
            return None
        return x, localconvex._solver().getInfo().simplex_iteration_count

    fresh = solve(chunk)  # the first solve is on a new solver
    runs = [(solve(before), solve(chunk)) for before in (other, _model_error_blocks(), one)]
    assert fresh[1] > 0
    assert [before is None for before, _ in runs] == [False, True, False]
    for _, (x, iterations) in runs:
        assert np.array_equal(x, fresh[0])
        assert iterations == fresh[1]


def test_no_solver_is_built_per_chunk(monkeypatch, fresh_solver):
    """The module builds one HiGHS solver on its first solve, and later
    solves build none."""
    built = []
    core = localconvex._load_highs()
    real = core._Highs

    class Counted(real):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(core, "_Highs", Counted)
    knots = chebyshev_partition(8 * CHUNK).knots
    for s in range(0, 8 * CHUNK, CHUNK):
        cost, blocks = _blocks(even_power_oracle(1), knots[s:s + CHUNK], knots[s + 1:s + CHUNK + 1])
        localconvex.linprog(cost, **blocks)
        assert len(built) == 1


def test_exact_zero_entry_solves_to_the_nonzero_model():
    """linprog passes every entry of the dense blocks and HiGHS drops the
    zeros, so a block entry that is exactly 0.0 gives the x of the model of
    the nonzeros alone, as scipy.optimize.linprog builds it."""
    knots = chebyshev_partition(CHUNK).knots
    cost, blocks = _blocks(exp_oracle(1.0), knots[:-1], knots[1:])
    row = 2  # the + row of a piece's second point
    assert blocks["A_ub"][3, row, 0] != 0.0
    blocks["A_ub"][3, row, 0] = 0.0
    want = _scipy_solve(cost, blocks)
    assert want.status == 0
    assert np.array_equal(localconvex.linprog(cost, **blocks), want.x)


@pytest.mark.parametrize("corrupt", ["bound", "ub slack"])
def test_infeasible_solution_is_a_stall(monkeypatch, fresh_solver, corrupt):
    """An 'optimal' solution off its bounds or its rows by more than the
    feasibility tolerance ends in SolverStall, as linprog's check does."""
    core = localconvex._load_highs()
    real = core._Highs

    class Corrupted(real):
        def getSolution(self):
            sol = super().getSolution()
            if corrupt == "bound":  # the first epigraph variable below 0
                sol.col_value = [-1e-3 if i == 1 else v for i, v in enumerate(sol.col_value)]
            else:  # every row, the tight ones included
                sol.row_value = [v + 1e-3 for v in sol.row_value]
            return sol

    monkeypatch.setattr(core, "_Highs", Corrupted)
    knots = chebyshev_partition(CHUNK).knots
    cost, blocks = _blocks(exp_oracle(1.0), knots[:-1], knots[1:])
    with pytest.raises(SolverStall, match="violates the constraints"):
        localconvex.linprog(cost, **blocks)


# -- loading HiGHS without scipy.optimize, on the first linprog call ------------

_SRC = os.path.dirname(os.path.dirname(localconvex.__file__))
_TESTS = os.path.dirname(os.path.abspath(__file__))
_ONE_LP = ("import numpy as np\n"
           "from convexlab.localconvex import linprog\n"
           "linprog(np.zeros(2), A_ub=np.zeros((1, 1, 2)), b_ub=np.zeros(1), "
           "bounds=np.array([[0.0, 1.0], [0.0, 1.0]]))\n")


def _python(code, path=_SRC):
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)


def test_missing_highs_bindings_name_the_scipy_version():
    code = ("import sys, scipy.optimize._highspy as h; del h._core; "
            "sys.modules['scipy.optimize._highspy._core'] = None; "
            "import convexlab.localconvex\n" + _ONE_LP)
    out = _python(code)
    assert out.returncode != 0
    assert out.stderr.strip().splitlines()[-1] == (
        "ImportError: convexlab needs scipy>=1.17 for scipy.optimize._highspy._core")


def test_import_loads_no_scipy_module_but_highs():
    """Importing the CLI loads no scipy module at all, not even HiGHS's
    extension, which waits for the first linprog call.  Names only, no
    timing."""
    out = _python("import sys, convexlab.cli; "
                  "print(*sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == []


@pytest.mark.parametrize("scipy_first", [True, False])
def test_highs_module_is_shared_in_either_import_order(scipy_first):
    """Whether scipy.optimize is imported before or after convexlab's first
    linprog call, which loads HiGHS, both use one HiGHS module, and a chunk
    LP gets the same x, bit for bit, from both linprogs."""
    code = f"""
import sys
if {scipy_first}:
    import scipy.optimize
import numpy as np
from convexlab import localconvex
from convexlab.domain import chebyshev_partition, exp_oracle
from helpers import lp_blocks
knots = chebyshev_partition({CHUNK}).knots
f = exp_oracle(1.0)
a, b = knots[:-1], knots[1:]
S = np.pad(localconvex._secant(f, a, b), ((0, 0), (0, 1)))
cost, blocks = lp_blocks(*localconvex._fit_points(f, a, b, S, localconvex._parabola(f, a, b) - S))
got = localconvex.linprog(cost, **blocks)
import scipy.optimize
from scipy.sparse import block_diag
assert localconvex._load_highs() is sys.modules["scipy.optimize._highspy._core"]
want = scipy.optimize.linprog(
    cost, A_ub=block_diag(list(blocks["A_ub"])), b_ub=blocks["b_ub"], bounds=blocks["bounds"],
    method="highs", options={{"presolve": True, "primal_feasibility_tolerance": 1e-10,
                             "dual_feasibility_tolerance": 1e-10}})
assert want.status == 0, want.message
assert np.array_equal(got, want.x)
"""
    out = _python(code, path=os.pathsep.join([_SRC, _TESTS]))
    assert out.returncode == 0, out.stderr


def test_scipy_without_the_highs_extension_is_refused(tmp_path):
    """With a scipy package that has no optimize/_highspy/_core extension
    first on the path, convexlab imports and builds an r = 1 spline, and its
    first linprog call ends with the scipy floor."""
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    code = ("from convexlab.domain import parse_function\n"
            "from convexlab.glue import construct_chebyshev\n"
            "print(construct_chebyshev(parse_function('xpow:m=2'), 1, 13)[0].convex_certified)\n"
            + _ONE_LP)
    out = _python(code, path=os.pathsep.join([str(tmp_path), _SRC]))
    assert out.stdout.split() == ["True"]
    assert out.returncode != 0
    assert out.stderr.strip().splitlines()[-1] == (
        "ImportError: convexlab needs scipy>=1.17 for scipy.optimize._highspy._core")
