import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convexlab.polynomial import (
    DegenerateNodes,
    convexity_certificate,
    convexity_certificates,
    hermite_interpolant,
)
from helpers import Poly


def _monomial_coeffs(p):
    """Coefficients of p ascending in x: the sum of c_i * u**i composed with
    u = (x - center)/halfwidth."""
    u = np.polynomial.Polynomial([-p.center / p.halfwidth, 1.0 / p.halfwidth])
    return sum((c * u**i for i, c in enumerate(p.coeffs)), np.polynomial.Polynomial([0.0])).coef


def test_eval_sum_of_coeffs():
    p = Poly(0.0, 1.0, (1.0, 2.0, 3.0))
    assert p(1.0) == pytest.approx(6.0)


def test_eval_constant():
    p = Poly(0.0, 1.0, (5.0,))
    for x in (-3.0, 0.0, 17.5):
        assert p(x) == 5.0


def test_eval_affine_change_of_variable():
    p = Poly(3.0, 2.0, (0.0, 1.0))  # u itself
    assert p(5.0) == pytest.approx(1.0)


def test_eval_vectorized_matches_scalar():
    p = Poly(0.3, 0.7, (1.0, -2.0, 0.5, 4.0))
    xs = np.linspace(-1, 1, 11)
    vec = p(xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert p(float(x)) == pytest.approx(v)


def test_derivative_of_u_squared():
    p = Poly(0.0, 1.0, (0.0, 0.0, 1.0))
    dp = p.derivative()
    assert dp.coeffs == (0.0, 2.0)


def test_derivative_chain_rule():
    p = Poly(0.0, 2.0, (0.0, 1.0))
    dp = p.derivative()
    assert dp.coeffs == (0.5,)


def test_derivative_of_constant_is_zero():
    p = Poly(0.0, 1.0, (7.0,))
    assert p.derivative().coeffs == (0.0,)


def test_antiderivative_basic():
    # p = 2x, anchored at (0, 0) -> x^2
    p = Poly(0.0, 1.0, (0.0, 2.0))
    q = p.antiderivative(0.0, 0.0)
    for x in np.linspace(-2, 2, 9):
        assert q(float(x)) == pytest.approx(x * x, abs=1e-14)


def test_antiderivative_of_zero():
    p = Poly(1.0, 1.0, (0.0,))
    q = p.antiderivative(1.0, 7.0)
    assert q(1.0) == pytest.approx(7.0)
    assert q(-4.0) == pytest.approx(7.0)


def test_antiderivative_cubic():
    # p = 3x^2 anchored at (0, 0) -> x^3, eval at 2 -> 8
    p = Poly(0.0, 1.0, (0.0, 0.0, 3.0))
    q = p.antiderivative(0.0, 0.0)
    assert q(2.0) == pytest.approx(8.0, rel=1e-13)


def test_derivative_of_antiderivative_roundtrip():
    p = Poly(0.4, 1.3, (1.0, -0.5, 2.5, 0.25))
    back = p.antiderivative(0.1, 3.0).derivative()
    for c1, c2 in zip(back.coeffs, p.coeffs):
        assert c1 == pytest.approx(c2, rel=1e-14, abs=1e-14)


def test_hermite_two_point():
    # value+slope at 0, value at 1 -> x^2
    p = Poly(*hermite_interpolant([(0.0, [0.0, 0.0]), (1.0, [1.0])]))
    for x in np.linspace(0, 1, 7):
        assert p(float(x)) == pytest.approx(x * x, abs=1e-13)


def test_hermite_matches_linear_solve_oracle():
    # same data sampled from x^3; oracle solves the 3x3 monomial system
    f = lambda x: x**3
    fp = lambda x: 3 * x**2
    data = [(0.0, [f(0.0), fp(0.0)]), (1.0, [f(1.0)])]
    A = np.array([
        [1.0, 0.0, 0.0],   # p(0)
        [0.0, 1.0, 0.0],   # p'(0)
        [1.0, 1.0, 1.0],   # p(1)
    ])
    rhs = np.array([0.0, 0.0, 1.0])
    mono = np.linalg.solve(A, rhs)
    p = Poly(*hermite_interpolant(data))
    xs = np.linspace(0, 1, 23)
    expect = mono[0] + mono[1] * xs + mono[2] * xs**2
    assert np.allclose(p(xs), expect, atol=1e-12)


def test_hermite_reproduces_polynomial():
    target = Poly(0.2, 0.9, (0.5, -1.0, 2.0, 0.7))
    nodes = [(-0.5, [target(-0.5), target.deriv_value(-0.5, 1)]),
             (0.8, [target(0.8), target.deriv_value(0.8, 1)])]
    p = Poly(*hermite_interpolant(nodes))
    got = _monomial_coeffs(p)
    want = _monomial_coeffs(target)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


def test_hermite_degenerate_nodes():
    with pytest.raises(DegenerateNodes):
        hermite_interpolant([(0.0, [1.0]), (0.0, [2.0])])


def test_hermite_taylor_only():
    # single confluent node: Taylor polynomial
    p = Poly(*hermite_interpolant([(1.0, [2.0, 3.0, 4.0])]))
    assert p(1.0) == pytest.approx(2.0)
    assert p.deriv_value(1.0, 1) == pytest.approx(3.0)
    assert p.deriv_value(1.0, 2) == pytest.approx(4.0)


def test_convexity_certificate_quadratic():
    p = Poly(0.0, 1.0, (0.0, 0.0, 1.0))  # x^2
    cert = convexity_certificate(p, (-1.0, 1.0))
    assert cert.convex
    assert cert.min_second_derivative == pytest.approx(2.0)


def test_convexity_certificate_cubic():
    p = Poly(0.0, 1.0, (0.0, 0.0, 0.0, 1.0))  # x^3
    cert = convexity_certificate(p, (-1.0, 1.0))
    assert not cert.convex
    assert cert.min_second_derivative == pytest.approx(-6.0)
    assert cert.witness_x == pytest.approx(-1.0)


def test_convexity_certificate_affine():
    p = Poly(0.5, 0.5, (-0.5, 1.5))  # 3x - 2
    cert = convexity_certificate(p, (0.0, 1.0))
    assert cert.convex
    assert cert.min_second_derivative == 0.0


def test_convexity_certificate_high_degree():
    # p'' = (x^2-0.25)(x^2-0.81) * 6... take p with known p'' sign structure:
    # build p'' directly, integrate twice.
    d2 = Poly(0.0, 1.0, tuple(np.polynomial.polynomial.polymul(
        np.polynomial.polynomial.polyfromroots([-0.9, -0.5, 0.5, 0.9]), [1.0])))
    p = d2.antiderivative(0.0, 0.0).antiderivative(0.0, 0.0)
    cert = convexity_certificate(p, (-1.0, 1.0))
    # min of (x^2-0.25)(x^2-0.81) at x = +-sqrt(0.53): value is negative
    xm = math.sqrt((0.81 + 0.25) / 2)
    want = (xm**2 - 0.25) * (xm**2 - 0.81)
    assert not cert.convex
    assert cert.min_second_derivative == pytest.approx(want, rel=1e-9)
    assert abs(abs(cert.witness_x) - xm) < 1e-7


def test_certificate_finds_minimum_when_third_derivative_overflows():
    # p'' = (0.2 - 6u + 12u^2) 1e300 / w^2 is finite, with its negative minimum
    # at u = 1/4; p''' overflows, so that minimum is found from the roots of
    # d/du p''.  The same polynomial scaled by 2^-1000 overflows nowhere.
    w = 2.0 ** -8
    big = Poly(0.5, w, tuple(1e300 * c for c in (0.0, 0.0, 0.1, -1.0, 1.0)))
    small = Poly(0.5, w, tuple(math.ldexp(c, -1000) for c in big.coeffs))
    interval = (0.5 - w, 0.5 + w)
    got, want = convexity_certificate(big, interval), convexity_certificate(small, interval)
    assert not got.convex and not want.convex
    assert got.witness_x == pytest.approx(0.5 + 0.25 * w, rel=1e-12)
    assert got.witness_x == pytest.approx(want.witness_x, rel=1e-12)
    assert got.min_second_derivative == pytest.approx(
        math.ldexp(want.min_second_derivative, 1000), rel=1e-12)


def test_overflow_of_one_row_leaves_the_other_rows_alone():
    # d/du p'' stands in for p''' only on the row whose p''' overflows; the
    # other rows of the batch keep their own certificates, bit for bit
    w = 2.0 ** -8
    big = Poly(0.5, w, tuple(1e300 * c for c in (0.0, 0.0, 0.1, -1.0, 1.0)))
    # the last row's witness moves by an ulp when its p''' is taken in u
    rows = [big, Poly(0.5, w, (0.0, 0.0, 0.1, -1.0, 1.0)),
            Poly(-0.23, 0.84, (2.34, 1.93, -0.12, -1.61, 1.81))]
    intervals = [(0.5 - w, 0.5 + w), (0.5 - w, 0.5 + w), (-0.23 - 0.84, -0.23 + 0.84)]
    convex, minimum, witness = convexity_certificates(
        [p.coeffs for p in rows], [p.center for p in rows], [p.halfwidth for p in rows],
        [lo for lo, _ in intervals], [hi for _, hi in intervals])
    for i, (p, interval) in enumerate(zip(rows, intervals)):
        one = convexity_certificate(p, interval)
        assert (bool(convex[i]), minimum[i].hex(), witness[i].hex()) == (
            one.convex, one.min_second_derivative.hex(), one.witness_x.hex())


@given(st.lists(st.floats(-3, 3), min_size=1, max_size=9),
       st.floats(-0.9, 0.9), st.floats(0.05, 0.45))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_certificate_monotone_under_restriction(coeffs, mid, half):
    half = min(half, 0.99 * (1.0 - abs(mid)))  # keep the subinterval nested
    p = Poly(0.0, 1.0, tuple(coeffs))
    big = convexity_certificate(p, (-1.0, 1.0))
    sub = convexity_certificate(p, (mid - half, mid + half))
    scale = 1.0 + abs(big.min_second_derivative)
    assert sub.min_second_derivative >= big.min_second_derivative - 1e-9 * scale
    if big.min_second_derivative >= 0.0:
        assert sub.convex


@given(st.lists(st.floats(-5, 5), min_size=1, max_size=10),
       st.integers(0, 3), st.floats(-2, 2), st.floats(0.01, 3),
       st.floats(-1.5, 1.5), st.floats(0.01, 3))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_certificate_bounds_dense_minimum(coeffs, zeros, center, halfwidth, ua, span):
    # degree 0..9 with trailing zero coefficients, on an arbitrary subinterval
    p = Poly(center, halfwidth, tuple(coeffs) + (0.0,) * zeros)
    a = center + halfwidth * ua
    b = a + halfwidth * span
    cert = convexity_certificate(p, (a, b))
    xs = np.linspace(a, b, 4097)
    u = (xs - center) / halfwidth
    d2 = np.polynomial.polynomial.polyder(np.array(p.coeffs), 2) / halfwidth ** 2
    dense = np.polynomial.polynomial.polyval(u, d2)
    rounding = 1e-12 * np.polynomial.polynomial.polyval(np.max(np.abs(u)), np.abs(d2))
    assert a <= cert.witness_x <= b
    assert cert.min_second_derivative <= np.min(dense) + rounding
    top = float(np.max(np.abs(dense)))
    if cert.min_second_derivative >= -1e-9 * (1.0 + top):
        assert cert.convex
    if cert.min_second_derivative < -1e-9 * (1.0 + 1.1 * top) - rounding:
        assert not cert.convex


@given(st.lists(st.floats(-5, 5), min_size=1, max_size=9))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_eval_matches_monomial_basis(coeffs):
    p = Poly(0.0, 1.0, tuple(coeffs))
    mono = _monomial_coeffs(p)
    xs = np.linspace(-1, 1, 17)
    direct = np.polynomial.polynomial.polyval(xs, mono)
    scale = 1.0 + np.max(np.abs(direct))
    assert np.allclose(p(xs), direct, atol=1e-12 * scale)


def test_plus_line_exact():
    p = Poly(0.25, 0.5, (1.0, 2.0, 3.0))
    q = p.plus_line(2.0, -1.0)
    xs = np.linspace(-0.25, 0.75, 9)
    assert np.allclose(q(xs), p(xs) + 2.0 * xs - 1.0, atol=1e-14)


def test_rescale_domain_relabels_frame():
    p = Poly(0.5, 0.5, (1.0, 2.0, -1.0))     # frame on [0, 1]
    q = p.rescale_domain(-1.0, 2.0)          # now on [-1, 1]
    for u in np.linspace(0, 1, 9):
        assert q(-1.0 + 2.0 * u) == pytest.approx(p(u), abs=1e-14)


def test_json_roundtrip():
    p = Poly(0.1, 0.9, (1.0, -2.0, 0.25))
    assert Poly(**p.to_json_dict()) == p


def test_hermite_ill_conditioned_detected():
    from convexlab.polynomial import IllConditioned
    with pytest.raises(IllConditioned):
        hermite_interpolant([(0.0, [1.0]), (5e-320, [2.0])])


def test_hermite_interpolant_returns_a_row():
    center, halfwidth, coeffs = hermite_interpolant([(0.25, [1.0, 0.5]), (0.75, [2.0])])
    assert (center, halfwidth) == (0.5, 0.25)
    assert isinstance(coeffs, np.ndarray) and coeffs.shape == (3,)


def test_certificate_takes_any_piece_with_a_row():
    row = SimpleNamespace(center=0.3, halfwidth=0.7, coeffs=np.array([1.0, -2.0, 0.5, 4.0]))
    want = convexity_certificate(Poly(0.3, 0.7, (1.0, -2.0, 0.5, 4.0)), (-0.4, 1.0))
    assert convexity_certificate(row, (-0.4, 1.0)) == want
