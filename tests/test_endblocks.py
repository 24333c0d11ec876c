import math

import numpy as np
import pytest

from convexlab.domain import (
    cosh_oracle,
    exp_oracle,
    f0_oracle,
    poly_oracle,
    reflect,
    truncpow_oracle,
)
from convexlab.endblocks import (
    NoConvexityThreshold,
    find_H,
    integrated_L,
    mirrored_L,
)
from convexlab.polynomial import hermite_interpolant
from helpers import (
    Poly,
    direct_block_ratio,
    integrated_block_ratio,
    lagrange_hermite_L,
    mirrored_direct_block_ratio,
    poly_of,
)

CUBIC = poly_oracle([0.0, 0.0, 0.0, 1.0], domain=(0.0, 1.0))  # x^3, convex there


def test_L_reproduces_square():
    f = poly_oracle([0.0, 0.0, 1.0])
    p = lagrange_hermite_L(f, 0.0, 1.0, 1)
    xs = np.linspace(0, 1, 20)
    assert np.allclose(p(xs), xs**2, atol=1e-13)


def test_L_of_cubic_is_square():
    p = lagrange_hermite_L(CUBIC, 0.0, 1.0, 1)
    xs = np.linspace(0, 1, 20)
    assert np.allclose(p(xs), xs**2, atol=1e-12)


def test_L_reproduces_degree_r_plus_one():
    f = poly_oracle([0.3, -1.0, 2.0, 0.5])
    p = lagrange_hermite_L(f, -0.5, 1.2, 2)
    xs = np.linspace(-0.5, 0.7, 21)
    assert np.allclose(p(xs), f(xs), rtol=1e-11, atol=1e-12)


def test_integrated_block_of_cubic():
    # the slope data is 3x^2 at {0, h}; its line is 3hx, integrating gives
    # (3h/2) x^2 and the value defect at h is h^3/2
    h = 0.4
    block = integrated_L(CUBIC, 0.0, h, 1)
    xs = np.linspace(0, h, 15)
    assert np.allclose(poly_of(block)(xs), 1.5 * h * xs**2, atol=1e-13)
    assert block.delta == pytest.approx(h**3 / 2, rel=1e-12)


def test_integrated_block_reproduces_polynomials():
    f = poly_oracle([0.1, 0.2, 0.9, 0.05])
    block = integrated_L(f, -0.3, 0.8, 2)
    xs = np.linspace(-0.3, 0.5, 21)
    assert np.allclose(poly_of(block)(xs), f(xs), rtol=1e-11, atol=1e-12)
    assert block.delta == pytest.approx(0.0, abs=1e-12)


def test_integrated_block_derivative_match_at_inner_knot():
    f = exp_oracle(1.0)
    block = integrated_L(f, -1.0, 0.1, 2)
    inner = -0.9
    assert poly_of(block).deriv_value(inner) == pytest.approx(float(f.deriv(1, inner)), abs=1e-10)


def test_integrated_block_hermite_conditions_at_end():
    f = cosh_oracle(1.0)
    for r in (1, 2, 3):
        block = integrated_L(f, -1.0, 0.2, r)
        for nu in range(r + 1):
            want = float(f.deriv(nu, -1.0))
            got = poly_of(block).deriv_value(-1.0, nu)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9), (r, nu)


def test_mirrored_block_of_even_function_is_reflection():
    f = cosh_oracle(1.0)
    h = 0.3
    left = integrated_L(f, -1.0, h, 2)
    right = mirrored_L(f, 1.0, h, 2)
    xs = np.linspace(1.0 - h, 1.0, 17)
    assert np.allclose(poly_of(right)(xs), poly_of(left)(-xs), rtol=1e-11, atol=1e-13)
    assert right.delta == pytest.approx(left.delta, rel=1e-10, abs=1e-13)


def test_mirrored_block_reproduces_polynomials():
    f = poly_oracle([0.0, -0.5, 1.0, 0.2])
    block = mirrored_L(f, 1.0, 0.5, 2)
    xs = np.linspace(0.5, 1.0, 15)
    assert np.allclose(poly_of(block)(xs), f(xs), rtol=1e-11, atol=1e-12)
    assert block.delta == pytest.approx(0.0, abs=1e-12)


def test_mirrored_block_via_reflection_identity():
    # (1-x)^3 on [0,1]: the right block must be the reflected left block of x^3
    f = poly_oracle([1.0, -3.0, 3.0, -1.0], domain=(0.0, 1.0))
    h = 0.25
    right = mirrored_L(f, 1.0, h, 1)
    left_of_cubic = integrated_L(CUBIC, 0.0, h, 1)
    xs = np.linspace(1.0 - h, 1.0, 13)
    assert np.allclose(poly_of(right)(xs), poly_of(left_of_cubic)(1.0 - xs), atol=1e-13)


def test_mirrored_block_end_conditions():
    f = exp_oracle(1.0)
    block = mirrored_L(f, 1.0, 0.2, 2)
    for nu in range(3):
        assert poly_of(block).deriv_value(1.0, nu) == pytest.approx(
            float(f.deriv(nu, 1.0)), rel=1e-9)
    assert poly_of(block).deriv_value(0.8) == pytest.approx(float(f.deriv(1, 0.8)), abs=1e-9)


@pytest.mark.parametrize("f,r,h", [(exp_oracle(1.0), 2, 0.1), (cosh_oracle(1.3), 3, 0.37),
                                   (f0_oracle(2), 2, 0.05), (truncpow_oracle(1, 0.05), 1, 0.2)])
def test_blocks_are_the_poly_arithmetic_bit_for_bit(f, r, h):
    """integrated_L takes the antiderivative on the row and mirrored_L
    reflects the row with exactly the float operations of the reference
    Poly.antiderivative and Poly.reflected, defects included."""
    a, b = -1.0, 1.0
    slope = Poly(*hermite_interpolant([(a, [float(f.deriv(nu + 1, a)) for nu in range(r)]),
                                       (a + h, [float(f.deriv(1, a + h))])]))
    want = slope.antiderivative(a, float(f(a)))
    left = integrated_L(f, a, h, r)
    assert poly_of(left) == want and left.coeffs.tolist() == list(want.coeffs)
    assert left.delta == want(a + h) - float(f(a + h))
    assert (left.side, left.h, left.interval) == ("left", h, (a, a + h))

    lo = b - h
    want = poly_of(integrated_L(reflect(f, (lo, b)), lo, h, r)).reflected(lo + b)
    right = mirrored_L(f, b, h, r)
    assert poly_of(right) == want and right.coeffs.tolist() == list(want.coeffs)
    assert right.delta == want(lo) - float(f(lo))
    assert (right.side, right.h, right.interval) == ("right", h, (lo, b))


def test_find_H_polynomial_gives_h_max():
    f = poly_oracle([0.0, 0.0, 1.0, 0.1])
    assert find_H(f, (-1.0, 1.0), 2, 0.5) == 0.5


def test_find_H_exp_r1_gives_h_max():
    # the block's second derivative is the slope of the linear interpolant of
    # f', positive for any width
    f = exp_oracle(1.0)
    assert find_H(f, (-1.0, 1.0), 1, 0.5) == 0.5


def test_find_H_truncpow_r1_nonincreasing():
    hs = [find_H(truncpow_oracle(1, eps), (-1.0, 1.0), 1, 0.5)
          for eps in (0.1, 0.01, 0.001)]
    assert hs[0] >= hs[1] >= hs[2]


def test_find_H_truncpow_r2_shrinks_with_eps():
    hs = [find_H(truncpow_oracle(2, eps), (-1.0, 1.0), 2, 0.5)
          for eps in (0.2, 0.05, 0.0125)]
    assert hs[0] > hs[1] > hs[2]
    # the threshold tracks the kink offset: blocks stay convex only while the
    # inner node remains in the smooth span
    for eps, h in zip((0.2, 0.05, 0.0125), hs):
        assert h <= 2 * eps + 1e-12


def test_find_H_validates_h_max():
    with pytest.raises(ValueError):
        find_H(exp_oracle(1.0), (-1.0, 1.0), 1, 1.5)


def test_block_error_ratio_stable_under_halving():
    # interpolatory error ratio: sup |f - block| / ((x-a)^r omega) is
    # finite and does not grow by more than 1.5x when h halves
    cases = [(exp_oracle(1.0), 1), (exp_oracle(1.0), 2),
             (f0_oracle(1), 1), (cosh_oracle(1.5), 3)]
    for f, r in cases:
        r0 = integrated_block_ratio(f, r, -1.0, 0.4)
        r1 = integrated_block_ratio(f, r, -1.0, 0.2)
        assert math.isfinite(r0) and math.isfinite(r1)
        assert r1 <= 1.5 * r0 + 1e-9, (f.label(), r, r0, r1)


def test_direct_block_ratio_and_mirror():
    for f, r in [(exp_oracle(1.0), 1), (f0_oracle(2), 2)]:
        r0 = direct_block_ratio(f, r, -1.0, 0.5)
        r1 = direct_block_ratio(f, r, -1.0, 0.25)
        assert math.isfinite(r0) and r1 <= 1.5 * r0 + 1e-9
        m0 = mirrored_direct_block_ratio(f, r, 1.0, 0.5)
        m1 = mirrored_direct_block_ratio(f, r, 1.0, 0.25)
        assert math.isfinite(m0) and m1 <= 1.5 * m0 + 1e-9


def test_find_H_inconsistent_derivatives_raises():
    # an "oracle" whose slope data contradicts convexity never certifies
    import numpy as np
    from convexlab.domain import ConvexOracle
    bogus = ConvexOracle(
        "bogus", {}, 1, (-1.0, 1.0),
        (lambda x: np.asarray(x, float) ** 2,
         lambda x: -2.0 * np.asarray(x, float) - 10.0))
    with pytest.raises(NoConvexityThreshold):
        find_H(bogus, (-1.0, 1.0), 1, 0.5)
