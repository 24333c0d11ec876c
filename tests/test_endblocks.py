import math

import numpy as np
import pytest

from convexlab import endblocks, polynomial
from convexlab.domain import (
    ConvexOracle,
    cosh_oracle,
    even_power_oracle,
    exp_oracle,
    f0_oracle,
    parse_function,
    poly_oracle,
    truncpow_oracle,
)
from convexlab.endblocks import (
    NoConvexityThreshold,
    find_H,
    integrated_L,
    mirrored_L,
)
from convexlab.polynomial import derivative_rows, hermite_interpolant, horner_rows
from helpers import (
    Poly,
    direct_block_ratio,
    integrated_block_ratio,
    lagrange_hermite_L,
    mirrored_direct_block_ratio,
    poly_of,
    reference_find_H,
    reflect,
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


_BLOCK_CASES = [(exp_oracle(1.0), 2, 0.1), (cosh_oracle(1.3), 3, 0.37), (f0_oracle(2), 2, 0.05),
                (truncpow_oracle(1, 0.05), 1, 0.2), (exp_oracle(20.0), 2, 1e-3),
                (cosh_oracle(40.0), 6, 1e-4), (f0_oracle(3), 3, 3e-7)]


def _both_blocks(f, r, h):
    """((block, outer end, inner knot), ...) of the left and the right block."""
    return ((integrated_L(f, -1.0, h, r), -1.0, -1.0 + h),
            (mirrored_L(f, 1.0, h, r), 1.0, 1.0 - h))


def _deriv_at(block, x, nu):
    row = derivative_rows(block.coeffs, block.halfwidth, nu)
    return float(horner_rows(row, (x - block.center) / block.halfwidth))


@pytest.mark.parametrize("f,r,h", _BLOCK_CASES)
def test_blocks_match_f_at_the_end_and_f_prime_at_the_inner_knot(f, r, h):
    """Each block's row matches f^(nu) at its outer end for nu <= r and f' at
    its inner knot to a few ulps of the largest term of that condition, in
    the frame the row is stored in; delta is the row at the inner knot minus
    f there, bit for bit."""
    for block, end, inner in _both_blocks(f, r, h):
        assert (block.h, block.interval) == (h, tuple(sorted((end, inner))))
        assert (block.center, block.halfwidth) == (0.5 * (end + inner), 0.5 * abs(inner - end))
        width = abs(inner - end)
        for nu in range(r + 1):
            # the Taylor terms f^(m)(end) width^(m - nu) / (m - nu)! summed at the end
            scale = max(abs(float(f.deriv(m, end))) * width ** (m - nu) / math.factorial(m - nu)
                        for m in range(nu, r + 1))
            scale = max(scale, abs(float(f.deriv(nu, inner))))
            got = _deriv_at(block, end, nu)
            assert abs(got - float(f.deriv(nu, end))) <= 4 * np.spacing(scale), (block.side, nu)
        want = float(f.deriv(1, inner))
        assert abs(_deriv_at(block, inner, 1) - want) <= 4 * np.spacing(abs(want)), block.side
        assert block.delta == _deriv_at(block, inner, 0) - float(f(inner))


@pytest.mark.parametrize("beta,r,h", [(1.0, 1, 0.1), (1.7, 3, 0.3), (40.0, 2, 1e-3),
                                      (3.0, 6, 0.37)])
def test_mirrored_block_of_cosh_negates_odd_coefficients(beta, r, h):
    """cosh is even, so the right block is the left one reflected: its row is
    the left row with its odd coefficients negated, centered at -center,
    with the same defect, bit for bit."""
    f = cosh_oracle(beta)
    left, right = integrated_L(f, -1.0, h, r), mirrored_L(f, 1.0, h, r)
    assert right.coeffs.tolist() == (left.coeffs * (-1.0) ** np.arange(r + 2)).tolist()
    assert (right.center, right.halfwidth, right.delta) == (-left.center, left.halfwidth,
                                                            left.delta)


def _divided_difference_block(f, a, h, r):
    """The antiderivative through (a, f(a)) of the confluent Hermite
    interpolant of f' at a (orders 0..r-1) and at a+h."""
    slope = Poly(*hermite_interpolant([(a, [float(f.deriv(nu + 1, a)) for nu in range(r)]),
                                       (a + h, [float(f.deriv(1, a + h))])]))
    return slope.antiderivative(a, float(f(a)))


@pytest.mark.parametrize("f,r,h", _BLOCK_CASES[:4])
def test_blocks_equal_the_divided_difference_reference(f, r, h):
    """The closed-form rows are the polynomials of the confluent divided
    differences, the right one through the reflected oracle, to 1e-13
    relative in the same frame."""
    lo = 1.0 - h
    want = [_divided_difference_block(f, -1.0, h, r),
            _divided_difference_block(reflect(f, (lo, 1.0)), lo, h, r).reflected(lo + 1.0)]
    for (block, _, _), ref in zip(_both_blocks(f, r, h), want):
        assert (block.center, block.halfwidth) == (ref.center, ref.halfwidth)
        coeffs = np.pad(ref.coeffs, (0, r + 2 - len(ref.coeffs)))  # polymul trims zeros
        scale = max(abs(c) for c in ref.coeffs)
        assert np.allclose(block.coeffs, coeffs, rtol=0.0, atol=1e-13 * scale)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_blocks_of_a_polynomial_of_degree_r_plus_one_are_the_polynomial(r):
    """For f of degree r+1 both blocks are f itself, which is also the direct
    Hermite block of lagrange_hermite_L: the rows agree to 1e-13 relative."""
    f = poly_oracle([0.3, -0.2, 1.0, 0.1, 0.02][:r + 2])
    h = 0.3
    for block, end, inner in _both_blocks(f, r, h):
        lo = min(end, inner)
        ref = lagrange_hermite_L(f, lo, h, r)
        assert (block.center, block.halfwidth) == (ref.center, ref.halfwidth)
        scale = max(abs(c) for c in ref.coeffs)
        assert np.allclose(block.coeffs, ref.coeffs, rtol=0.0, atol=1e-13 * scale)
        assert abs(block.delta) <= 1e-13 * scale


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


def test_find_H_ladder_ends_before_a_width_that_rounds_onto_the_ends():
    # on [1e6, 1e6 + 1] a width of ulp(1e6)/2 = 2^-34 leaves a + h == a, so
    # the ladder ends at 2^-33, above the 1e-12 floor, and refuses
    bogus = ConvexOracle(
        "bogus", {}, 1, (-1.0, 1.0),
        (lambda x: np.asarray(x, float) ** 2,
         lambda x: -2.0 * np.asarray(x, float) - 10.0))
    with pytest.raises(NoConvexityThreshold, match=f"down to h = {2.0 ** -33:g} for bogus;"):
        find_H(bogus, (1e6, 1e6 + 1.0), 1, 0.25)


@pytest.mark.parametrize("build, end", [(integrated_L, 1e6), (mirrored_L, 1e6 + 1.0)])
def test_block_refuses_a_width_that_rounds_onto_its_end(build, end):
    f = even_power_oracle(1, domain=(1e6, 1e6 + 1.0))
    with pytest.raises(ValueError, match="rounds onto the end"):
        build(f, end, 1e-12, 1)


def _ladder_cells():
    smooth = [f"exp:alpha={a}" for a in (0.3, 1, 4.8, 20)] + [f"cosh:beta={b}" for b in (1, 3.7)]
    smooth += ["xpow:m=2", "poly:coeffs=0.5,-0.25,1,0.125"]
    cells = [(spec, r) for spec in smooth for r in range(1, 6)]
    cells += [(f"f0:r={m}", r) for m in range(1, 6) for r in range(1, m + 1)]
    cells += [(f"truncpow:r={m},eps={e}", r) for m in (1, 2, 3) for r in range(1, m + 1)
              for e in (0.5, 0.1, 0.01, 1e-3, 1e-4, 1e-5)]
    return cells


def _ladder_outcome(search, f, interval, r, h_max):
    try:
        return search(f, interval, r, h_max).hex()
    except NoConvexityThreshold as exc:
        return str(exc)


@pytest.mark.parametrize("spec, r", _ladder_cells())
def test_find_H_equals_the_scalar_ladder(spec, r):
    # both blocks of a chunk of widths in one array certificate: the same
    # width as certifying each block on its own, bit for bit
    f = parse_function(spec)
    assert (_ladder_outcome(find_H, f, (-1.0, 1.0), r, 0.5)
            == _ladder_outcome(reference_find_H, f, (-1.0, 1.0), r, 0.5))


@pytest.mark.parametrize("f, interval, r, h_max", [
    (CUBIC, (0.0, 1.0), 1, 0.5), (CUBIC, (0.0, 1.0), 2, 0.3),
    (exp_oracle(3.0), (-0.3, 0.9), 2, 0.6), (truncpow_oracle(2, 0.05), (-1.0, 1.0), 2, 1e-11),
])
def test_find_H_equals_the_scalar_ladder_on_other_ladders(f, interval, r, h_max):
    assert (_ladder_outcome(find_H, f, interval, r, h_max)
            == _ladder_outcome(reference_find_H, f, interval, r, h_max))


def test_find_H_inconsistent_derivatives_raise_as_the_scalar_ladder():
    bogus = ConvexOracle(
        "bogus", {}, 1, (-1.0, 1.0),
        (lambda x: np.asarray(x, float) ** 2,
         lambda x: -2.0 * np.asarray(x, float) - 10.0))
    with pytest.raises(NoConvexityThreshold) as got:
        find_H(bogus, (-1.0, 1.0), 1, 0.5)
    with pytest.raises(NoConvexityThreshold) as want:
        reference_find_H(bogus, (-1.0, 1.0), 1, 0.5)
    assert str(got.value) == str(want.value)


def test_find_H_certifies_a_chunk_of_widths_per_call(monkeypatch):
    calls = []
    certificates = endblocks.convexity_certificates

    def spy(coeffs, *args):
        calls.append(len(coeffs))
        return certificates(coeffs, *args)

    def scalar(*args):
        raise AssertionError("find_H called the one-piece certificate")

    monkeypatch.setattr(endblocks, "convexity_certificates", spy)
    monkeypatch.setattr(endblocks, "convexity_certificate", scalar, raising=False)
    monkeypatch.setattr(polynomial, "convexity_certificate", scalar)
    assert find_H(exp_oracle(1.0), (-1.0, 1.0), 2, 0.5) == 0.5
    assert 1 <= len(calls) <= 2


def _scripted(bad):
    """x^2 on [-1, 1] whose slope at a left inner knot x breaks convexity
    where bad(x + 1) holds, so the ladder's verdicts can be chosen."""
    def slope(x):
        x = np.asarray(x, float)
        return np.where((x < 0) & bad(x + 1.0), 2.0 * x - 10.0, 2.0 * x)

    return ConvexOracle("scripted", {}, 1, (-1.0, 1.0), (lambda x: np.asarray(x, float) ** 2, slope))


@pytest.mark.parametrize("bad, want", [
    # 0.5 is certified but its half is not: the search goes on to 0.125
    (lambda d: d == 0.25, 0.125),
    # only the last width at or above the floor 2e-12, and its half, certify
    (lambda d: d > 4e-12, 0.5 * 2.0 ** -37),
])
def test_find_H_equals_the_scalar_ladder_on_scripted_slopes(bad, want):
    f = _scripted(bad)
    assert find_H(f, (-1.0, 1.0), 1, 0.5) == reference_find_H(f, (-1.0, 1.0), 1, 0.5) == want
