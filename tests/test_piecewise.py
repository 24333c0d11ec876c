"""PiecewisePoly's array passes against the per-piece scalar arithmetic.

The spline keeps its pieces in one zero-padded coefficient matrix.  Every
value it returns must equal, bit for bit, what the piece itself gives by
Horner's rule in Python floats, including splines whose pieces have fewer
coefficients than the spline's order.
"""

import numpy as np
import pytest

from convexlab.domain import chebyshev_partition, exp_oracle, f0_oracle, poly_oracle
from convexlab.glue import construct_chebyshev, polygonal_baseline
from convexlab.localconvex import convex_parabola, convex_pieces
from convexlab.piecewise import PiecewisePoly
from convexlab.polynomial import convexity_certificate


def scalar_value(p, x, nu=0):
    """The nu-th derivative of piece p at x: (i*c)/w per derivative step, then
    Horner in Python floats, one piece and one point at a time."""
    cs = list(p.coeffs)
    for _ in range(nu):
        cs = [i * c / p.halfwidth for i, c in enumerate(cs) if i >= 1] or [0.0]
    u = (x - p.center) / p.halfwidth
    acc = cs[-1]
    for c in cs[-2::-1]:
        acc = acc * u + c
    return acc


def _affine_spline():
    S, _, _ = construct_chebyshev(poly_oracle([2.0, -3.0]), 2, 16)
    return S


def _parabola_in_cubic_spline():
    f = f0_oracle(2)
    X = chebyshev_partition(24)
    polys = [pc.poly for pc in convex_pieces(f, X, 2)]
    polys[5] = convex_parabola(f, X.interval(6)).poly
    return PiecewisePoly(X.knots, tuple(polys), order=4)


SPLINES = {
    "affine": _affine_spline,
    "parabola in cubic": _parabola_in_cubic_spline,
    "polygonal": lambda: polygonal_baseline(exp_oracle(1.0), 32),
    "construction": lambda: construct_chebyshev(exp_oracle(2.0), 3, 40)[0],
}


@pytest.fixture(params=list(SPLINES), scope="module")
def spline(request):
    return SPLINES[request.param]()


def test_spline_has_mixed_coefficient_counts():
    S = _parabola_in_cubic_spline()
    assert {len(p.coeffs) for p in S.pieces} == {3, 4}
    assert {len(p.coeffs) for p in _affine_spline().pieces} == {2}
    assert _affine_spline().order == 4


def test_eval_matches_pieces_bit_for_bit(spline):
    S = spline
    mids = 0.5 * (S.knots[:-1] + S.knots[1:])
    xs = np.concatenate([S.knots, mids, np.linspace(S.a, S.b, 301)])
    got = S(xs)
    want = [scalar_value(S.pieces[j], float(x)) for j, x in zip(S.piece_index(xs), xs)]
    assert got.tolist() == want
    assert S(float(xs[7])) == want[7] and isinstance(S(float(xs[7])), float)
    grid = xs.reshape(2, -1)
    assert S(grid).shape == grid.shape and S(grid).ravel().tolist() == want
    assert S.value_scale() == 1.0 + max(abs(scalar_value(p, float(m)))
                                        for p, m in zip(S.pieces, mids))


def test_derivatives_match_pieces_bit_for_bit(spline):
    S = spline
    for i in range(1, S.n):
        x = float(S.knots[i])
        left, right = S.pieces[i - 1], S.pieces[i]
        for nu in range(S.order + 1):
            assert S.deriv_value(x, nu, "-") == scalar_value(left, x, nu)
            assert S.deriv_value(x, nu, "+") == scalar_value(right, x, nu)
        assert S.knot_slopes()[i - 1].tolist() == [scalar_value(left, x, 1),
                                                   scalar_value(right, x, 1)]
        assert S.continuity_defects()[i - 1] == abs(scalar_value(left, x)
                                                    - scalar_value(right, x))
    x = float(0.5 * (S.knots[1] + S.knots[2]))
    assert S.deriv_value(x, 2) == scalar_value(S.pieces[1], x, 2)


def test_piece_certificates_match_one_piece_certificates(spline):
    S = spline
    want = [convexity_certificate(p, (float(S.knots[i]), float(S.knots[i + 1])))
            for i, p in enumerate(S.pieces)]
    assert S.piece_certificates() == want
    assert all(c.convex for c in want)
