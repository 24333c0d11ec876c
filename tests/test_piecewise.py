"""PiecewisePoly's array passes against the per-piece scalar arithmetic.

The spline is one zero-padded coefficient matrix.  Every value it returns
must equal, bit for bit, what the piece of its row gives by Horner's rule in
Python floats.  A spline JSON whose rows are
shorter than its order, as older files hold them, must still load and
evaluate like its short pieces.
"""

import copy
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from convexlab.domain import chebyshev_partition, exp_oracle, f0_oracle, poly_oracle
from convexlab.glue import construct_chebyshev, polygonal_baseline
from convexlab.localconvex import convex_parabola, convex_pieces
from convexlab.piecewise import PiecewisePoly, _convexity_reports, verify_convexity
from convexlab.polynomial import ConvexityCertificate, convexity_certificate
from helpers import Poly, pieces_of, spline_of


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
    polys = pieces_of(convex_pieces(f, X, 2)[0])
    polys[5] = pieces_of(convex_parabola(f, X.interval(6))[0])[0]
    return spline_of(X.knots, polys, 4)


SPLINES = {
    "affine": _affine_spline,
    "parabola in cubic": _parabola_in_cubic_spline,
    "polygonal": lambda: polygonal_baseline(exp_oracle(1.0), 32),
    "construction": lambda: construct_chebyshev(exp_oracle(2.0), 3, 40)[0],
}


@pytest.fixture(params=list(SPLINES), scope="module")
def spline(request):
    return SPLINES[request.param]()


def test_eval_matches_pieces_bit_for_bit(spline):
    S = spline
    mids = 0.5 * (S.knots[:-1] + S.knots[1:])
    xs = np.concatenate([S.knots, mids, np.linspace(S.a, S.b, 301)])
    got = S(xs)
    pieces = pieces_of(S)
    want = [scalar_value(pieces[j], float(x)) for j, x in zip(S.piece_index(xs), xs)]
    assert got.tolist() == want
    assert S(float(xs[7])) == want[7] and isinstance(S(float(xs[7])), float)
    grid = xs.reshape(2, -1)
    assert S(grid).shape == grid.shape and S(grid).ravel().tolist() == want
    assert S.value_scale() == 1.0 + max(abs(scalar_value(p, float(m)))
                                        for p, m in zip(pieces, mids))


def test_derivatives_match_pieces_bit_for_bit(spline):
    S = spline
    pieces = pieces_of(S)
    for i in range(1, S.n):
        x = float(S.knots[i])
        left, right = pieces[i - 1], pieces[i]
        for nu in range(S.order + 1):
            assert S.deriv_value(x, nu, "-") == scalar_value(left, x, nu)
            assert S.deriv_value(x, nu, "+") == scalar_value(right, x, nu)
        assert S.knot_slopes()[i - 1].tolist() == [scalar_value(left, x, 1),
                                                   scalar_value(right, x, 1)]
        assert S.continuity_defects()[i - 1] == abs(scalar_value(left, x)
                                                    - scalar_value(right, x))
    x = float(0.5 * (S.knots[1] + S.knots[2]))
    assert S.deriv_value(x, 2) == scalar_value(pieces[1], x, 2)


def test_piece_certificates_match_one_piece_certificates(spline):
    S = spline
    want = [convexity_certificate(p, (float(S.knots[i]), float(S.knots[i + 1])))
            for i, p in enumerate(pieces_of(S))]
    got = zip(*(a.tolist() for a in S.piece_certificates()))
    assert [ConvexityCertificate(*row) for row in got] == want
    assert all(c.convex for c in want)


def test_pieces_view_is_the_matrix():
    """A spline's pieces are the rows of its read-only arrays: the parabola
    row is zero-padded to the order, and no per-piece view is kept."""
    S = _parabola_in_cubic_spline()
    assert S.order == 4
    assert S.coeffs.shape == (S.n, 4) and S.centers.shape == S.halfwidths.shape == (S.n,)
    assert S.coeffs[5, 3] == 0.0
    assert not hasattr(S, "pieces")
    for name in ("knots", "coeffs", "centers", "halfwidths"):
        with pytest.raises(ValueError):
            getattr(S, name)[0] = 0.0


def test_mismatched_arrays_raise():
    knots, coeffs = [0.0, 1.0, 2.0], np.ones((2, 3))
    centers, halfwidths = [0.5, 1.5], [0.5, 0.5]
    for args in [(knots, coeffs[:1], centers, halfwidths),
                 (knots, coeffs, centers[:1], halfwidths),
                 (knots, coeffs, centers, halfwidths + [0.5]),
                 (knots, coeffs[0], centers, halfwidths),
                 (knots, coeffs[:, :0], centers, halfwidths)]:
        with pytest.raises(ValueError, match="one piece per interval"):
            PiecewisePoly(*args)
    assert PiecewisePoly(knots, coeffs, centers, halfwidths).order == 3
    with pytest.raises(ValueError, match="exceeds declared order"):
        spline_of(knots, [Poly(0.5, 0.5, (1.0, 2.0)), Poly(1.5, 0.5, (1.0, 2.0, 3.0))], 2)


@pytest.mark.parametrize("name, value", [("coeffs", np.nan), ("coeffs", np.inf),
                                         ("centers", np.nan), ("halfwidths", np.inf),
                                         ("halfwidths", 0.0), ("halfwidths", -0.5)])
def test_non_finite_piece_raises_naming_it(name, value):
    arrays = {"knots": [0.0, 1.0, 2.0, 3.0], "coeffs": np.ones((3, 3)),
              "centers": np.array([0.5, 1.5, 2.5]), "halfwidths": np.full(3, 0.5)}
    arrays[name][1] = value  # piece 1; in coeffs, all of its row
    with pytest.raises(ValueError, match="piece 1 has a non-finite value"):
        PiecewisePoly(**arrays)
    arrays["knots"] = [0.0, 1.0, 2.0, np.inf]
    with pytest.raises(ValueError, match="knots must be finite"):
        PiecewisePoly(**arrays)


@pytest.mark.parametrize("row, halfwidth", [((0.0, 0.0, 1e308, 1e308), 0.5),  # sum of |c|
                                            ((0.0, 1e308, 0.0, 0.0), 0.25),   # p' = c1/w
                                            ((0.0, 0.0, 1e300, 0.0), 1e-10)])  # p'' = 2 c2/w^2
def test_row_whose_coefficient_sums_overflow_raises_naming_it(row, halfwidth):
    """Finite coefficients whose sum, or whose p' or p'' row sum, is not
    finite would overflow every evaluation; the row is refused, naming it."""
    coeffs = np.ones((3, 4))
    coeffs[1] = row
    arrays = {"knots": [0.0, 1.0, 2.0, 3.0], "coeffs": coeffs,
              "centers": np.array([0.5, 1.5, 2.5]), "halfwidths": np.array([0.5, halfwidth, 0.5])}
    with pytest.raises(ValueError, match="piece 1 has a non-finite value"):
        PiecewisePoly(**arrays)
    coeffs[1] = np.array(row) * 1e-30  # the same rows, scaled down, are accepted
    PiecewisePoly(**arrays)


def test_certified_copy_sets_only_the_flag(spline, monkeypatch):
    """The certified copy shares the validated arrays and class, and writes
    the JSON that dataclasses.replace does, without checking them again."""
    from convexlab import piecewise

    S = dataclasses.replace(spline, convex_certified=False)
    want = dataclasses.replace(S, convex_certified=True)
    monkeypatch.setattr(piecewise, "derivative_rows", None)  # __post_init__ would call it
    got = S.certified()
    assert type(got) is type(S) and got.convex_certified and not S.convex_certified
    assert all(getattr(got, name) is getattr(S, name)
               for name in ("knots", "coeffs", "centers", "halfwidths"))
    assert got.to_json_text({}) == want.to_json_text({})


def test_to_json_dict_builds_no_poly(spline):
    """JSON rows are written from the arrays, as the reference
    Poly.to_json_dict writes each row."""
    want = [p.to_json_dict() for p in pieces_of(spline)]
    doc = spline.to_json_dict()
    assert doc["pieces"] == want and doc["knots"] == spline.knots.tolist()


# values whose JSON text a hand-rolled writer could get wrong: a signed zero,
# the least subnormal, integral floats, and magnitudes where repr switches to
# exponent form, up to sizes that still pass __post_init__
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-7, 1e-5, 2.0, -3.0, 1e300,
                  -1e300, 1.2345678901234567e-300, 0.1, 123456789.0]


def _floats(lo, hi):
    return st.sampled_from(SPECIAL_FLOATS) | st.floats(lo, hi)


@st.composite
def _spline_and_extra(draw):
    order, n = draw(st.integers(1, 6)), draw(st.integers(1, 30))
    knots = sorted(draw(st.lists(st.floats(-1e6, 1e6), min_size=n + 1, max_size=n + 1,
                                 unique=True)))
    coeffs = draw(st.lists(_floats(-1e300, 1e300), min_size=n * order, max_size=n * order))
    centers = draw(st.lists(_floats(-1e300, 1e300), min_size=n, max_size=n))
    halfwidths = draw(st.lists(st.sampled_from([5e-3, 0.5, 2.0, 1e-3 / 3]) | st.floats(1e-3, 1e3),
                               min_size=n, max_size=n))
    try:
        S = PiecewisePoly(knots, np.reshape(coeffs, (n, order)), centers, halfwidths,
                          convex_certified=draw(st.booleans()))
    except ValueError:  # a row whose p, p' or p'' sums overflow
        assume(False)
    label = 'say "hi" \\ to ü, π and \U0001d4b3 ' + draw(st.text(max_size=8))
    extra = {"trace": {"case": label, "lambda": draw(_floats(-1e300, 1e300)),
                       "rows": draw(st.lists(st.integers(-5, 5), max_size=3)), "none": None},
             "meta": {"function": label, "r": order, "n": n, "reproduction": False}}
    return S, extra


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_spline_and_extra())
def test_json_text_is_json_dumps_indent_2_byte_for_byte(drawn):
    """The spline file's writer gives exactly json's indented text, on
    values chosen to trip a hand-rolled float or string encoder, and the
    text loads back to the same arrays bit for bit."""
    S, extra = drawn
    text = S.to_json_text(extra)
    assert text == json.dumps({**S.to_json_dict(), **extra}, indent=2)
    T = PiecewisePoly.from_json_dict(json.loads(text))
    for name in ("knots", "coeffs", "centers", "halfwidths"):
        assert getattr(T, name).tobytes() == getattr(S, name).tobytes()
    assert T.convex_certified == S.convex_certified


OLDER_JSON = {
    "knots": [-1.0, -0.25, 0.5, 1.0],
    "order": 4,
    "pieces": [{"center": -0.625, "halfwidth": 0.375, "coeffs": [0.3, -0.7]},
               {"center": 0.125, "halfwidth": 0.375, "coeffs": [0.1, 0.2, 0.45]},
               {"center": 0.75, "halfwidth": 0.25, "coeffs": [1.7, 0.9]}],
    "convex_certified": True,
}


def test_older_json_with_short_rows_loads_bit_for_bit():
    S = PiecewisePoly.from_json_dict(OLDER_JSON)
    short = [Poly(q["center"], q["halfwidth"], q["coeffs"]) for q in OLDER_JSON["pieces"]]
    assert S.order == 4 and S.convex_certified
    xs = np.concatenate([S.knots, np.linspace(-1.0, 1.0, 201)])
    for j, x in zip(S.piece_index(xs), xs.tolist()):
        for nu in range(5):
            assert S.deriv_value(x, nu, "+") == scalar_value(short[j], x, nu)
    assert S(xs).tolist() == [scalar_value(short[j], x) for j, x in
                              zip(S.piece_index(xs), xs.tolist())]

    doc = S.to_json_dict()
    assert [q["coeffs"] for q in doc["pieces"]] == [[0.3, -0.7, 0.0, 0.0],
                                                    [0.1, 0.2, 0.45, 0.0],
                                                    [1.7, 0.9, 0.0, 0.0]]
    assert PiecewisePoly.from_json_dict(doc).to_json_dict() == doc


@pytest.mark.parametrize("field, value, message", [
    ("order", 4.9, "order must be a whole number, got 4.9"),
    ("order", "4", "order must be a whole number, got '4'"),
    ("order", True, "order must be a whole number, got True"),
    ("order", math.inf, "order must be a whole number, got inf"),
    ("convex_certified", "no", "convex_certified must be true or false, got 'no'"),
    ("convex_certified", 1, "convex_certified must be true or false, got 1"),
    ("knots", [-1.0, "-0.25", 0.5, 1.0], "knots must be numbers, got '-0.25'"),
    ("knots", [-1.0, -0.25, True, 1.0], "knots must be numbers, got True"),
    ("coeffs", [0.1, "0.2", 0.45], "piece 1 coeffs must be numbers, got '0.2'"),
    ("center", "0.125", "piece 1 center and halfwidth must be numbers, got '0.125'"),
    ("halfwidth", "0.375", "piece 1 center and halfwidth must be numbers, got '0.375'"),
    ("halfwidth", False, "piece 1 center and halfwidth must be numbers, got False"),
], ids=["fractional order", "string order", "boolean order", "infinite order", "string certified",
        "integer certified", "string knot", "boolean knot", "string coefficient", "string center",
        "string halfwidth", "boolean halfwidth"])
def test_json_refuses_a_field_it_would_have_to_guess(field, value, message):
    """A fractional order is not truncated, a convex_certified that is not a
    JSON boolean is not read by its truthiness, and a number held as a
    string or a boolean is not parsed: fields of the spline go in as given,
    the piece fields into piece 1."""
    doc = copy.deepcopy(OLDER_JSON)
    if field in ("coeffs", "center", "halfwidth"):
        doc["pieces"][1][field] = value
    else:
        doc[field] = value
    with pytest.raises(ValueError) as exc:
        PiecewisePoly.from_json_dict(doc)
    assert str(exc.value) == message


def test_json_takes_a_whole_float_order():
    S = PiecewisePoly.from_json_dict({**OLDER_JSON, "order": 4.0})
    assert S.order == 4 and S.convex_certified


def test_json_keeps_poly_checks():
    doc = copy.deepcopy(OLDER_JSON)
    doc["pieces"][1]["halfwidth"] = 0.0
    with pytest.raises(ValueError, match="halfwidth"):
        PiecewisePoly.from_json_dict(doc)
    doc = copy.deepcopy(OLDER_JSON)
    doc["pieces"][0]["coeffs"] += [0.0, 0.0, 1.0]
    with pytest.raises(ValueError, match="exceeds declared order"):
        PiecewisePoly.from_json_dict(doc)


def _moved(S, j, change):
    """S with change, ascending coefficients in u, added to the row of piece j."""
    coeffs = S.coeffs.copy()
    coeffs[j, :len(change)] += change
    return PiecewisePoly(S.knots, coeffs, S.centers, S.halfwidths)


def _report_fields(rep):
    return (rep.convex, rep.continuous, rep.slopes_ok, rep.offending_pieces,
            rep.piece_min_second_derivative.tobytes())


def test_run_check_equals_the_check_of_each_spline():
    """One check of a run of splines gives each spline the report that
    verify_convexity gives it alone, field for field.  The run mixes passing
    splines with splines that fail one check each: a jump (c0 moved by
    1e-8), an offending piece (w^2 (u^2 - 1)^2 added: the same values and
    slopes at its ends, p'' about e^x - 4 inside) and a slope drop
    (1e-8 w/2 (u^2 - 1) added: the same values, the left slope 1e-8 lower).
    A jump or a drop of 1e-8 fails the tolerance of its own exp:alpha=1
    spline, about 3.7e-9, and passes that of the steep exp:alpha=8 spline
    in the same run (3e-6 and 2.4e-5), so tolerances taken across the run
    would pass it.  A one-piece spline shares the run."""
    ok = [construct_chebyshev(exp_oracle(1.0), 3, n)[0] for n in (16, 24, 40, 56)]
    steep = construct_chebyshev(exp_oracle(8.0), 3, 64)[0]
    one = PiecewisePoly([-1.0, 1.0], [[1.0, 0.5, 2.0, 0.0, 0.0]], [0.0], [1.0])
    j = 7
    jump = _moved(ok[0], j, [1e-8])
    w = ok[1].halfwidths[j]
    offending = _moved(ok[1], j, [w * w, 0.0, -2.0 * w * w, 0.0, w * w])
    w = ok[2].halfwidths[j]
    drop = _moved(ok[2], j, [-0.5e-8 * w, 0.0, 0.5e-8 * w])
    alone = {id(S): verify_convexity(S) for S in (*ok, steep, one, jump, offending, drop)}
    assert [_report_fields(alone[id(S)])[:3] for S in (jump, offending, drop)] == [
        (False, False, True), (False, True, True), (False, True, False)]
    assert alone[id(offending)].offending_pieces == [j]
    assert all(alone[id(S)].convex for S in (*ok, steep, one))
    runs = [[ok[0], jump, steep, offending, ok[1], drop, one, ok[3]],
            [steep, drop], [jump, steep], [one], [offending, one]]
    for run in runs:
        got = _convexity_reports(run)
        assert [_report_fields(rep) for rep in got] == [
            _report_fields(verify_convexity(S)) for S in run]
