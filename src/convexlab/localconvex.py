"""Per-interval convex interpolants and the global piecewise interpolant sigma.

Each interval gets one coefficient row, in its midpoint frame: a piece that
interpolates f at both interval ends, sandwiches the one-sided slopes
against f' there, and is certified convex.  A row depends on its interval
alone, so one pass builds the rows of any intervals, those of many
partitions at once in a sweep.  The public per-piece functions return
(spline, sources, slacks); the construction uses the rows alone.

Every row follows one rule: a first-choice row Q moved by a weight w in
[0, 1] toward the convex parabola P of :func:`convex_parabola`, Q + w (P - Q).
For degree d = r+1 >= 3, Q is the Hermite row, which matches f and f' at
both ends and f at the d-3 interior Chebyshev-Lobatto nodes, all rows from
one shared (d+1)x(d+1) solve, so its slope slacks are 0; w is 0 where the
certificate accepts Q, and otherwise the least weight, times 1 + 1e-6, that
lifts the row's least p'' to 0.  For d = 2 (r = 1), Q is f's secant S and w
the weight sigma whose row best fits f at 16 Chebyshev points: every such
row interpolates f at both ends, keeps its end slopes between f'(a) and
f'(b) and is convex, since its c2 is sigma times P's.  A row that stays
uncertified, or whose fit data is not finite, becomes P.

Each piece's sigma minimises a convex max of 16 linear terms over [0, 1],
the fit at 16 Chebyshev points that one pass computes for every piece, and
it is found in closed form, without a solver (:func:`_blend_weights`).
:func:`linprog` calls scipy's on the same minimax as an LP; no construction
calls it, and it is kept as the tests' reference and for bench/tracing.py.
"""

from __future__ import annotations

import numpy as np

from convexlab.domain import ConvexOracle, Partition
from convexlab.piecewise import PiecewisePoly, verify_convexity
from convexlab.polynomial import convexity_certificates, derivative_rows, horner_rows

__all__ = [
    "NotConvexInput",
    "SolverStall",
    "convex_parabola",
    "convex_piece",
    "convex_pieces",
    "build_sigma",
]

DEGENERATE_REL_LENGTH = 1e-13
_SPOT_CHECK_POINTS = 65
# points per array pass: of the spot check (65 per interval), the r = 1 fit
# (16), and beyond their largest row, a sweep's interior pass and set-up
_BLOCK_SIZE = 2 ** 14


class NotConvexInput(ValueError):
    """The oracle failed a convexity spot-check on the requested interval."""


class SolverStall(RuntimeError):
    """The LP solver of :func:`linprog` gave up."""


def _values(f: ConvexOracle, nu: int, x: np.ndarray) -> np.ndarray:
    """f^(nu) at every entry of x, in x's shape."""
    return np.asarray(f.deriv(nu, x.ravel()), dtype=float).reshape(x.shape)


def _spot_check_convexity(f: ConvexOracle, a, b) -> None:
    """Check that f' does not decrease at _SPOT_CHECK_POINTS points of each
    interval [a[i], b[i]]; the error names the first interval that fails.  The
    intervals go in order, in blocks of about _BLOCK_SIZE points: few oracle
    calls, and arrays small enough to leave peak memory as it is."""
    a, b = np.atleast_1d(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    size = max(1, _BLOCK_SIZE // _SPOT_CHECK_POINTS)
    for s in range(0, a.size, size):
        xs = np.linspace(a[s:s + size], b[s:s + size], _SPOT_CHECK_POINTS, axis=-1)
        d1 = _values(f, 1, xs)
        tol = 1e-10 * (1.0 + np.max(np.abs(d1), axis=1))
        bad = np.flatnonzero(np.any(np.diff(d1, axis=1) < -tol[:, None], axis=1))
        if bad.size:
            i = s + bad[0]
            raise NotConvexInput(
                f"{f.label()} has decreasing slope inside [{float(a[i])}, {float(b[i])}]")


def _slacks(f: ConvexOracle, S: PiecewisePoly) -> np.ndarray:
    """The slope slacks of every row p of S on its interval [a, b], shape
    (n, 2): p'(a) - f'(a) >= 0 and f'(b) - p'(b) >= 0 are exactly the
    one-sided slope margins that make the glued spline convex across knots."""
    a, b, center, w = S.knots[:-1], S.knots[1:], S.centers, S.halfwidths
    d1 = derivative_rows(S.coeffs, w)
    df = _values(f, 1, np.stack([a, b], axis=1))
    return np.stack([horner_rows(d1, (a - center) / w) - df[:, 0],
                     df[:, 1] - horner_rows(d1, (b - center) / w)], axis=1)


def _midpoint_spline(knots, coeffs) -> PiecewisePoly:
    """The spline of one coefficient row per interval of the knots, each row
    framed at its interval's midpoint."""
    knots = np.asarray(knots, dtype=float)
    a, b = knots[:-1], knots[1:]
    return PiecewisePoly(knots, coeffs, 0.5 * (a + b), 0.5 * (b - a))


def _secant(f: ConvexOracle, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficient rows (c0, c1) of f's secant on each interval [a[i], b[i]],
    in its midpoint frame."""
    fa, fb = _values(f, 0, a), _values(f, 0, b)
    slope = (fb - fa) / (b - a)
    return np.stack([fa - slope * a + slope * (0.5 * (a + b)), slope * (0.5 * (b - a))], axis=1)


def _secant_piece(f: ConvexOracle, a: float, b: float) -> tuple:
    """(spline, sources, slacks) of f's secant on [a, b]."""
    knots = np.array([a, b], dtype=float)
    S = _midpoint_spline(knots, _secant(f, knots[:1], knots[1:]))
    return S, ["secant"], _slacks(f, S)


def _parabola(f: ConvexOracle, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficient rows (c0, c1, c2) of the parabola of :func:`convex_parabola`
    on each interval [a[i], b[i]], built in v = (x - a)/(b - a) and composed
    exactly with v = (u + 1)/2 into the midpoint frame, in Horner steps that
    halve exactly."""
    length = b - a
    fa, fb = _values(f, 0, a), _values(f, 0, b)
    # a convex f has g0 <= 0 <= g1; rounding can flip them on short intervals
    g0 = np.minimum(length * _values(f, 1, a) - (fb - fa), 0.0)
    g1 = np.maximum(length * _values(f, 1, b) - (fb - fa), 0.0)
    first = g0 + g1 >= 0.0
    c1 = np.where(first, g0, -g1) + (fb - fa)
    c2 = np.where(first, -g0, g1)
    # c2 v^2 + c1 v + c0 with v = (u + 1)/2
    p0, p1 = 0.5 * c2 + c1, 0.5 * c2
    return np.stack([0.5 * p0 + (0.0 + fa), 0.5 * p0 + 0.5 * p1, 0.5 * p1], axis=1)


def convex_parabola(f: ConvexOracle, interval) -> tuple:
    """(spline, sources, slacks) of the explicit convex parabola
    interpolating f at both ends of the interval and matching f' at one of
    them: a one-row spline of order 3, its source "parabola" and its (1, 2)
    slope slacks.

    After mapping onto [0,1] and removing the secant (so g(0) = g(1) = 0),
    the piece is (v - v^2) g'(0) when g'(0) + g'(1) >= 0 and (v^2 - v) g'(1)
    otherwise; ties take the first branch.  A convex f has g'(0) <= 0 <=
    g'(1), and a rounded value of the other sign is taken as 0.
    """
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    _spot_check_convexity(f, a, b)
    knots = np.array([a, b])
    S = _midpoint_spline(knots, _parabola(f, knots[:1], knots[1:]))
    return S, ["parabola"], _slacks(f, S)


def linprog(c, *, A_ub, b_ub, bounds) -> np.ndarray:
    """The x minimising c @ x subject to A_ub @ x <= b_ub and
    bounds[:, 0] <= x <= bounds[:, 1], from scipy.optimize.linprog(method=
    "highs") with presolve on and both feasibility tolerances 1e-10.

    A_ub holds the dense diagonal blocks, of shape (k, m, cols), of a
    block-diagonal matrix; b_ub is flat.  Any status but optimal is a
    SolverStall with scipy's message.  scipy is imported on the first call.
    """
    try:
        from scipy.optimize import linprog as highs_linprog
        from scipy.sparse import block_diag
    except ImportError as exc:
        raise ImportError("convexlab.localconvex.linprog needs scipy.optimize.linprog and "
                          "scipy.sparse, from the test extra") from exc
    res = highs_linprog(c, A_ub=block_diag(list(A_ub)), b_ub=b_ub, bounds=bounds, method="highs",
                        options={"presolve": True, "primal_feasibility_tolerance": 1e-10,
                                 "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise SolverStall(res.message)
    return res.x


def _fit_points(f: ConvexOracle, a: np.ndarray, b: np.ndarray, S: np.ndarray,
                D: np.ndarray) -> tuple:
    """(d, e): P - S and f - S at 16 Chebyshev points of every piece [a[i],
    b[i]], shape (k, 16), each row in units of its own largest |P - S| at
    those points, so that an absolute tolerance on g means the same on
    every piece.  S holds the pieces' secant rows and D their parabola rows
    minus S, both of degree 2."""
    u = np.cos(np.pi * np.arange(16) / 15)  # Chebyshev-Lobatto, both ends included
    x = (0.5 * (a + b))[:, None] + (0.5 * (b - a))[:, None] * u
    d = horner_rows(D[:, None, :], u)
    e = _values(f, 0, x) - horner_rows(S[:, None, :], u)
    unit = np.max(np.abs(d), axis=1, keepdims=True)
    unit[unit == 0.0] = 1.0  # P = S: every sigma fits alike
    return d / unit, e / unit


def _known_weights(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The minimiser sigma over [0, 1] of each piece's convex
    g(sigma) = max_j |sigma d_j - e_j|, where a shortcut decides it, and NaN
    elsewhere.

    Where d = 0 at every point (P = S), every sigma gives the same row, and
    sigma is 0.  Otherwise let j be the first point of largest |d_j - e_j|.
    If d_j != 0 and (d_j - e_j) d_j <= 0, the j-th term is
    |d_j - e_j| + (1 - sigma) |d_j| > g(1) for every sigma < 1, so sigma = 1
    is the only minimiser.  A piece with a value that is not finite is left
    NaN."""
    sigma = np.full(d.shape[0], np.nan)
    finite = np.all(np.isfinite(d) & np.isfinite(e), axis=1)
    d, e = d[finite], e[finite]
    j = np.argmax(np.abs(d - e), axis=1)[:, None]
    dj, ej = np.take_along_axis(d, j, 1)[:, 0], np.take_along_axis(e, j, 1)[:, 0]
    known = np.where((dj != 0.0) & ((dj - ej) * dj <= 0.0), 1.0, np.nan)
    known[np.all(d == 0.0, axis=1)] = 0.0
    sigma[finite] = known
    return sigma


def _blend_weights(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The blend weight sigma of each piece from its fit data (d, e): the
    minimiser over [0, 1] of g(sigma) = max_j |sigma d_j - e_j|, as
    :func:`_known_weights` decides it, else in closed form; NaN where a value
    is not finite.

    With a = |d| and y = sign(d) e, g(sigma) <= t exactly where sigma lies
    in [0, 1] and in every [(y_j - t)/a_j, (y_j + t)/a_j] with a_j > 0, and
    |e_j| <= t wherever d_j = 0.  These meet from the least t on, the
    largest of: (y_i a_j - y_j a_i)/(a_i + a_j) over point pairs (the bottom
    of i's interval below the top of j's), y_j - a_j (a bottom below 1), -y_j
    (a top above 0) and |e_j| where d_j = 0.  sigma is the top of the common
    part at that t, min(1, min_j (y_j + t)/a_j), clipped at 0.  The only
    divisors are a_i + a_j > 0 and a_j > 0."""
    sigma = _known_weights(d, e)
    todo = np.flatnonzero(np.isnan(sigma) & np.all(np.isfinite(d) & np.isfinite(e), axis=1))
    d, e = d[todo], e[todo]
    a, y = np.abs(d), np.sign(d) * e
    t = np.maximum(np.maximum(y - a, -y), np.where(d == 0.0, np.abs(e), 0.0)).max(axis=1)
    for j in range(d.shape[1]):  # one j at a time keeps the arrays (k, 16), not (k, 16, 16)
        sums = a + a[:, j, None]
        # where a_i = a_j = 0, y_i = y_j = 0 too, and the pair's term is 0
        pairs = np.divide(y * a[:, j, None] - y[:, j, None] * a, sums,
                          out=np.zeros_like(sums), where=sums > 0.0)
        t = np.maximum(t, pairs.max(axis=1))
    top = np.divide(y + t[:, None], a, out=np.full_like(a, np.inf), where=a > 0.0)
    sigma[todo] = np.clip(top.min(axis=1), 0.0, 1.0)
    return sigma


def _hermite_rows(f: ConvexOracle, a: np.ndarray, b: np.ndarray, degree: int) -> np.ndarray:
    """The row of degree >= 3 on each interval [a[i], b[i]], in its midpoint
    frame, that matches f and f' at both ends and f at the degree - 3
    interior Chebyshev-Lobatto nodes: one (degree+1)x(degree+1) system in
    u = (x - center)/w serves every row.  The tangent line of f at a is
    taken out of the data and added back to c0 and c1, so the end slopes
    come out as f' up to the rounding of f' itself, not of f."""
    center, w = 0.5 * (a + b), 0.5 * (b - a)
    u = np.r_[1.0, np.cos(np.pi * np.arange(1, degree - 2) / (degree - 2))]
    k = np.arange(degree + 1)
    # rows: the value at -1, at 1 and at the nodes, then d/du at -1 and at 1
    system = np.vstack([(-1.0) ** k, u[:, None] ** k, k * (-1.0) ** (k - 1), k])
    fa, da = _values(f, 0, a), _values(f, 1, a)
    x = center[:, None] + w[:, None] * u
    x[:, 0] = b
    tangent = fa[:, None] + (da * w)[:, None] * (1.0 + u)  # at x, in u
    data = np.column_stack([np.zeros_like(a), _values(f, 0, x) - tangent,
                            np.zeros_like(a), w * (_values(f, 1, b) - da)])
    rows = np.linalg.solve(system, data.T).T
    rows[:, 0] += fa + da * w
    rows[:, 1] += da * w
    return rows


def _convex_pieces(f: ConvexOracle, a_all, b_all, degree: int) -> tuple:
    """(rows, sources): a convex piece of the given degree on each interval
    [a_all[i], b_all[i]], as one coefficient row in its midpoint frame, and
    each row's source: "hermite", "blend", "lp", "parabola-fallback" or
    "secant".  The intervals need not form one partition: a row depends on
    its own interval alone, so the intervals of many partitions are built in
    one pass.  Every interval must first pass the spot check, one call over
    all of them.

    Each interval gets a first-choice row Q and a weight w toward the
    parabola P of :func:`_parabola`, and its row is Q + w (P - Q): it
    interpolates f at both ends, and its slope slacks are (1 - w) times Q's
    plus w times P's, so >= 0.  For degree 2, Q is f's secant and w the
    sigma of :func:`_blend_weights` on the fit of :func:`_fit_points`, so the
    row is convex by construction.  For every higher degree, Q is the
    Hermite row of :func:`_hermite_rows`, all certified in one array
    certificate; w is 0 on a certified row, and on a rejected row with
    certified least Q'' = m < 0 it is t = -m / (P'' - m) times 1 + 1e-6, at
    most 1, which lifts the least p'' a little above 0.  A row whose fit
    data is not finite (sigma NaN), or a blend still not certified, becomes
    P, which is always convex.  Intervals at rounding scale get the secant.
    """
    if degree < 2:
        raise ValueError(f"degree must be >= 2, got {degree}")
    a_all, b_all = np.asarray(a_all, dtype=float), np.asarray(b_all, dtype=float)
    scale = np.maximum(1.0, np.maximum(np.abs(a_all), np.abs(b_all)))
    degenerate = b_all - a_all <= DEGENERATE_REL_LENGTH * scale
    coeffs = np.zeros((a_all.size, degree + 1))
    sources = np.where(degenerate, "secant", "lp" if degree == 2 else "hermite").astype(object)
    if degenerate.any():
        coeffs[degenerate, :2] = _secant(f, a_all[degenerate], b_all[degenerate])
    live = np.flatnonzero(~degenerate)
    a, b = a_all[live], b_all[live]
    center, w = 0.5 * (a + b), 0.5 * (b - a)

    _spot_check_convexity(f, a, b)
    P = np.pad(_parabola(f, a, b), ((0, 0), (0, degree - 2)))
    if degree == 2:
        Q = np.pad(_secant(f, a, b), ((0, 0), (0, 1)))
        D, weight, size = P - Q, np.empty(a.size), _BLOCK_SIZE // 16
        for s in range(0, a.size, size):  # eight (k, 16) arrays per block of k pieces
            block = (v[s:s + size] for v in (a, b, Q, D))
            weight[s:s + size] = _blend_weights(*_fit_points(f, *block))
        ok = ~np.isnan(weight)
    else:
        Q = _hermite_rows(f, a, b, degree)
        ok, minimum, _ = convexity_certificates(Q, center, w, a, b)
        bad = np.flatnonzero(~ok)
        weight = np.zeros(a.size)
        m = minimum[bad]
        weight[bad] = np.minimum(1.0, -m / (2.0 * P[bad, 2] / (w[bad] * w[bad]) - m) * (1.0 + 1e-6))
        sources[live[bad]] = "blend"
    # a weight of 0 keeps Q as it is: Q + 0 (P - Q) would turn its -0.0 into 0.0
    rows = np.where(weight[:, None] == 0.0, Q, Q + weight[:, None] * (P - Q))
    if degree > 2 and bad.size:
        ok[bad] = convexity_certificates(rows[bad], center[bad], w[bad], a[bad], b[bad])[0]
    fallback = np.flatnonzero(~ok)
    rows[fallback] = P[fallback]
    sources[live[fallback]] = "parabola-fallback"
    coeffs[live] = rows
    return coeffs, sources.tolist()


def convex_piece(f: ConvexOracle, interval, degree: int) -> tuple:
    """The convex piece of the given degree on one interval: the
    one-interval case of :func:`convex_pieces`, with a spline of one row."""
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    rows, sources = _convex_pieces(f, [a], [b], degree)
    S = _midpoint_spline([a, b], rows)
    return S, sources, _slacks(f, S)


def convex_pieces(f: ConvexOracle, X: Partition, r: int) -> tuple:
    """(spline, sources, slacks): the convex pieces of order r+2 on every
    interval of the partition as the rows of one spline (secant and
    parabola-fallback rows zero-padded to that order), each row's source
    and the (n, 2) array of its slope slacks (see :func:`_slacks`)."""
    rows, sources = _convex_pieces(f, X.knots[:-1], X.knots[1:], r + 1)
    S = _midpoint_spline(X.knots, rows)
    return S, sources, _slacks(f, S)


def build_sigma(f: ConvexOracle, X: Partition, r: int) -> PiecewisePoly:
    """Globally convex piecewise interpolant of order r+2 on the partition.

    Per-interval pieces interpolate f at the knots, so the assembly is
    continuous; the slope slacks give sigma'(x_j-) <= f'(x_j) <= sigma'(x_j+)
    at every interior knot, which makes the whole thing convex.  The flag is
    set when sigma passes :func:`verify_convexity`.
    """
    sigma = _midpoint_spline(X.knots, _convex_pieces(f, X.knots[:-1], X.knots[1:], r + 1)[0])
    if verify_convexity(sigma).convex:
        sigma = sigma.certified()
    return sigma
