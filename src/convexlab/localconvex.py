"""Per-interval convex interpolants and the global piecewise interpolant sigma.

Each interval gets one coefficient row of one spline, in its midpoint frame:
a piece that interpolates f at both interval ends, sandwiches the one-sided
slopes against f' there, and is certified convex.  The public per-piece
functions return (spline, sources, slacks): the rows, each row's source and
its slope slacks; the construction uses the rows alone.

For degree d = r+1 >= 3 every row is closed form: the Hermite row matches f
and f' at both ends and f at the d-3 interior Chebyshev-Lobatto nodes, all
rows from one shared (d+1)x(d+1) solve, so its slope slacks are 0.  A
Hermite row H that the certificate rejects is blended with the convex
parabola P of :func:`convex_parabola`: R = (1-t)H + tP with the t that
lifts the least p'' to 0, times 1 + 1e-6.  Only a blend that still fails
becomes P.

For d = 2 (r = 1) the rows are S + sigma (P - S) between f's secant S and
the parabola P, sigma in [0, 1]: exactly the degree-2 rows that interpolate
f at both ends, keep their end slopes between f'(a) and f'(b) and are
convex, since their c2 is sigma times P's.  The one weight sigma of each
piece is its minimax fit to f at 16 Chebyshev points, an LP of CHUNK pieces
per block-diagonal model; the parabola is the fallback when HiGHS stalls.
Each chunk's LP goes to HiGHS directly, through scipy's bindings
(scipy.optimize._highspy._core, loaded from its extension file alone, not
through scipy.optimize), as one column-wise model of the dense per-piece
blocks; scipy.optimize.linprog's input cleaning, sparse stacking and
per-option checks cost about as much as the solve itself.  The module keeps
one HiGHS solver, its options passed once, and one model layout per chunk
shape, whose column starts, row indices, costs and bounds the shape fixes;
a solve fills in only the blocks' values and the row bounds, and passModel
makes it cold.  The model, its options and its failure checks are linprog's
own, so the solution is linprog's bit for bit.  The module-level
:func:`linprog` keeps linprog's name and keyword arguments, because it is
the one seam between the pieces and the solver: profilers and tests wrap it
by that name.  It returns x or raises SolverStall, the one failure signal
between HiGHS and the parabola fallback.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import replace

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

_HIGHS = "scipy.optimize._highspy._core"


def _load_highs():
    """scipy's HiGHS extension module, loaded from its own file.

    `import scipy.optimize._highspy._core` would first run scipy.optimize's
    __init__, which imports scipy.linalg, sparse, special and fft: most of
    convexlab's start-up time and memory, for modules it never calls.  As
    the import system does, an entry already in sys.modules is used as it is
    (None refuses), and a new module goes into sys.modules before it runs,
    so a later `import scipy.optimize` gets this same module.
    """
    if _HIGHS in sys.modules:
        module = sys.modules[_HIGHS]
        if module is None:
            raise ImportError(f"import of {_HIGHS} halted; None in sys.modules")
        return module
    scipy = importlib.util.find_spec("scipy")  # finds scipy without importing it
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError("scipy is not installed as a package")
    folders = [os.path.join(path, "optimize", "_highspy")
               for path in scipy.submodule_search_locations]
    found = importlib.machinery.PathFinder.find_spec("_core", folders)
    if found is None or found.origin is None:
        raise ImportError(f"no {_HIGHS} extension in {folders}")
    spec = importlib.util.spec_from_file_location(_HIGHS, found.origin)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_HIGHS]
        raise
    return module


try:
    _highs = _load_highs()
except (ImportError, ValueError) as exc:  # ValueError: a scipy module without __spec__
    raise ImportError("convexlab needs scipy>=1.17 for scipy.optimize._highspy._core") from exc

DEGENERATE_REL_LENGTH = 1e-13
# pieces per block-diagonal LP: 16 gets most of the gain over one LP per
# piece, while peak memory grows with the chunk
CHUNK = 16


def _highs_options():
    """What linprog(method="highs") sets for presolve=True and both
    feasibility tolerances 1e-10; passOptions copies the values.  `threads`
    keeps linprog's default: HiGHS sizes one task scheduler per thread on
    its first solve there and fails a later solve that asks for another
    size, so scipy's own linprog on the same thread must see the same value."""
    options = _highs.HighsOptions()
    options.presolve = "on"
    options.primal_feasibility_tolerance = options.dual_feasibility_tolerance = 1e-10
    options.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.output_flag = options.log_to_console = False
    return options


@functools.cache
def _solver():
    """The module's one HiGHS solver, built on the first solve with the
    options of :func:`_highs_options`."""
    highs = _highs._Highs()
    highs.passOptions(_highs_options())
    return highs


_layouts = {}  # chunk shape -> (HighsLp, costs, bounds), see _layout


class NotConvexInput(ValueError):
    """The oracle failed a convexity spot-check on the requested interval."""


class SolverStall(RuntimeError):
    """The LP solver gave up; the caller substitutes the parabola."""


def _values(f: ConvexOracle, nu: int, x: np.ndarray) -> np.ndarray:
    """f^(nu) at every entry of x, in x's shape."""
    return np.asarray(f.deriv(nu, x.ravel()), dtype=float).reshape(x.shape)


def _spot_check_convexity(f: ConvexOracle, a, b, npts: int = 65) -> None:
    """Check that f' does not decrease at npts points of each interval
    [a[i], b[i]]; the error names the first interval that fails."""
    a, b = np.atleast_1d(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    xs = np.linspace(a, b, npts, axis=-1)
    d1 = _values(f, 1, xs)
    tol = 1e-10 * (1.0 + np.max(np.abs(d1), axis=1))
    bad = np.flatnonzero(np.any(np.diff(d1, axis=1) < -tol[:, None], axis=1))
    if bad.size:
        i = bad[0]
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
    g0 = length * _values(f, 1, a) - (fb - fa)
    g1 = length * _values(f, 1, b) - (fb - fa)
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
    otherwise; ties take the first branch.
    """
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    _spot_check_convexity(f, a, b)
    knots = np.array([a, b])
    S = _midpoint_spline(knots, _parabola(f, knots[:1], knots[1:]))
    return S, ["parabola"], _slacks(f, S)


def _layout(k: int, m_ub: int, m_eq: int, cols: int, c: np.ndarray, bounds: np.ndarray):
    """The module's HighsLp for k dense blocks of m_ub ub rows, m_eq eq rows
    and cols columns, with costs c and column bounds.

    Column j of block i holds all m_ub + m_eq rows of that block, zeros
    included: its ub rows i*m_ub.., then its eq rows k*m_ub + i*m_eq.., so
    the column starts and row indices depend on the shape alone, and a solve
    sets only the values and row bounds.  passModel drops the zero entries,
    so HiGHS solves the model of the nonzeros alone.  The layout is kept per
    shape and built again when c or bounds differ from the kept ones.  The
    bindings fill their vectors from lists about twice as fast as from
    arrays, tolist included.
    """
    key = (k, m_ub, m_eq, cols)
    kept = _layouts.get(key)
    if kept is not None and np.array_equal(kept[1], c) and np.array_equal(kept[2], bounds):
        return kept[0]
    block = np.arange(k)[:, None]
    rows = np.concatenate([block * m_ub + np.arange(m_ub),
                           k * m_ub + block * m_eq + np.arange(m_eq)], axis=1)
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = k * cols
    lp.num_row_ = lp.a_matrix_.num_row_ = rows.size
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = (np.arange(k * cols + 1) * (m_ub + m_eq)).tolist()
    lp.a_matrix_.index_ = np.repeat(rows, cols, axis=0).ravel().tolist()
    lp.col_cost_ = c.tolist()
    lp.col_lower_ = bounds[:, 0].tolist()
    lp.col_upper_ = bounds[:, 1].tolist()
    _layouts[key] = (lp, c.copy(), bounds.copy())
    return lp


def linprog(c, *, A_ub, b_ub, A_eq, b_eq, bounds) -> np.ndarray:
    """The x minimising c @ x subject to A_ub @ x <= b_ub, A_eq @ x == b_eq
    and bounds[:, 0] <= x <= bounds[:, 1], solved as one HiGHS model.

    A_ub and A_eq are the dense diagonal blocks, of shapes (k, m_ub, cols) and
    (k, m_eq, cols), of block-diagonal matrices; the right-hand sides are
    flat.  The model is the one scipy.optimize.linprog(method="highs") hands
    to HiGHS for the same blocks with presolve on and both feasibility
    tolerances 1e-10: the ub rows first, then the eq rows, in column-wise
    storage with the same options, so x is the same bit for bit.  So are the
    failures: SolverStall unless HiGHS reports an optimum that passes
    linprog's feasibility check of bounds, ub slacks and eq residuals at
    10*sqrt(1e-9).

    The module's one solver takes the model of :func:`_layout` for the
    blocks' shape with their values and row bounds filled in; passModel
    clears its previous model, basis and solution, so every solve is cold.
    """
    k, m_ub, cols = A_ub.shape
    lp = _layout(k, m_ub, A_eq.shape[1], cols, c, bounds)
    # (block, column, row) order is the layout's column-wise order
    lp.a_matrix_.value_ = np.concatenate([A_ub, A_eq], axis=1).transpose(0, 2, 1).ravel().tolist()
    rhs = np.concatenate([b_ub, b_eq])
    lp.row_lower_ = np.concatenate([np.full(b_ub.size, -np.inf), b_eq]).tolist()
    lp.row_upper_ = rhs.tolist()
    lower, upper = bounds.T

    highs = _solver()
    if highs.passModel(lp) == _highs.HighsStatus.kError:
        raise SolverStall(highs.modelStatusToString(_highs.HighsModelStatus.kModelError))
    if (highs.run() == _highs.HighsStatus.kError
            or highs.getModelStatus() != _highs.HighsModelStatus.kOptimal):
        raise SolverStall(highs.modelStatusToString(highs.getModelStatus()))
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    residual = rhs - solution.row_value  # b - A @ x, ub rows then eq rows
    slack, con = residual[:b_ub.size], residual[b_ub.size:]
    fun = highs.getInfo().objective_function_value
    tol = 10.0 * np.sqrt(1e-9)
    feasible = not (np.isnan(x).any() or np.isnan(fun) or np.isnan(residual).any()
                    or (x < lower - tol).any() or (x > upper + tol).any()
                    or (slack < -tol).any() or (np.abs(con) > tol).any())
    if not feasible:
        raise SolverStall(f"the solution violates the constraints by more than {tol:.2E}")
    return x


def _lp_blocks(f: ConvexOracle, a: np.ndarray, b: np.ndarray) -> tuple:
    """The minimax LP of the blend weight of every piece [a[i], b[i]] as
    (cost, blocks): the keyword arguments of :func:`linprog`.

    Each piece contributes an independent block of two columns, its weight
    sigma in [0, 1] and an epigraph variable t >= 0, and 32 rows
    +-(sigma (P - S) - (f - S)) <= t at 16 Chebyshev points, interleaved per
    point, with S the secant row and P the parabola row of the piece.  Each
    block is in units of its own largest |P - S| at those points, so that
    the solver's absolute tolerances mean the same on every piece.  The
    blocks share no variable, so minimising sum(t_i) minimises every t_i.
    """
    k = a.size
    S = np.pad(_secant(f, a, b), ((0, 0), (0, 1)))
    D = _parabola(f, a, b) - S
    u = np.cos(np.pi * np.arange(16) / 15)  # Chebyshev-Lobatto, both ends included
    x = (0.5 * (a + b))[:, None] + (0.5 * (b - a))[:, None] * u
    d = horner_rows(D[:, None, :], u)
    e = _values(f, 0, x) - horner_rows(S[:, None, :], u)
    unit = np.max(np.abs(d), axis=1, keepdims=True)
    unit[unit == 0.0] = 1.0  # P = S: every sigma fits alike
    d, e = d / unit, e / unit

    A_ub = np.empty((k, 32, 2))
    A_ub[:, 0::2, 0] = d
    A_ub[:, 1::2, 0] = -d
    A_ub[:, :, 1] = -1.0
    b_ub = np.empty((k, 32))
    b_ub[:, 0::2] = e
    b_ub[:, 1::2] = -e
    cost = np.tile([0.0, 1.0], k)
    bounds = np.tile([[0.0, 1.0], [0.0, np.inf]], (k, 1))
    return cost, dict(A_ub=A_ub, b_ub=b_ub.ravel(), A_eq=np.empty((k, 0, 2)),
                      b_eq=np.empty(0), bounds=bounds)


def _chunk_rows(f: ConvexOracle, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The blend weights of the pieces [a[i], b[i]] of one chunk from its
    LP (:func:`_lp_blocks`), clipped into [0, 1], NaN where its LP failed
    (linprog refuses a NaN x).  A refused chunk is solved one piece at a
    time, so it cannot change its neighbours."""
    cost, blocks = _lp_blocks(f, a, b)
    try:
        return np.clip(linprog(cost, **blocks)[0::2], 0.0, 1.0)
    except SolverStall:
        if a.size == 1:  # a one-piece LP has nothing left to split
            return np.full(1, np.nan)
    return np.concatenate([_chunk_rows(f, a[i:i + 1], b[i:i + 1]) for i in range(a.size)])


def _lp_rows(f: ConvexOracle, a: np.ndarray, b: np.ndarray) -> tuple:
    """(rows, ok): the degree-2 rows S + sigma (P - S) with the weights of
    :func:`_chunk_rows`, CHUNK pieces per LP, and which LPs were solved.
    The row's c2 is sigma times P's c2, so a solved row is convex."""
    sigma = np.concatenate([np.empty(0)] + [_chunk_rows(f, a[s:s + CHUNK], b[s:s + CHUNK])
                                           for s in range(0, a.size, CHUNK)])
    S = np.pad(_secant(f, a, b), ((0, 0), (0, 1)))
    return S + sigma[:, None] * (_parabola(f, a, b) - S), ~np.isnan(sigma)


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


def _blend_with_parabola(f: ConvexOracle, rows: np.ndarray, a: np.ndarray, b: np.ndarray,
                         minimum: np.ndarray) -> tuple:
    """(blended, ok): each rejected row H, whose certified least p'' is
    minimum < 0, blended with the parabola P of :func:`_parabola` into
    R = (1 - t) H + t P, where t = -min H'' / (P'' - min H'') times
    1 + 1e-6 lifts R'' a little above 0, and t <= 1; and which blends are
    certified convex.  R interpolates f at both ends, and its slope slacks
    are t times P's, so >= 0."""
    center, w = 0.5 * (a + b), 0.5 * (b - a)
    P = np.pad(_parabola(f, a, b), ((0, 0), (0, rows.shape[1] - 3)))
    t = np.minimum(1.0, -minimum / (2.0 * P[:, 2] / (w * w) - minimum) * (1.0 + 1e-6))
    blended = (1.0 - t[:, None]) * rows + t[:, None] * P
    return blended, convexity_certificates(blended, center, w, a, b)[0]


def _convex_pieces(f: ConvexOracle, knots, degree: int) -> tuple:
    """(spline, sources): a convex piece of the given degree on each
    interval of the increasing knots, as the rows of one spline framed at the
    interval midpoints, and each row's source: "hermite", "blend", "lp",
    "parabola-fallback" or "secant".  Every interval must first pass the
    spot check.

    Degree 2 takes the LP rows of :func:`_lp_rows`, convex by construction,
    and a row whose LP failed becomes the parabola.  Every higher degree
    takes the Hermite rows of :func:`_hermite_rows`, all certified in one
    array certificate; a rejected Hermite row is blended
    (:func:`_blend_with_parabola`), and a blend still not certified becomes
    the parabola, which is always convex.  Intervals at rounding scale get
    the secant.
    """
    if degree < 2:
        raise ValueError(f"degree must be >= 2, got {degree}")
    knots = np.asarray(knots, dtype=float)
    a_all, b_all = knots[:-1], knots[1:]
    scale = np.maximum(1.0, np.maximum(np.abs(a_all), np.abs(b_all)))
    degenerate = b_all - a_all <= DEGENERATE_REL_LENGTH * scale
    coeffs = np.zeros((a_all.size, degree + 1))
    sources = np.where(degenerate, "secant", "lp" if degree == 2 else "hermite").astype(object)
    if degenerate.any():
        coeffs[degenerate, :2] = _secant(f, a_all[degenerate], b_all[degenerate])
    live = np.flatnonzero(~degenerate)
    a, b = a_all[live], b_all[live]

    for s in range(0, a.size, CHUNK):
        _spot_check_convexity(f, a[s:s + CHUNK], b[s:s + CHUNK])
    if degree == 2:
        rows, ok = _lp_rows(f, a, b)
    else:
        rows = _hermite_rows(f, a, b, degree)
        ok, minimum, _ = convexity_certificates(rows, 0.5 * (a + b), 0.5 * (b - a), a, b)
        bad = np.flatnonzero(~ok)
        if bad.size:
            blended, ok[bad] = _blend_with_parabola(f, rows[bad], a[bad], b[bad], minimum[bad])
            rows[bad] = blended
            sources[live[bad]] = "blend"
    fallback = np.flatnonzero(~ok)
    if fallback.size:
        rows[fallback] = np.pad(_parabola(f, a[fallback], b[fallback]), ((0, 0), (0, degree - 2)))
        sources[live[fallback]] = "parabola-fallback"
    coeffs[live] = rows
    return _midpoint_spline(knots, coeffs), sources.tolist()


def convex_piece(f: ConvexOracle, interval, degree: int) -> tuple:
    """The convex piece of the given degree on one interval: the
    one-interval case of :func:`convex_pieces`, with a spline of one row."""
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    S, sources = _convex_pieces(f, [a, b], degree)
    return S, sources, _slacks(f, S)


def convex_pieces(f: ConvexOracle, X: Partition, r: int) -> tuple:
    """(spline, sources, slacks): the convex pieces of order r+2 on every
    interval of the partition as the rows of one spline (secant and
    parabola-fallback rows zero-padded to that order), each row's source
    and the (n, 2) array of its slope slacks (see :func:`_slacks`)."""
    S, sources = _convex_pieces(f, X.knots, r + 1)
    return S, sources, _slacks(f, S)


def build_sigma(f: ConvexOracle, X: Partition, r: int) -> PiecewisePoly:
    """Globally convex piecewise interpolant of order r+2 on the partition.

    Per-interval pieces interpolate f at the knots, so the assembly is
    continuous; the slope slacks give sigma'(x_j-) <= f'(x_j) <= sigma'(x_j+)
    at every interior knot, which makes the whole thing convex.  The flag is
    set when sigma passes :func:`verify_convexity`.
    """
    sigma, _ = _convex_pieces(f, X.knots, r + 1)
    if verify_convexity(sigma).convex:
        sigma = replace(sigma, convex_certified=True)
    return sigma
