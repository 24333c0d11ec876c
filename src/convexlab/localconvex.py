"""Per-interval convex interpolants and the global piecewise interpolant sigma.

Each piece interpolates the function at both interval ends, sandwiches the
one-sided slopes against f' there, and is certified convex.  The workhorse is
a small minimax LP over local polynomial coefficients per piece; the pieces
are independent, so CHUNK of them are solved as one block-diagonal LP.  The
explicit convex parabola is both the degree-2 construction and the
always-feasible fallback.

Each chunk's LP goes to HiGHS directly, through scipy's bindings
(scipy.optimize._highspy._core), as one column-wise model built from the
dense per-piece blocks by index arithmetic; scipy.optimize.linprog's input
cleaning, sparse stacking and per-option checks cost about as much as the
solve itself.  The model, its options and its failure checks are linprog's
own, so the coefficients are linprog's bit for bit.  The module-level
:func:`linprog` keeps linprog's name and keyword arguments, because it is
the one seam between the pieces and the solver: profilers and tests wrap
it by that name.  It returns x or raises SolverStall, the one failure signal
between HiGHS and the parabola fallback.

The chunk LPs share no data, so linprog solves them concurrently (HiGHS
releases the GIL while it solves) on one thread pool kept for the life of
the process: two threads, or one where the process may run on one CPU
only, with no setting for it.  Each pool thread runs HiGHS single-threaded.
The calling thread alone calls the oracle, checks certificates and runs
the fallbacks, and reads the results in chunk order, so the pieces do not
depend on the number of threads.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError as exc:
    raise ImportError("convexlab needs scipy>=1.17 for scipy.optimize._highspy._core") from exc

from convexlab.domain import ConvexOracle, Partition
from convexlab.piecewise import PiecewisePoly, verify_convexity
from convexlab.polynomial import (Poly, convexity_certificates, derivative_rows, horner_rows,
                                  line_poly)

__all__ = [
    "NotConvexInput",
    "SolverStall",
    "ConvexPiece",
    "convex_parabola",
    "convex_piece",
    "convex_pieces",
    "build_sigma",
]

DEGENERATE_REL_LENGTH = 1e-13
# pieces per block-diagonal LP: 16 gets most of the gain over one LP per
# piece, while peak memory grows with the chunk
CHUNK = 16

# threads solving chunk LPs at once.  Every solve running at once adds to
# peak memory: construct_chebyshev(exp:alpha=1, r=2, n=4096) peaks at 86.7 MB
# solved serially and at 89.2, 92.4 and 102.6 MB with 2, 4 and 8 threads;
# the benchmark's construct peak stays within 10% of serial at 2
_MAX_THREADS = 2


def _highs_options(threads: int):
    """What linprog(method="highs") sets for presolve=True and both
    feasibility tolerances 1e-10, with HiGHS's own `threads` option;
    passOptions copies the values."""
    options = _highs.HighsOptions()
    options.presolve = "on"
    options.primal_feasibility_tolerance = options.dual_feasibility_tolerance = 1e-10
    options.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.output_flag = options.log_to_console = False
    options.threads = threads
    return options


class _PerThread(threading.local):
    """The HiGHS options linprog passes on the current thread.

    HiGHS keeps one task scheduler per thread, sized by the first solve on
    that thread (threads=0: half the machine's hardware threads, whatever the
    affinity), and fails a later solve there that asks for another size.  The
    pool's threads solve with threads=1, so they start no HiGHS threads of
    their own; every other thread keeps linprog's 0.
    """

    highs_options = _highs_options(threads=0)


_per_thread = _PerThread()


class NotConvexInput(ValueError):
    """The oracle failed a convexity spot-check on the requested interval."""


class SolverStall(RuntimeError):
    """The LP solver gave up; the caller substitutes the parabola."""


@dataclass(frozen=True)
class ConvexPiece:
    """A convex polynomial piece interpolating f at both interval ends.

    slack_left = p'(a) - f'(a) >= 0 and slack_right = f'(b) - p'(b) >= 0 are
    exactly the one-sided slope margins that make the glued spline convex
    across knots.
    """

    poly: Poly
    interval: tuple
    slack_left: float
    slack_right: float
    source: str = "lp"  # lp | parabola | secant | parabola-fallback


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


def _poly_from_unit_coeffs(cs, a: float, b: float) -> Poly:
    """Polynomial given by ascending coefficients in v = (x-a)/(b-a), returned
    in the midpoint local frame."""
    center = 0.5 * (a + b)
    halfwidth = 0.5 * (b - a)
    # v = (u + 1)/2 in the local frame; compose exactly
    acc = np.array([float(cs[-1])])
    for c in cs[-2::-1]:
        acc = np.polynomial.polynomial.polymul(acc, [0.5, 0.5])
        acc[0] += float(c)
    return Poly(center, halfwidth, tuple(acc))


def _slacks(f: ConvexOracle, coeffs: np.ndarray, a: np.ndarray, b: np.ndarray):
    """(p'(a) - f'(a), f'(b) - p'(b)) for each row p of local coefficients on
    its interval [a[i], b[i]], framed at the midpoint."""
    center, w = 0.5 * (a + b), 0.5 * (b - a)
    d1 = derivative_rows(coeffs, w)
    df = _values(f, 1, np.stack([a, b], axis=1))
    return (horner_rows(d1, (a - center) / w) - df[:, 0],
            df[:, 1] - horner_rows(d1, (b - center) / w))


def _one_piece(p: Poly, f: ConvexOracle, a: float, b: float, source: str) -> ConvexPiece:
    (sl,), (sr,) = _slacks(f, np.array([p.coeffs]), np.array([a]), np.array([b]))
    return ConvexPiece(p, (a, b), float(sl), float(sr), source=source)


def _secant_piece(f: ConvexOracle, a: float, b: float) -> ConvexPiece:
    fa, fb = float(f(a)), float(f(b))
    slope = (fb - fa) / (b - a)
    p = line_poly(slope, fa - slope * a, 0.5 * (a + b), 0.5 * (b - a))
    return _one_piece(p, f, a, b, "secant")


def convex_parabola(f: ConvexOracle, interval) -> ConvexPiece:
    """The explicit convex parabola interpolating f at both ends of the
    interval and matching f' at one of them.

    After mapping onto [0,1] and removing the secant (so g(0) = g(1) = 0),
    the piece is (v - v^2) g'(0) when g'(0) + g'(1) >= 0 and (v^2 - v) g'(1)
    otherwise; ties take the first branch.
    """
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    _spot_check_convexity(f, a, b)
    length = b - a
    fa, fb = float(f(a)), float(f(b))
    g0 = length * float(f.deriv(1, a)) - (fb - fa)
    g1 = length * float(f.deriv(1, b)) - (fb - fa)
    if g0 + g1 >= 0.0:
        quad = [0.0, g0, -g0]
    else:
        quad = [0.0, -g1, g1]
    cs = [quad[0] + fa, quad[1] + (fb - fa), quad[2]]
    return _one_piece(_poly_from_unit_coeffs(cs, a, b), f, a, b, "parabola")


def _chebyshev_points(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    # Chebyshev-Lobatto points including both ends, one row per interval
    j = np.arange(m)
    nodes = np.cos(np.pi * j / (m - 1))[::-1]
    return (0.5 * (a + b))[:, None] - (0.5 * (b - a))[:, None] * nodes


def _monomial_rows(x: np.ndarray, center: np.ndarray, w: np.ndarray, degree: int,
                   nu: int) -> np.ndarray:
    """d^nu/dx^nu of the local monomials u^0..u^degree, u = (x - center)/w, at
    the points x of shape (pieces, m); returns shape (pieces, m, degree + 1)."""
    pow_ = np.arange(degree + 1)
    u = ((x - center[:, None]) / w[:, None])[..., None]
    if nu == 0:
        return u ** pow_
    rows = np.zeros(x.shape + (degree + 1,))
    if nu == 1:
        rows[..., 1:] = pow_[1:] * u ** (pow_[1:] - 1)
        return rows / w[:, None, None]
    rows[..., 2:] = pow_[2:] * (pow_[2:] - 1) * u ** (pow_[2:] - 2)
    return rows / (w * w)[:, None, None]


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
    """
    k, m_ub, cols = A_ub.shape
    m_eq = A_eq.shape[1]
    # global row of each block row: the ub rows of all blocks, then the eq rows
    block = np.arange(k)[:, None]
    rows = np.concatenate([block * m_ub + np.arange(m_ub),
                           k * m_ub + block * m_eq + np.arange(m_eq)], axis=1)
    # (block, column, row) order is column-wise order of the whole matrix
    stacked = np.concatenate([A_ub, A_eq], axis=1).transpose(0, 2, 1)
    piece, col, row = np.nonzero(stacked)
    start = np.zeros(k * cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(piece * cols + col, minlength=k * cols), out=start[1:])
    rhs = np.concatenate([b_ub, b_eq])
    lower, upper = bounds.T

    # the bindings fill their vectors from lists about twice as fast as from
    # arrays, tolist included
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = k * cols
    lp.num_row_ = lp.a_matrix_.num_row_ = rhs.size
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = start.tolist()
    lp.a_matrix_.index_ = rows[piece, row].tolist()
    lp.a_matrix_.value_ = stacked[piece, col, row].tolist()
    lp.col_cost_ = c.tolist()
    lp.col_lower_ = lower.tolist()
    lp.col_upper_ = upper.tolist()
    lp.row_lower_ = np.concatenate([np.full(b_ub.size, -np.inf), b_eq]).tolist()
    lp.row_upper_ = rhs.tolist()

    highs = _highs._Highs()
    highs.passOptions(_per_thread.highs_options)
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


def _lp_blocks(f: ConvexOracle, a: np.ndarray, b: np.ndarray, degree: int,
               mu: np.ndarray) -> tuple:
    """The minimax LP of every piece [a[i], b[i]] as (cost, blocks): the
    keyword arguments of :func:`linprog`.

    Each piece contributes an independent block: its local coefficients and an
    epigraph variable t_i bounding |p_i - f| at 8*degree Chebyshev points,
    equality rows pinning the end values, rows sandwiching the end slopes
    against f', and curvature floors p_i'' >= mu[i] at 4*degree Chebyshev
    points.  The blocks share no variable, so minimising sum(t_i) minimises
    every t_i.
    """
    k, d = a.size, degree
    center = 0.5 * (a + b)
    w = 0.5 * (b - a)
    ends = np.stack([a, b], axis=1)
    xi = _chebyshev_points(a, b, 4 * d)
    zeta = _chebyshev_points(a, b, 8 * d)
    fz = _values(f, 0, zeta)
    df = _values(f, 1, ends)

    nvar = d + 2  # coefficients + epigraph variable
    A_eq = np.zeros((k, 2, nvar))
    A_eq[:, :, :d + 1] = _monomial_rows(ends, center, w, d, 0)
    b_eq = _values(f, 0, ends)

    # per piece: two slope rows, 4d curvature rows, then +/- value rows
    # interleaved per sample point
    val = _monomial_rows(zeta, center, w, d, 0)
    slope = _monomial_rows(ends, center, w, d, 1)
    A_ub = np.zeros((k, 2 + 4 * d + 16 * d, nvar))
    A_ub[:, 0, :d + 1] = -slope[:, 0]
    A_ub[:, 1, :d + 1] = slope[:, 1]
    A_ub[:, 2:2 + 4 * d, :d + 1] = -_monomial_rows(xi, center, w, d, 2)
    A_ub[:, 2 + 4 * d::2, :d + 1] = val
    A_ub[:, 3 + 4 * d::2, :d + 1] = -val
    A_ub[:, 2 + 4 * d:, -1] = -1.0
    b_ub = np.zeros((k, 2 + 4 * d + 16 * d))
    b_ub[:, 0] = -df[:, 0]
    b_ub[:, 1] = df[:, 1]
    b_ub[:, 2:2 + 4 * d] = -mu[:, None]
    b_ub[:, 2 + 4 * d::2] = fz
    b_ub[:, 3 + 4 * d::2] = -fz

    cost = np.tile(np.r_[np.zeros(d + 1), 1.0], k)
    bounds = np.tile([[-np.inf, np.inf]] * (d + 1) + [[0.0, np.inf]], (k, 1))
    return cost, dict(A_ub=A_ub, b_ub=b_ub.ravel(), A_eq=A_eq, b_eq=b_eq.ravel(),
                      bounds=bounds)


def _piece_rows(x: np.ndarray, degree: int) -> list:
    """Each piece's coefficients from the x of its chunk's LP."""
    return x.reshape(-1, degree + 2)[:, :degree + 1].tolist()


def _solve_alone(f: ConvexOracle, a: np.ndarray, b: np.ndarray, degree: int,
                 mu: np.ndarray) -> list:
    """Coefficients of each piece [a[i], b[i]] from its own LP, None where
    that LP fails."""
    rows = []
    for i in range(a.size):
        cost, blocks = _lp_blocks(f, a[i:i + 1], b[i:i + 1], degree, mu[i:i + 1])
        try:
            x = linprog(cost, **blocks)
        except SolverStall:
            rows.append(None)
        else:
            rows += _piece_rows(x, degree)
    return rows


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _one_highs_thread() -> None:
    _per_thread.highs_options = _highs_options(threads=1)


def _start_pool() -> None:
    """The pool that solves the chunk LPs, kept for the life of the process:
    its threads start on the first submit and keep their HiGHS schedulers."""
    global _pool
    _pool = ThreadPoolExecutor(min(_cpus(), _MAX_THREADS), thread_name_prefix="convexlab-highs",
                               initializer=_one_highs_thread)


_start_pool()
if hasattr(os, "register_at_fork"):
    # a forked child has none of the pool's threads
    os.register_at_fork(after_in_child=_start_pool)


def _solve_chunks(f: ConvexOracle, a: np.ndarray, b: np.ndarray, degree: int,
                  mu: np.ndarray) -> list:
    """Minimax coefficients of each piece [a[i], b[i]] from the LPs of
    :func:`_lp_blocks`, CHUNK pieces per LP, ascending in the midpoint frame
    of each piece, None where its LP failed.

    The calling thread builds every chunk's LP, so the oracle is only ever
    called from it, and submits it to :func:`linprog` on the pool: HiGHS
    releases the GIL while it solves, so chunks are solved while later ones
    are built.  At most 2 * _MAX_THREADS chunks are in flight, and results
    are read in chunk order.  A chunk whose LP fails is solved again one
    piece at a time on the calling thread, so one block that HiGHS refuses
    cannot change its neighbours.
    """
    rows = []
    pending = deque()  # (chunk, future of its LP's x), oldest first

    def collect() -> None:
        part, future = pending.popleft()
        try:
            x = future.result()
        except SolverStall:
            # a one-piece chunk has nothing left to split
            rows.extend([None] if part.stop - part.start == 1
                        else _solve_alone(f, a[part], b[part], degree, mu[part]))
        else:
            rows.extend(_piece_rows(x, degree))

    for s in range(0, a.size, CHUNK):
        part = slice(s, min(s + CHUNK, a.size))
        cost, blocks = _lp_blocks(f, a[part], b[part], degree, mu[part])
        pending.append((part, _pool.submit(linprog, cost, **blocks)))
        if len(pending) == 2 * _MAX_THREADS:
            collect()
    while pending:
        collect()
    return rows


def _certified(rows: list, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Which LP coefficient rows (None where the LP failed) are certified
    convex on their intervals [a[i], b[i]], from one array certificate."""
    ok = np.array([cs is not None for cs in rows], dtype=bool)
    if ok.any():
        lo, hi = a[ok], b[ok]
        ok[ok] = convexity_certificates([cs for cs in rows if cs is not None],
                                        0.5 * (lo + hi), 0.5 * (hi - lo), lo, hi)[0]
    return ok


def _convex_pieces(f: ConvexOracle, knots, degree: int) -> list:
    """Best convex piece of the given degree on each interval of the increasing
    knots, by the minimax LP of :func:`_lp_blocks` solved CHUNK pieces at a
    time (:func:`_solve_chunks`), after every interval has passed the spot
    check.

    Equality constraints pin the end values, inequality constraints sandwich
    the end slopes against f', and convexity is imposed at Chebyshev points
    then certified exactly afterwards, all pieces in one array certificate.
    Pieces whose certificate fails are re-solved together once with a
    strictly positive curvature floor; the final fallback is the parabola,
    which is always feasible.  Intervals at rounding scale get the secant.
    """
    if degree < 2:
        raise ValueError(f"degree must be >= 2, got {degree}")
    knots = np.asarray(knots, dtype=float)
    a_all, b_all = knots[:-1], knots[1:]
    scale = np.maximum(1.0, np.maximum(np.abs(a_all), np.abs(b_all)))
    degenerate = b_all - a_all <= DEGENERATE_REL_LENGTH * scale
    pieces = [_secant_piece(f, float(a_all[i]), float(b_all[i])) if degenerate[i] else None
              for i in range(a_all.size)]
    lp = np.flatnonzero(~degenerate)
    a, b = a_all[lp], b_all[lp]

    for s in range(0, a.size, CHUNK):
        _spot_check_convexity(f, a[s:s + CHUNK], b[s:s + CHUNK])
    rows = _solve_chunks(f, a, b, degree, np.zeros(a.size))
    ok = _certified(rows, a, b)
    retry = np.flatnonzero([cs is not None and not good for cs, good in zip(rows, ok)])
    if retry.size:
        w = 0.5 * (b[retry] - a[retry])
        fz = _values(f, 0, _chebyshev_points(a[retry], b[retry], 8 * degree))
        mu = 1e-8 * (1.0 + np.max(np.abs(fz), axis=1)) / (w * w)
        again = _solve_chunks(f, a[retry], b[retry], degree, mu)
        ok[retry] = _certified(again, a[retry], b[retry])
        for i, cs in zip(retry, again):
            rows[i] = cs

    good = np.flatnonzero(ok)
    coeffs = np.array([rows[i] for i in good]).reshape(good.size, degree + 1)
    for i, sl, sr in zip(good, *_slacks(f, coeffs, a[good], b[good])):
        lo, hi = float(a[i]), float(b[i])
        p = Poly(0.5 * (lo + hi), 0.5 * (hi - lo), rows[i])
        pieces[lp[i]] = ConvexPiece(p, (lo, hi), float(sl), float(sr), source="lp")
    for i in np.flatnonzero(~ok):
        fallback = convex_parabola(f, (float(a[i]), float(b[i])))
        pieces[lp[i]] = replace(fallback, source="parabola-fallback")
    return pieces


def convex_piece(f: ConvexOracle, interval, degree: int) -> ConvexPiece:
    """Best convex piece of the given degree on one interval: the one-interval
    case of :func:`convex_pieces`."""
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    return _convex_pieces(f, [a, b], degree)[0]


def convex_pieces(f: ConvexOracle, X: Partition, r: int):
    """The convex pieces of order r+2 on every interval of the partition."""
    return _convex_pieces(f, X.knots, r + 1)


def build_sigma(f: ConvexOracle, X: Partition, r: int) -> PiecewisePoly:
    """Globally convex piecewise interpolant of order r+2 on the partition.

    Per-interval pieces interpolate f at the knots, so the assembly is
    continuous; the slope slacks give sigma'(x_j-) <= f'(x_j) <= sigma'(x_j+)
    at every interior knot, which makes the whole thing convex.  The flag is
    set when sigma passes :func:`verify_convexity`.
    """
    pieces = convex_pieces(f, X, r)
    sigma = PiecewisePoly(
        knots=X.knots,
        pieces=tuple(pc.poly for pc in pieces),
        order=r + 2,
    )
    if verify_convexity(sigma).convex:
        sigma = PiecewisePoly(sigma.knots, sigma.pieces, sigma.order,
                              convex_certified=True)
    return sigma
