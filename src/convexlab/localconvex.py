"""Per-interval convex interpolants and the global piecewise interpolant sigma.

Each piece interpolates the function at both interval ends, sandwiches the
one-sided slopes against f' there, and is certified convex.  The workhorse is
a small minimax LP over local polynomial coefficients; the explicit convex
parabola is both the degree-2 construction and the always-feasible fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from convexlab.domain import ConvexOracle, Partition
from convexlab.piecewise import PiecewisePoly, verify_convexity
from convexlab.polynomial import Poly, convexity_certificate, line_poly

__all__ = [
    "NotConvexInput",
    "SolverStall",
    "ConvexPiece",
    "convex_parabola",
    "convex_piece",
    "convex_pieces",
    "build_sigma",
]

_LP_OPTIONS = {
    "presolve": True,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}
DEGENERATE_REL_LENGTH = 1e-13


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


def _spot_check_convexity(f: ConvexOracle, a: float, b: float, npts: int = 65) -> None:
    xs = np.linspace(a, b, npts)
    d1 = np.asarray(f.deriv(1, xs), dtype=float)
    tol = 1e-10 * (1.0 + float(np.max(np.abs(d1))))
    if np.any(np.diff(d1) < -tol):
        raise NotConvexInput(f"{f.label()} has decreasing slope inside [{a}, {b}]")


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


def _slacks(p: Poly, f: ConvexOracle, a: float, b: float):
    return (float(p.deriv_value(a) - f.deriv(1, a)),
            float(f.deriv(1, b) - p.deriv_value(b)))


def _secant_piece(f: ConvexOracle, a: float, b: float) -> ConvexPiece:
    fa, fb = float(f(a)), float(f(b))
    slope = (fb - fa) / (b - a)
    p = line_poly(slope, fa - slope * a, 0.5 * (a + b), 0.5 * (b - a))
    sl, sr = _slacks(p, f, a, b)
    return ConvexPiece(p, (a, b), sl, sr, source="secant")


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
    p = _poly_from_unit_coeffs(cs, a, b)
    sl, sr = _slacks(p, f, a, b)
    return ConvexPiece(p, (a, b), sl, sr, source="parabola")


def _chebyshev_points(a: float, b: float, m: int) -> np.ndarray:
    # Chebyshev-Lobatto points including both ends
    j = np.arange(m)
    return 0.5 * (a + b) - 0.5 * (b - a) * np.cos(np.pi * j / (m - 1))[::-1]


def _solve_minimax_lp(f, a, b, degree, mu):
    center = 0.5 * (a + b)
    w = 0.5 * (b - a)
    d = degree
    pow_ = np.arange(d + 1)

    def val_row(x):
        u = (x - center) / w
        return u ** pow_

    def d1_row(x):
        u = (x - center) / w
        r = np.zeros(d + 1)
        r[1:] = pow_[1:] * u ** (pow_[1:] - 1)
        return r / w

    def d2_row(x):
        u = (x - center) / w
        r = np.zeros(d + 1)
        r[2:] = pow_[2:] * (pow_[2:] - 1) * u ** (pow_[2:] - 2)
        return r / (w * w)

    xi = _chebyshev_points(a, b, 4 * d)
    zeta = _chebyshev_points(a, b, 8 * d)
    fz = np.asarray(f(zeta), dtype=float)

    nvar = d + 2  # coefficients + epigraph variable
    A_eq = np.zeros((2, nvar))
    A_eq[0, :d + 1] = val_row(a)
    A_eq[1, :d + 1] = val_row(b)
    b_eq = np.array([float(f(a)), float(f(b))])

    rows, rhs = [], []
    r = np.zeros(nvar)
    r[:d + 1] = -d1_row(a)
    rows.append(r)
    rhs.append(-float(f.deriv(1, a)))
    r = np.zeros(nvar)
    r[:d + 1] = d1_row(b)
    rows.append(r)
    rhs.append(float(f.deriv(1, b)))
    for x in xi:
        r = np.zeros(nvar)
        r[:d + 1] = -d2_row(float(x))
        rows.append(r)
        rhs.append(-mu)
    for x, fv in zip(zeta, fz):
        r = np.zeros(nvar)
        r[:d + 1] = val_row(float(x))
        r[-1] = -1.0
        rows.append(r)
        rhs.append(fv)
        r2 = np.zeros(nvar)
        r2[:d + 1] = -val_row(float(x))
        r2[-1] = -1.0
        rows.append(r2)
        rhs.append(-fv)

    cost = np.zeros(nvar)
    cost[-1] = 1.0
    bounds = [(None, None)] * (d + 1) + [(0.0, None)]
    res = linprog(cost, A_ub=np.array(rows), b_ub=np.array(rhs),
                  A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                  method="highs", options=_LP_OPTIONS)
    if res.status != 0 or res.x is None:
        raise SolverStall(f"LP status {res.status}: {res.message}")
    return Poly(center, w, tuple(res.x[:d + 1])), float(np.max(np.abs(fz)))


def convex_piece(f: ConvexOracle, interval, degree: int) -> ConvexPiece:
    """Best convex piece of the given degree by a small minimax LP.

    Equality constraints pin the end values, inequality constraints sandwich
    the end slopes against f', and convexity is imposed at Chebyshev points
    then certified exactly afterwards.  If certification fails the LP is
    re-solved once with a strictly positive curvature floor; the final
    fallback is the parabola, which is always feasible.
    """
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if degree < 2:
        raise ValueError(f"degree must be >= 2, got {degree}")
    scale = max(1.0, abs(a), abs(b))
    if b - a <= DEGENERATE_REL_LENGTH * scale:
        return _secant_piece(f, a, b)
    _spot_check_convexity(f, a, b)

    w = 0.5 * (b - a)
    try:
        p, fmag = _solve_minimax_lp(f, a, b, degree, mu=0.0)
        if not convexity_certificate(p, (a, b)).convex:
            mu = 1e-8 * (1.0 + fmag) / (w * w)
            p, _ = _solve_minimax_lp(f, a, b, degree, mu=mu)
            if not convexity_certificate(p, (a, b)).convex:
                raise SolverStall("convexity certification failed twice")
        sl, sr = _slacks(p, f, a, b)
        return ConvexPiece(p, (a, b), sl, sr, source="lp")
    except SolverStall:
        fallback = convex_parabola(f, (a, b))
        return ConvexPiece(fallback.poly, (a, b), fallback.slack_left,
                           fallback.slack_right, source="parabola-fallback")


def convex_pieces(f: ConvexOracle, X: Partition, r: int):
    degree = r + 1
    return [convex_piece(f, X.interval(j), degree) for j in range(1, X.n + 1)]


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
