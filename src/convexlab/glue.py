"""The full tangent-line gluing construction.

Everything is built on f itself, in x, with no change of frame.  Pipeline:
locate the depth M of f below its own secant and the point x* where it is
reached, shrink a smallness radius H1 until the depth at the boundary and
the weighted second-order modulus are dominated by M (one value of that
modulus decides each radius: the oracle's proved upper bound where it is
finite, else the sampled modulus profile, built only for a radius whose
boundary depth passes), intersect with the endpoint-block convexity
threshold, build the two Hermite endpoint blocks and the interior pieces of
the convex interpolant sigma, then blend them with a tangent line so the
block defects are absorbed without losing convexity.  The spline's rows are
the blend's rows, checked only as the spline's.  One call glues the
partitions of many rows: their interior pieces from one pass, one check.
The Chebyshev specialization derives the minimal admissible n from H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from convexlab.domain import (
    ConvexOracle,
    InvalidN,
    Partition,
    chebyshev_partition,
    tangent_line,
)
from convexlab.endblocks import find_H, integrated_L, mirrored_L
from convexlab.localconvex import (_convex_pieces, _midpoint_spline, _secant,
                                   _spot_check_convexity)
from convexlab.piecewise import (PiecewisePoly, _convexity_reports, _finite_rows,
                                 record_json_dict)
from convexlab.smoothness import modulus

__all__ = [
    "PartitionTooCoarse",
    "NBelowThreshold",
    "NotConvexOutput",
    "ConstructionError",
    "GlueTrace",
    "construct_spline",
    "construct_chebyshev",
    "chebyshev_threshold",
    "polygonal_baseline",
]

C0 = 16.0  # the constant of _prepare's smallness test 4 C0 H1^r omega_2 < M
# genuinely affine inputs land at rounding noise ~1e-16 of f's own values;
# anything above this cutoff, relative to |f(a)| + |f(b)|, is treated as
# signal so near-degenerate corners still report their (possibly enormous)
# threshold instead of collapsing to the secant
AFFINE_REL_TOL = 1e-13
SCAN_POINTS = 4097
HYPOTHESIS_GRID = 512
MAX_HALVINGS = 60
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class PartitionTooCoarse(RuntimeError):
    """The first/last interval exceeds the admissible width H."""

    def __init__(self, h_required: float):
        super().__init__(
            f"partition end intervals must be <= {h_required:.6g}; refine near the ends")
        self.h_required = h_required


class NBelowThreshold(RuntimeError):
    """The requested Chebyshev n is below the function's threshold."""

    def __init__(self, n_threshold: int):
        super().__init__(f"need n >= {n_threshold} for this function")
        self.n_threshold = n_threshold


class NotConvexOutput(RuntimeError):
    """Post-assembly certification failed; indicates a construction bug."""


class ConstructionError(RuntimeError):
    """A never-expected internal invariant was breached."""


@dataclass(frozen=True)
class GlueTrace:
    """Diagnostics of one gluing run, x*, H1 and H in x, whether the
    oracle's proved bound of omega_2 decided H1 (false where the oracle has
    no bound or it is not finite there, so the sampled modulus decided, and
    for an affine input), how many radii the smallness test refused before
    H1 (0 for an affine input), and how many rows between the end blocks
    came from each source: the Hermite row, its blend with the parabola,
    the σ blend (r = 1), the parabola fallback or the secant (every row of
    an affine input)."""

    M: float
    x_star: float
    H1: float
    H: float
    H1_certified: bool
    H1_halvings: int
    delta: float
    delta_tilde: float
    delta_hat: float
    case: int
    lambda_: float
    hermite_rows: int
    blend_rows: int
    lp_rows: int
    parabola_fallback_rows: int
    secant_rows: int

    to_json_dict = record_json_dict


@dataclass(frozen=True)
class _Prepared:
    affine: bool
    M: float
    x_star: float
    H1: float
    H: float
    H1_halvings: int = 0
    # how H1 was accepted, not what it is: equal preparations compare equal
    H1_certified: bool = field(default=False, compare=False)


def _golden_max(fun, lo, hi):
    """48 golden-section steps maximizing fun on [lo, hi]; returns (best_t, best_v)."""
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = fun(c), fun(d)
    for _ in range(48):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = fun(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = fun(d)
    return (c, fc) if fc >= fd else (d, fd)


def _prepare(f: ConvexOracle, r: int, interval=None) -> _Prepared:
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if r > f.r:
        raise ValueError(f"oracle {f.label()} only guarantees smoothness order {f.r}")
    a, b = (float(x) for x in (f.domain if interval is None else interval))
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    # refuse overflowing endpoint data before anything else evaluates f
    with np.errstate(all="ignore"):
        for x in (a, b):
            for nu in range(r + 1):
                v = float(f.deriv(nu, x))
                if not math.isfinite(v):
                    raise ValueError(f"endpoint data is non-finite: f^({nu})({x!r}) "
                                     f"= {v!r} for {f.label()}")
    _spot_check_convexity(f, a, b)

    fa, fb = float(f(a)), float(f(b))
    slope = (fb - fa) / (b - a)

    def depth(x):
        """How far f lies below its secant at x."""
        return fa + slope * (x - a) - f(x)

    xs = np.linspace(a, b, SCAN_POINTS)
    vals = np.asarray(depth(xs), dtype=float)
    i_max = int(np.argmax(vals))  # leftmost scan maximizer on ties
    if vals[i_max] <= AFFINE_REL_TOL * (abs(fa) + abs(fb)):
        return _Prepared(True, float(vals[i_max]), float(xs[i_max]),
                         0.25 * (b - a), 0.25 * (b - a))

    dx = (b - a) / (SCAN_POINTS - 1)
    x_ref, deepest = _golden_max(lambda x: float(depth(x)), max(a, xs[i_max] - dx),
                                 min(b, xs[i_max] + dx))
    if deepest >= vals[i_max]:
        x_star, M = float(x_ref), float(deepest)
    else:
        x_star, M = float(xs[i_max]), float(vals[i_max])

    fr = f.deriv_fn(r)
    kinks = tuple(p for p in f.nonsmooth if a <= p <= b)
    H1 = 0.5 * min(x_star - a, b - x_star)
    for halvings in range(MAX_HALVINGS):
        if max(float(depth(a + H1)), float(depth(b - H1))) < 0.5 * M:
            # one omega_2 value decides the radius: the oracle's proved bound
            # where it is finite, else the sampled modulus, whose kink windows
            # keep the global lattice from stepping over a corner
            omega = math.inf if f.omega_enclosure is None else f.omega_enclosure(2, r, H1, a, b)[1]
            certified = math.isfinite(omega)
            if not certified:
                omega = modulus(fr, 2, H1, (a, b), HYPOTHESIS_GRID, kinks).value
            if 4.0 * C0 * H1 ** r * omega < M:
                break
        H1 *= 0.5
    else:
        raise ConstructionError("smallness radius H1 collapsed; function is "
                                "numerically degenerate")

    H = min(find_H(f, (a, b), r, 0.25 * (b - a)), H1)
    return _Prepared(False, M, x_star, H1, H, halvings, certified)


def _blend(left, rows, a, b, right, lam, slope, intercept) -> tuple:
    """(coeffs, centers, halfwidths): the end blocks left and right around
    every interior row p, on [a[i], b[i]] in its midpoint frame, as
    lam * p + slope * x + intercept, the line added exactly in coefficients,
    all rows at the interior's order."""
    centers, halfwidths = 0.5 * (a + b), 0.5 * (b - a)
    coeffs = np.zeros((rows.shape[0] + 2, rows.shape[1]))
    coeffs[1:-1] = lam * rows
    coeffs[1:-1, 0] += intercept + slope * centers
    coeffs[1:-1, 1] += slope * halfwidths
    coeffs[0, :len(left.coeffs)] = left.coeffs
    coeffs[-1, :len(right.coeffs)] = right.coeffs
    return (coeffs, np.r_[left.center, centers, right.center],
            np.r_[left.halfwidth, halfwidths, right.halfwidth])


def _certify_or_raise(*splines) -> list:
    """Each spline certified by one check of all; else the first one's refusal."""
    for rep in _convexity_reports(splines):
        if not rep.continuous:
            raise NotConvexOutput("assembled spline is discontinuous at a knot")
        if rep.offending_pieces:
            raise NotConvexOutput(f"pieces {rep.offending_pieces} failed the convexity certificate")
        if not rep.slopes_ok:
            raise NotConvexOutput("one-sided knot slopes are not nondecreasing")
    return [S.certified() for S in splines]


def _secant_spline(f: ConvexOracle, X: Partition, order: int) -> PiecewisePoly:
    rows = _secant(f, X.knots[:-1], X.knots[1:])
    return _certify_or_raise(_midpoint_spline(X.knots, np.pad(rows, ((0, 0), (0, order - 2)))))[0]


def _assemble(prep: _Prepared, f: ConvexOracle, partitions, r: int) -> list:
    """(spline, trace) of each partition: the secant spline of an affine
    input, every row a secant and no blend (defects 0, lambda = 1), or the
    glued spline."""
    if prep.affine:
        glued = [(_secant_spline(f, X, r + 2), (0.0, 0.0, 0.0, 1, 1.0), ["secant"] * X.n)
                 for X in partitions]
    else:
        glued = _glue(prep, f, partitions, r)
    return [(S, GlueTrace(prep.M, prep.x_star, prep.H1, prep.H, prep.H1_certified,
                          prep.H1_halvings, *blend,
                          hermite_rows=sources.count("hermite"),
                          blend_rows=sources.count("blend"),
                          lp_rows=sources.count("lp"),
                          parabola_fallback_rows=sources.count("parabola-fallback"),
                          secant_rows=sources.count("secant")))
            for S, blend, sources in glued]


def _glue(prep: _Prepared, f: ConvexOracle, partitions, r: int) -> list:
    """(spline, (delta, delta_tilde, delta_hat, case, lambda), row sources)
    of each partition: the end blocks, checked first for every partition,
    and the interior pieces of sigma, which they bound, from one pass over
    all partitions, blended with a tangent line and certified in one check,
    refusing as if each row were glued and certified before the next."""
    M, H = prep.M, prep.H
    blocks = []
    for X in partitions:
        a, x1, xn1, b = (float(X.knots[i]) for i in (0, 1, -2, -1))
        tol = 1.0 + 1e-12
        if x1 - a > H * tol or b - xn1 > H * tol:
            raise PartitionTooCoarse(H)
        left, right = integrated_L(f, a, x1 - a, r), mirrored_L(f, b, b - xn1, r)
        if not (abs(left.delta) < 0.25 * M and abs(right.delta) < 0.25 * M):
            raise ConstructionError(f"block defects |{left.delta:.3g}|, |{right.delta:.3g}| "
                                    f"exceed M/4 = {0.25*M:.3g}")
        blocks.append((left, right))
    lo = np.concatenate([X.knots[1:-2] for X in partitions])
    hi = np.concatenate([X.knots[2:-1] for X in partitions])
    interior, sources = _convex_pieces(f, lo, hi, r + 1)
    glued, stop = [], 0
    try:
        for X, (left, right) in zip(partitions, blocks):
            part = slice(stop, stop + X.n - 2)
            stop = part.stop
            x1, xn1 = float(X.knots[1]), float(X.knots[-2])
            delta, delta_tilde = left.delta, right.delta
            delta_hat = delta - delta_tilde

            sl, il = tangent_line(f, x1)
            sl_t, il_t = tangent_line(f, xn1)
            gap_right = float(f(xn1)) - (sl * xn1 + il)       # f - tangent-at-x1, far end
            gap_left = float(f(x1)) - (sl_t * x1 + il_t)      # f - tangent-at-xn1, near end
            if not (gap_right > 0.5 * M * (1 - 1e-9) and gap_left > 0.5 * M * (1 - 1e-9)):
                raise ConstructionError("tangent gaps fell below M/2; hypotheses violated")

            if delta_hat >= 0.0:
                case = 1
                lam = 1.0 - delta_hat / gap_right
                line_slope, line_icept, shift = sl, il, delta
            else:
                case = 2
                lam = 1.0 + delta_hat / gap_left
                line_slope, line_icept, shift = sl_t, il_t, delta_tilde
            if not 0.0 < lam <= 1.0:
                raise ConstructionError(f"blending factor {lam} outside (0, 1]")

            rows = _blend(left, interior[part], lo[part], hi[part], right, lam,
                          (1.0 - lam) * line_slope, (1.0 - lam) * line_icept + shift)
            try:  # a Partition's knots and these shapes pass, so only a row can fail
                S = PiecewisePoly(X.knots, *rows)
            except ValueError:
                i = int(np.argmin(_finite_rows(*rows)))
                raise ConstructionError(
                    f"the glued spline of {f.label()} at n={X.n} overflows on "
                    f"[{float(X.knots[i])!r}, {float(X.knots[i + 1])!r}]: the sums of "
                    "|coefficients| of p, p' and p'' there are not all finite") from None
            glued.append((S, (delta, delta_tilde, delta_hat, case, lam), sources[part]))
    finally:  # a later row's refusal waits for the check of the rows glued before it
        certified = _certify_or_raise(*[S for S, _, _ in glued]) if glued else []
    return [(S, blend, rows) for S, (_, blend, rows) in zip(certified, glued)]


def construct_spline(f: ConvexOracle, X: Partition, r: int) -> tuple:
    """Convex spline of order r+2 on the partition, interpolating f and all
    its derivatives up to order r at both interval ends.

    Raises :class:`PartitionTooCoarse` when the end intervals exceed the
    admissible width; the caller must refine near the endpoints.
    """
    if not (math.isclose(X.a, f.a) and math.isclose(X.b, f.b)):
        raise ValueError("partition span must match the oracle domain")
    return _assemble(_prepare(f, r, (X.a, X.b)), f, [X], r)[0]


def chebyshev_threshold(f: ConvexOracle, r: int) -> tuple:
    """(N_threshold, H) for the Chebyshev specialization.

    N = ceil(3 / sqrt(H)) guarantees the end gap 2 sin^2(pi/2n) <= pi^2/(2n^2)
    <= 5/N^2 <= H for every n >= N.  N is an upper bound for the minimal
    admissible n, not claimed tight.
    """
    _check_chebyshev_domain(f)
    return _threshold(_prepare(f, r))


def _threshold(prep: _Prepared) -> tuple:
    if prep.affine:
        return 2, prep.H
    return int(math.ceil(3.0 / math.sqrt(prep.H))), prep.H


def construct_chebyshev(f: ConvexOracle, r: int, n: int) -> tuple:
    """Chebyshev specialization: standard knots, threshold check first.

    Returns (spline, trace, N_threshold); raises :class:`InvalidN` when n < 1
    and :class:`NBelowThreshold` when n < N_threshold instead of silently
    fixing n.
    """
    _check_chebyshev_domain(f)
    if n < 1:
        raise InvalidN(f"need n >= 1, got {n}")
    return _construct_chebyshev(_prepare(f, r), f, r, [n])[0]


def _check_chebyshev_domain(f: ConvexOracle) -> None:
    if not (math.isclose(f.a, -1.0) and math.isclose(f.b, 1.0)):
        raise ValueError("Chebyshev construction expects the oracle on [-1, 1]")


def _construct_chebyshev(prep: _Prepared, f: ConvexOracle, r: int, ns) -> list:
    """construct_chebyshev at each n of ns from the preparation of (f, r),
    which a sweep shares between its threshold and all of its rows; the
    interior pieces of all of them come from one pass."""
    n_threshold, _ = _threshold(prep)
    if min(ns) < n_threshold:
        raise NBelowThreshold(n_threshold)
    built = _assemble(prep, f, [chebyshev_partition(n) for n in ns], r)
    return [(S, trace, n_threshold) for S, trace in built]


def polygonal_baseline(f: ConvexOracle, n: int) -> PiecewisePoly:
    """Piecewise-linear interpolant of f at the Chebyshev knots.

    Convex by construction: secant slopes of a convex function are
    nondecreasing.  This is the order-2 baseline the higher-order
    construction is measured against.
    """
    _check_chebyshev_domain(f)
    return _secant_spline(f, chebyshev_partition(n), 2)
