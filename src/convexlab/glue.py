"""The full tangent-line gluing construction.

Pipeline: normalize f onto [0,1] with zero boundary values, locate the depth
M and the minimizer, shrink a smallness radius H1 until the boundary values
and the weighted second-order modulus are dominated by M, intersect with the
endpoint-block convexity threshold, build the two Hermite endpoint blocks and
the interior pieces of the convex interpolant sigma, then blend them with a
tangent line so the block defects are absorbed without losing convexity.
The Chebyshev specialization derives the minimal admissible n from H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from convexlab.domain import (
    ConvexOracle,
    Partition,
    chebyshev_partition,
    normalize_to_unit,
    tangent_line,
)
from convexlab.endblocks import find_H, integrated_L, mirrored_L
from convexlab.localconvex import _convex_pieces, _secant_piece, _spot_check_convexity
from convexlab.piecewise import PiecewisePoly, coefficient_matrix, verify_convexity
from convexlab.polynomial import Poly
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
    "DEFAULT_C0",
]

DEFAULT_C0 = 16.0
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
    """Diagnostics of one gluing run, all in normalized [0,1] coordinates."""

    M: float
    x_star: float
    H1: float
    H: float
    delta: float
    delta_tilde: float
    delta_hat: float
    case: int
    lambda_: float
    c0_used: float

    def to_json_dict(self) -> dict:
        return {
            "M": self.M,
            "x_star": self.x_star,
            "H1": self.H1,
            "H": self.H,
            "delta": self.delta,
            "delta_tilde": self.delta_tilde,
            "delta_hat": self.delta_hat,
            "case": self.case,
            "lambda": self.lambda_,
            "c0_used": self.c0_used,
        }


@dataclass(frozen=True)
class _Prepared:
    g: ConvexOracle
    amap: object
    affine: bool
    M: float
    x_star: float
    H1: float
    H: float
    c0: float


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


def _prepare(f: ConvexOracle, r: int, c0: float, interval=None) -> _Prepared:
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if r > f.r:
        raise ValueError(f"oracle {f.label()} only guarantees smoothness order {f.r}")
    if not (math.isfinite(c0) and c0 > 0.0):
        raise ValueError(f"c0 must be finite and positive, got {c0}")
    # refuse overflowing endpoint data before anything else evaluates f
    with np.errstate(all="ignore"):
        for x in (f.domain if interval is None else interval):
            for nu in range(r + 1):
                v = float(f.deriv(nu, x))
                if not math.isfinite(v):
                    raise ValueError(f"endpoint data is non-finite: f^({nu})({float(x)!r}) "
                                     f"= {v!r} for {f.label()}")
    g, amap = normalize_to_unit(f, interval)
    a = amap.shift
    b = amap.shift + amap.scale
    _spot_check_convexity(f, a, b)

    xs = np.linspace(0.0, 1.0, SCAN_POINTS)
    vals = np.asarray(g(xs), dtype=float)
    i_min = int(np.argmin(vals))  # leftmost scan minimizer on ties
    scale = abs(float(f(a))) + abs(float(f(b)))
    if -vals[i_min] <= AFFINE_REL_TOL * scale:
        return _Prepared(g, amap, True, -float(vals[i_min]), float(xs[i_min]),
                         0.25, 0.25, c0)

    dx = 1.0 / (SCAN_POINTS - 1)
    lo = max(0.0, xs[i_min] - dx)
    hi = min(1.0, xs[i_min] + dx)
    x_ref, depth = _golden_max(lambda x: -float(g(x)), lo, hi)
    if depth >= -vals[i_min]:
        x_star, M = float(x_ref), float(depth)
    else:
        x_star, M = float(xs[i_min]), -float(vals[i_min])

    gr = g.deriv_fn(r)
    H1 = 0.5 * min(x_star, 1.0 - x_star)
    for _ in range(MAX_HALVINGS):
        boundary_ok = max(-float(g(H1)), -float(g(1.0 - H1))) < 0.5 * M
        # the kink windows keep the global lattice from stepping over a corner
        if boundary_ok and 4.0 * c0 * H1 ** r * modulus(
                gr, 2, H1, (0.0, 1.0), HYPOTHESIS_GRID, g.nonsmooth).value < M:
            break
        H1 *= 0.5
    else:
        raise ConstructionError("smallness radius H1 collapsed; function is "
                                "numerically degenerate")

    H = min(find_H(g, (0.0, 1.0), r, 0.25), H1)
    return _Prepared(g, amap, False, M, x_star, H1, H, c0)


def _plus_line(coeffs, centers, halfwidths, slope: float, intercept: float) -> None:
    """Poly.plus_line on every row of a coefficient matrix, in place."""
    coeffs[:, 0] += intercept + slope * centers
    coeffs[:, 1] += slope * halfwidths


def _blend(unit_pieces, order: int, lam: float, slope: float, intercept: float) -> tuple:
    """(coeffs, centers, halfwidths, sizes) of the pieces with every piece p
    but the two end blocks replaced by lam * p + slope * x + intercept, as
    Poly arithmetic computes it; sizes are the coefficient counts of the
    pieces, at least two after plus_line."""
    coeffs, centers, halfwidths = coefficient_matrix(unit_pieces, order)
    middle = slice(1, -1)
    coeffs[middle] *= lam
    _plus_line(coeffs[middle], centers[middle], halfwidths[middle], slope, intercept)
    return coeffs, centers, halfwidths, [max(len(p.coeffs), 2) for p in unit_pieces]


def _denormalize(coeffs, centers, halfwidths, sizes, knots, amap, f) -> PiecewisePoly:
    """The spline of the pieces given in [0, 1] by their coefficient matrix,
    frames and coefficient counts, pulled back to the original interval with
    f's secant added: Poly.rescale_domain then Poly.plus_line on all rows."""
    a = amap.shift
    length = amap.scale
    slope_x = (float(f(a + length)) - float(f(a))) / length
    intercept_x = float(f(a)) - slope_x * a
    centers = a + length * centers
    halfwidths = length * halfwidths
    _plus_line(coeffs, centers, halfwidths, slope_x, intercept_x)
    out = tuple(Poly(c, w, row[:m]) for c, w, row, m in
                zip(centers.tolist(), halfwidths.tolist(), coeffs.tolist(), sizes))
    return PiecewisePoly(knots=knots, pieces=out, order=coeffs.shape[1])


def _certify_or_raise(S: PiecewisePoly) -> PiecewisePoly:
    rep = verify_convexity(S)
    if not rep.continuous:
        raise NotConvexOutput("assembled spline is discontinuous at a knot")
    if rep.offending_pieces:
        raise NotConvexOutput(f"pieces {rep.offending_pieces} failed the convexity certificate")
    if not rep.slopes_ok:
        raise NotConvexOutput("one-sided knot slopes are not nondecreasing")
    return PiecewisePoly(S.knots, S.pieces, S.order, convex_certified=True)


def _secant_spline(f: ConvexOracle, X: Partition, order: int) -> PiecewisePoly:
    pieces = tuple(_secant_piece(f, *X.interval(j)).poly for j in range(1, X.n + 1))
    return _certify_or_raise(PiecewisePoly(X.knots, pieces, order=order))


def _affine_spline(f: ConvexOracle, X: Partition, r: int, prep) -> tuple:
    trace = GlueTrace(M=prep.M, x_star=prep.x_star, H1=prep.H1, H=prep.H,
                      delta=0.0, delta_tilde=0.0, delta_hat=0.0,
                      case=1, lambda_=1.0, c0_used=prep.c0)
    return _secant_spline(f, X, r + 2), trace


def _assemble(prep: _Prepared, f: ConvexOracle, X: Partition, r: int) -> tuple:
    if prep.affine:
        return _affine_spline(f, X, r, prep)

    g, amap = prep.g, prep.amap
    M, H = prep.M, prep.H
    u = (X.knots - amap.shift) / amap.scale
    u[0], u[-1] = 0.0, 1.0
    u1 = float(u[1])
    un1 = float(u[-2])

    tol = 1.0 + 1e-12
    if u1 > H * tol or (1.0 - un1) > H * tol:
        raise PartitionTooCoarse(H * amap.scale)

    left = integrated_L(g, 0.0, u1, r)
    right = mirrored_L(g, 1.0, 1.0 - un1, r)
    delta, delta_tilde = left.delta, right.delta
    if not (abs(delta) < 0.25 * M and abs(delta_tilde) < 0.25 * M):
        raise ConstructionError(
            f"block defects |{delta:.3g}|, |{delta_tilde:.3g}| exceed M/4 = {0.25*M:.3g}")
    delta_hat = delta - delta_tilde

    # the end blocks replace sigma's first and last pieces, so only its
    # interior pieces are built; _certify_or_raise certifies them in S
    interior = [pc.poly for pc in _convex_pieces(g, u[1:-1], r + 1)]

    sl, il = tangent_line(g, u1)
    sl_t, il_t = tangent_line(g, un1)
    gap_right = float(g(un1)) - (sl * un1 + il)       # f - tangent-at-u1, far end
    gap_left = float(g(u1)) - (sl_t * u1 + il_t)      # f - tangent-at-un1, near end
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

    rows = _blend([left.poly, *interior, right.poly], r + 2, lam,
                  (1.0 - lam) * line_slope, (1.0 - lam) * line_icept + shift)
    S = _denormalize(*rows, X.knots, amap, f)
    S = _certify_or_raise(S)
    trace = GlueTrace(M=M, x_star=prep.x_star, H1=prep.H1, H=H,
                      delta=delta, delta_tilde=delta_tilde, delta_hat=delta_hat,
                      case=case, lambda_=lam, c0_used=prep.c0)
    return S, trace


def construct_spline(f: ConvexOracle, X: Partition, r: int,
                     c0: float = DEFAULT_C0) -> tuple:
    """Convex spline of order r+2 on the partition, interpolating f and all
    its derivatives up to order r at both interval ends.

    Raises :class:`PartitionTooCoarse` when the end intervals exceed the
    admissible width; the caller must refine near the endpoints.
    """
    if not (math.isclose(X.a, f.a) and math.isclose(X.b, f.b)):
        raise ValueError("partition span must match the oracle domain")
    prep = _prepare(f, r, c0, (X.a, X.b))
    return _assemble(prep, f, X, r)


def chebyshev_threshold(f: ConvexOracle, r: int, c0: float = DEFAULT_C0) -> tuple:
    """(N_threshold, H in original units) for the Chebyshev specialization.

    N = ceil(3 / sqrt(H)) guarantees the end gap 2 sin^2(pi/2n) <= pi^2/(2n^2)
    <= 5/N^2 <= H for every n >= N.  N is an upper bound for the minimal
    admissible n, not claimed tight.
    """
    return _threshold(_prepare(f, r, c0))


def _threshold(prep: _Prepared) -> tuple:
    if prep.affine:
        return 2, prep.H * prep.amap.scale
    H_orig = prep.H * prep.amap.scale
    return int(math.ceil(3.0 / math.sqrt(H_orig))), H_orig


def construct_chebyshev(f: ConvexOracle, r: int, n: int,
                        c0: float = DEFAULT_C0) -> tuple:
    """Chebyshev specialization: standard knots, threshold check first.

    Returns (spline, trace, N_threshold); raises :class:`NBelowThreshold` when
    n < N_threshold instead of silently fixing n.
    """
    _check_chebyshev_domain(f)
    return _construct_chebyshev(_prepare(f, r, c0), f, r, n)


def _check_chebyshev_domain(f: ConvexOracle) -> None:
    if not (math.isclose(f.a, -1.0) and math.isclose(f.b, 1.0)):
        raise ValueError("Chebyshev construction expects the oracle on [-1, 1]")


def _construct_chebyshev(prep: _Prepared, f: ConvexOracle, r: int, n: int) -> tuple:
    """construct_chebyshev from the preparation of (f, r, c0), which a sweep
    shares between its threshold and all of its rows."""
    if prep.affine:
        return (*_assemble(prep, f, chebyshev_partition(max(n, 2)), r), 2)
    n_threshold, _ = _threshold(prep)
    if n < n_threshold:
        raise NBelowThreshold(n_threshold)
    S, trace = _assemble(prep, f, chebyshev_partition(n), r)
    return S, trace, n_threshold


def polygonal_baseline(f: ConvexOracle, n: int) -> PiecewisePoly:
    """Piecewise-linear interpolant of f at the Chebyshev knots.

    Convex by construction: secant slopes of a convex function are
    nondecreasing.  This is the order-2 baseline the higher-order
    construction is measured against.
    """
    return _secant_spline(f, chebyshev_partition(n), 2)
