"""Shared test helpers.

The block-error ratios are used both by the unit tests and the acceptance
suite: block error against (distance)^r times the one-sided composite
modulus, with errors at rounding scale excluded as satisfied-degenerate.

``Poly`` is the reference for one polynomial piece: its methods are the
per-piece arithmetic, in Python floats where it can be, that the row passes
of convexlab must equal, some of them bit for bit.  ``spline_of`` builds a
spline from one Poly per interval, ``pieces_of`` gives a spline's rows as
Polys and ``poly_of`` any piece with ``center``, ``halfwidth`` and
``coeffs``, such as an end block.  ``lagrange_hermite_L`` is the direct
Hermite block the integrated one is compared against, ``reflect`` the
mirror image of an oracle, and
``reference_bound_report`` the bound report over full profiles that
``certify.pointwise_bound_report`` is compared against, and ``lp_blocks``
the minimax LP of the r = 1 blend weights, which ``localconvex.linprog``
solves as the reference for their closed form.  ``reference_row_maxima``
and ``reference_find_H`` are the plain forms of the profile row kernel and
of the threshold ladder, which the library's must equal bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from convexlab.domain import ConvexOracle
from convexlab.endblocks import NoConvexityThreshold, integrated_L, mirrored_L
from convexlab.piecewise import PiecewisePoly
from convexlab.polynomial import (convexity_certificate, derivative_rows, hermite_interpolant,
                                  horner_rows)
from convexlab.smoothness import FOCUS_POINTS, ModulusProfile, block_rows

ROUNDING_REL = 1e-13


@dataclass(frozen=True)
class Poly:
    """One polynomial piece, coefficients ascending in u = (x - center)/halfwidth."""

    center: float
    halfwidth: float
    coeffs: tuple

    def __post_init__(self):
        if not (self.halfwidth > 0 and math.isfinite(self.halfwidth)):
            raise ValueError(f"halfwidth must be positive and finite, got {self.halfwidth}")
        cs = tuple(float(c) for c in self.coeffs)
        if not cs:
            raise ValueError("coeffs must be non-empty")
        object.__setattr__(self, "center", float(self.center))
        object.__setattr__(self, "halfwidth", float(self.halfwidth))
        object.__setattr__(self, "coeffs", cs)

    def __call__(self, x):
        """Horner evaluation at x (scalar or ndarray)."""
        u = (np.asarray(x, dtype=float) - self.center) / self.halfwidth
        acc = horner_rows(np.array(self.coeffs), u)
        return float(acc) if np.ndim(x) == 0 else acc

    def derivative(self) -> "Poly":
        """d/dx, with the 1/halfwidth chain-rule factor applied."""
        return Poly(self.center, self.halfwidth,
                    derivative_rows(np.array(self.coeffs), self.halfwidth))

    def antiderivative(self, x0: float, y0: float) -> "Poly":
        """The antiderivative q with q' = self and q(x0) = y0."""
        cs = [0.0] + [self.halfwidth * c / (i + 1) for i, c in enumerate(self.coeffs)]
        q = Poly(self.center, self.halfwidth, cs)
        return Poly(self.center, self.halfwidth, (cs[0] + (y0 - q(x0)),) + tuple(cs[1:]))

    def deriv_value(self, x, nu: int = 1):
        cs = derivative_rows(np.array(self.coeffs), self.halfwidth, nu)
        return Poly(self.center, self.halfwidth, cs)(x)

    def plus_line(self, slope: float, intercept: float) -> "Poly":
        """Add the global line slope*x + intercept, exactly in coefficients."""
        cs = list(self.coeffs)
        while len(cs) < 2:
            cs.append(0.0)
        cs[0] += intercept + slope * self.center
        cs[1] += slope * self.halfwidth
        return Poly(self.center, self.halfwidth, cs)

    def rescale_domain(self, shift: float, scale: float) -> "Poly":
        """The pullback q(x) = p((x - shift)/scale): exact frame relabeling."""
        if not scale > 0:
            raise ValueError("scale must be positive")
        return Poly(shift + scale * self.center, scale * self.halfwidth, self.coeffs)

    def reflected(self, s: float) -> "Poly":
        """The reflection q(x) = p(s - x): exact in local coordinates."""
        coeffs = tuple(c * (-1.0) ** i for i, c in enumerate(self.coeffs))
        return Poly(s - self.center, self.halfwidth, coeffs)

    def to_json_dict(self) -> dict:
        return {
            "center": self.center,
            "halfwidth": self.halfwidth,
            "coeffs": list(self.coeffs),
        }


def reflect(f: ConvexOracle, interval=None) -> ConvexOracle:
    """The reflection g(x) = f(a + b - x) on the same interval."""
    a, b = (f.domain if interval is None else interval)
    a, b = float(a), float(b)
    s = a + b

    def make(nu):
        base = f.deriv_fn(nu)
        sign = (-1.0) ** nu
        return lambda x: sign * base(s - np.asarray(x, dtype=float))

    return ConvexOracle(
        name=f.name + "~",
        params=dict(f.params),
        r=f.r,
        domain=(a, b),
        derivs=tuple(make(nu) for nu in range(f.r + 1)),
        nonsmooth=tuple(s - p for p in f.nonsmooth),
    )


def poly_of(piece) -> Poly:
    """The Poly of any piece with ``center``, ``halfwidth`` and ``coeffs``."""
    return Poly(piece.center, piece.halfwidth, piece.coeffs)


def pieces_of(S) -> list:
    """The rows of the spline S as Polys, each at the spline's order."""
    return list(map(Poly, S.centers.tolist(), S.halfwidths.tolist(), S.coeffs.tolist()))


def lagrange_hermite_L(f, a: float, h: float, r: int) -> Poly:
    """Degree <= r+1 polynomial matching f^(nu)(a) for nu = 0..r and f(a+h)."""
    if not h > 0:
        raise ValueError(f"need h > 0, got {h}")
    a = float(a)
    data = [(a, [float(f.deriv(nu, a)) for nu in range(r + 1)]),
            (a + h, [float(f(a + h))])]
    return Poly(*hermite_interpolant(data))


def spline_of(knots, polys, order):
    """The PiecewisePoly of one Poly per interval, each row zero-padded to
    ``order`` columns, loaded as a spline JSON is."""
    return PiecewisePoly.from_json_dict({"knots": knots, "order": order,
                                         "pieces": [p.to_json_dict() for p in polys]})


def _open_chebyshev_grid(lo, hi, m):
    j = np.arange(1, m + 1)
    return 0.5 * (lo + hi) - 0.5 * (hi - lo) * np.cos(np.pi * j / (m + 1))


def one_sided_ratio_sup(f, r, poly, interval, side, grid_pts=65, density=512):
    """sup over the interval of |f - poly| / (d^r * composite modulus at x),
    where d is the distance to the matched end."""
    a, b = interval
    length = b - a
    xs = _open_chebyshev_grid(a, b, grid_pts)
    ds = (xs - a) if side == "left" else (b - xs)
    om1 = ModulusProfile(f.deriv_fn(r), 1, interval, ds, grid=density)
    om2 = ModulusProfile(f.deriv_fn(r), 2, interval, np.sqrt(ds * length), grid=density)
    fscale = 1.0 + float(np.max(np.abs(f(xs))))
    worst = 0.0
    for x in xs:
        x = float(x)
        d = (x - a) if side == "left" else (b - x)
        err = abs(float(f(x)) - float(poly(x)))
        if err <= ROUNDING_REL * fscale:
            continue
        om = min(om1.value(d), om2.value(math.sqrt(d * length)))
        den = max(d ** r * om, 1e-300)
        worst = max(worst, err / den)
    return worst


def integrated_block_ratio(f, r, a, h, **kw):
    block = integrated_L(f, a, h, r)
    return one_sided_ratio_sup(f, r, poly_of(block), (a, a + h), "left", **kw)


def direct_block_ratio(f, r, a, h, **kw):
    poly = lagrange_hermite_L(f, a, h, r)
    return one_sided_ratio_sup(f, r, poly, (a, a + h), "left", **kw)


def mirrored_direct_block_ratio(f, r, b, h, **kw):
    lo = b - h
    g = reflect(f, (lo, b))
    poly = lagrange_hermite_L(g, lo, h, r).reflected(lo + b)
    return one_sided_ratio_sup(f, r, poly, (lo, b), "right", **kw)


def reference_bound_report(f, S, r, n, bound_id, grid_size, density):
    """The bound report as one pass over every grid point: each modulus from
    the oracle's lower end of omega_k where it has one, else each profile over
    all of its grid's steps and every knot interval's sampled 2.13 term, the
    bound computed at each point, noise points included, then one exclusion
    mask.  ``pointwise_bound_report`` must equal it bit for bit while asking
    for the moduli of its kept points only."""
    from convexlab import certify
    from convexlab.domain import phi
    from convexlab.smoothness import modulus_lower_bounds

    fr = f.deriv_fn(r)
    kinks = tuple(f.nonsmooth)
    knots = S.knots
    x1, xn1 = float(knots[1]), float(knots[-2])

    def lower(k, ts, lo, hi):
        return None if f.omega_enclosure is None else f.omega_enclosure(k, r, ts, lo, hi)[0]

    def omega(k, interval, ts):
        low = lower(k, ts, *interval)
        if low is not None:
            return low
        return ModulusProfile(fr, k, interval, ts, grid=density, focus=kinks).value(ts)

    def densify(xs, lo, hi):
        extra = []
        for p in kinks:
            w = 3.0 * math.pi * max(phi(p), 1.0 / n) / n
            wlo, whi = max(lo, p - w), min(hi, p + w)
            if whi > wlo:
                extra.append(np.linspace(wlo, whi, 65))
        return np.sort(np.concatenate([xs] + extra)) if extra else xs

    if bound_id in ("2.3", "2.4", "2.5"):
        k, step, weight = certify._PROFILE_BOUNDS[bound_id]
        if bound_id == "2.3":
            xs = densify(certify._open_chebyshev(-1.0, 1.0, grid_size), -1.0, 1.0)
        else:
            xs = certify._strip_grid(n, grid_size)
        ts = step(xs, n)
        bounds = weight(xs, ts, r) * omega(k, (-1.0, 1.0), ts)
    elif bound_id in ("2.11", "2.12"):
        lo, hi = (-1.0, x1) if bound_id == "2.11" else (xn1, 1.0)
        xs = densify(certify._open_chebyshev(lo, hi, grid_size), lo, hi)
        d = xs - lo if bound_id == "2.11" else hi - xs
        t2 = np.sqrt(d * (hi - lo))
        bounds = d ** r * np.minimum(omega(1, (lo, hi), d), omega(2, (lo, hi), t2))
    else:
        h = np.diff(knots)
        low = lower(2, h, knots[:-1], knots[1:])
        if low is None:
            low = modulus_lower_bounds(fr, 2, h, np.column_stack([knots[:-1], knots[1:]]),
                                       grid=density)
        term = np.array([w ** r for w in h.tolist()]) * low
        xs = densify(certify._open_chebyshev(x1, xn1, grid_size), x1, xn1)
        idx = np.clip(np.searchsorted(knots, xs, side="right") - 1, 1, n - 2)
        bounds = term[idx] + term[0] + term[-1]

    fx = np.asarray(f(xs), dtype=float)
    errs = np.abs(fx - S(xs))
    scale = 1.0 + float(np.max(np.abs(fx)))
    excluded = (errs <= certify.NOISE_REL * scale) | (
        (bounds <= certify.DENOM_FLOOR) & (errs <= certify.ATOL_REL * scale))
    kept = ~excluded
    with np.errstate(all="ignore"):
        ratios = errs[kept] / np.maximum(bounds[kept], certify.DENOM_FLOOR)
    return certify.BoundReport(
        bound_id, np.column_stack([xs[kept], errs[kept], bounds[kept], ratios]),
        float(np.max(ratios, initial=0.0)), np.column_stack([xs[excluded], errs[excluded]]))


def lp_blocks(d: np.ndarray, e: np.ndarray) -> tuple:
    """The minimax LP of the blend weight of every piece, from its fit data
    (d, e) of ``localconvex._fit_points``, as (cost, blocks): the arguments
    of ``localconvex.linprog``.

    Each piece contributes an independent block of two columns, its weight
    sigma in [0, 1] and an epigraph variable t >= 0, and 32 rows
    +-(sigma d - e) <= t, interleaved per point.  The blocks share no
    variable, so minimising sum(t_i) minimises every t_i.
    """
    k = d.shape[0]
    A_ub = np.empty((k, 32, 2))
    A_ub[:, 0::2, 0] = d
    A_ub[:, 1::2, 0] = -d
    A_ub[:, :, 1] = -1.0
    b_ub = np.empty((k, 32))
    b_ub[:, 0::2] = e
    b_ub[:, 1::2] = -e
    cost = np.tile([0.0, 1.0], k)
    bounds = np.tile([[0.0, 1.0], [0.0, np.inf]], (k, 1))
    return cost, dict(A_ub=A_ub, b_ub=b_ub.ravel(), bounds=bounds)


def _reference_centers(lo, hi, cols):
    xs = cols * ((hi - lo) / cols[-1]) + lo
    xs[:, -1] = hi[:, 0]
    return xs


def reference_row_maxima(f, k, us, a, b, cols, focus):
    """``smoothness._row_maxima`` as one plain pass per term: the centers
    (the columns ``cols`` of the grid, then the windows) concatenated, every
    term's points clipped onto [a, b], the weighted values added to a zero
    accumulator."""
    rows = np.zeros(us.size)
    arg_x = np.full(us.size, 0.5 * (a + b))
    lo = a + 0.5 * k * us
    hi = b - 0.5 * k * us
    live = np.flatnonzero(hi >= lo)
    weights = np.array([(-1.0) ** i * math.comb(k, i) for i in range(k + 1)])
    grid = cols.size
    per_block = block_rows(grid, len(focus))
    for start in range(0, live.size, per_block):
        sel = live[start:start + per_block]
        u, lo_b, hi_b = us[sel, None], lo[sel, None], hi[sel, None]
        xs = np.concatenate(
            [_reference_centers(lo_b, hi_b, cols)]
            + [_reference_centers(np.maximum(lo_b, p - k * u), np.minimum(hi_b, p + k * u),
                                  np.arange(FOCUS_POINTS)) for p in focus], axis=1)
        acc = np.zeros_like(xs)
        with np.errstate(all="ignore"):
            for i in range(k + 1):
                pts = xs + (0.5 * k - i) * u
                np.clip(pts, a, b, out=pts)
                acc += weights[i] * np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
        mag = np.abs(acc)
        for j, p in enumerate(focus):
            off = ~((lo_b - k * u <= p) & (p <= hi_b + k * u))[:, 0]
            mag[off, grid + j * FOCUS_POINTS:grid + (j + 1) * FOCUS_POINTS] = -np.inf
        best = np.argmax(mag, axis=1)
        picked = np.arange(sel.size)
        rows[sel] = mag[picked, best]
        arg_x[sel] = xs[picked, best]
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"order-{k} differences of the oracle on [{a!r}, {b!r}] "
                         "are non-finite")
    return rows, arg_x


def reference_find_H(f, interval, r, h_max):
    """``endblocks.find_H`` as a scalar ladder: the blocks of each width are
    built by ``integrated_L`` and ``mirrored_L`` and certified one at a time
    by ``convexity_certificate``, the left one first."""
    def blocks_convex(h):
        left = integrated_L(f, a, h, r)
        if not convexity_certificate(left, left.interval).convex:
            return False
        right = mirrored_L(f, b, h, r)
        return convexity_certificate(right, right.interval).convex

    a, b = float(interval[0]), float(interval[1])
    if not 0 < h_max <= 0.5 * (b - a):
        raise ValueError(f"need 0 < h_max <= (b-a)/2, got {h_max}")
    h = float(h_max)
    h_floor = 1e-12 * (b - a)
    ok_prev = None
    while h >= h_floor:
        ok_h = blocks_convex(h) if ok_prev is None else ok_prev
        ok_half = blocks_convex(0.5 * h)
        if ok_h and ok_half:
            return h
        h *= 0.5
        ok_prev = ok_half
    raise NoConvexityThreshold(
        f"no convex endpoint blocks found down to h = {h:g} for {f.label()}; "
        f"the derivative data is inconsistent with convexity")
