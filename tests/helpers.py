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
solves as the reference for their closed form.
"""

import math
from dataclasses import dataclass

import numpy as np

from convexlab.domain import ConvexOracle
from convexlab.endblocks import integrated_L
from convexlab.piecewise import PiecewisePoly
from convexlab.polynomial import derivative_rows, hermite_interpolant, horner_rows
from convexlab.smoothness import ModulusProfile

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
    """The bound report as one pass over every grid point: each profile over
    all of its grid's steps and every knot interval's 2.13 term, the bound
    computed at each point, noise points included, then one exclusion mask.
    ``pointwise_bound_report`` must equal it bit for bit while asking the
    modulus layer only for what its kept points read."""
    from convexlab import certify
    from convexlab.domain import phi
    from convexlab.smoothness import modulus_lower_bounds

    fr = f.deriv_fn(r)
    kinks = tuple(f.nonsmooth)
    knots = S.knots
    x1, xn1 = float(knots[1]), float(knots[-2])

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
        prof = ModulusProfile(fr, k, (-1.0, 1.0), ts, grid=density, focus=kinks)
        bounds = weight(xs, ts, r) * prof.value(ts)
    elif bound_id in ("2.11", "2.12"):
        lo, hi = (-1.0, x1) if bound_id == "2.11" else (xn1, 1.0)
        xs = densify(certify._open_chebyshev(lo, hi, grid_size), lo, hi)
        d = xs - lo if bound_id == "2.11" else hi - xs
        t2 = np.sqrt(d * (hi - lo))
        om1 = ModulusProfile(fr, 1, (lo, hi), d, grid=density, focus=kinks)
        om2 = ModulusProfile(fr, 2, (lo, hi), t2, grid=density, focus=kinks)
        bounds = d ** r * np.minimum(om1.value(d), om2.value(t2))
    else:
        h = np.diff(knots)
        term = np.array([w ** r for w in h.tolist()]) * modulus_lower_bounds(
            fr, 2, h, np.column_stack([knots[:-1], knots[1:]]), grid=density)
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
