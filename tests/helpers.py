"""Shared test helpers.

The block-error ratios are used both by the unit tests and the acceptance
suite: block error against (distance)^r times the one-sided composite
modulus, with errors at rounding scale excluded as satisfied-degenerate.
``spline_of`` builds a spline from one Poly per interval.
"""

import math

import numpy as np

from convexlab.domain import reflect
from convexlab.endblocks import integrated_L, lagrange_hermite_L
from convexlab.piecewise import PiecewisePoly
from convexlab.smoothness import ModulusProfile

ROUNDING_REL = 1e-13


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
    return one_sided_ratio_sup(f, r, block.poly, (a, a + h), "left", **kw)


def direct_block_ratio(f, r, a, h, **kw):
    poly = lagrange_hermite_L(f, a, h, r)
    return one_sided_ratio_sup(f, r, poly, (a, a + h), "left", **kw)


def mirrored_direct_block_ratio(f, r, b, h, **kw):
    lo = b - h
    g = reflect(f, (lo, b))
    poly = lagrange_hermite_L(g, lo, h, r).reflected(lo + b)
    return one_sided_ratio_sup(f, r, poly, (lo, b), "right", **kw)
