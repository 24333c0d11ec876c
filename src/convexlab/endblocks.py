"""Endpoint Hermite blocks and the numerical convexity threshold search.

The left block matches all of f's derivatives up to order r at the interval
end and is built so its own derivative interpolates f' at the inner knot,
which is exactly what lets the gluing stay convex across the seam.  The block
does not interpolate f at the inner knot; that defect (delta) is what the
tangent-line blend later absorbs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from convexlab.domain import ConvexOracle, reflect
from convexlab.polynomial import convexity_certificate, hermite_interpolant, horner_rows

__all__ = [
    "NoConvexityThreshold",
    "EndpointBlock",
    "integrated_L",
    "mirrored_L",
    "find_H",
]

LADDER_STEPS = 60


class NoConvexityThreshold(RuntimeError):
    """No block width on the search ladder produced convex endpoint blocks."""


@dataclass(frozen=True)
class EndpointBlock:
    """A degree <= r+1 endpoint piece, its coefficient row ascending in
    u = (x - center) / halfwidth, with its interpolation defect.

    ``delta`` is block(inner knot) - f(inner knot): the block interpolates
    derivatives at the outer end, not the value at the inner one.
    """

    center: float
    halfwidth: float
    coeffs: np.ndarray
    side: str          # left | right
    h: float
    delta: float
    interval: tuple


def _value(center: float, halfwidth: float, coeffs: np.ndarray, x: float) -> float:
    """The row's value at x."""
    return float(horner_rows(coeffs, (x - center) / halfwidth))


def integrated_L(f, a: float, h: float, r: int) -> EndpointBlock:
    """Left endpoint block: the antiderivative of the degree-r Hermite match
    to f', anchored at (a, f(a)).

    Its derivative interpolates f' at a+h, and it matches f^(nu)(a) for
    nu = 0..r; the value defect at a+h is recorded as delta.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if not h > 0:
        raise ValueError(f"need h > 0, got {h}")
    a = float(a)
    h = float(h)
    data = [(a, [float(f.deriv(nu + 1, a)) for nu in range(r)]),
            (a + h, [float(f.deriv(1, a + h))])]
    center, w, slope = hermite_interpolant(data)
    # the antiderivative row, its constant then set so that it is f(a) at a
    coeffs = np.concatenate([[0.0], w * slope / np.arange(1.0, slope.size + 1)])
    coeffs[0] += float(f(a)) - _value(center, w, coeffs, a)
    delta = _value(center, w, coeffs, a + h) - float(f(a + h))
    return EndpointBlock(center, w, coeffs, "left", h, delta, (a, a + h))


def mirrored_L(f, b: float, h_tilde: float, r: int) -> EndpointBlock:
    """Right endpoint block via the reflection identity: build the left block
    of the reflected oracle on the block interval, then reflect it back."""
    if not h_tilde > 0:
        raise ValueError(f"need h > 0, got {h_tilde}")
    b = float(b)
    h_tilde = float(h_tilde)
    lo = b - h_tilde
    g = reflect(f, (lo, b))
    left = integrated_L(g, lo, h_tilde, r)
    # back to the original orientation: p(lo + b - x) is the row with its odd
    # coefficients negated, centered at lo + b - center
    center = (lo + b) - left.center
    coeffs = left.coeffs * (-1.0) ** np.arange(left.coeffs.size)
    delta = _value(center, left.halfwidth, coeffs, lo) - float(f(lo))
    return EndpointBlock(center, left.halfwidth, coeffs, "right", h_tilde, delta, (lo, b))


def _blocks_convex(f, a: float, b: float, r: int, h: float) -> bool:
    left = integrated_L(f, a, h, r)
    if not convexity_certificate(left, left.interval).convex:
        return False
    right = mirrored_L(f, b, h, r)
    return convexity_certificate(right, right.interval).convex


def find_H(f: ConvexOracle, interval, r: int, h_max: float) -> float:
    """Largest ladder width h_max / 2^i whose endpoint blocks are certified
    convex on both sides, stable under one extra halving.

    The ladder factor is a resolution choice, not part of the contract: any
    admissible width works downstream, since the partition condition it feeds
    is an inequality.  Raises :class:`NoConvexityThreshold` after
    ``LADDER_STEPS`` halvings.
    """
    a, b = float(interval[0]), float(interval[1])
    if not 0 < h_max <= 0.5 * (b - a):
        raise ValueError(f"need 0 < h_max <= (b-a)/2, got {h_max}")
    h = float(h_max)
    h_floor = 1e-12 * (b - a)  # below this, slope data is cancellation noise
    ok_prev = None  # memo of the last h/2 check
    for _ in range(LADDER_STEPS):
        ok_h = _blocks_convex(f, a, b, r, h) if ok_prev is None else ok_prev
        ok_half = _blocks_convex(f, a, b, r, 0.5 * h)
        if ok_h and ok_half:
            return h
        h *= 0.5
        ok_prev = ok_half
        if h < h_floor:
            break
    raise NoConvexityThreshold(
        f"no convex endpoint blocks found down to h = {h:g} for {f.label()}; "
        f"the derivative data is inconsistent with convexity")
