"""Endpoint Hermite blocks and the numerical convexity threshold search.

The left block matches all of f's derivatives up to order r at the interval
end and is built so its own derivative interpolates f' at the inner knot,
which is exactly what lets the gluing stay convex across the seam.  The block
does not interpolate f at the inner knot; that defect (delta) is what the
tangent-line blend later absorbs.

Both blocks come from f's own data in closed form: in t = |x - end|/h the
block is f's Taylor row of order r at its outer end plus the one term in
t^(r+1) that sets its slope to f' at the inner knot, moved into the block's
midpoint frame by a binomial shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from convexlab.domain import ConvexOracle
from convexlab.polynomial import convexity_certificate, horner_rows

__all__ = [
    "NoConvexityThreshold",
    "EndpointBlock",
    "integrated_L",
    "mirrored_L",
    "find_H",
]


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


def _block(f, end: float, h: float, r: int, side: str) -> EndpointBlock:
    """The endpoint block of width h at the outer end, on the given side.

    With s = +1 on the left and -1 on the right, inner = end + s h, width
    the float distance |inner - end|, t = |x - end|/width and
    g(t) = f(end + s width t), the block is g's Taylor row of order r at
    t = 0 plus c t^(r+1), where c makes its slope g'(1) = s width f'(inner).
    The row in t is moved into the midpoint frame (center, width/2) by the
    binomial shift of t = alpha + s u/2, where alpha, the t of the float
    center, is 1/2 up to that center's rounding, so the row's end and inner
    knot fall at t = 0 and t = 1 in the frame the row is stored in.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if not h > 0:
        raise ValueError(f"need h > 0, got {h}")
    end = float(end)
    s = 1.0 if side == "left" else -1.0
    inner = end + s * float(h)
    width = s * (inner - end)  # the float distance between the block's ends
    taylor = [float(f.deriv(nu, end)) * (s * width) ** nu / math.factorial(nu)
              for nu in range(r + 1)]
    slope = s * width * float(f.deriv(1, inner))
    taylor.append((slope - sum(nu * c for nu, c in enumerate(taylor))) / (r + 1))
    center, w = 0.5 * (end + inner), 0.5 * width
    alpha = s * (center - end) / width  # t at the center: 1/2 but for center's rounding
    k = range(r + 2)
    shift = [[math.comb(m, j) * alpha ** (m - j) * (0.5 * s) ** j if m >= j else 0.0
              for m in k] for j in k]
    coeffs = np.array(shift) @ np.array(taylor)
    delta = _value(center, w, coeffs, inner) - float(f(inner))
    return EndpointBlock(center, w, coeffs, side, float(h), delta, tuple(sorted((end, inner))))


def integrated_L(f, a: float, h: float, r: int) -> EndpointBlock:
    """Left endpoint block on [a, a+h]: it matches f^(nu)(a) for
    nu = 0..r, and its derivative interpolates f' at a+h; the value defect
    at a+h is recorded as delta."""
    return _block(f, a, h, r, "left")


def mirrored_L(f, b: float, h_tilde: float, r: int) -> EndpointBlock:
    """Right endpoint block on [b-h, b], the mirror image of
    :func:`integrated_L`: it matches f^(nu)(b) for nu = 0..r, and its
    derivative interpolates f' at b-h."""
    return _block(f, b, h_tilde, r, "right")


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
    is an inequality.  The ladder stops at its last width at or above
    1e-12 (b - a), at most 38 halvings below h_max <= (b - a)/2, and then
    raises :class:`NoConvexityThreshold`.
    """
    a, b = float(interval[0]), float(interval[1])
    if not 0 < h_max <= 0.5 * (b - a):
        raise ValueError(f"need 0 < h_max <= (b-a)/2, got {h_max}")
    h = float(h_max)
    h_floor = 1e-12 * (b - a)  # below this, slope data is cancellation noise
    ok_prev = None  # memo of the last h/2 check
    while h >= h_floor:
        ok_h = _blocks_convex(f, a, b, r, h) if ok_prev is None else ok_prev
        ok_half = _blocks_convex(f, a, b, r, 0.5 * h)
        if ok_h and ok_half:
            return h
        h *= 0.5
        ok_prev = ok_half
    raise NoConvexityThreshold(
        f"no convex endpoint blocks found down to h = {h:g} for {f.label()}; "
        f"the derivative data is inconsistent with convexity")
