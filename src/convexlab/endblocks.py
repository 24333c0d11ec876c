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

``find_H`` reads f's derivatives at each end once, builds the blocks of a
few ladder widths on both sides as rows of one matrix, and certifies them
in one ``convexity_certificates`` call, whose rows are certified each on
its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from convexlab.domain import ConvexOracle
from convexlab.polynomial import convexity_certificates, horner_rows

__all__ = [
    "NoConvexityThreshold",
    "EndpointBlock",
    "integrated_L",
    "mirrored_L",
    "find_H",
]


# ladder widths per convexity_certificates call in find_H: most thresholds
# take one or two widths, and a longer ladder stays at a few calls
_LADDER_CHUNK = 4


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


def _row(f, end: float, s: float, end_derivs, h: float) -> tuple:
    """(center, halfwidth, coeffs, inner) of the block of width h at the
    outer end, from end_derivs = f^(nu)(end), nu = 0..r, and f' at the inner
    knot."""
    r = len(end_derivs) - 1
    inner = end + s * float(h)
    width = s * (inner - end)  # the float distance between the block's ends
    taylor = [d * (s * width) ** nu / math.factorial(nu) for nu, d in enumerate(end_derivs)]
    slope = s * width * float(f.deriv(1, inner))
    taylor.append((slope - sum(nu * c for nu, c in enumerate(taylor))) / (r + 1))
    center, w = 0.5 * (end + inner), 0.5 * width
    alpha = s * (center - end) / width  # t at the center: 1/2 but for center's rounding
    k = range(r + 2)
    shift = [[math.comb(m, j) * alpha ** (m - j) * (0.5 * s) ** j if m >= j else 0.0
              for m in k] for j in k]
    return center, w, np.array(shift) @ np.array(taylor), inner


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
    if end + s * float(h) == end:
        raise ValueError(f"h = {h:g} rounds onto the end {end!r}: the block has no width")
    end_derivs = [float(f.deriv(nu, end)) for nu in range(r + 1)]
    center, w, coeffs, inner = _row(f, end, s, end_derivs, h)
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


def find_H(f: ConvexOracle, interval, r: int, h_max: float) -> float:
    """Largest ladder width h_max / 2^i whose endpoint blocks are certified
    convex on both sides, stable under one extra halving.

    The ladder factor is a resolution choice, not part of the contract: any
    admissible width works downstream, since the partition condition it feeds
    is an inequality.  The ladder stops at its last width at or above
    1e-12 (b - a), at most 38 halvings below h_max <= (b - a)/2, or earlier
    at its last width whose inner knots a + h and b - h differ from the
    ends in floats, and then raises :class:`NoConvexityThreshold`.

    The blocks of a few widths at a time, both sides, are certified in one
    ``convexity_certificates`` call; its rows are certified each on its own
    and all have order r + 2, so every verdict is the one-block
    certificate's, bit for bit.
    """
    a, b = float(interval[0]), float(interval[1])
    if not 0 < h_max <= 0.5 * (b - a):
        raise ValueError(f"need 0 < h_max <= (b-a)/2, got {h_max}")
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    h_floor = 1e-12 * (b - a)  # below this, slope data is cancellation noise
    # the ladder, down to the first width below h_floor or to the last one
    # whose inner knots differ from the ends, since a block needs a width
    hs = [float(h_max)]
    while hs[-1] >= h_floor and a + 0.5 * hs[-1] != a and b - 0.5 * hs[-1] != b:
        hs.append(0.5 * hs[-1])
    ends = [(end, s, [float(f.deriv(nu, end)) for nu in range(r + 1)])
            for end, s in ((a, 1.0), (b, -1.0))]
    ok = []  # ok[i]: both blocks of width hs[i] certified convex
    for i in range(len(hs) - 1):
        while len(ok) < i + 2:
            chunk = hs[len(ok):len(ok) + _LADDER_CHUNK]
            blocks = [(end, *_row(f, end, s, d, h)) for end, s, d in ends for h in chunk]
            outer, center, w, coeffs, inner = (np.array(v) for v in zip(*blocks))
            convex = convexity_certificates(coeffs, center, w, np.minimum(outer, inner),
                                            np.maximum(outer, inner))[0]
            ok += list(convex[:len(chunk)] & convex[len(chunk):])
        if ok[i] and ok[i + 1]:
            return hs[i]
    raise NoConvexityThreshold(
        f"no convex endpoint blocks found down to h = {hs[-1]:g} for {f.label()}; "
        f"the derivative data is inconsistent with convexity")
