"""Continuous piecewise polynomials over a knot vector."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from convexlab.polynomial import Poly, convexity_certificate

__all__ = ["PiecewisePoly", "ConvexityReport", "verify_convexity"]


@dataclass(frozen=True)
class PiecewisePoly:
    """Knot vector plus one polynomial piece per interval.

    ``order`` is the usual spline order: maximal piece degree plus one.
    ``convex_certified`` is only set by constructions whose spline passed
    :func:`verify_convexity`.
    """

    knots: np.ndarray
    pieces: tuple
    order: int
    convex_certified: bool = False

    def __post_init__(self):
        ks = np.asarray(self.knots, dtype=float)
        if ks.ndim != 1 or ks.size < 2:
            raise ValueError("need at least two knots")
        if not np.all(np.diff(ks) > 0):
            raise ValueError("knots must be strictly increasing")
        if len(self.pieces) != ks.size - 1:
            raise ValueError("need exactly one piece per interval")
        if any(p.degree + 1 > self.order for p in self.pieces):
            raise ValueError("piece degree exceeds declared order")
        ks.setflags(write=False)
        object.__setattr__(self, "knots", ks)
        object.__setattr__(self, "pieces", tuple(self.pieces))

    @property
    def n(self) -> int:
        return self.knots.size - 1

    @property
    def a(self) -> float:
        return float(self.knots[0])

    @property
    def b(self) -> float:
        return float(self.knots[-1])

    def piece_index(self, x):
        idx = np.searchsorted(self.knots, np.asarray(x, dtype=float), side="right") - 1
        return np.clip(idx, 0, self.n - 1)

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        idx = self.piece_index(xs)
        out = np.empty_like(xs, dtype=float)
        flat_x = np.atleast_1d(xs)
        flat_i = np.atleast_1d(idx)
        flat_o = np.atleast_1d(out)
        for j in np.unique(flat_i):
            sel = flat_i == j
            flat_o[sel] = self.pieces[int(j)](flat_x[sel])
        if xs.ndim == 0:
            return float(flat_o[0])
        return out

    def deriv_value(self, x: float, nu: int = 1, side: str = "+") -> float:
        """One-sided derivative at x: side picks the piece when x is a knot."""
        x = float(x)
        j = int(self.piece_index(x))
        k = np.searchsorted(self.knots, x)
        if k < self.knots.size and self.knots[k] == x:
            j = min(int(k), self.n - 1) if side == "+" else max(int(k) - 1, 0)
        return float(self.pieces[j].deriv_value(x, nu))

    def value_scale(self) -> float:
        return 1.0 + max(abs(float(p(0.5 * (self.knots[i] + self.knots[i + 1]))))
                         for i, p in enumerate(self.pieces))

    def continuity_defects(self) -> np.ndarray:
        """|left piece - right piece| at each interior knot."""
        out = np.empty(self.n - 1)
        for j in range(1, self.n):
            x = float(self.knots[j])
            out[j - 1] = abs(self.pieces[j - 1](x) - self.pieces[j](x))
        return out

    def is_continuous(self, rel_tol: float = 1e-9) -> bool:
        if self.n == 1:
            return True
        return bool(np.all(self.continuity_defects() <= rel_tol * self.value_scale()))

    def knot_slopes(self):
        """(left slope, right slope) at each interior knot."""
        pairs = []
        for j in range(1, self.n):
            x = float(self.knots[j])
            pairs.append((self.pieces[j - 1].deriv_value(x), self.pieces[j].deriv_value(x)))
        return pairs

    def piece_certificates(self):
        return [convexity_certificate(p, (float(self.knots[i]), float(self.knots[i + 1])))
                for i, p in enumerate(self.pieces)]

    def slope_scale(self) -> float:
        vals = [abs(s) for pair in self.knot_slopes() for s in pair] or [0.0]
        return 1.0 + max(vals)

    def to_json_dict(self) -> dict:
        return {
            "knots": [float(v) for v in self.knots],
            "order": int(self.order),
            "pieces": [p.to_json_dict() for p in self.pieces],
            "convex_certified": bool(self.convex_certified),
        }

    @staticmethod
    def from_json_dict(d: dict) -> "PiecewisePoly":
        return PiecewisePoly(
            knots=np.asarray(d["knots"], dtype=float),
            pieces=tuple(Poly.from_json_dict(q) for q in d["pieces"]),
            order=int(d["order"]),
            convex_certified=bool(d.get("convex_certified", False)),
        )


@dataclass(frozen=True)
class ConvexityReport:
    convex: bool
    piece_certificates: list
    slopes_ok: bool
    offending_pieces: list
    continuous: bool

    def to_json_dict(self) -> dict:
        return {
            "convex": self.convex,
            "continuous": self.continuous,
            "slopes_ok": self.slopes_ok,
            "offending_pieces": list(self.offending_pieces),
            "piece_min_second_derivative": [
                c.min_second_derivative for c in self.piece_certificates],
        }


def verify_convexity(S: PiecewisePoly) -> ConvexityReport:
    """The whole-spline convexity check: continuity at relative tolerance
    1e-9, exact per-piece certificates, and one-sided slopes nondecreasing
    along the knots up to 1e-9 * (1 + max |slope|)."""
    flat = [s for pair in S.knot_slopes() for s in pair]
    slope_tol = 1e-9 * (1.0 + max((abs(s) for s in flat), default=0.0))
    slopes_ok = all(s2 >= s1 - slope_tol for s1, s2 in zip(flat, flat[1:]))
    continuous = S.is_continuous(rel_tol=1e-9)
    certs = S.piece_certificates()
    offending = [i for i, c in enumerate(certs) if not c.convex]
    return ConvexityReport(
        convex=continuous and not offending and slopes_ok,
        piece_certificates=certs,
        slopes_ok=slopes_ok,
        offending_pieces=offending,
        continuous=continuous,
    )
