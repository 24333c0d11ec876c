"""Continuous piecewise polynomials over a knot vector, held as one zero-padded
coefficient matrix with the frames of its rows, so evaluation is an array
pass over all pieces at once, the convexity check one over all the pieces of
many splines, and JSON is read and written straight from the arrays.  A
record's JSON keys are its fields in order (:func:`record_json_dict`)."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from convexlab.polynomial import convexity_certificates, derivative_rows, horner_rows

__all__ = ["PiecewisePoly", "ConvexityReport", "record_json_dict", "verify_convexity"]


def record_json_dict(record) -> dict:
    """The JSON object of a dataclass record: its fields in order, arrays as
    lists and Python scalars as they are, ``lambda_`` written as ``lambda``."""
    return {fld.name.rstrip("_"): np.asarray(getattr(record, fld.name)).tolist()
            for fld in fields(record)}


def _numbers(name: str, values) -> None:
    """Refuse a JSON list that holds anything but numbers (a bool is not one)."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{name} must be numbers, got {value!r}")


def _finite_rows(coeffs, centers, halfwidths) -> np.ndarray:
    """Whether each row's center is finite, its halfwidth in (0, inf) and its sums
    of |coefficients| of p, p' and p'' finite (finite coefficients can overflow)."""
    ok = np.isfinite(centers) & (0 < halfwidths) & (halfwidths < np.inf)
    with np.errstate(all="ignore"):
        for nu in range(3):
            ok &= np.isfinite(np.abs(derivative_rows(coeffs, halfwidths, nu)).sum(axis=1))
    return ok


@dataclass(frozen=True)
class PiecewisePoly:
    """Knot vector plus one polynomial piece per interval: row i of ``coeffs``
    ascends in u = (x - centers[i]) / halfwidths[i].

    ``order``, the number of columns, is the usual spline order: maximal piece
    degree plus one.  ``convex_certified`` is only set by constructions whose
    spline passed :func:`verify_convexity`.
    """

    knots: np.ndarray
    coeffs: np.ndarray
    centers: np.ndarray
    halfwidths: np.ndarray
    convex_certified: bool = False

    def __post_init__(self):
        names = ("knots", "coeffs", "centers", "halfwidths")
        ks, C, c, w = arrays = [np.array(getattr(self, name), dtype=float) for name in names]
        if ks.ndim != 1 or ks.size < 2:
            raise ValueError("need at least two knots")
        if not (np.all(np.isfinite(ks)) and np.all(np.diff(ks) > 0)):
            raise ValueError("knots must be finite and strictly increasing")
        n = ks.size - 1
        if C.ndim != 2 or C.shape[1] == 0 or (C.shape[0], c.shape, w.shape) != (n, (n,), (n,)):
            raise ValueError("need exactly one piece per interval")
        ok = _finite_rows(C, c, w)
        if not ok.all():
            raise ValueError(f"piece {np.argmin(ok)} has a non-finite value or a halfwidth <= 0 "
                             "(the sums of |coefficients| of p, p' and p'' must be finite)")
        for name, value in zip(names, arrays):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def certified(self) -> "PiecewisePoly":
        """A copy with ``convex_certified`` set, sharing the validated
        read-only arrays instead of checking them again."""
        out = object.__new__(type(self))
        vars(out).update(vars(self), convex_certified=True)  # no __init__, no checks
        return out

    @property
    def order(self) -> int:
        return self.coeffs.shape[1]

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

    def _eval(self, j, x, nu: int = 0):
        """The nu-th derivative of piece j[i] at x[i], for indices and points
        of one shape."""
        rows = derivative_rows(self.coeffs[j], self.halfwidths[j], nu)
        return horner_rows(rows, (x - self.centers[j]) / self.halfwidths[j])

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        out = self._eval(self.piece_index(xs), xs)
        return float(out) if xs.ndim == 0 else out

    def deriv_value(self, x: float, nu: int = 1, side: str = "+") -> float:
        """One-sided derivative at x: side picks the piece when x is a knot."""
        x = float(x)
        j = int(self.piece_index(x))
        k = np.searchsorted(self.knots, x)
        if k < self.knots.size and self.knots[k] == x:
            j = min(int(k), self.n - 1) if side == "+" else max(int(k) - 1, 0)
        return float(self._eval(j, x, nu))

    def value_scale(self) -> float:
        mids = 0.5 * (self.knots[:-1] + self.knots[1:])
        return 1.0 + float(np.max(np.abs(self._eval(np.arange(self.n), mids))))

    def _knot_values(self, nu: int) -> np.ndarray:
        """(left piece, right piece) nu-th derivatives at each interior knot."""
        x = self.knots[1:-1]
        j = np.arange(1, self.n)
        return np.stack([self._eval(j - 1, x, nu), self._eval(j, x, nu)], axis=1)

    def continuity_defects(self) -> np.ndarray:
        """|left piece - right piece| at each interior knot."""
        left, right = self._knot_values(0).T
        return np.abs(left - right)

    def is_continuous(self, rel_tol: float = 1e-9) -> bool:
        return bool(np.all(self.continuity_defects() <= rel_tol * self.value_scale()))

    def knot_slopes(self) -> np.ndarray:
        """(left slope, right slope) at each interior knot, shape (n - 1, 2)."""
        return self._knot_values(1)

    def piece_certificates(self) -> tuple:
        """The arrays (convex, minimum, witness) of every row's certificate
        over its own interval."""
        return convexity_certificates(
            self.coeffs, self.centers, self.halfwidths, self.knots[:-1], self.knots[1:])

    def slope_scale(self) -> float:
        return 1.0 + float(np.max(np.abs(self.knot_slopes()), initial=0.0))

    def to_json_dict(self) -> dict:
        return {
            "knots": self.knots.tolist(),
            "order": self.order,
            "pieces": [{"center": c, "halfwidth": w, "coeffs": cs} for c, w, cs in
                       zip(self.centers.tolist(), self.halfwidths.tolist(), self.coeffs.tolist())],
            "convex_certified": bool(self.convex_certified),
        }

    def to_json_text(self, extra: dict) -> str:
        """``json.dumps({**self.to_json_dict(), **extra}, indent=2)``, byte
        for byte, for an ``extra`` whose keys are not ``knots``, ``order`` or
        ``pieces``.  The arrays are written through one fixed template, as
        json's indented encoder is pure Python; every value in them is a
        finite float (``__post_init__``), whose JSON text is its repr."""
        knots = ",\n    ".join(map(float.__repr__, self.knots.tolist()))
        piece = ('    {\n      "center": %r,\n      "halfwidth": %r,\n      "coeffs": [\n        '
                 + ",\n        ".join(["%r"] * self.order) + "\n      ]\n    }")
        rows = np.column_stack((self.centers, self.halfwidths, self.coeffs)).tolist()
        pieces = ",\n".join([piece % tuple(row) for row in rows])
        tail = json.dumps({"convex_certified": bool(self.convex_certified), **extra}, indent=2)
        return (f'{{\n  "knots": [\n    {knots}\n  ],\n  "order": {self.order},\n'
                f'  "pieces": [\n{pieces}\n  ],{tail[1:]}')

    @staticmethod
    def from_json_dict(d: dict) -> "PiecewisePoly":
        """The spline of a JSON dict, each row zero-padded to ``order``
        columns, as older files hold rows shorter than the order.  ``order``
        must be a whole number, ``convex_certified`` true or false, and every
        knot, coefficient, center and halfwidth a JSON number: a string such
        as "-1.0", or a boolean, is refused, not parsed."""
        pieces, order, certified = d["pieces"], d["order"], d.get("convex_certified", False)
        _numbers("knots", d["knots"])
        for j, q in enumerate(pieces):
            _numbers(f"piece {j} coeffs", q["coeffs"])
            _numbers(f"piece {j} center and halfwidth", [q["center"], q["halfwidth"]])
        if isinstance(order, bool) or not (isinstance(order, int)
                                           or isinstance(order, float) and order.is_integer()):
            raise ValueError(f"order must be a whole number, got {order!r}")
        if not isinstance(certified, bool):
            raise ValueError(f"convex_certified must be true or false, got {certified!r}")
        order = int(order)
        lengths = np.array([len(q["coeffs"]) for q in pieces], dtype=int).reshape(-1, 1)
        if np.any(lengths == 0):
            raise ValueError("coeffs must be non-empty")
        if np.any(lengths > order):
            raise ValueError("piece degree exceeds declared order")
        coeffs = np.zeros((len(pieces), order))
        coeffs[np.arange(order) < lengths] = [c for q in pieces for c in q["coeffs"]]
        return PiecewisePoly(d["knots"], coeffs, [q["center"] for q in pieces],
                             [q["halfwidth"] for q in pieces],
                             convex_certified=certified)


@dataclass(frozen=True)
class ConvexityReport:
    convex: bool
    continuous: bool
    slopes_ok: bool
    offending_pieces: list
    piece_min_second_derivative: np.ndarray  # each piece's certified minimum of p''

    to_json_dict = record_json_dict


def verify_convexity(S: PiecewisePoly) -> ConvexityReport:
    """The whole-spline convexity check: :func:`_convexity_reports` of one."""
    return _convexity_reports([S])[0]


def _convexity_reports(splines) -> list:
    """The report of each spline, all of one order: continuity at relative
    tolerance 1e-9, exact per-piece certificates, and one-sided slopes
    nondecreasing along the knots up to 1e-9 * (1 + max |slope|), each from
    the spline's own maxima; all rows in one certificate call, one
    evaluation of p at both ends and middles and one of p' at both ends."""
    ns = np.array([S.n for S in splines])
    ends = np.cumsum(ns)
    rows = [(S.coeffs, S.centers, S.halfwidths, S.knots[:-1], S.knots[1:]) for S in splines]
    C, centers, w, a, b = rows[0] if len(rows) == 1 else map(np.concatenate, zip(*rows))
    convex, minimum, _ = convexity_certificates(C, centers, w, a, b)
    u = (np.stack([a, 0.5 * (a + b), b], axis=1) - centers[:, None]) / w[:, None]
    values = horner_rows(C[:, None, :], u)
    slopes = horner_rows(derivative_rows(C, w)[:, None, :], u[:, ::2])
    left = np.delete(np.arange(ends[-1]), ends - 1)  # the piece left of each interior knot
    owner = np.repeat(np.arange(ns.size), ns - 1)  # the spline of each interior knot
    scale = 1.0 + np.maximum.reduceat(np.abs(values[:, 1]), ends - ns)
    jumps = owner[~(np.abs(values[left, 2] - values[left + 1, 0]) <= 1e-9 * scale[owner])]
    flat = np.stack([slopes[left, 1], slopes[left + 1, 0]], axis=1).ravel()
    pairs = np.repeat(owner, 2)
    peak = np.zeros(ns.size)
    np.maximum.at(peak, pairs, np.abs(flat))
    drops = pairs[1:][(pairs[1:] == pairs[:-1])
                      & ~(flat[1:] >= flat[:-1] - 1e-9 * (1.0 + peak[pairs[1:]]))]
    continuous, slopes_ok = (np.bincount(bad, minlength=ns.size) == 0 for bad in (jumps, drops))
    offending = [np.flatnonzero(~ok).tolist() for ok in np.split(convex, ends[:-1])]
    return [ConvexityReport(joined and not bad and rising, joined, rising, bad, low) for
            joined, rising, bad, low in zip(continuous.tolist(), slopes_ok.tolist(), offending,
                                             np.split(minimum, ends[:-1]))]
