"""Polynomial pieces in local (center, halfwidth) coordinates.

Every piece stores its coefficients ascending in the variable
u = (x - center) / halfwidth, so that u runs over [-1, 1] on the piece's
own interval.  Keeping each piece in its own frame keeps divided
differences and the minimax LP uniformly conditioned on the very short
end intervals of Chebyshev partitions, where global monomials are
hopeless for moderate n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Poly",
    "ConvexityCertificate",
    "DegenerateNodes",
    "IllConditioned",
    "hermite_interpolant",
    "convexity_certificate",
    "line_poly",
]


class DegenerateNodes(ValueError):
    """Two interpolation abscissae coincide."""


class IllConditioned(ArithmeticError):
    """The divided-difference table produced non-finite entries."""


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

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        """Horner evaluation at x (scalar or ndarray)."""
        u = (np.asarray(x, dtype=float) - self.center) / self.halfwidth
        acc = np.full_like(u, self.coeffs[-1])
        for c in self.coeffs[-2::-1]:
            acc = acc * u + c
        if np.ndim(x) == 0:
            return float(acc)
        return acc

    def derivative(self) -> "Poly":
        """d/dx, with the 1/halfwidth chain-rule factor applied."""
        if self.degree == 0:
            return Poly(self.center, self.halfwidth, (0.0,))
        cs = tuple(i * c / self.halfwidth for i, c in enumerate(self.coeffs) if i >= 1)
        return Poly(self.center, self.halfwidth, cs)

    def antiderivative(self, x0: float, y0: float) -> "Poly":
        """The antiderivative q with q' = self and q(x0) = y0."""
        cs = [0.0] + [self.halfwidth * c / (i + 1) for i, c in enumerate(self.coeffs)]
        q = Poly(self.center, self.halfwidth, cs)
        return Poly(self.center, self.halfwidth, (cs[0] + (y0 - q(x0)),) + tuple(cs[1:]))

    def deriv_value(self, x, nu: int = 1):
        p = self
        for _ in range(nu):
            p = p.derivative()
        return p(x)

    def scaled(self, alpha: float) -> "Poly":
        return Poly(self.center, self.halfwidth, tuple(alpha * c for c in self.coeffs))

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

    def monomial_coeffs(self) -> np.ndarray:
        """Global monomial coefficients (ascending in x); for tests and I/O checks."""
        # compose with u = (x - c)/w by multiply-accumulate
        lin = np.array([-self.center / self.halfwidth, 1.0 / self.halfwidth])
        acc = np.array([self.coeffs[-1]])
        for c in self.coeffs[-2::-1]:
            acc = np.polynomial.polynomial.polymul(acc, lin)
            acc[0] += c
        return acc

    def to_json_dict(self) -> dict:
        return {
            "center": self.center,
            "halfwidth": self.halfwidth,
            "coeffs": list(self.coeffs),
        }

    @staticmethod
    def from_json_dict(d: dict) -> "Poly":
        return Poly(d["center"], d["halfwidth"], tuple(d["coeffs"]))


def line_poly(slope: float, intercept: float, center: float, halfwidth: float) -> Poly:
    """The line slope*x + intercept expressed in the given local frame."""
    return Poly(center, halfwidth, (intercept + slope * center, slope * halfwidth))


@dataclass(frozen=True)
class ConvexityCertificate:
    """Outcome of exact second-derivative minimization over an interval."""

    convex: bool
    min_second_derivative: float
    witness_x: float


def hermite_interpolant(nodes) -> Poly:
    """Confluent (Lagrange-Hermite) interpolation by Newton divided differences.

    ``nodes`` is a sequence of ``(x, derivatives)`` pairs where ``derivatives``
    lists the prescribed value and consecutive derivatives at ``x``.  Returns
    the unique polynomial of degree <= m-1 (m = total condition count) in
    local coordinates centered at the node-span midpoint.

    Raises :class:`DegenerateNodes` if two abscissae coincide and
    :class:`IllConditioned` if the table degenerates numerically.
    """
    nodes = [(float(x), [float(v) for v in vals]) for x, vals in nodes]
    if not nodes or any(len(vals) == 0 for _, vals in nodes):
        raise ValueError("each node needs at least one prescribed value")
    xs = [x for x, _ in nodes]
    if len(set(xs)) != len(xs):
        raise DegenerateNodes(f"repeated abscissae in {xs}")

    z = []           # abscissa repeated per condition
    node_of = []     # index into nodes
    for idx, (x, vals) in enumerate(nodes):
        z.extend([x] * len(vals))
        node_of.extend([idx] * len(vals))
    m = len(z)

    # Q[i][j]: divided difference over z[i..i+j]; confluent entries are exact
    # Taylor coefficients f^{(j)}(x)/j!, no subtraction involved.
    Q = [[0.0] * m for _ in range(m)]
    for i in range(m):
        Q[i][0] = nodes[node_of[i]][1][0]
    fact = 1.0
    for j in range(1, m):
        fact *= j
        for i in range(m - j):
            if z[i + j] == z[i]:
                Q[i][j] = nodes[node_of[i]][1][j] / fact
            else:
                Q[i][j] = (Q[i + 1][j - 1] - Q[i][j - 1]) / (z[i + j] - z[i])
            if not math.isfinite(Q[i][j]):
                raise IllConditioned("divided-difference table is non-finite")

    lo, hi = min(xs), max(xs)
    center = 0.5 * (lo + hi)
    halfwidth = 0.5 * (hi - lo) if hi > lo else 1.0

    # Newton form -> ascending coefficients in u, via multiply-accumulate with
    # the exact local representation of (x - z_k).
    coeffs = np.array([Q[0][m - 1]])
    for k in range(m - 2, -1, -1):
        factor = np.array([center - z[k], halfwidth])
        coeffs = np.polynomial.polynomial.polymul(coeffs, factor)
        coeffs[0] += Q[0][k]
    return Poly(center, halfwidth, tuple(coeffs))


def _effective_coeffs(p: Poly) -> tuple:
    cs = list(p.coeffs)
    while len(cs) > 1 and cs[-1] == 0.0:
        cs.pop()
    return tuple(cs)


def _quadratic_roots(c0: float, c1: float, c2: float) -> list:
    if c2 == 0.0:
        return [] if c1 == 0.0 else [-c0 / c1]
    disc = c1 * c1 - 4.0 * c0 * c2
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    # numerically stable form avoiding cancellation
    q = -0.5 * (c1 + math.copysign(sq, c1)) if c1 != 0.0 else 0.5 * sq
    roots = []
    if q != 0.0:
        roots = [q / c2, c0 / q]
    else:
        roots = [0.0] if disc == 0.0 else [sq / (2 * c2), -sq / (2 * c2)]
    return roots


def _coeff_bound(p: Poly, a: float, b: float) -> float:
    """Upper bound for max |p| over [a, b] from local coefficients."""
    ua = abs(a - p.center) / p.halfwidth
    ub = abs(b - p.center) / p.halfwidth
    umax = max(ua, ub)
    bound = 0.0
    for i, c in enumerate(p.coeffs):
        bound += abs(c) * umax ** i
    return bound


def _real_roots_in(p: Poly, a: float, b: float) -> list:
    """All sign-change roots of p in [a, b].

    Closed forms through quadratics; beyond that a bisection tree with a
    Lipschitz pruning bound on p' certifies subintervals free of roots.
    """
    cs = _effective_coeffs(p)
    deg = len(cs) - 1
    q = Poly(p.center, p.halfwidth, cs)
    if deg <= 0:
        return []
    if deg <= 2:
        roots_u = _quadratic_roots(*(list(cs) + [0.0] * (3 - len(cs)))[:3])
        out = []
        for ru in roots_u:
            x = q.center + q.halfwidth * ru
            if a - 1e-12 * (1 + abs(a)) <= x <= b + 1e-12 * (1 + abs(b)):
                out.append(min(max(x, a), b))
        return sorted(out)

    dq = q.derivative()
    xtol = 1e-14 * max(1.0, abs(a), abs(b))
    roots: list = []

    stack = [(a, b, q(a), q(b))]
    while stack:
        lo, hi, qlo, qhi = stack.pop()
        width = hi - lo
        sign_change = (qlo < 0.0) != (qhi < 0.0)
        if width < xtol or qlo == 0.0 == qhi:
            if sign_change:
                roots.append(0.5 * (lo + hi))
            continue
        mid = 0.5 * (lo + hi)
        qm = q(mid)
        # local Lipschitz certificate: the interval is root-free when |q(mid)|
        # clears the largest possible swing over either half
        if not sign_change and abs(qm) > _coeff_bound(dq, lo, hi) * 0.5 * width:
            continue
        stack.append((lo, mid, qlo, qm))
        stack.append((mid, hi, qm, qhi))

    roots.sort()
    dedup = []
    for rx in roots:
        if not dedup or rx - dedup[-1] > 10 * xtol:
            dedup.append(rx)
    return dedup


def convexity_certificate(p: Poly, interval) -> ConvexityCertificate:
    """Exact global minimum of p'' over [a, b], with a relative rounding slack.

    Candidate minimizers are the interval ends plus every sign-change root of
    p''' inside; tangential roots of p''' cannot host an interior extremum of
    p'' and need not be isolated.
    """
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    d2 = p.derivative().derivative()
    if all(c == 0.0 for c in _effective_coeffs(d2)):
        return ConvexityCertificate(True, 0.0, a)
    d3 = d2.derivative()
    candidates = [a, b] + _real_roots_in(d3, a, b)
    vals = [d2(x) for x in candidates]
    imin = int(np.argmin(vals))
    tol = 1e-9 * (1.0 + max(abs(v) for v in vals))
    return ConvexityCertificate(vals[imin] >= -tol, vals[imin], candidates[imin])
