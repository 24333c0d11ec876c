"""Polynomial pieces in local (center, halfwidth) coordinates.

A piece is a coefficient row with its center and halfwidth: the
coefficients ascend in the variable u = (x - center) / halfwidth, so that u
runs over [-1, 1] on the piece's own interval.  Keeping each piece in its
own frame keeps every row uniformly conditioned on the very short end
intervals of Chebyshev partitions, where global monomials are hopeless for
moderate n.  The confluent divided differences of
:func:`hermite_interpolant` have no caller in the construction; they stay
for the tests and profilers that call the function by name.

Many pieces at once are a zero-padded (k, order) matrix of such
coefficients with their centers and halfwidths; the row functions and the
convexity certificate work on all rows in one array pass.  The certificate
takes the candidate minimizers of p'' from the companion-matrix eigenvalues
of p''' (Edelman and Murakami, Math. Comp. 64, 1995).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvexityCertificate",
    "DegenerateNodes",
    "IllConditioned",
    "hermite_interpolant",
    "convexity_certificate",
    "convexity_certificates",
    "derivative_rows",
    "horner_rows",
]


class DegenerateNodes(ValueError):
    """Two interpolation abscissae coincide."""


class IllConditioned(ArithmeticError):
    """The divided-difference table produced non-finite entries."""


@dataclass(frozen=True)
class ConvexityCertificate:
    """Outcome of exact second-derivative minimization over an interval."""

    convex: bool
    min_second_derivative: float
    witness_x: float


def hermite_interpolant(nodes) -> tuple:
    """Confluent (Lagrange-Hermite) interpolation by Newton divided differences.

    ``nodes`` is a sequence of ``(x, derivatives)`` pairs where ``derivatives``
    lists the prescribed value and consecutive derivatives at ``x``.  Returns
    (center, halfwidth, coeffs): the unique polynomial of degree <= m-1
    (m = total condition count) as its row in local coordinates centered at
    the node-span midpoint.

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
    return center, halfwidth, coeffs


def derivative_rows(coeffs: np.ndarray, halfwidths, nu: int = 1) -> np.ndarray:
    """The nu-th x-derivative of every row of ascending local coefficients,
    (i*c)/w per step; one column narrower per step, never narrower than one."""
    w = np.asarray(halfwidths, dtype=float)[..., None]
    for _ in range(nu):
        if coeffs.shape[-1] == 1:
            coeffs = np.zeros_like(coeffs)
        else:
            coeffs = (np.arange(1.0, coeffs.shape[-1]) * coeffs[..., 1:]) / w
    return coeffs


def horner_rows(coeffs: np.ndarray, u) -> np.ndarray:
    """Every row of ascending coefficients evaluated at its own u, which
    broadcasts against coeffs[..., 0].  Zero padding in the high columns is
    exact, since 0*u + c == c for finite u."""
    acc = coeffs[..., -1] * np.ones_like(u)
    for j in range(coeffs.shape[-1] - 2, -1, -1):
        acc = acc * u + coeffs[..., j]
    return acc


def _roots_in(d3: np.ndarray, center, w, a, b) -> np.ndarray:
    """Real parts of the roots of each row of d3 in [a, b], up to a relative
    slack of 1e-12 and clamped into it, ascending and +inf padded: companion
    eigenvalues, one stacked call per degree.  Terms below 1e-8 of the largest
    on [a, b] are dropped; the far roots they add would swamp the near ones."""
    umax = np.maximum(np.abs(a - center), np.abs(b - center)) / w
    size = np.abs(d3) * umax[:, None] ** np.arange(d3.shape[1])
    kept = size > 1e-8 * np.max(size, axis=1, keepdims=True)
    degree = np.where(kept.any(axis=1), d3.shape[1] - 1 - np.argmax(kept[:, ::-1], axis=1), 0)
    roots = np.full((d3.shape[0], int(degree.max(initial=0))), np.inf)
    lo = a - 1e-12 * (1 + np.abs(a))
    hi = b + 1e-12 * (1 + np.abs(b))
    for e in np.unique(degree[degree > 0]):
        rows = np.flatnonzero(degree == e)
        companion = np.zeros((rows.size, e, e))
        companion[:, np.arange(1, e), np.arange(e - 1)] = 1.0
        companion[:, :, -1] = -d3[rows, :e] / d3[rows, e, None]
        x = center[rows, None] + w[rows, None] * np.linalg.eigvals(companion).real
        inside = (x >= lo[rows, None]) & (x <= hi[rows, None])
        clamped = np.minimum(np.maximum(x, a[rows, None]), b[rows, None])
        roots[rows, :e] = np.where(inside, clamped, np.inf)
    return np.sort(roots, axis=1)


def convexity_certificates(coeffs, centers, halfwidths, a, b) -> tuple:
    """Exact global minimum of p'' over [a[i], b[i]] for every row p of a
    zero-padded (k, order) matrix of local coefficients, with a relative
    rounding slack.  Returns the arrays (convex, minimum, witness).

    Candidate minimizers are the interval ends plus every real root of p'''
    inside; the first minimum among [a, b, roots ascending] is the witness.
    A row whose p'' vanishes identically is convex with minimum 0 at a.
    """
    C = np.atleast_2d(np.asarray(coeffs, dtype=float))
    center, w, a, b = (np.atleast_1d(np.asarray(v, dtype=float))
                       for v in (centers, halfwidths, a, b))
    bad = np.flatnonzero(~(a < b))
    if bad.size:
        raise ValueError(f"need a < b, got [{a[bad[0]]}, {b[bad[0]]}]")
    with np.errstate(over="ignore"):  # a steep row's p'' and p''' may read inf
        d2 = derivative_rows(C, w, 2)
        d3 = derivative_rows(d2, w)
    # where p''' overflows though p'' does not (a finite entry of d2 gives an
    # infinite one of d3), d/du p'' has the same roots and does not divide by
    # w; decided row by row, so no row's certificate depends on the others
    over = np.any(np.isfinite(d2[:, 1:]) & np.isinf(d3), axis=1)
    if np.any(over):
        d3[over] = derivative_rows(d2[over], np.ones(int(np.sum(over))))
    candidates = np.concatenate([a[:, None], b[:, None], _roots_in(d3, center, w, a, b)],
                                axis=1)
    valid = np.isfinite(candidates)
    u = (np.where(valid, candidates, a[:, None]) - center[:, None]) / w[:, None]
    vals = np.where(valid, horner_rows(d2[:, None, :], u), np.inf)
    first = np.argmin(vals, axis=1)
    rows = np.arange(C.shape[0])
    minimum, witness = vals[rows, first], candidates[rows, first]
    tol = 1e-9 * (1.0 + np.max(np.where(valid, np.abs(vals), 0.0), axis=1))
    convex = minimum >= -tol
    flat = ~np.any(d2 != 0.0, axis=1)
    convex[flat], minimum[flat], witness[flat] = True, 0.0, a[flat]
    return convex, minimum, witness


def convexity_certificate(p, interval) -> ConvexityCertificate:
    """The one-piece case of :func:`convexity_certificates`, for any piece p
    with ``coeffs``, ``center`` and ``halfwidth``."""
    convex, minimum, witness = convexity_certificates(
        [p.coeffs], [p.center], [p.halfwidth], [interval[0]], [interval[1]])
    return ConvexityCertificate(bool(convex[0]), float(minimum[0]), float(witness[0]))
