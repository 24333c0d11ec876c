"""Numerical certification: pointwise bound reports, convexity verification,
n-sweeps, and the arithmetic witnesses behind the impossibility results.

Every estimate is checked as a ratio |f - S| / bound on a fixed grid.  The
moduli in denominators are certified lower bounds, read from a
``ModulusProfile`` built over exactly the steps the grid queries, so ratios
over-estimate conservatively; points where either side sits below the float
noise floor are excluded and reported as satisfied-degenerate.  Bounds 2.3,
2.4 and 2.5 share one code path driven by a table of (order, step, weight).
Bound 2.13 reads every knot interval's term, the two end terms included,
from ``modulus_lower_bounds``: one lattice of ``density`` steps per interval,
evaluated in blocks of intervals, so each grid point's bound is a gather.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass

import numpy as np

from convexlab.domain import ConvexOracle, chebyshev_partition, phi
from convexlab.glue import (
    DEFAULT_C0,
    _check_chebyshev_domain,
    _construct_chebyshev,
    _prepare,
    _threshold,
    chebyshev_threshold,
)
from convexlab.piecewise import ConvexityReport, PiecewisePoly, verify_convexity
from convexlab.smoothness import ModulusProfile, modulus_lower_bounds

__all__ = [
    "BOUND_IDS",
    "MismatchedInputs",
    "BoundReport",
    "ConvexityReport",
    "CounterexampleWitness",
    "SweepTable",
    "verify_convexity",
    "pointwise_bound_report",
    "sweep",
    "counterexample_witness",
    "polynomial_counterexample",
    "threshold_growth",
]

BOUND_IDS = ("2.3", "2.4", "2.5", "2.11", "2.12", "2.13")

CERTIFICATION_DENSITY = 2048
DEFAULT_GRID_SIZE = 257
DENOM_FLOOR = 1e-300
ATOL_REL = 1e-10      # bound-zero exclusion threshold, relative to the value scale
NOISE_REL = 1e-13     # below this the error is float noise and cannot be ratioed


class MismatchedInputs(ValueError):
    """The spline was not built for the (function, r, n) being certified."""


@dataclass(frozen=True)
class BoundReport:
    bound_id: str
    grid: list            # rows (x, |f-S|(x), bound(x), ratio)
    sup_ratio: float
    excluded_points: list  # rows (x, |f-S|(x)), satisfied-degenerate

    def to_json_dict(self) -> dict:
        return {
            "bound_id": self.bound_id,
            "grid": [list(row) for row in self.grid],
            "sup_ratio": self.sup_ratio,
            "excluded_points": [list(row) for row in self.excluded_points],
        }


def _open_chebyshev(lo: float, hi: float, m: int) -> np.ndarray:
    j = np.arange(1, m + 1)
    return 0.5 * (lo + hi) - 0.5 * (hi - lo) * np.cos(np.pi * j / (m + 1))


def _strip_grid(n: int, m: int) -> np.ndarray:
    """Points in [-1, -1+n^-2] u [1-n^-2, 1], open at the exact endpoints."""
    w = 1.0 / (n * n)
    half = max(m // 2, 8)
    left = _open_chebyshev(-1.0, -1.0 + w, half)
    right = _open_chebyshev(1.0 - w, 1.0, half)
    return np.concatenate([left, right])


# bound id -> (k, t(x), weight(x, t)) for the bounds weight * omega_k(f^(r), t)
# on [-1, 1]; 2.3 is sampled over the whole interval, 2.4 and 2.5 on the strips
_PROFILE_BOUNDS = {
    "2.3": (2, lambda x, n: phi(x) / n, lambda x, t, r: t ** r),
    "2.4": (2, lambda x, n: phi(x) / n, lambda x, t, r: phi(x) ** (2 * r)),
    "2.5": (1, lambda x, n: phi(x) ** 2, lambda x, t, r: phi(x) ** (2 * r)),
}


def _assemble_report(bound_id, xs, errs, bounds, scale) -> BoundReport:
    atol = ATOL_REL * scale
    noise = NOISE_REL * scale
    rows, excluded = [], []
    sup_ratio = 0.0
    for x, err, bnd in zip(xs, errs, bounds):
        x, err, bnd = float(x), float(err), float(bnd)
        if err <= noise or (bnd <= DENOM_FLOOR and err <= atol):
            excluded.append((x, err))
            continue
        ratio = err / max(bnd, DENOM_FLOOR)
        rows.append((x, err, bnd, ratio))
        sup_ratio = max(sup_ratio, ratio)
    return BoundReport(bound_id, rows, sup_ratio, excluded)


def pointwise_bound_report(f: ConvexOracle, S: PiecewisePoly, r: int, n: int,
                           bound_id: str, grid_size: int = DEFAULT_GRID_SIZE,
                           density: int = CERTIFICATION_DENSITY) -> BoundReport:
    """Evaluate one pointwise estimate as |f-S| / bound over its own region.

    Interior bounds use the full interval, the endpoint variants are
    restricted to the strips of width n^-2, and the per-interval forms to the
    first/last/interior intervals respectively.  Exact endpoints, where both
    sides vanish by interpolation, are excluded up front.
    """
    if bound_id not in BOUND_IDS:
        raise ValueError(f"unknown bound id {bound_id!r}; choose from {BOUND_IDS}")
    if grid_size < 1:
        raise ValueError(f"grid_size must be >= 1, got {grid_size}")
    expected = chebyshev_partition(n)
    if S.knots.size != expected.knots.size or \
            not np.allclose(S.knots, expected.knots, atol=1e-12, rtol=0):
        raise MismatchedInputs(f"spline knots are not the n={n} Chebyshev partition")

    fr = f.deriv_fn(r)
    kinks = tuple(f.nonsmooth)
    knots = S.knots
    x1 = float(knots[1])
    xn1 = float(knots[-2])

    def densify(xs, lo, hi):
        # a kink interval's worst error can peak between coarse grid points;
        # add a dense window spanning a few mesh lengths around each kink
        extra = []
        for p in kinks:
            w = 3.0 * math.pi * max(phi(p), 1.0 / n) / n
            wlo, whi = max(lo, p - w), min(hi, p + w)
            if whi > wlo:
                extra.append(np.linspace(wlo, whi, 65))
        if not extra:
            return xs
        return np.sort(np.concatenate([xs] + extra))

    if bound_id in _PROFILE_BOUNDS:
        k, step, weight = _PROFILE_BOUNDS[bound_id]
        if bound_id == "2.3":
            xs = densify(_open_chebyshev(-1.0, 1.0, grid_size), -1.0, 1.0)
        else:
            xs = _strip_grid(n, grid_size)
        ts = step(xs, n)
        prof = ModulusProfile(fr, k, (-1.0, 1.0), ts, grid=density, focus=kinks)
        bounds = weight(xs, ts, r) * prof.value(ts)
    elif bound_id in ("2.11", "2.12"):
        lo, hi = (-1.0, x1) if bound_id == "2.11" else (xn1, 1.0)
        h = hi - lo
        xs = densify(_open_chebyshev(lo, hi, grid_size), lo, hi)
        d = xs - lo if bound_id == "2.11" else hi - xs
        t2 = np.sqrt(d * h)
        om1 = ModulusProfile(fr, 1, (lo, hi), d, grid=density, focus=kinks)
        om2 = ModulusProfile(fr, 2, (lo, hi), t2, grid=density, focus=kinks)
        bounds = d ** r * np.minimum(om1.value(d), om2.value(t2))
    else:  # 2.13: interior intervals with the three-term right side
        # h_j^r omega_2(f^(r), h_j; I_j) for every knot interval, end terms
        # included, from one lattice per interval
        h = np.diff(knots)
        term = np.array([w ** r for w in h.tolist()]) * modulus_lower_bounds(
            fr, 2, h, np.column_stack([knots[:-1], knots[1:]]), grid=density)
        xs = densify(_open_chebyshev(x1, xn1, grid_size), x1, xn1)
        idx = np.clip(np.searchsorted(knots, xs, side="right") - 1, 1, n - 2)
        bounds = term[idx] + term[0] + term[-1]

    fx = np.asarray(f(xs), dtype=float)
    errs = np.abs(fx - S(xs))
    scale = 1.0 + float(np.max(np.abs(fx)))
    return _assemble_report(bound_id, xs, errs, bounds, scale)


@dataclass(frozen=True)
class SweepTable:
    function: str
    r: int
    n_threshold: int
    rows: list  # dicts: n, computed, sup ratios by bound id, wall_ms

    CSV_FIELDS = ("n", "N_threshold", "sup_ratio_2_3", "sup_ratio_2_4",
                  "sup_ratio_2_5", "sup_ratio_2_11", "sup_ratio_2_12",
                  "sup_ratio_2_13", "wall_ms")

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(self.CSV_FIELDS)
        for row in self.rows:
            if row["computed"]:
                cells = [row["n"], self.n_threshold]
                cells += [repr(row["sup_ratio"][b]) for b in BOUND_IDS]
                cells.append(row["wall_ms"])
            else:
                cells = [row["n"], self.n_threshold] + [""] * len(BOUND_IDS) + [0]
            w.writerow(cells)
        return buf.getvalue()


def sweep(f: ConvexOracle, r: int, n_list, grid_size: int = DEFAULT_GRID_SIZE,
          density: int = CERTIFICATION_DENSITY, timing: bool = False,
          c0: float | None = None) -> SweepTable:
    """One row per n: construction plus all six sup-ratios.

    Rows with n below the threshold are flagged, not computed.  Timing is off
    by default so repeated runs emit byte-identical CSV.  The threshold and
    every row share one preparation of (f, r, c0).
    """
    prep = _prepare(f, r, DEFAULT_C0 if c0 is None else c0)
    n_threshold, _ = _threshold(prep)
    rows = []
    for n in n_list:
        n = int(n)
        if n < n_threshold:
            rows.append({"n": n, "computed": False, "sup_ratio": {}, "wall_ms": 0})
            continue
        t0 = time.perf_counter()
        _check_chebyshev_domain(f)
        S, trace, _ = _construct_chebyshev(prep, f, r, n)
        ratios = {b: pointwise_bound_report(f, S, r, n, b, grid_size, density).sup_ratio
                  for b in BOUND_IDS}
        wall = int(round(1e3 * (time.perf_counter() - t0))) if timing else 0
        rows.append({"n": n, "computed": True, "sup_ratio": ratios, "wall_ms": wall})
    return SweepTable(f.label(), r, n_threshold, rows)


@dataclass(frozen=True)
class CounterexampleWitness:
    """The Markov-inequality chain that rules out convex spline approximants
    with endpoint-forced interpolation when the corner is sharp enough."""

    r: int
    m: int
    x_last: float
    epsilon: float
    markov_lhs: float       # (r+1) eps^r, the forced derivative at 1
    markov_rhs: float       # 2 (m-1)^2 / (1 - x_last) * eps^(r+1), the Markov cap
    contradiction: bool
    epsilon_threshold: float

    def to_json_dict(self) -> dict:
        return {
            "r": self.r, "m": self.m, "x_last": self.x_last,
            "epsilon": self.epsilon,
            "markov_lhs": self.markov_lhs, "markov_rhs": self.markov_rhs,
            "contradiction": self.contradiction,
            "epsilon_threshold": self.epsilon_threshold,
        }


def counterexample_witness(r: int, m: int, x_last: float,
                           epsilon="auto") -> CounterexampleWitness:
    """Certify the negative result for splines of order m on [x_last, 1].

    The forced data is s(1) = eps^(r+1), s'(1) = (r+1) eps^r with
    ||s|| = eps^(r+1) on the last interval; Markov caps s'(1) by
    2 (m-1)^2 / (1 - x_last) * eps^(r+1).  The chain contradicts itself
    exactly when eps < (r+1)(1 - x_last) / (2 (m-1)^2).
    """
    r, m = int(r), int(m)
    x_last = float(x_last)
    if r < 1 or m < 2:
        raise ValueError(f"need r >= 1 and m >= 2 (order 1 has no derivative to force), "
                         f"got r={r}, m={m}")
    if not -1.0 < x_last < 1.0:
        raise ValueError("x_last must lie in (-1, 1)")
    markov_factor = 2.0 * (m - 1) ** 2 / (1.0 - x_last)
    threshold = (r + 1.0) / markov_factor
    eps = 0.5 * threshold if epsilon == "auto" else float(epsilon)
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"epsilon must be finite and positive, got {eps}")
    lhs = (r + 1.0) * eps ** r
    rhs = markov_factor * eps ** (r + 1)
    return CounterexampleWitness(
        r=r, m=m, x_last=x_last, epsilon=eps,
        markov_lhs=lhs, markov_rhs=rhs,
        contradiction=bool(eps < threshold),
        epsilon_threshold=threshold,
    )


def polynomial_counterexample(r: int, n: int) -> dict:
    """Degree-n polynomial variant: with eps = n^-2 the forced derivative
    exceeds the Markov cap n^2 ||s|| by the factor r+1 for every n."""
    r, n = int(r), int(n)
    if r < 1 or n < 1:
        raise ValueError("need r, n >= 1")
    eps = 1.0 / (n * n)
    lhs = (r + 1.0) * eps ** r
    rhs = n * n * eps ** (r + 1)
    return {"r": r, "n": n, "epsilon": eps, "markov_lhs": lhs,
            "markov_rhs": rhs, "ratio": lhs / rhs}


def threshold_growth(r: int, eps_list, c0: float | None = None) -> dict:
    """N_threshold of the truncated-power family as the corner parameter
    sharpens; the column must be nondecreasing as eps decreases."""
    from convexlab.domain import truncpow_oracle

    eps_list = [float(e) for e in eps_list]
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    kwargs = {} if c0 is None else {"c0": c0}
    rows = []
    for eps in eps_list:
        n_thr, h = chebyshev_threshold(truncpow_oracle(r, eps), r, **kwargs)
        rows.append({"eps": eps, "N_threshold": n_thr, "H": h})
    col = [row["N_threshold"] for row in rows]
    return {
        "family": "truncpow",
        "r": r,
        "rows": rows,
        "nondecreasing": all(b >= a for a, b in zip(col, col[1:])),
    }
