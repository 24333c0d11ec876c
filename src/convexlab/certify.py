"""Numerical certification: pointwise bound reports, convexity verification,
n-sweeps, and the arithmetic witnesses behind the impossibility results.

Every estimate is checked as a ratio |f - S| / bound on a fixed grid, and
each modulus in a denominator is a lower bound of the exact one, so ratios
over-estimate.  Where the oracle's ``omega_enclosure`` has a lower end
(every builtin family but ``poly``), each modulus is that end: the exact
omega_k at one admissible step and center in closed form, less its proved
rounding slack, read at every point in one call.  Otherwise it is sampled:
a ``ModulusProfile`` built over the steps up to the largest one a kept
point queries for 2.3 to 2.12, and for 2.13 the term of every knot interval
that holds a kept point, and the two end terms, from
``modulus_lower_bounds``: one lattice of ``density`` steps per interval,
evaluated in blocks of intervals, so each grid point's bound is a gather.
Points where either side sits below the float noise floor are excluded and
reported as satisfied-degenerate.  The noise floor is applied before any
bound is computed, so a report whose every error is noise samples no
profile row.  Bounds 2.3, 2.4 and 2.5 share one code path driven by a table
of (order, step, weight).

A report and a sweep share one setup per bound: the grid, the errors, the
noise-floor mask, the weights and the steps each point reads.  A sweep writes
only the sup ratios, giving the same float as the report's ``sup_ratio``.
With the enclosure's lower ends it takes the report's own ratio rule over
every read point.  With sampled moduli it computes only what can move the
sup: its profiles take their steps, each point's rows and the running max
over them by ``ModulusProfile``'s own rules.  Each profile row and each
2.13 term starts as a lower bound, its own kernel on a few of its points
(``profile_probe``, ``lattice_probe``); exact rows are built in ascending
step order and exact terms for the intervals whose points have the largest
ratio bounds, until no point that still lacks one can beat the best exact
ratio.  Float *, +, min, max and / are monotone, so a bound built from
lower bounds caps the ratio it stands in for.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import time
from dataclasses import dataclass

import numpy as np

from convexlab.domain import ConvexOracle, chebyshev_partition, phi, truncpow_oracle
from convexlab.glue import (
    _check_chebyshev_domain,
    _construct_chebyshev,
    _prepare,
    _threshold,
    chebyshev_threshold,
)
from convexlab.piecewise import (ConvexityReport, PiecewisePoly, record_json_dict,
                                 verify_convexity)
from convexlab.smoothness import (ModulusProfile, _check_grid, _profile_steps, _running_max,
                                  _step_count, block_rows, lattice_probe, modulus_lower_bounds,
                                  profile_probe)

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
# knot intervals whose exact 2.13 terms a sweep builds per round, once the
# lattice probes leave them able to move the sup
TERM_BATCH = 8


class MismatchedInputs(ValueError):
    """The spline was not built for the (function, r, n) being certified."""


@dataclass(frozen=True)
class BoundReport:
    bound_id: str
    grid: np.ndarray             # (m, 4) rows (x, |f-S|(x), bound(x), ratio)
    sup_ratio: float
    excluded_points: np.ndarray  # (e, 2) rows (x, |f-S|(x)), satisfied-degenerate

    to_json_dict = record_json_dict


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


def _steps_read(steps: np.ndarray, read: np.ndarray) -> np.ndarray:
    """The steps a profile needs so that its value at every step of a read
    point is the full profile's: all steps up to the largest read one, and
    none when no point is read.  Each row is its own maximum and value(t) a
    running max over the rows at steps <= t, so the reads stay bit for bit."""
    return steps[steps <= np.max(steps[read], initial=-np.inf)]


@dataclass(frozen=True)
class _Setup:
    """One bound's grid and the parts of its bound, shared by the full report
    and the sweep's sup ratio.  At read point i the bound is weight[i] times
    the min over ``moduli`` (k, interval, step of every grid point) of the
    running max of the profile rows at steps <= the point's step; for 2.13
    (no moduli) it is term[idx[i]] + term[0] + term[-1], the knot-interval
    terms of ``_interval_terms``."""
    xs: np.ndarray
    errs: np.ndarray
    scale: float
    read: np.ndarray          # the points whose error is above the noise floor
    fr: object
    r: int
    kinks: tuple
    density: int
    knots: np.ndarray
    weight: np.ndarray | None = None  # at the read points
    moduli: tuple = ()
    idx: np.ndarray | None = None     # 2.13: the knot interval of each read point
    enclosure: object = None          # the oracle's omega_enclosure, or None

    def profile(self, k, interval, steps) -> ModulusProfile:
        return ModulusProfile(self.fr, k, interval, steps, grid=self.density, focus=self.kinks)


def _setup(f, S, r, n, bound_id, grid_size, density) -> _Setup:
    """Validate the inputs, lay out the bound's grid, evaluate |f - S| there
    and mark the points above the noise floor, whose bounds are read."""
    if bound_id not in BOUND_IDS:
        raise ValueError(f"unknown bound id {bound_id!r}; choose from {BOUND_IDS}")
    if grid_size < 1:
        raise ValueError(f"grid_size must be >= 1, got {grid_size}")
    density = _check_grid(density)
    _check_chebyshev_domain(f)
    expected = chebyshev_partition(n)
    if S.knots.size != expected.knots.size or \
            not np.allclose(S.knots, expected.knots, atol=1e-12, rtol=0):
        raise MismatchedInputs(f"spline knots are not the n={n} Chebyshev partition")

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
        moduli = ((k, (-1.0, 1.0), ts),)
        weights = weight(xs, ts, r)
    elif bound_id in ("2.11", "2.12"):
        lo, hi = (-1.0, x1) if bound_id == "2.11" else (xn1, 1.0)
        xs = densify(_open_chebyshev(lo, hi, grid_size), lo, hi)
        d = xs - lo if bound_id == "2.11" else hi - xs
        moduli = ((1, (lo, hi), d), (2, (lo, hi), np.sqrt(d * (hi - lo))))
        weights = d ** r
    else:  # 2.13: interior intervals with the three-term right side
        xs = densify(_open_chebyshev(x1, xn1, grid_size), x1, xn1)
        moduli = ()

    fx = np.asarray(f(xs), dtype=float)
    errs = np.abs(fx - S(xs))
    scale = 1.0 + float(np.max(np.abs(fx)))
    read = ~(errs <= NOISE_REL * scale)
    common = dict(xs=xs, errs=errs, scale=scale, read=read, fr=f.deriv_fn(r), r=r,
                  kinks=kinks, density=density, knots=knots, enclosure=f.omega_enclosure)
    if moduli:
        return _Setup(**common, weight=weights[read], moduli=moduli)
    idx = np.clip(np.searchsorted(knots, xs[read], side="right") - 1, 1, n - 2)
    return _Setup(**common, idx=idx)


def _interval_terms(s: _Setup, j: np.ndarray, bounds) -> np.ndarray:
    """h_j^r omega_2(f^(r), h_j; I_j) of the knot intervals j, omega_2 from
    one lattice of ``density`` steps per interval when ``bounds`` is
    ``modulus_lower_bounds``, and a lower bound of that term from three
    lattice points when it is ``lattice_probe``."""
    h = np.diff(s.knots)[j]
    return np.array([w ** s.r for w in h.tolist()]) * bounds(
        s.fr, 2, h, np.column_stack([s.knots[:-1], s.knots[1:]])[j], grid=s.density)


def _lower_ends(s: _Setup, k, ts, lo, hi):
    """The enclosure's lower ends of omega_k(f^(r), ts) on [lo, hi], None
    where the oracle has none; a ValueError where one overflows, as a sampled
    profile refuses non-finite differences."""
    low = None if s.enclosure is None else s.enclosure(k, s.r, ts, lo, hi)[0]
    if low is not None and np.isnan(low).any():
        raise ValueError(f"the order-{k} modulus of the oracle on "
                         f"[{float(np.min(lo))!r}, {float(np.max(hi))!r}] overflows")
    return low


def _closed_bounds(s: _Setup):
    """The bound at every read point from the enclosure's lower ends, or
    None where the oracle has none: the min over ``moduli`` of one call
    each, or the 2.13 terms of the knot intervals that hold a read point
    and of the two end intervals."""
    if s.moduli:
        lows = []
        for k, (lo, hi), steps in s.moduli:
            low = _lower_ends(s, k, steps[s.read], lo, hi)
            if low is None:
                return None
            lows.append(low)
        return s.weight * functools.reduce(np.minimum, lows)
    n = s.knots.size - 1
    need = np.unique(np.append(s.idx, (0, n - 1))) if s.idx.size else s.idx
    h = np.diff(s.knots)[need]
    low = _lower_ends(s, 2, h, s.knots[need], s.knots[need + 1])
    if low is None:
        return None
    term = np.zeros(n)
    term[need] = np.array([w ** s.r for w in h.tolist()]) * low
    return term[s.idx] + term[0] + term[-1]


def _bounds(s: _Setup) -> np.ndarray:
    """The bound at every read point: from the enclosure's lower ends where
    the oracle has them; else full profiles over the steps up to the largest
    read one, or the sampled term of every knot interval holding a read
    point and of the two end intervals, which every 2.13 bound adds."""
    closed = _closed_bounds(s)
    if closed is not None:
        return closed
    if s.moduli:
        return s.weight * functools.reduce(np.minimum, [
            s.profile(k, interval, _steps_read(steps, s.read)).value(steps[s.read])
            for k, interval, steps in s.moduli])
    n = s.knots.size - 1
    need = np.unique(np.append(s.idx, (0, n - 1))) if s.idx.size else s.idx
    term = np.zeros(n)
    term[need] = _interval_terms(s, need, modulus_lower_bounds)
    return term[s.idx] + term[0] + term[-1]


def _ratios(e, bounds, atol):
    """e / max(bounds, DENOM_FLOOR) at read points, and which of them are
    excluded as satisfied-degenerate: bound below DENOM_FLOOR and error below
    atol."""
    with np.errstate(all="ignore"):  # inf / inf is nan and overflow inf, as in floats
        return e / np.maximum(bounds, DENOM_FLOOR), (bounds <= DENOM_FLOOR) & (e <= atol)


def _assemble_report(bound_id: str, s: _Setup) -> BoundReport:
    """Exclude the points whose error is float noise, and those whose bound
    is below DENOM_FLOOR and error below ATOL_REL; ratio the rest.  A NaN
    error or bound is kept, and its NaN ratio is the sup."""
    bounds = np.zeros(s.xs.size)
    bounds[s.read] = _bounds(s)
    ratios, degenerate = _ratios(s.errs[s.read], bounds[s.read], ATOL_REL * s.scale)
    excluded = ~s.read
    excluded[s.read] = degenerate
    kept = ~excluded
    ratios = ratios[~degenerate]
    return BoundReport(bound_id,
                       np.column_stack([s.xs[kept], s.errs[kept], bounds[kept], ratios]),
                       float(np.max(ratios, initial=0.0)),
                       np.column_stack([s.xs[excluded], s.errs[excluded]]))


def pointwise_bound_report(f: ConvexOracle, S: PiecewisePoly, r: int, n: int,
                           bound_id: str, grid_size: int = DEFAULT_GRID_SIZE,
                           density: int = CERTIFICATION_DENSITY) -> BoundReport:
    """Evaluate one pointwise estimate as |f-S| / bound over its own region.

    Interior bounds use the full interval, the endpoint variants are
    restricted to the strips of width n^-2, and the per-interval forms to the
    first/last/interior intervals respectively.  Exact endpoints, where both
    sides vanish by interpolation, are excluded up front.  The error is
    evaluated first; the modulus layer is asked only for what the points
    above the noise floor read, so a noise point's bound is never computed.
    """
    return _assemble_report(bound_id, _setup(f, S, r, n, bound_id, grid_size, density))


def _settle(e, bounds, exact, atol):
    """The sup of the exact points' ratios, the ratios, and the points not
    yet exact whose ratio could exceed that sup.  ``bounds`` is exact where
    ``exact`` holds and a lower bound elsewhere, so the ratio there bounds the
    point's own from above: float *, +, min, max and / are monotone.  A point
    excluded under a zero bound never raises the sup."""
    ratios, degenerate = _ratios(e, bounds, atol)
    best = float(np.max(ratios[exact & ~degenerate], initial=0.0))
    return best, ratios, ~exact & ~(ratios <= best)  # a nan sup leaves every point open


@dataclass
class _Plan:
    """One profile of a sweep's bound: its steps, the index past the last step
    <= each read point's step, and its rows, exact below ``built``."""
    k: int
    interval: tuple
    us: np.ndarray
    at: np.ndarray
    rows: np.ndarray
    built: int = 0


def _profile_sup(s: _Setup, e: np.ndarray, atol: float) -> float:
    """Bounds 2.3 to 2.12: every profile row starts as its ``profile_probe``
    lower bound, and exact rows replace them in ascending step order.  Each
    round builds, per profile, at least one block and up to the smallest step
    that a point which can still beat the best exact ratio waits on.  A point
    is exact once every row at a step <= its own is built; before that the
    running max over exact and probed rows bounds its value from below."""
    per_block = block_rows(s.density, len(s.kinks))
    plans = []
    for k, interval, steps in s.moduli:
        us = _profile_steps(k, *interval, _steps_read(steps, s.read))
        at = _step_count(us, steps[s.read])
        plans.append(_Plan(k, interval, us, at, profile_probe(s.fr, k, interval, us, s.density)))
    while True:
        lows = [_running_max(p.rows)[p.at] for p in plans]
        bounds = s.weight * functools.reduce(np.minimum, lows)
        exact = np.all([p.at <= p.built for p in plans], axis=0)
        best, _, pending = _settle(e, bounds, exact, atol)
        if not pending.any():
            return best
        for p in plans:
            waits = pending & (p.at > p.built)
            if waits.any():
                stop = min(max(int(p.at[waits].min()), p.built + per_block), p.us.size)
                p.rows[p.built:stop] = s.profile(p.k, p.interval, p.us[p.built:stop]).rows
                p.built = stop


def _terms_sup(s: _Setup, e: np.ndarray, atol: float) -> float:
    """Bound 2.13: the end terms exactly, every other held interval's term
    from below by ``lattice_probe``, then exact terms, TERM_BATCH intervals
    at a time in decreasing order of their points' ratio bounds, until none
    can beat the best exact ratio."""
    n = s.knots.size - 1
    term = np.zeros(n)
    known = np.zeros(n, bool)
    ends = np.unique([0, n - 1])
    term[ends] = _interval_terms(s, ends, modulus_lower_bounds)
    known[ends] = True
    held = np.unique(s.idx[~known[s.idx]])
    term[held] = _interval_terms(s, held, lattice_probe)
    while True:
        best, ratios, pending = _settle(e, term[s.idx] + term[0] + term[-1], known[s.idx], atol)
        if not pending.any():
            return best
        order = s.idx[pending][np.argsort(-ratios[pending], kind="stable")]
        _, first = np.unique(order, return_index=True)
        batch = order[np.sort(first)][:TERM_BATCH]
        term[batch] = _interval_terms(s, batch, modulus_lower_bounds)
        known[batch] = True


def _sup_ratio(f, S, r, n, bound_id, grid_size, density) -> float:
    """``pointwise_bound_report(...).sup_ratio`` bit for bit, a NaN or inf
    error included: the report's ratio rule over the enclosure's lower ends
    where the oracle has them, else from only the sampled modulus rows and
    interval terms that can move it."""
    s = _setup(f, S, r, n, bound_id, grid_size, density)
    e = s.errs[s.read]
    if e.size == 0:
        return 0.0
    atol = ATOL_REL * s.scale
    closed = _closed_bounds(s)
    if closed is not None:
        ratios, degenerate = _ratios(e, closed, atol)
        return float(np.max(ratios[~degenerate], initial=0.0))
    return (_profile_sup if s.moduli else _terms_sup)(s, e, atol)


@dataclass(frozen=True)
class SweepTable:
    function: str
    r: int
    n_threshold: int
    rows: list  # dicts: n, computed, sup ratios by bound id, wall_ms

    CSV_FIELDS = ("n", "N_threshold",
                  *(f"sup_ratio_{b.replace('.', '_')}" for b in BOUND_IDS), "wall_ms")

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
          density: int = CERTIFICATION_DENSITY, timing: bool = False) -> SweepTable:
    """One row per n: construction plus all six sup-ratios, each the float
    ``pointwise_bound_report(...).sup_ratio`` gives, from only the modulus
    rows and interval terms that can move it.

    Rows with n below the threshold are flagged, not computed.  Timing is off
    by default so repeated runs emit byte-identical CSV.  The threshold and
    every row share one preparation of (f, r), made after the lattice checks.
    """
    if grid_size < 1:
        raise ValueError(f"grid_size must be >= 1, got {grid_size}")
    _check_grid(density)
    _check_chebyshev_domain(f)
    prep = _prepare(f, r)
    n_threshold, _ = _threshold(prep)
    rows = []
    for n in n_list:
        n = int(n)
        if n < n_threshold:
            rows.append({"n": n, "computed": False, "sup_ratio": {}, "wall_ms": 0})
            continue
        t0 = time.perf_counter()
        S, trace, _ = _construct_chebyshev(prep, f, r, n)
        ratios = {b: _sup_ratio(f, S, r, n, b, grid_size, density) for b in BOUND_IDS}
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

    to_json_dict = record_json_dict


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
    try:
        markov_factor = 2.0 * (m - 1) ** 2 / (1.0 - x_last)
        threshold = (r + 1.0) / markov_factor
    except OverflowError:
        markov_factor = threshold = math.inf
    if not markov_factor < math.inf:
        raise ValueError("the Markov factor 2 (m-1)^2 / (1 - x_last) or the threshold "
                         f"(r+1) / factor is not finite in floats for r={r}, m={m}, "
                         f"x_last={x_last!r}")
    eps = 0.5 * threshold if epsilon == "auto" else float(epsilon)
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"epsilon must be finite and positive, got {eps}")
    lhs, rhs = _markov_terms(r, eps, markov_factor)
    return CounterexampleWitness(
        r=r, m=m, x_last=x_last, epsilon=eps,
        markov_lhs=lhs, markov_rhs=rhs,
        contradiction=bool(eps < threshold),
        epsilon_threshold=threshold,
    )


def _markov_terms(r: int, eps: float, cap) -> tuple:
    """The two sides of the Markov chain, (r+1) eps^r and cap * eps^(r+1).
    Raises ValueError unless both are finite and positive: past the float
    range they overflow or read 0 = 0, and the witness shows nothing."""
    try:
        lhs, rhs = (r + 1.0) * eps ** r, cap * eps ** (r + 1)
    except OverflowError:
        lhs = rhs = math.inf
    if not (0.0 < lhs < math.inf and 0.0 < rhs < math.inf):
        raise ValueError(f"the Markov terms (r+1) eps^r and cap * eps^(r+1) are not finite "
                         f"and positive in floats for r={r}, epsilon={eps!r}")
    return lhs, rhs


def polynomial_counterexample(r: int, n: int) -> dict:
    """Degree-n polynomial variant: with eps = n^-2 the forced derivative
    exceeds the Markov cap n^2 ||s|| by the factor r+1 for every n."""
    r, n = int(r), int(n)
    if r < 1 or n < 1:
        raise ValueError("need r, n >= 1")
    try:
        eps = 1.0 / (n * n)
    except OverflowError:  # n^2 beyond the float range, so n^-2 reads 0
        eps = 0.0
    lhs, rhs = _markov_terms(r, eps, n * n)
    return {"r": r, "n": n, "epsilon": eps, "markov_lhs": lhs,
            "markov_rhs": rhs, "ratio": lhs / rhs}


def threshold_growth(r: int, eps_list) -> dict:
    """N_threshold of the truncated-power family as the corner parameter
    sharpens; the column must be nondecreasing as eps decreases."""
    eps_list = [float(e) for e in eps_list]
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    rows = []
    for eps in eps_list:
        n_thr, h = chebyshev_threshold(truncpow_oracle(r, eps), r)
        rows.append({"eps": eps, "N_threshold": n_thr, "H": h})
    col = [row["N_threshold"] for row in rows]
    return {
        "family": "truncpow",
        "r": r,
        "rows": rows,
        "nondecreasing": all(b >= a for a, b in zip(col, col[1:])),
    }
