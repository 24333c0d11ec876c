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

A report is the one-row case of a sweep's set-up pass: over consecutive
rows holding at most _BLOCK_SIZE grid points, one knot check per row, one
evaluation of f over all their grids and of each S over its own, then per
bound the grids, errors, noise-floor masks, weights and steps of all the
rows, and one lower-end call per modulus.  A sweep writes only the sup
ratios, the report's ratio rule over the report's bounds.  It builds the
splines of consecutive rows in one call and certifies them in one check.
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
from convexlab.localconvex import _BLOCK_SIZE
from convexlab.piecewise import (ConvexityReport, PiecewisePoly, record_json_dict,
                                 verify_convexity)
from convexlab.smoothness import ModulusProfile, _check_grid, modulus_lower_bounds

__all__ = [
    "BOUND_IDS",
    "MismatchedInputs",
    "BoundReport",
    "ConvexityReport",
    "CounterexampleWitness",
    "SweepTable",
    "verify_convexity",
    "pointwise_bound_report",
    "pointwise_bound_reports",
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


@dataclass(frozen=True)
class _Setup:
    """One bound's grids over the rows of a pass, one after another.  Row i
    holds the points off[i]:off[i + 1] and the entries seg[i]:seg[i + 1] of
    each request (k, t, lo, hi), omega_k(f^(r), t) on [lo, hi].  A read
    point's bound is weight times the min of its moduli (k, each row's lo
    and hi, every point's step); for 2.13 the sum of the terms
    h^r omega_2(f^(r), h; I) of its knot interval and its row's two ends."""
    xs: np.ndarray
    errs: np.ndarray
    atol: np.ndarray          # ATOL_REL times the row's value scale, at every point
    read: np.ndarray          # the points whose error is above the noise floor
    off: np.ndarray
    seg: np.ndarray
    f: ConvexOracle
    r: int
    density: int
    requests: list = ()
    weight: np.ndarray | None = None  # at the read points
    moduli: tuple = ()
    idx: np.ndarray | None = None


def _setups(f, rows, r, bound_ids, grid_size, density):
    """Yield, pass by pass, one ``_Setup`` per bound id over the rows (S, n)
    of the pass: rows while their grids, one per region (2.4 and 2.5 share
    the strips), hold at most _BLOCK_SIZE points, or one larger row.  The
    inputs are checked once, and each row's knots."""
    for bound_id in bound_ids:
        if bound_id not in BOUND_IDS:
            raise ValueError(f"unknown bound id {bound_id!r}; choose from {BOUND_IDS}")
    if grid_size < 1:
        raise ValueError(f"grid_size must be >= 1, got {grid_size}")
    density = _check_grid(density)
    _check_chebyshev_domain(f)
    kinks, shared = tuple(f.nonsmooth), dict(f=f, r=r, density=density)

    def densify(xs, lo, hi, n):
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

    batch, points = [], 0
    for S, n in rows:
        expected = chebyshev_partition(n)
        if S.knots.size != expected.knots.size or \
                not np.all(np.abs(S.knots - expected.knots) <= 1e-12):
            raise MismatchedInputs(f"spline knots are not the n={n} Chebyshev partition")
        x1, xn1 = float(S.knots[1]), float(S.knots[-2])
        regions = {"2.3": (-1.0, 1.0), "2.11": (-1.0, x1), "2.12": (xn1, 1.0), "2.13": (x1, xn1)}
        grids = {b: _strip_grid(n, grid_size) if b is None else
                 densify(_open_chebyshev(*regions[b], grid_size), *regions[b], n)
                 for b in dict.fromkeys(b if b in regions else None for b in bound_ids)}
        size = sum(xs.size for xs in grids.values())
        if batch and points + size > _BLOCK_SIZE:
            yield _pass(f, batch, bound_ids, shared)
            batch, points = [], 0
        batch.append((S, n, regions, grids))
        points += size
    if batch:
        yield _pass(f, batch, bound_ids, shared)


def _pass(f, batch, bound_ids, shared) -> list:
    """The setups of the rows (S, n, regions, grids) of a pass, from one
    evaluation of f over all their grids and one of each S over its own."""
    xs_all = np.concatenate([xs for *_, grids in batch for xs in grids.values()])
    fx_all = np.asarray(f(xs_all), dtype=float)
    by_grid, start = {}, 0  # per grid, each row's (xs, f, |f - S|)
    for S, _, _, grids in batch:
        stop = start + sum(xs.size for xs in grids.values())
        errs = np.abs(fx_all[start:stop] - S(xs_all[start:stop]))
        for key, xs in grids.items():
            by_grid.setdefault(key, []).append((xs, fx_all[start:start + xs.size], errs[:xs.size]))
            errs, start = errs[xs.size:], start + xs.size
    for key, parts in by_grid.items():
        xs, fx, errs = (np.concatenate(v) for v in zip(*parts))
        sizes = [part[0].size for part in parts]
        off = np.concatenate([[0], np.cumsum(sizes)])
        scale = np.repeat(1.0 + np.maximum.reduceat(np.abs(fx), off[:-1]), sizes)
        read = ~(errs <= NOISE_REL * scale)
        by_grid[key] = dict(xs=xs, errs=errs, atol=ATOL_REL * scale, read=read, off=off,
                            seg=np.concatenate([[0], np.cumsum(read)])[off], **shared)
    r, ns, setups = shared["r"], np.array([n for _, n, _, _ in batch]), []
    for bound_id in bound_ids:
        setup = dict(by_grid[bound_id if bound_id in batch[0][2] else None])
        xs, read, off = setup["xs"], setup["read"], setup["off"]
        sizes, reads, first = np.diff(off), np.diff(setup["seg"]), np.cumsum(ns) - ns
        if bound_id == "2.13":  # interior intervals with the three-term right side
            idx = np.concatenate([
                base + np.clip(np.searchsorted(S.knots, xs[a:b][read[a:b]], side="right") - 1,
                               1, n - 2)
                for (S, n, _, _), base, a, b in zip(batch, first, off[:-1], off[1:])])
            idx = np.stack([idx, np.repeat(first, reads), np.repeat(first + ns - 1, reads)])
            need, at = np.unique(idx.ravel(), return_inverse=True)
            h, lo, hi = (np.concatenate(v)[need] for v in zip(
                *[(np.diff(S.knots), S.knots[:-1], S.knots[1:]) for S, *_ in batch]))
            setup.update(seg=np.searchsorted(need, np.append(first, ns.sum())),
                         requests=[(2, h, lo, hi)], idx=at.reshape(idx.shape))
        else:
            if bound_id in _PROFILE_BOUNDS:
                k, step, weight = _PROFILE_BOUNDS[bound_id]
                ts = step(xs, np.repeat(ns, sizes))
                weight, moduli = weight(xs, ts, r), ((k, -np.ones(ns.size), np.ones(ns.size), ts),)
            else:  # 2.11 and 2.12, over the first and the last interval
                lo, hi = np.array([regions[bound_id] for _, _, regions, _ in batch]).T
                lo_x, hi_x = np.repeat(lo, sizes), np.repeat(hi, sizes)
                d = xs - lo_x if bound_id == "2.11" else hi_x - xs
                weight, moduli = d ** r, ((1, lo, hi, d), (2, lo, hi, np.sqrt(d * (hi_x - lo_x))))
            setup.update(weight=weight[read], moduli=moduli, requests=[
                (k, t[read], np.repeat(lo, reads), np.repeat(hi, reads)) for k, lo, hi, t in moduli])
        setups.append(_Setup(**setup))
    return setups


def _combine(s: _Setup, lows) -> np.ndarray:
    """The bound at the read points of s from its requests' moduli ``lows``."""
    if s.moduli:
        return s.weight * functools.reduce(np.minimum, lows)
    term = np.array([w ** s.r for w in s.requests[0][1].tolist()]) * lows[0]
    return term[s.idx[0]] + term[s.idx[1]] + term[s.idx[2]]


def _sampled(s: _Setup, i: int) -> list:
    """Row i's moduli, sampled: profiles over the steps up to the largest one
    read (a value is a running max of rows, each its own maximum, so no read
    changes), and for 2.13 one lattice of ``density`` steps per interval."""
    if s.moduli:
        pts = slice(s.off[i], s.off[i + 1])
        read = s.read[pts]
        return [ModulusProfile(s.f.deriv_fn(s.r), k, (float(lo[i]), float(hi[i])),
                               t[pts][t[pts] <= np.max(t[pts][read], initial=-np.inf)],
                               grid=s.density, focus=tuple(s.f.nonsmooth)).value(t[pts][read])
                for k, lo, hi, t in s.moduli]
    (k, h, lo, hi), = s.requests
    part = slice(s.seg[i], s.seg[i + 1])
    return [modulus_lower_bounds(s.f.deriv_fn(s.r), k, h[part],
                                 np.column_stack([lo[part], hi[part]]), grid=s.density)]


def _bounds(setups, every_row: bool = False) -> list:
    """The bound at each read point of each setup, which report and sweep
    divide by: the enclosure's lower ends, one call per request over all the
    rows (none where no row reads a point, unless ``every_row``), else moduli
    sampled row by row.  Rows go in order, each raising, as if alone, the
    ValueError of an overflowing lower end, as a profile refuses one."""
    lows, refusals, sampled = [], [], []
    for s in setups:
        low, refused = [], {}
        for k, t, lo, hi in s.requests:
            m = None if s.f.omega_enclosure is None else t if t.size == 0 and not every_row \
                else s.f.omega_enclosure(k, s.r, t, lo, hi)[0]
            if m is None:
                break
            for i in np.searchsorted(s.seg, np.flatnonzero(np.isnan(m)), side="right") - 1:
                part = slice(s.seg[i], s.seg[i + 1])
                refused.setdefault(int(i), ValueError(
                    f"the order-{k} modulus of the oracle on [{float(np.min(lo[part]))!r}, "
                    f"{float(np.max(hi[part]))!r}] overflows"))
            low.append(m)
        sampled.append(len(low) < len(s.requests))
        lows.append([np.empty(req[1].size) for req in s.requests] if sampled[-1] else low)
        refusals.append(refused)
    for i in range(setups[0].off.size - 1 if setups else 0):
        for s, low, refused, samples in zip(setups, lows, refusals, sampled):
            if i in refused:
                raise refused[i]
            if samples and (every_row or s.seg[i] < s.seg[i + 1]):
                for out, m in zip(low, _sampled(s, i)):
                    out[s.seg[i]:s.seg[i + 1]] = m
    return [_combine(s, low) for s, low in zip(setups, lows)]


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
    bounds[s.read] = _bounds([s], every_row=True)[0]
    ratios, degenerate = _ratios(s.errs[s.read], bounds[s.read], s.atol[s.read])
    excluded = ~s.read
    excluded[s.read] = degenerate
    kept = ~excluded
    ratios = ratios[~degenerate]
    return BoundReport(bound_id,
                       np.column_stack([s.xs[kept], s.errs[kept], bounds[kept], ratios]),
                       float(np.max(ratios, initial=0.0)),
                       np.column_stack([s.xs[excluded], s.errs[excluded]]))


def pointwise_bound_reports(f: ConvexOracle, S: PiecewisePoly, r: int, n: int,
                            bound_ids=BOUND_IDS, grid_size: int = DEFAULT_GRID_SIZE,
                            density: int = CERTIFICATION_DENSITY) -> list:
    """Evaluate pointwise estimates as |f-S| / bound, each over its own region,
    one report per bound id in order, from one shared setup: the one-row
    case of a sweep's.

    Interior bounds use the full interval, the endpoint variants are
    restricted to the strips of width n^-2, and the per-interval forms to the
    first/last/interior intervals respectively.  Exact endpoints, where both
    sides vanish by interpolation, are excluded up front.  The error is
    evaluated first; the modulus layer is asked only for what the points
    above the noise floor read, so a noise point's bound is never computed.
    """
    setups = next(_setups(f, [(S, n)], r, bound_ids, grid_size, density))
    return [_assemble_report(b, s) for b, s in zip(bound_ids, setups)]


def pointwise_bound_report(f: ConvexOracle, S: PiecewisePoly, r: int, n: int,
                           bound_id: str, grid_size: int = DEFAULT_GRID_SIZE,
                           density: int = CERTIFICATION_DENSITY) -> BoundReport:
    """The one-bound case of :func:`pointwise_bound_reports`."""
    return pointwise_bound_reports(f, S, r, n, (bound_id,), grid_size, density)[0]


def _sup_ratios(setups) -> list:
    """Each row's sup ratios, its reports' bit for bit, NaN and inf
    included: the report's ratio rule over its ``_bounds``, without the
    report's arrays, and 0 with no bound where every error is noise."""
    sups = []
    for s, bounds in zip(setups, _bounds(setups)):
        ratios, degenerate = _ratios(s.errs[s.read], bounds, s.atol[s.read])
        rows = np.repeat(np.arange(s.off.size - 1), np.diff(s.off))[s.read]
        sup = np.zeros(s.off.size - 1)
        with np.errstate(invalid="ignore"):  # a NaN ratio is the sup, as np.max gives it
            np.maximum.at(sup, rows[~degenerate], ratios[~degenerate])
        sups.append(sup.tolist())
    return [list(row) for row in zip(*sups)]


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
    ``pointwise_bound_report(...).sup_ratio`` gives, by the report's ratio
    rule over the report's bounds.

    Rows with n below the threshold are flagged, not computed.  Timing is off
    by default so repeated runs emit byte-identical CSV.  The threshold and
    every row share one preparation of (f, r), made after the lattice checks.
    Runs of consecutive computed rows, of at most max(_BLOCK_SIZE / 16,
    largest n) intervals in all, are built in one call (one interior pass).
    """
    if grid_size < 1:
        raise ValueError(f"grid_size must be >= 1, got {grid_size}")
    _check_grid(density)
    _check_chebyshev_domain(f)
    prep = _prepare(f, r)
    n_threshold, _ = _threshold(prep)
    rows = [{"n": int(n), "computed": int(n) >= n_threshold, "sup_ratio": {}, "wall_ms": 0}
            for n in n_list]
    computed = [row for row in rows if row["computed"]]
    # with timing a row is a run of its own, so its wall_ms times it alone
    cap = 0 if timing else max([_BLOCK_SIZE // 16] + [row["n"] for row in computed])
    runs = []
    for row in computed:
        if runs and sum(done["n"] for done in runs[-1]) + row["n"] <= cap:
            runs[-1].append(row)
        else:
            runs.append([row])
    for run in runs:
        t0 = time.perf_counter()
        built = _construct_chebyshev(prep, f, r, [row["n"] for row in run])
        todo = iter(run)
        for setups in _setups(f, [(S, row["n"]) for row, (S, _, _) in zip(run, built)], r,
                              BOUND_IDS, grid_size, density):
            for ratios, row in zip(_sup_ratios(setups), todo):
                row["sup_ratio"] = dict(zip(BOUND_IDS, ratios))
        if timing:
            run[0]["wall_ms"] = int(round(1e3 * (time.perf_counter() - t0)))
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
