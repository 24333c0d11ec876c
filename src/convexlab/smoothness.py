"""Finite differences and moduli of smoothness by certified grid search.

Two engines maximize |delta^k_u f| over centers.  ``ModulusProfile`` does
it for each step a caller will query, over that step's own lattice of
centers, and answers a query at t with the running max over its steps <= t.
All of a profile's row maxima come from one blocked pass: the steps' center
lattices are stacked into 2-D blocks of at most BLOCK_POINTS centers, each
block costs k+1 oracle calls, and every row's value and center are
bit-identical to maximizing that step on its own; differences that are not
finite (an oracle that overflows) are refused with a ValueError.
``modulus`` is the first maximum row of one profile over a uniform step
lattice, with optional kink windows.  ``modulus_lower_bounds`` bounds
omega_k(f, t) on many intervals at once from one uniform lattice per
interval: f is evaluated once per lattice point, one oracle call per block
of BLOCK_POINTS points, and the differences of every step (a multiple of
the lattice spacing) are index shifts of those values;
``modulus_lower_bound`` is its one-interval call.  Every reported
value is therefore a certified lower bound on the true supremum, and ratios
that divide by one of these values over-estimate conservatively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InvalidOrder",
    "ModulusResult",
    "ModulusProfile",
    "finite_difference",
    "modulus",
    "modulus_lower_bound",
    "modulus_lower_bounds",
    "one_sided_modulus",
]

MAX_ORDER = 8  # binomial coefficients exact in float up to here
FOCUS_POINTS = 65
# centers per oracle call when building a profile, chosen by measurement:
# twelve chebyshev_threshold calls (truncpow, exp, cosh, f0; 2-core x86-64)
# took 0.55, 0.36, 0.34, 0.56 and 0.64 s at 2**12, 2**13, 2**14, 2**15 and
# 2**17 against 1.1 s with one block per step; larger blocks leave the cache
# and raise peak memory (+9% at 2**17)
BLOCK_POINTS = 2 ** 14
# steps per interval of modulus_lower_bounds: column j = 1..LATTICE_COLUMNS
# asks for (j/LATTICE_COLUMNS) of the admissible step
LATTICE_COLUMNS = 16

class InvalidOrder(ValueError):
    """Difference order outside 1..MAX_ORDER."""


def _check_order(k: int) -> int:
    k = int(k)
    if k < 1 or k > MAX_ORDER:
        raise InvalidOrder(f"difference order must be in 1..{MAX_ORDER}, got {k}")
    return k


def _check_grid(grid: int) -> int:
    grid = int(grid)
    if grid < 64:
        raise ValueError(f"grid must be >= 64, got {grid}")
    return grid


@dataclass(frozen=True)
class ModulusResult:
    value: float
    arg_u: float
    arg_x: float
    grid_density: int


def _weights(k: int) -> np.ndarray:
    return np.array([(-1.0) ** i * math.comb(k, i) for i in range(k + 1)])


def finite_difference(f, k: int, u: float, x: float, interval) -> float:
    """Symmetric k-th difference with step u centered at x.

    Returns 0 when x +- (k/2)u leaves the interval; evaluation points are
    clamped onto the interval to protect endpoint-singular oracles from
    rounding spill.
    """
    k = _check_order(k)
    a, b = float(interval[0]), float(interval[1])
    u = float(u)
    x = float(x)
    slack = 1e-12 * max(1.0, abs(a), abs(b))
    if x - 0.5 * k * u < a - slack or x + 0.5 * k * u > b + slack:
        return 0.0
    pts = x + (0.5 * k - np.arange(k + 1)) * u
    np.clip(pts, a, b, out=pts)
    return float(_weights(k) @ np.asarray(f(pts), dtype=float))


def _centers(lo, hi, num):
    """np.linspace(lo[i], hi[i], num) for every row i, bit for bit: numpy's
    own step-times-index arithmetic, with the last column pinned to hi."""
    xs = np.arange(num) * ((hi - lo) / (num - 1)) + lo
    xs[:, -1] = hi[:, 0]
    return xs


def _row_maxima(f, k, us, a, b, grid, focus):
    """max over centers x of |delta^k_u f| for every admissible step u in us.

    The centers of one step are ``grid`` equispaced points of
    [a + ku/2, b - ku/2], followed by a 65-point window of half-width ku
    around each ``focus`` point (a known kink of f) within reach: the
    difference of a corner term is supported within ku of it, which a coarse
    global lattice can step right over.  Steps are stacked into blocks of at
    most BLOCK_POINTS centers, so each block costs k+1 oracle calls, and the
    first maximum of each row wins, as over a single concatenated row.  A
    step with no admissible center reads 0 at the midpoint.  Raises
    ValueError when a difference is not finite.
    """
    rows = np.zeros(us.size)
    arg_x = np.full(us.size, 0.5 * (a + b))
    lo = a + 0.5 * k * us
    hi = b - 0.5 * k * us
    live = np.flatnonzero(hi >= lo)
    weights = _weights(k)
    width = grid + FOCUS_POINTS * len(focus)
    per_block = max(1, BLOCK_POINTS // width)
    for start in range(0, live.size, per_block):
        sel = live[start:start + per_block]
        u, lo_b, hi_b = us[sel, None], lo[sel, None], hi[sel, None]
        xs = np.concatenate(
            [_centers(lo_b, hi_b, grid)]
            + [_centers(np.maximum(lo_b, p - k * u), np.minimum(hi_b, p + k * u),
                        FOCUS_POINTS) for p in focus], axis=1)
        acc = np.zeros_like(xs)
        with np.errstate(all="ignore"):
            for i in range(k + 1):
                pts = xs + (0.5 * k - i) * u
                np.clip(pts, a, b, out=pts)
                acc += weights[i] * np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
        mag = np.abs(acc)
        for j, p in enumerate(focus):
            # a kink out of reach of a step contributes no window to its row
            off = ~((lo_b - k * u <= p) & (p <= hi_b + k * u))[:, 0]
            mag[off, grid + j * FOCUS_POINTS:grid + (j + 1) * FOCUS_POINTS] = -np.inf
        best = np.argmax(mag, axis=1)
        picked = np.arange(sel.size)
        rows[sel] = mag[picked, best]
        arg_x[sel] = xs[picked, best]
    # argmax picks the first nan of a row, so a non-finite difference in
    # reach of a step shows in its row maximum
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"order-{k} differences of the oracle on [{a!r}, {b!r}] "
                         "are non-finite")
    return rows, arg_x


def modulus(f, k: int, t: float, interval, grid: int = 512, focus=()) -> ModulusResult:
    """sup over steps u in (0, t] and admissible centers of |delta^k_u f|.

    The first maximum row of one ``ModulusProfile`` over the steps
    t_eff j/grid, j = 1..grid, with t_eff = min(t, (b-a)/k): each row takes
    ``grid`` centers plus a window around each ``focus`` point (a known kink
    of f).  The result never exceeds the true sup.
    """
    k = _check_order(k)
    grid = _check_grid(grid)
    if math.isnan(t):
        raise ValueError("modulus step t must be a number, got nan")
    a, b = float(interval[0]), float(interval[1])
    t_eff = min(float(t), (b - a) / k)
    if t_eff <= 0.0 or b <= a:
        return ModulusResult(0.0, 0.0, 0.5 * (a + b), grid)

    prof = ModulusProfile(f, k, (a, b), t_eff * np.arange(1, grid + 1) / grid, grid, focus)
    j = int(np.argmax(prof.rows))
    if prof.rows[j] > 0.0:
        return ModulusResult(float(prof.rows[j]), float(prof.us[j]), float(prof.arg_x[j]), grid)
    return ModulusResult(0.0, t_eff, 0.5 * (a + b), grid)


def modulus_lower_bounds(f, k: int, ts, intervals, grid: int = 2048) -> np.ndarray:
    """Lower bounds of omega_k(f, t_i) on each interval [lo_i, hi_i] from one
    uniform lattice per interval.

    Interval i gets the grid + 1 points lo + (hi - lo) i/grid (the last one
    pinned to hi, all clamped to [lo, hi]); every lattice point is a center,
    so a kink cannot fall between centers.  Column j = 1..LATTICE_COLUMNS
    asks for the largest lattice step m h <= (j/LATTICE_COLUMNS) min(t,
    (hi - lo)/k), i.e. m_j = (j grid)//(k LATTICE_COLUMNS) once t reaches the
    admissible limit; equal steps and m = 0 are dropped.  The k-th
    differences of one step are index shifts of the lattice values, and the
    bound is the max of |delta^k| over steps and centers (0 when no step is
    left).  Intervals that ask for the same steps share blocks of at most
    BLOCK_POINTS lattice points, one oracle call per block.
    """
    k = _check_order(k)
    grid = _check_grid(grid)
    ts = np.asarray(ts, dtype=float).ravel()
    ends = np.asarray(intervals, dtype=float).reshape(-1, 2)
    lo, hi = ends[:, :1], ends[:, 1:]
    width = (hi - lo)[:, 0]
    ratio = np.zeros_like(width)
    pos = (ts > 0) & (width > 0)  # a nan step or an empty interval reads 0
    ratio[pos] = ts[pos] / width[pos]
    j = np.arange(1, LATTICE_COLUMNS + 1)
    steps = np.fmin((j * grid) // (k * LATTICE_COLUMNS),
                    np.floor(j * grid * ratio[:, None] / LATTICE_COLUMNS)).astype(int)
    weights = _weights(k)
    per_block = max(1, BLOCK_POINTS // (grid + 1))
    out = np.zeros(width.size)
    groups, which = np.unique(steps, axis=0, return_inverse=True)
    for g, ms in enumerate(groups):
        ms = np.unique(ms[ms > 0])
        if ms.size == 0:
            continue
        rows = np.flatnonzero(which.ravel() == g)
        for start in range(0, rows.size, per_block):
            sel = rows[start:start + per_block]
            xs = np.clip(_centers(lo[sel], hi[sel], grid + 1), lo[sel], hi[sel])
            v = np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)
            best = np.zeros(sel.size)
            for m in ms:
                span = grid + 1 - k * m
                acc = weights[0] * v[:, k * m:]
                for i in range(1, k + 1):
                    acc += weights[i] * v[:, (k - i) * m:(k - i) * m + span]
                np.maximum(best, np.abs(acc).max(axis=1), out=best)
            out[sel] = best
    return out


def modulus_lower_bound(f, k: int, t: float, interval, grid: int = 2048) -> float:
    """One interval's ``modulus_lower_bounds``: a cheap lower bound of
    omega_k(f, t) on the interval from one uniform lattice of grid + 1 points."""
    return float(modulus_lower_bounds(f, k, [t], [interval], grid)[0])


def one_sided_modulus(f, k: int, x: float, interval, side: str, grid: int = 512) -> float:
    """Composite one-sided modulus at x: min over orders m <= k of the m-th
    modulus at the distance-scaled step (d)^(1/m) (b-a)^((m-1)/m), where d is
    the distance from x to the interval end selected by ``side``."""
    k = _check_order(k)
    a, b = float(interval[0]), float(interval[1])
    x = float(x)
    if not (a - 1e-12 <= x <= b + 1e-12):
        raise ValueError(f"x={x} outside [{a}, {b}]")
    d = (x - a) if side == "left" else (b - x)
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    d = max(d, 0.0)
    length = b - a
    best = math.inf
    for m in range(1, k + 1):
        step = d ** (1.0 / m) * length ** ((m - 1.0) / m)
        best = min(best, modulus(f, m, step, (a, b), grid).value)
    return best


class ModulusProfile:
    """Certified lower bounds of omega_k(f, t) at the steps a caller will query.

    The steps are clamped to the admissible (b-a)/k, sorted and de-duplicated;
    each gets one dense-in-x row maximum sup_x |delta^k_u f| (``rows``, with
    its center ``arg_x``).  value(t) is the running max of the rows at steps
    <= t, and 0 below the first step.
    """

    def __init__(self, f, k: int, interval, steps, grid: int = 2048, focus=()):
        k = _check_order(k)
        grid = _check_grid(grid)
        a, b = float(interval[0]), float(interval[1])
        us = np.unique(np.minimum(np.asarray(steps, dtype=float).ravel(), (b - a) / k))
        self.us = us[us > 0]
        focus = tuple(float(p) for p in focus)
        self.rows, self.arg_x = _row_maxima(f, k, self.us, a, b, grid, focus)
        self.cummax = np.maximum.accumulate(np.append(0.0, self.rows))

    def value(self, t):
        """Running max at the largest step <= t; t may be a scalar or an array."""
        v = self.cummax[np.searchsorted(self.us, t, side="right")]
        return float(v) if np.ndim(v) == 0 else v
