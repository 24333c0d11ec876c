"""Finite differences and moduli of smoothness by grid search.

Two engines maximize |delta^k_u f| over centers.  ``ModulusProfile`` does
it for each step a caller will query, over that step's own lattice of
centers, and answers a query at t with the running max over its steps <= t.
All of a profile's row maxima come from one blocked pass: the steps' center
lattices are stacked into 2-D blocks of at most BLOCK_POINTS centers, each
block costs k+1 oracle calls, and every row's value and center are
bit-identical to maximizing that step on its own; differences that are not
finite (an oracle that overflows) are refused with a ValueError.  A block
clips its points onto the interval only when one of them may fall outside
it, and its sum of k+1 weighted terms starts from the first term and is
built in place.
``modulus`` is the first maximum row of one profile over a uniform step
lattice, with optional kink windows.  ``modulus_lower_bounds`` bounds
omega_k(f, t) on many intervals at once from one uniform lattice per
interval: f is evaluated once per lattice point, one oracle call per block
of BLOCK_POINTS points, and the differences of every step (a multiple of
the lattice spacing) are index shifts of those values;
``modulus_lower_bound`` is its one-interval call.  Every reported
value is a max of computed differences at admissible points, so a lower
bound of the true supremum only up to the rounding of those differences:
where they fall to the rounding of the values, at small steps near the end
where |f| peaks, it can exceed the exact modulus (for f = e^x on [-1, 1],
a 2048-center order-2 profile read 1 + 1.7e-5 times the exact value at the
step 3.0e-6, and 1 - 1.7e-4 times it at 1.0e-6).  ``certify`` divides by an oracle's proved lower ends of omega
(``ConvexOracle.omega_enclosure``) wherever it has them, and by these
values only where it has none.
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
# centers per oracle call when building a profile, chosen by measurement
# (2-vCPU x86-64 VM, medians of 12 interleaved in-process rounds): the 29
# chebyshev_threshold calls of a bench threshold round took 0.252, 0.196 and
# 0.198 s at 2**13, 2**14 and 2**15, and the bench's three sweeps (n = 32..256)
# 0.234, 0.192 and 0.208 s; an earlier kernel took 0.55, 0.36, 0.34, 0.56 and
# 0.64 s on twelve threshold calls at 2**12, 2**13, 2**14, 2**15 and 2**17,
# against 1.1 s with one block per step, and +9% peak memory at 2**17
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
    grid: int
    value: float
    arg_u: float
    arg_x: float


def _weights(k: int) -> np.ndarray:
    return np.array([(-1.0) ** i * math.comb(k, i) for i in range(k + 1)])


def finite_difference(f, k: int, u: float, x: float, interval) -> float:
    """Symmetric k-th difference with step u centered at x.

    Returns 0 when x +- (k/2)u leaves the interval; evaluation points are
    clamped onto the interval to protect endpoint-singular oracles from
    rounding spill.  A NaN step or center raises ``ValueError``.
    """
    k = _check_order(k)
    a, b = float(interval[0]), float(interval[1])
    u = float(u)
    x = float(x)
    if math.isnan(u) or math.isnan(x):
        raise ValueError(f"difference step and center must be numbers, got u={u!r}, x={x!r}")
    slack = 1e-12 * max(1.0, abs(a), abs(b))
    if x - 0.5 * k * u < a - slack or x + 0.5 * k * u > b + slack:
        return 0.0
    pts = x + (0.5 * k - np.arange(k + 1)) * u
    np.clip(pts, a, b, out=pts)
    return float(_weights(k) @ np.asarray(f(pts), dtype=float))


def _centers(lo, hi, cols, out=None):
    """Columns ``cols`` (ascending) of np.linspace(lo[i], hi[i], cols[-1] + 1)
    for every row i, bit for bit: numpy's own step-times-index arithmetic,
    the last column pinned to hi; built in ``out`` when given."""
    xs = np.multiply(cols, (hi - lo) / int(cols[-1]), out=out)
    xs += lo
    xs[:, -1] = hi[:, 0]
    return xs


def block_rows(grid: int, windows: int = 0) -> int:
    """Rows of ``grid`` centers and ``windows`` focus windows that one block
    of ``_row_maxima`` (at most BLOCK_POINTS centers) evaluates."""
    return max(1, BLOCK_POINTS // (grid + FOCUS_POINTS * windows))


def _row_maxima(f, k, us, a, b, grid, focus):
    """max over centers x of |delta^k_u f| for every admissible step u in us.

    The centers of one step are ``grid`` equispaced points of
    [a + ku/2, b - ku/2], followed by a 65-point window
    of half-width ku around each ``focus`` point (a known kink of f) within
    reach: the difference of a corner term is supported within ku of it,
    which a coarse global lattice can step right over.  Steps are stacked into blocks of at
    most BLOCK_POINTS centers, so each block costs k+1 oracle calls, and the
    first maximum of each row wins, as over a single concatenated row.  A
    step with no admissible center reads 0 at the midpoint.  Raises
    ValueError when a difference is not finite.

    A block's points x + (k/2 - i)u are clipped onto [a, b] only when some
    row of the block may reach past an end; on the other blocks the clip
    would be the identity.  For even k the middle term gets the centers
    themselves, read-only.  The sum starts from the first term's values
    (|0 + d| = |d| for every float d), and each term is scaled and added in
    place, on a copy where the oracle's output is read-only or may share
    memory with the points it was given.
    """
    rows = np.zeros(us.size)
    arg_x = np.full(us.size, 0.5 * (a + b))
    lo = a + 0.5 * k * us
    hi = b - 0.5 * k * us
    live = np.flatnonzero(hi >= lo)
    weights = _weights(k)
    cols = np.arange(grid)
    per_block = block_rows(grid, len(focus))
    # each part of a row (the columns, then each window) is fl(j step) + lo
    # for ascending j, monotone whatever the sign of step, then its pinned
    # last column: a row's extremes lie among these three columns of a part
    starts = [0] + [grid + j * FOCUS_POINTS for j in range(len(focus))]
    ends = [c for c0, num in zip(starts, [grid] + [FOCUS_POINTS] * len(focus))
            for c in (c0, c0 + num - 2, c0 + num - 1)]
    width = grid + FOCUS_POINTS * len(focus)
    window = np.arange(FOCUS_POINTS)
    space = np.empty((2, min(live.size, per_block) * width))  # centers, shifted points
    for start in range(0, live.size, per_block):
        sel = live[start:start + per_block]
        u, lo_b, hi_b = us[sel, None], lo[sel, None], hi[sel, None]
        xs, buf = space[:, :sel.size * width].reshape(2, sel.size, width)
        _centers(lo_b, hi_b, cols, xs[:, :grid])
        for j, p in enumerate(focus):
            _centers(np.maximum(lo_b, p - k * u), np.minimum(hi_b, p + k * u), window,
                     xs[:, starts[j + 1]:starts[j + 1] + FOCUS_POINTS])
        centers = xs.view()
        centers.flags.writeable = False
        # x -> x + d and c -> c u both round monotonically, so every point of
        # a row lies in [min x + (-k/2)u, max x + (k/2)u] as computed; when
        # that holds within [a, b] on every row, no term needs the clip (a nan
        # end fails the test and clips)
        shifts = [(0.5 * k - i) * u for i in range(k + 1)]
        inside = bool(np.all(xs[:, ends].min(axis=1, keepdims=True) + shifts[-1] >= a)
                      and np.all(xs[:, ends].max(axis=1, keepdims=True) + shifts[0] <= b))
        with np.errstate(all="ignore"):
            for i, (w, shift) in enumerate(zip(weights, shifts)):
                if 2 * i == k and inside:
                    # ku/2 >= u > 0 for even k, so no part's lo or hi (nor
                    # p -+ ku) is -0.0, and a sum is -0.0 only when both terms
                    # are: no center is -0.0, and xs + 0u is xs bit for bit
                    pts = centers
                else:
                    # the column spread first, then a contiguous add: the same
                    # sums, faster than numpy's broadcast add
                    np.copyto(buf, shift)
                    pts = np.add(xs, buf, out=buf)
                    if not inside:
                        np.clip(pts, a, b, out=pts)
                v = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
                if not v.flags.writeable or np.may_share_memory(v, space):
                    v = v.copy()
                if i == 0:  # weights[0] is 1
                    acc = v
                elif w == -1.0:  # acc - v is acc + (-1)v exactly
                    acc -= v
                else:
                    if w != 1.0:
                        v *= w
                    acc += v
        mag = np.abs(acc, out=acc)
        for j, p in enumerate(focus):
            # a kink out of reach of a step contributes no window to its row
            off = ~((lo_b - k * u <= p) & (p <= hi_b + k * u))[:, 0]
            mag[off, starts[j + 1]:starts[j + 1] + FOCUS_POINTS] = -np.inf
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
    of f).  The result is the sup over those points, up to the rounding of
    the differences.  A step t that is NaN or
    negative raises ``ValueError``; t = 0 gives 0.
    """
    k = _check_order(k)
    grid = _check_grid(grid)
    if math.isnan(t):
        raise ValueError("modulus step t must be a number, got nan")
    if t < 0.0:
        raise ValueError(f"modulus step t must be >= 0, got {t!r}")
    a, b = float(interval[0]), float(interval[1])
    t_eff = min(float(t), (b - a) / k)
    if t_eff <= 0.0 or b <= a:
        return ModulusResult(grid, 0.0, 0.0, 0.5 * (a + b))

    prof = ModulusProfile(f, k, (a, b), t_eff * np.arange(1, grid + 1) / grid, grid, focus)
    j = int(np.argmax(prof.rows))
    if prof.rows[j] > 0.0:
        return ModulusResult(grid, float(prof.rows[j]), float(prof.us[j]), float(prof.arg_x[j]))
    return ModulusResult(grid, 0.0, t_eff, 0.5 * (a + b))


def _lattice_steps(k, ts, intervals, grid):
    """The interval ends, as columns, and the lattice steps m_j of each
    interval's LATTICE_COLUMNS columns, as ``modulus_lower_bounds`` takes them."""
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
    return lo, hi, steps


def _lattice_maxima(f, k, lo, hi, grid, ms):
    """max over index steps ms and left ends of |delta^k| at the grid + 1
    lattice points of each [lo, hi], from one oracle call: i (hi - lo)/grid +
    lo, the last one pinned to hi, all clamped onto [lo, hi]; a step's
    differences are index shifts."""
    xs = np.multiply(np.arange(grid + 1), (hi - lo) / grid)
    xs += lo
    xs[:, -1:] = hi
    np.clip(xs, lo, hi, out=xs)
    v = np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)
    weights = _weights(k)
    best = np.zeros(xs.shape[0])
    for m in ms:
        span = xs.shape[1] - k * m
        acc = weights[0] * v[:, k * m:]
        for i in range(1, k + 1):
            acc += weights[i] * v[:, (k - i) * m:(k - i) * m + span]
        np.maximum(best, np.abs(acc).max(axis=1), out=best)
    return best


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
    lo, hi, steps = _lattice_steps(k, ts, intervals, grid)
    per_block = max(1, BLOCK_POINTS // (grid + 1))
    out = np.zeros(steps.shape[0])
    groups, which = np.unique(steps, axis=0, return_inverse=True)
    for g, ms in enumerate(groups):
        ms = np.unique(ms[ms > 0])
        if ms.size == 0:
            continue
        rows = np.flatnonzero(which.ravel() == g)
        for start in range(0, rows.size, per_block):
            sel = rows[start:start + per_block]
            out[sel] = _lattice_maxima(f, k, lo[sel], hi[sel], grid, ms)
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
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    a, b = float(interval[0]), float(interval[1])
    x = float(x)
    if not (a - 1e-12 <= x <= b + 1e-12):
        raise ValueError(f"x={x} outside [{a}, {b}]")
    d = max((x - a) if side == "left" else (b - x), 0.0)
    length = b - a
    best = math.inf
    for m in range(1, k + 1):
        step = d ** (1.0 / m) * length ** ((m - 1.0) / m)
        best = min(best, modulus(f, m, step, (a, b), grid).value)
    return best


def _running_max(rows):
    """The running max of a profile's rows from 0 below its first step:
    entry i is what value(t) reads when i of its steps are <= t."""
    return np.maximum.accumulate(np.append(0.0, rows))


def _profile_steps(k, a, b, steps):
    """A profile's steps: ``steps`` clamped to the admissible (b-a)/k,
    sorted, de-duplicated and > 0."""
    us = np.unique(np.minimum(np.asarray(steps, dtype=float).ravel(), (b - a) / k))
    return us[us > 0]


def _step_count(us, t):
    """How many of the ascending steps us are <= t, 0 at a NaN t: the rows
    that a profile's value(t) reads."""
    # searchsorted places NaN after every step
    return np.where(np.isnan(t), 0, np.searchsorted(us, t, side="right"))


class ModulusProfile:
    """Sampled lower bounds of omega_k(f, t) at the steps a caller will query.

    The steps are clamped to the admissible (b-a)/k, sorted and de-duplicated;
    each gets one dense-in-x row maximum sup_x |delta^k_u f| (``rows``, with
    its center ``arg_x``).  value(t) is the running max of the rows at steps
    <= t, and 0 below the first step or at a NaN t.
    """

    def __init__(self, f, k: int, interval, steps, grid: int = 2048, focus=()):
        k = _check_order(k)
        grid = _check_grid(grid)
        a, b = float(interval[0]), float(interval[1])
        self.us = _profile_steps(k, a, b, steps)
        focus = tuple(float(p) for p in focus)
        self.rows, self.arg_x = _row_maxima(f, k, self.us, a, b, grid, focus)
        self.cummax = _running_max(self.rows)

    def value(self, t):
        """Running max at the largest step <= t, 0 at a NaN t; t may be a
        scalar or an array."""
        v = self.cummax[_step_count(self.us, t)]
        return float(v) if np.ndim(v) == 0 else v
