import math

import numpy as np
import pytest

from convexlab.domain import parse_function
from convexlab.smoothness import (
    BLOCK_POINTS,
    InvalidOrder,
    ModulusProfile,
    finite_difference,
    modulus,
    modulus_lower_bound,
    modulus_lower_bounds,
    one_sided_modulus,
)


def brute_force_modulus(f, k, t, interval, nu=400, nx=400):
    """Independent lattice oracle: plain double loop, no refinement."""
    a, b = interval
    t = min(t, (b - a) / k)
    best = 0.0
    for u in np.linspace(t / nu, t, nu):
        lo, hi = a + k * u / 2, b - k * u / 2
        if hi < lo:
            continue
        for x in np.linspace(lo, hi, nx):
            val = abs(sum((-1) ** i * math.comb(k, i) * f(x + (k / 2 - i) * u)
                          for i in range(k + 1)))
            best = max(best, val)
    return best


def test_second_difference_of_square():
    f = lambda x: np.asarray(x) ** 2
    for u, x in [(0.1, 0.0), (0.3, 0.2), (0.05, -0.8)]:
        assert finite_difference(f, 2, u, x, (-1, 1)) == pytest.approx(2 * u * u)


def test_first_difference_of_identity():
    f = lambda x: np.asarray(x)
    assert finite_difference(f, 1, 0.25, 0.0, (-1, 1)) == pytest.approx(0.25)


def test_difference_outside_interval_is_zero():
    f = lambda x: np.asarray(x) ** 2
    # x + (k/2) u beyond the right end
    assert finite_difference(f, 2, 0.5, 0.9, (-1, 1)) == 0.0


def test_difference_order_validation():
    f = lambda x: np.asarray(x)
    with pytest.raises(InvalidOrder):
        finite_difference(f, 0, 0.1, 0.0, (-1, 1))
    with pytest.raises(InvalidOrder):
        finite_difference(f, 9, 0.1, 0.0, (-1, 1))


def test_modulus_of_affine_vanishes():
    f = lambda x: 3.0 * np.asarray(x) - 1.0
    res = modulus(f, 2, 0.7, (-1, 1), grid=64)
    assert res.value == pytest.approx(0.0, abs=1e-13)


def test_modulus_square_second_order():
    f = lambda x: np.asarray(x) ** 2
    res = modulus(f, 2, 0.5, (-1, 1), grid=128)
    assert res.value == pytest.approx(0.5, rel=1e-6)
    assert res.arg_u == pytest.approx(0.5, rel=1e-3)


def test_modulus_square_first_order_unit_interval():
    f = lambda x: np.asarray(x) ** 2
    res = modulus(f, 1, 1.0, (0, 1), grid=128)
    oracle = brute_force_modulus(lambda x: x**2, 1, 1.0, (0, 1))
    assert res.value == pytest.approx(1.0, rel=1e-9)
    assert res.value >= oracle - 1e-12


def test_modulus_agrees_with_brute_force():
    f = lambda x: np.exp(np.asarray(x))
    got = modulus(f, 2, 0.4, (-1, 1), grid=256).value
    oracle = brute_force_modulus(math.exp, 2, 0.4, (-1, 1))
    assert got == pytest.approx(oracle, rel=5e-3)
    # certified lower bound of the true sup, so it may only undershoot, and
    # the finer search should not lose to the coarse oracle by more than slack
    assert got >= oracle * 0.999


def test_modulus_zero_step():
    f = lambda x: np.exp(np.asarray(x))
    assert modulus(f, 2, 0.0, (-1, 1), grid=64).value == 0.0


def test_modulus_rejects_nan_step():
    f = lambda x: np.exp(np.asarray(x))
    with pytest.raises(ValueError, match="nan"):
        modulus(f, 2, math.nan, (-1, 1), grid=64)


def test_modulus_invalid_order_and_grid():
    f = lambda x: np.asarray(x)
    with pytest.raises(InvalidOrder):
        modulus(f, 0, 0.5, (-1, 1))
    with pytest.raises(ValueError):
        modulus(f, 2, 0.5, (-1, 1), grid=32)


def test_modulus_monotone_in_step_and_interval():
    f = lambda x: np.cosh(np.asarray(x))
    vals = [modulus(f, 2, t, (-1, 1), grid=128).value for t in (0.1, 0.3, 0.8, 1.5)]
    for small, large in zip(vals, vals[1:]):
        assert large >= small * (1 - 5e-3)  # grid slack only
    inner = modulus(f, 2, 0.4, (-0.5, 0.5), grid=128).value
    outer = modulus(f, 2, 0.4, (-1, 1), grid=128).value
    assert outer >= inner * (1 - 5e-3)


def test_order_comparison_inequality():
    # omega_{k2}(f, t) <= 2^(k2-k1) omega_{k1}(f, t) within grid slack
    f = lambda x: np.exp(np.asarray(x))
    for k1, k2 in [(1, 2), (2, 3), (1, 3)]:
        for t in (0.2, 0.6):
            w1 = modulus(f, k1, t, (-1, 1), grid=128).value
            w2 = modulus(f, k2, t, (-1, 1), grid=128).value
            assert w2 <= 2.0 ** (k2 - k1) * w1 * 1.05


def test_lambda_scaling_inequality():
    f = lambda x: np.abs(np.asarray(x)) ** 1.5
    k, t = 2, 0.15
    base = modulus(f, k, t, (-1, 1), grid=256).value
    for lam in (0.5, 2.0, 5.0):
        scaled = modulus(f, k, lam * t, (-1, 1), grid=256).value
        assert scaled <= (lam + 1.0) ** k * base * 1.05


def test_one_sided_zero_at_near_end():
    f = lambda x: np.exp(np.asarray(x))
    assert one_sided_modulus(f, 2, -1.0, (-1, 1), "left", grid=64) == 0.0
    assert one_sided_modulus(f, 2, 1.0, (-1, 1), "right", grid=64) == 0.0


def test_one_sided_affine_vanishes():
    f = lambda x: 2.0 * np.asarray(x) + 5.0
    assert one_sided_modulus(f, 2, 0.3, (-1, 1), "left", grid=64) == pytest.approx(0.0, abs=1e-12)


def test_one_sided_sandwich_at_far_end():
    # at x = b the left composite modulus is squeezed between
    # 2^(1-k) omega_k(f, b-a) and omega_k(f, b-a)
    f = lambda x: np.exp(np.asarray(x))
    for k in (2, 3):
        full = modulus(f, k, 2.0, (-1, 1), grid=128).value
        one = one_sided_modulus(f, k, 1.0, (-1, 1), "left", grid=128)
        assert 2.0 ** (1 - k) * full <= one * 1.05
        assert one <= full * 1.05


def test_one_sided_side_validation():
    f = lambda x: np.asarray(x)
    with pytest.raises(ValueError):
        one_sided_modulus(f, 2, 0.0, (-1, 1), "up")


def test_sqrt_singularity_band():
    # omega_k of a function with an endpoint square-root cusp behaves like
    # min(1, sqrt(t)); the normalized values must stay in a fixed band
    g = lambda x: 1.5 * np.sqrt(np.clip(1.0 + np.asarray(x), 0.0, None))
    ts = np.geomspace(1e-4, 2.0, 9)
    vals = []
    for t in ts:
        v = modulus(g, 2, float(t), (-1, 1), grid=256).value
        vals.append(v / min(1.0, math.sqrt(t)))
    assert max(vals) / min(vals) <= 10.0


def test_profile_matches_modulus_queries():
    f = lambda x: np.exp(np.asarray(x))
    steps = (0.05, 0.2, 0.5)
    prof = ModulusProfile(f, 2, (-1, 1), steps, grid=256)
    for t in steps:
        direct = modulus(f, 2, t, (-1, 1), grid=256).value
        table = prof.value(t)
        assert table == pytest.approx(direct, rel=1e-3)
        assert table <= direct * 1.001


def test_profile_small_steps():
    f = lambda x: np.exp(np.asarray(x))
    prof = ModulusProfile(f, 2, (-1, 1), (1e-5,), grid=256)
    # a tiny step reads its own row maximum; compare with the
    # second-difference magnitude ~ max|f''| t^2
    v = prof.value(1e-5)
    assert 0.5 * math.exp(-1) * 1e-10 < v < math.e * 1e-10 * 1.01


def _row_max_by_hand(f, k, u, interval, grid):
    a, b = interval
    xs = np.linspace(a + 0.5 * k * u, b - 0.5 * k * u, grid)
    return max(abs(finite_difference(f, k, u, float(x), interval)) for x in xs)


def test_profile_value_is_running_max_of_row_maxima():
    # the row maxima of sin(6x), about 2 (1 - cos 6u), peak near u = 0.52
    # and fall after it, so the running max differs from the row at 0.7, 0.9
    f = lambda x: np.sin(6.0 * np.asarray(x))
    steps = [0.9, 0.1, 0.5, 0.3, 0.5, 0.7, 0.6]
    prof = ModulusProfile(f, 2, (-1, 1), steps, grid=129)
    assert list(prof.us) == sorted(set(steps))
    rows = {u: _row_max_by_hand(f, 2, u, (-1, 1), 129) for u in set(steps)}
    assert rows[0.9] < rows[0.7] < rows[0.5]
    for t in steps:
        want = max(v for u, v in rows.items() if u <= t)
        assert prof.value(t) == pytest.approx(want, rel=1e-12)


def test_profile_is_zero_below_first_step():
    f = lambda x: np.exp(np.asarray(x))
    prof = ModulusProfile(f, 2, (-1, 1), (0.2, 0.4), grid=64)
    assert prof.value(0.4) > prof.value(0.2) > 0.0
    for t in (0.199, 0.0, -1.0):
        assert prof.value(t) == 0.0
    assert ModulusProfile(f, 2, (-1, 1), (), grid=64).value(0.5) == 0.0


def test_profile_array_and_scalar_queries_agree():
    f = lambda x: np.sin(6.0 * np.asarray(x))
    prof = ModulusProfile(f, 2, (-1, 1), np.linspace(0.05, 1.0, 9), grid=64)
    qs = np.linspace(-0.1, 1.5, 33)
    got = prof.value(qs)
    assert isinstance(got, np.ndarray) and got.shape == qs.shape
    for q, v in zip(qs, got):
        scalar = prof.value(float(q))
        assert isinstance(scalar, float) and scalar == v


def test_profile_clamps_steps_to_admissible():
    f = lambda x: np.exp(np.asarray(x))
    # on [-1, 1] with k = 2 no step above 1 fits
    prof = ModulusProfile(f, 2, (-1, 1), (0.5, 3.0, 7.0), grid=64)
    assert list(prof.us) == [0.5, 1.0]
    at_limit = ModulusProfile(f, 2, (-1, 1), (1.0,), grid=64).value(1.0)
    assert at_limit > 0.0
    assert prof.value(1.0) == prof.value(7.0) == at_limit


def test_modulus_argmax_admissible():
    f = lambda x: np.exp(np.asarray(x))
    for k, t, interval in [(2, 0.5, (-1.0, 1.0)), (1, 2.0, (0.0, 1.0)), (3, 0.3, (-0.5, 0.75))]:
        res = modulus(f, k, t, interval, grid=64)
        a, b = interval
        assert res.value >= 0.0
        assert a - 1e-12 <= res.arg_x - k * res.arg_u / 2
        assert res.arg_x + k * res.arg_u / 2 <= b + 1e-12


def _row_max_reference(f, k, u, a, b, grid, focus):
    """One step's row maximum by a plain per-step pass over the lattice and
    the kink windows, concatenated, first maximum winning."""
    lo, hi = a + 0.5 * k * u, b - 0.5 * k * u
    if hi < lo:
        return 0.0, 0.5 * (a + b)
    xs = [np.linspace(lo, hi, grid)]
    xs += [np.linspace(max(lo, p - k * u), min(hi, p + k * u), 65)
           for p in focus if lo - k * u <= p <= hi + k * u]
    xs = np.concatenate(xs)
    weights = [(-1.0) ** i * math.comb(k, i) for i in range(k + 1)]
    acc = np.zeros_like(xs)
    for i in range(k + 1):
        acc += weights[i] * f(np.clip(xs + (0.5 * k - i) * u, a, b))
    j = int(np.argmax(np.abs(acc)))
    return float(abs(acc[j])), float(xs[j])


def _two_kinks(x):
    x = np.asarray(x, dtype=float)
    return np.abs(x + 0.99) + 0.5 * np.maximum(x - 0.985, 0.0) ** 2 + np.sin(30.0 * x)


_BLOCK_CASES = {
    # oracle, interval, focus, grid
    "smooth": (lambda x: np.sin(5.0 * np.asarray(x)) + np.asarray(x) ** 2, (-1.0, 1.0), (), 256),
    "kinks near both ends": (_two_kinks, (-1.0, 1.0), (-0.99, 0.985), 200),
    # the kink at 0.985 lies past b, in reach of the long steps only
    "kink past the interval": (_two_kinks, (-1.0, 0.5), (-0.99, 0.985), 200),
    # exact ties between lattice and window centers; at the admissible
    # limit b - ku/2 rounds below a + ku/2, so that row has no center
    "jump with ties": (lambda x: (np.asarray(x) >= 0.3) * 1.0, (0.1, 0.7), (0.3,), 128),
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("case", list(_BLOCK_CASES))
def test_blocked_profile_equals_per_step_loop(k, case):
    f, (a, b), focus, grid = _BLOCK_CASES[case]
    limit = (b - a) / k
    # more steps than one block holds and not a multiple of it, the
    # admissible limit itself, and a step past it that clamps onto it
    per_block = BLOCK_POINTS // (grid + 65 * len(focus))
    n = 2 * per_block + 7
    steps = np.concatenate([limit * np.arange(1, n + 1) / n * 0.999, [limit, 3.0 * limit]])
    prof = ModulusProfile(f, k, (a, b), steps, grid=grid, focus=focus)
    assert prof.us.size == n + 1 and prof.us[-1] == limit
    want = [_row_max_reference(f, k, float(u), a, b, grid, focus) for u in prof.us]
    assert prof.rows.tolist() == [v for v, _ in want]
    assert prof.arg_x.tolist() == [x for _, x in want]


def test_modulus_is_first_maximum_row_of_focused_profile():
    # one profile over the steps t_eff j/grid, kink windows included, and
    # nothing searched after it
    f, (a, b), focus, grid = _BLOCK_CASES["kinks near both ends"]
    for k, t in [(1, 0.05), (2, 0.3), (3, 2.0)]:
        res = modulus(f, k, t, (a, b), grid=grid, focus=focus)
        t_eff = min(t, (b - a) / k)
        prof = ModulusProfile(f, k, (a, b), t_eff * np.arange(1, grid + 1) / grid,
                              grid=grid, focus=focus)
        j = int(np.argmax(prof.rows))
        assert (res.value, res.arg_u, res.arg_x) == (prof.rows[j], prof.us[j], prof.arg_x[j])


def test_modulus_focus_finds_a_kink_the_lattice_steps_over():
    p, t = 0.123456789, 1e-4
    f = lambda x: np.abs(np.asarray(x) - p)
    assert modulus(f, 2, t, (-1, 1), grid=64).value < 1e-12
    assert modulus(f, 2, t, (-1, 1), grid=64, focus=(p,)).value == pytest.approx(2 * t, rel=1e-9)


def test_blocked_profile_of_no_steps():
    prof = ModulusProfile(np.exp, 2, (-1.0, 1.0), [], grid=64)
    assert prof.us.size == prof.rows.size == prof.arg_x.size == 0
    assert prof.value(1.0) == 0.0


def test_profile_rejects_coarse_grid():
    for grid in (0, 1, 63):
        with pytest.raises(ValueError, match="grid must be >= 64"):
            ModulusProfile(np.exp, 2, (-1.0, 1.0), (0.5,), grid=grid)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_profile_refuses_non_finite_differences(bad):
    f = lambda x: np.where(np.asarray(x) > 0.5, bad, np.asarray(x) ** 2)
    with pytest.raises(ValueError, match="non-finite"):
        ModulusProfile(f, 2, (0.0, 1.0), (0.1, 0.3), grid=64)
    with pytest.raises(ValueError, match="non-finite"):
        modulus(f, 2, 0.3, (0.0, 1.0), grid=64)


def test_profile_oracle_calls_are_blocked():
    # k+1 oracle calls per block of centers, not per step
    calls = []

    def f(x):
        calls.append(np.size(x))
        return np.cosh(x)

    k, grid, steps = 2, 512, np.linspace(1e-3, 1.0, 512)
    ModulusProfile(f, k, (-1.0, 1.0), steps, grid=grid)
    assert len(calls) <= (k + 1) * math.ceil(512 * grid / BLOCK_POINTS)
    assert sum(calls) == (k + 1) * 512 * grid


def _lattice_reference(f, k, t, lo, hi, grid, columns=16):
    """One interval's lattice bound by plain loops: grid + 1 linspace points,
    the steps m_j = (j grid)//(k columns) cut to t, explicit k-th differences
    at every admissible left end."""
    v = np.asarray(f(np.linspace(lo, hi, grid + 1)), dtype=float)
    h = (hi - lo) / grid
    weights = [(-1.0) ** i * math.comb(k, i) for i in range(k + 1)]
    best = 0.0
    for j in range(1, columns + 1):
        m = min((j * grid) // (k * columns), math.floor(j * grid * (t / (hi - lo)) / columns))
        if m == 0:
            continue
        assert m * h <= t * j / columns * (1 + 1e-15)
        for s in range(grid + 1 - k * m):
            acc = 0.0
            for i in range(k + 1):
                acc += weights[i] * v[s + (k - i) * m]
            best = max(best, abs(acc))
    return best


def _lattice_oracles():
    return {"exp": parse_function("exp:alpha=2").deriv_fn(2),
            "kink": parse_function("truncpow:r=1,eps=0.3").deriv_fn(1),
            "sin": lambda x: np.sin(7.0 * np.asarray(x))}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("grid", [64, 100, 257])
def test_lattice_bound_equals_loop_reference(k, grid):
    rng = np.random.default_rng(grid + k)
    for name, f in _lattice_oracles().items():
        for _ in range(3):
            lo = rng.uniform(-1.0, 0.6)
            hi = lo + rng.uniform(0.05, 1.0 - lo)
            for t in (hi - lo, 0.3 * (hi - lo) / k):
                got = modulus_lower_bound(f, k, t, (lo, hi), grid)
                assert got == pytest.approx(_lattice_reference(f, k, t, lo, hi, grid),
                                            rel=1e-13, abs=1e-15), (name, lo, hi, t)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_batched_lattice_equals_one_interval_calls(k):
    # more intervals than one block holds, steps cut short on some rows, and
    # rows that read 0: a zero, negative or nan step and an empty interval
    def f(x):
        return np.exp(x) + np.abs(np.asarray(x) - 0.3)

    grid = 256
    per_block = BLOCK_POINTS // (grid + 1)
    knots = np.cos(np.pi * np.arange(2 * per_block + 6, -1, -1) / (2 * per_block + 6))
    intervals = np.column_stack([knots[:-1], knots[1:]])
    ts = np.diff(knots).copy()
    ts[::5] *= 0.25
    ts[3], ts[7], ts[11] = 0.0, -1.0, math.nan
    intervals[13, 1] = intervals[13, 0]
    got = modulus_lower_bounds(f, k, ts, intervals, grid)
    want = [modulus_lower_bound(f, k, t, (lo, hi), grid) for t, (lo, hi) in zip(ts, intervals)]
    assert got.tolist() == want
    assert got[3] == got[7] == got[11] == got[13] == 0.0
    assert np.all(got[[0, 1, 2, 4, 5, 6, 8]] > 0.0)


def test_batched_lattice_oracle_calls_are_blocked():
    calls = []

    def f(x):
        calls.append(np.size(x))
        return np.cosh(x)

    grid, rows = 2048, 20
    knots = np.linspace(-1.0, 1.0, rows + 1)
    modulus_lower_bounds(f, 2, np.diff(knots), np.column_stack([knots[:-1], knots[1:]]), grid)
    assert len(calls) == math.ceil(rows / (BLOCK_POINTS // (grid + 1)))
    assert max(calls) <= BLOCK_POINTS and sum(calls) == rows * (grid + 1)


def test_lattice_bound_of_exponential_matches_closed_form():
    # f^(r) = alpha^r e^(alpha x) is convex and increasing, so its largest
    # second difference on [lo, hi] takes the longest step h/2 at the center
    # (lo + hi)/2: alpha^r e^(alpha hi) (1 - e^(-alpha h/2))^2
    rng = np.random.default_rng(7)
    for _ in range(40):
        alpha, r = rng.uniform(0.3, 4.0), int(rng.integers(1, 4))
        lo = rng.uniform(-1.0, 0.9)
        hi = min(1.0, lo + rng.uniform(0.02, 1.5))
        h = hi - lo
        want = alpha ** r * math.exp(alpha * hi) * (-math.expm1(-alpha * h / 2)) ** 2
        fr = parse_function(f"exp:alpha={alpha!r}").deriv_fn(r)
        assert modulus_lower_bound(fr, 2, h, (lo, hi)) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("grid", [64, 100, 2048])
def test_lattice_bound_of_kinked_derivative(grid):
    # truncpow:r=1 has f' = 2 (x - p)_+, whose omega_2 on [lo, hi] around the
    # kink p is 2 min(p - lo, hi - p).  Every lattice point is a center, and
    # with an even grid the longest step spans the interval, so the bound
    # reaches 2 (largest lattice step <= that distance) up to rounding
    f = parse_function("truncpow:r=1,eps=0.3")
    fr, p = f.deriv_fn(1), f.nonsmooth[0]
    rounding = 1e-13
    rng = np.random.default_rng(grid)
    for _ in range(50):
        lo, hi = p - rng.uniform(1e-4, 0.6), min(1.0, p + rng.uniform(1e-4, 0.6))
        d = min(p - lo, hi - p)
        got = modulus_lower_bound(fr, 2, hi - lo, (lo, hi), grid)
        step = (hi - lo) / grid
        largest = max([m * step for m in {(j * grid) // 32 for j in range(1, 17)}
                       if m * step <= d], default=0.0)
        assert got <= 2.0 * d + rounding
        assert got >= 2.0 * largest - rounding
