import math

import numpy as np
import pytest

from convexlab.domain import (
    InvalidN,
    _ipow,
    Partition,
    chebyshev_partition,
    cosh_oracle,
    even_power_oracle,
    exp_oracle,
    f0_oracle,
    parse_function,
    phi,
    poly_oracle,
    read_partition,
    rho,
    tangent_line,
    truncpow_oracle,
)
from helpers import reflect

ALL_ORACLES = [
    exp_oracle(1.0),
    exp_oracle(-2.0),
    cosh_oracle(1.5),
    even_power_oracle(2),
    poly_oracle([0.0, 0.0, 1.0]),
    f0_oracle(1),
    f0_oracle(2),
    truncpow_oracle(1, 0.1),
    truncpow_oracle(2, 0.05),
]


def test_chebyshev_small_cases():
    t = chebyshev_partition(2)
    assert np.allclose(t.knots, [-1.0, 0.0, 1.0])
    t4 = chebyshev_partition(4)
    assert t4.knots[1] == pytest.approx(-math.sqrt(2) / 2, abs=1e-15)
    assert t4.knots[0] == -1.0 and t4.knots[-1] == 1.0


def test_chebyshev_antisymmetric():
    t = chebyshev_partition(9)
    assert np.all(t.knots + t.knots[::-1] == 0.0)


def test_chebyshev_invalid_n():
    with pytest.raises(InvalidN):
        chebyshev_partition(1)


def test_endpoint_gap_identity():
    for n in (4, 16, 64, 256):
        t = chebyshev_partition(n)
        gap = 2.0 * math.sin(math.pi / (2 * n)) ** 2
        assert t.knots[1] + 1.0 == pytest.approx(gap, abs=1e-12)
        assert 1.0 - t.knots[-2] == pytest.approx(gap, abs=1e-12)


def test_chebyshev_mesh_comparable_to_rho():
    worst = 0.0
    for n in (8, 32, 128, 512):
        t = chebyshev_partition(n)
        for j in range(2, n):
            lo, hi = t.interval(j)
            length = hi - lo
            for x in np.linspace(lo, hi, 5):
                ratio = length / rho(n, float(x))
                worst = max(worst, ratio, 1.0 / ratio)
    assert worst <= 10.0


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(np.array([0.0, 0.5, 0.5, 1.0]))
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="knots must be finite and strictly increasing"):
            Partition(np.array([0.0, 1.0, bad]))
    with pytest.raises(InvalidN):
        Partition(np.array([0.0, 1.0]))


def test_read_partition(tmp_path):
    p = tmp_path / "knots.txt"
    p.write_text("0.0\n0.25\n0.5\n1.0\n")
    part = read_partition(p)
    assert part.n == 3
    assert part.a == 0.0 and part.b == 1.0


def test_rho_values():
    assert rho(10, 1.0) == pytest.approx(0.01)
    assert rho(10, -1.0) == pytest.approx(0.01)
    assert rho(10, 0.0) == pytest.approx(0.11)


def test_rho_comparable_to_phi_over_n():
    # on [-1 + n^-2, 1 - n^-2] the ratio rho / (phi/n) sits inside [1, 3]
    for n in (1, 2, 5, 17, 64, 301):
        edge = 1.0 - 1.0 / n**2
        xs = np.linspace(-edge, edge, 501)
        ratio = rho(n, xs) / (phi(xs) / n)
        assert np.all(ratio >= 1.0 - 1e-12)
        assert np.all(ratio <= 3.0 + 1e-12)


def test_tangent_line_simple():
    f = poly_oracle([0.0, 0.0, 1.0])
    assert tangent_line(f, 0.0) == (0.0, 0.0)
    slope, intercept = tangent_line(f, 1.0)
    assert slope == pytest.approx(2.0)
    assert intercept == pytest.approx(-1.0)


def test_tangent_supports_convex_function():
    xs = np.linspace(-1, 1, 100)
    for f in ALL_ORACLES:
        slope, intercept = tangent_line(f, 0.3)
        assert np.all(f(xs) - (slope * xs + intercept) >= -1e-10)


def test_oracles_convex_spot_check():
    xs = np.linspace(-1, 1, 1000)
    for f in ALL_ORACLES:
        if f.r >= 2:
            assert np.all(f.deriv(2, xs) >= -1e-12), f.label()


def test_oracle_derivative_consistency():
    # central difference of f^(nu-1) against the exact f^(nu), away from kinks
    rng = np.random.default_rng(11)
    h = 1e-6
    for f in ALL_ORACLES:
        pts = rng.uniform(-0.9, 0.9, 10)
        for kink in f.nonsmooth:
            pts = pts[np.abs(pts - kink) > 50 * h]
        for nu in range(1, f.r + 1):
            approx = (f.deriv(nu - 1, pts + h) - f.deriv(nu - 1, pts - h)) / (2 * h)
            exact = f.deriv(nu, pts)
            scale = np.maximum(1.0, np.abs(exact))
            assert np.all(np.abs(exact - approx) / scale < 1e-5), (f.label(), nu)


def test_truncpow_left_branch_exactly_zero():
    f = truncpow_oracle(2, 0.1)
    xs = np.linspace(-1, 0.85, 50)
    for nu in range(3):
        assert np.all(f.deriv(nu, xs) == 0.0)


def test_f0_requires_r_at_least_one():
    with pytest.raises(ValueError):
        f0_oracle(0)


def test_reflect_identity():
    f = exp_oracle(1.0)
    g = reflect(f)
    xs = np.linspace(-1, 1, 21)
    assert np.allclose(g(xs), f(-xs), rtol=1e-14)
    assert np.allclose(g.deriv(1, xs), -f.deriv(1, -xs), rtol=1e-14)
    assert np.allclose(g.deriv(2, xs), f.deriv(2, -xs), rtol=1e-14)


def test_parse_function_families():
    f = parse_function("exp:alpha=1")
    assert f.name == "exp" and f.params["alpha"] == 1.0
    f = parse_function("f0:r=2")
    assert f.params["r"] == 2
    f = parse_function("truncpow:r=1,eps=0.01")
    assert f.params == {"r": 1, "eps": 0.01}
    f = parse_function("poly:coeffs=0,0,1")
    assert f.params["coeffs"] == (0.0, 0.0, 1.0)
    assert f(2.0) == pytest.approx(4.0)


@pytest.mark.parametrize("spec, key, family", [
    ("xpow:m=1.5", "m", "xpow"), ("truncpow:r=1.9,eps=0.1", "r", "truncpow"),
    ("f0:r=2.5", "r", "f0")])
def test_parse_function_refuses_non_integral_int_parameters(spec, key, family):
    # int(1.5) would silently build m = 1 and label the oracle xpow:m=1
    with pytest.raises(ValueError, match=f"parameter '{key}' of family '{family}' "
                                         "must be an integer"):
        parse_function(spec)


def test_parse_function_accepts_integral_spellings():
    assert parse_function("xpow:m=2.0").label() == parse_function("xpow:m=2").label()
    assert parse_function("truncpow:r=1e0,eps=0.1").params == {"r": 1, "eps": 0.1}


def test_parse_function_rejects_unknown():
    with pytest.raises(ValueError):
        parse_function("sin:freq=1")
    with pytest.raises(ValueError):
        parse_function("exp:gamma=2")


def _ipow_reference(y, e):
    """domain._ipow as it was, the product started from ones."""
    out = np.ones_like(y)
    base = y
    while e:
        if e & 1:
            out = out * base
        e >>= 1
        if e:
            base = base * base
    return out


def test_ipow_equals_product_from_ones_bit_for_bit():
    tiny = np.nextafter(0.0, 1.0)
    y = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1e-310, -2.2e-308,
                  0.5, -0.75, 1.0, -1.0, 3.0, 1e100, -1e200, 7.5e-40])
    for e in range(9):
        with np.errstate(all="ignore"):
            got, want = _ipow(y.copy(), e), _ipow_reference(y, e)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist(), e


def test_ipow_squares_in_its_argument():
    y = np.array([0.5, -0.75, 3.0, -0.0, 1e100])
    for e in range(9):
        mine = y.copy()
        with np.errstate(all="ignore"):
            got = _ipow(mine, e)
        # the ladder's base is squared in place; e = 1 is y itself
        assert (got is mine) == (e > 0 and e & (e - 1) == 0), e
        assert type(_ipow(np.float64(-0.75), e)) is np.float64, e
    assert _ipow(np.float64(np.nan), 0) == 1.0


def _plain_deriv(f, nu):
    """f^(nu) of a builtin oracle as the plain numpy expression, one new
    array per step: what its evaluator computes in place."""
    def arr(x):
        return np.asarray(x, dtype=float)

    if f.name == "exp":
        a = f.params["alpha"]
        return lambda x: a ** nu * np.exp(a * arr(x))
    if f.name == "cosh":
        b = f.params["beta"]
        fn = np.cosh if nu % 2 == 0 else np.sinh
        return lambda x: b ** nu * fn(b * arr(x))
    if f.name == "xpow":
        p = 2 * f.params["m"]
        return lambda x: math.perm(p, nu) * _ipow_reference(arr(x), max(p - nu, 0))
    if f.name == "poly":
        d = np.polynomial.polynomial.polyder(np.array(f.params["coeffs"]), nu)
        d = d if d.size else np.zeros(1)
        return lambda x: np.polynomial.polynomial.polyval(arr(x), d)
    if f.name == "f0":
        fac = 1.0
        for i in range(nu):
            fac *= f.r + 0.5 - i

        def ev(x):
            y = np.clip(1.0 + arr(x), 0.0, None)
            return fac * _ipow_reference(y, f.r - nu) * np.sqrt(y)
        return ev
    assert f.name == "truncpow"
    p, eps = f.r + 1, f.params["eps"]
    return lambda x: math.perm(p, nu) * _ipow_reference(
        np.clip(arr(x) - 1.0 + eps, 0.0, None), p - nu)


@pytest.mark.parametrize("spec", [
    "exp:alpha=1", "exp:alpha=-2.5", "cosh:beta=1.5", "cosh:beta=-3", "xpow:m=1", "xpow:m=3",
    "poly:coeffs=0.5,-0.25,1,0.125", "poly:coeffs=2", "f0:r=1", "f0:r=3",
    "truncpow:r=1,eps=0.01", "truncpow:r=3,eps=1.5"])
def test_evaluators_in_place_equal_the_plain_expressions_bit_for_bit(spec):
    f = parse_function(spec)
    block = np.random.default_rng(7).uniform(-1.3, 1.3, 4096)
    block[:10] = [-1.0, 1.0, 0.0, -0.0, 1e-300, np.nan, np.inf, -np.inf, 1e300, 0.99]
    view = block.view()
    view.flags.writeable = False
    before = block.copy()
    inputs = [block, view, block[::3], block.reshape(64, 64), 0.3, -1.0, np.float64(0.7),
              np.array(-0.25), np.array([0.5])]
    for nu in range(f.r + 1):
        for x in inputs:
            with np.errstate(all="ignore"):
                got, want = f.deriv(nu, x), _plain_deriv(f, nu)(x)
            assert type(got) is type(want), (nu, x)
            assert np.shape(got) == np.shape(want), (nu, x)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (nu, x)
            if isinstance(x, np.ndarray) and x.ndim:
                # a new writable array, so smoothness._row_maxima scales it in place
                assert got.flags.writeable and not np.shares_memory(got, x), (nu, x)
    assert before.tobytes() == block.tobytes()


@pytest.mark.parametrize("spec, r", [("f0:r=2", 2), ("truncpow:r=1,eps=0.1", 1)])
def test_omega2_bound_of_a_corner_family_holds_only_at_r(spec, r):
    enclosure = parse_function(spec).omega_enclosure
    for k in (1, 2):
        low, up = enclosure(k, r, 0.1, -1.0, 1.0)
        assert 0.0 < low < up < math.inf
        assert [tuple(enclosure(k, nu, 0.1, -1.0, 1.0)) for nu in range(r)] == [(0.0, math.inf)] * r


def _mp_sup(mpmath, g, k, t, lo, hi, marks):
    """The largest |Delta^k_u g(z)| over a few admissible (u, z) at the working
    precision: at most the exact modulus.  The steps are min(t, (hi - lo)/k),
    its half, and its cut at 2m/3 and m (m = max(|lo|, |hi|)), where the
    moduli of the odd and even families turn; the centers are both ends of
    each step's admissible range, its middle, and every mark inside it."""
    lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
    v = min(mpmath.mpf(t), (hi - lo) / k)
    m = max(abs(lo), abs(hi))
    best = mpmath.mpf(0)
    for u in {v, v / 2, min(v, 2 * m / 3), min(v, m)}:
        zlo, zhi = lo + k * u / 2, hi - k * u / 2
        for z in [zlo, zhi, (zlo + zhi) / 2] + [p for p in marks if zlo <= p <= zhi]:
            if k == 1:
                d = g(z + u / 2) - g(z - u / 2)
            else:
                d = g(z + u) - 2 * g(z) + g(z - u)
            best = max(best, abs(d))
    return best


@pytest.mark.parametrize("spec, nu", [(f"exp:alpha={a}", nu) for a in (0.5, 7.42788, 20, -3)
                                      for nu in (1, 2, 3)]
                         + [(f"cosh:beta={b}", nu) for b in (0.7, 1.84, 6, -2) for nu in (1, 2, 3)]
                         + [(f"f0:r={r}", r) for r in (1, 2, 3)]
                         + [(f"truncpow:r={r},eps={e}", r) for r, e in ((1, 0.3), (2, 0.1), (3, 1.5))]
                         + [(f"xpow:m={m}", nu) for m in (2, 3, 6) for nu in (1, 2, 3)]
                         + [(f"poly:coeffs={cs}", nu) for cs, nus in (
                             ("0.5,-0.25,1,0.125", (1,)), ("2,-1,0.5,0.1,0.05", (1, 2)),
                             ("0,0,1,-0.5,0.2,0.1", (2, 3))) for nu in nus])
def test_omega2_closed_forms_cover_the_exact_modulus_in_mpmath(spec, nu):
    # lower <= |Delta^k_u f^(nu)(z)| <= upper for k = 1 and 2 at 50 digits,
    # at the points of _mp_sup, which hold each family's argmax: the end
    # where |f^(nu)| peaks, -1 and the cusp of f0, the kink 1 - eps of
    # truncpow; and the lower end within 1e-9 relative of the largest of
    # them, so it is the exact modulus (within 1e-12 absolute, which covers
    # truncpow's distance slack where its kink is a few ulps from an end).  On [-1, 1], off-center, across 0 (where odd
    # orders turn), on the first knot interval at n = 256 (which reaches
    # f0's cusp) and the interior one next to 1 (which holds no kink of
    # truncpow), with t = 0.1 past both small intervals' admissible steps and
    # t = 0.5 past the turns 2m/3 and m across 0.
    # poly has no lower end.  Each upper end at k = 2 alone decides glue's
    # smallness radius.
    mpmath = pytest.importorskip("mpmath")
    f = parse_function(spec)
    knots = chebyshev_partition(256).knots
    intervals = [(-1.0, 1.0), (-0.3, 0.9), (-0.4, 0.4), (-1.0, float(knots[1])),
                 (float(knots[-3]), float(knots[-2]))]
    with mpmath.workdps(50):
        marks = [mpmath.mpf(0)]
        if f.name in ("exp", "cosh"):
            c = mpmath.mpf(f.params["alpha" if f.name == "exp" else "beta"])
        if f.name == "exp":
            g = lambda x: c ** nu * mpmath.exp(c * x)  # noqa: E731
        elif f.name == "cosh":
            g = lambda x: c ** nu * (mpmath.sinh if nu % 2 else mpmath.cosh)(c * x)  # noqa: E731
        elif f.name == "f0":
            k = mpmath.fprod(nu + mpmath.mpf(0.5) - i for i in range(nu))
            g = lambda x: k * mpmath.sqrt(max(0, 1 + x))  # noqa: E731
        elif f.name == "truncpow":
            eps = mpmath.mpf(f.params["eps"])
            g = lambda x: mpmath.factorial(nu + 1) * max(0, x - 1 + eps)  # noqa: E731
            marks.append(1 - eps)
        elif f.name == "xpow":
            p = 2 * f.params["m"]
            g = lambda x: mpmath.ff(p, nu) * x ** (p - nu)  # noqa: E731
        else:
            d = [mpmath.mpf(ck) * mpmath.ff(k, nu) for k, ck in enumerate(f.params["coeffs"])][nu:]
            g = lambda x: mpmath.polyval(d[::-1], x)  # noqa: E731
            marks += list(mpmath.linspace(-1, 1, 33))
        for lo, hi in intervals:
            for order in (1, 2):
                for t in (1e-8, 1e-3, 0.1, 0.5):
                    exact = _mp_sup(mpmath, g, order, t, lo, hi, marks)
                    low, up = f.omega_enclosure(order, nu, t, lo, hi)
                    where = (lo, hi, order, t, exact)
                    assert up >= exact, where
                    if f.name != "poly":
                        assert exact * (1 - mpmath.mpf(1e-9)) - 1e-12 <= low <= exact, (low,) + where


def test_omega2_bound_never_raises():
    # overflow in math.exp, math.cosh, float ** int and a sum of finite terms
    for spec, r, end in [("exp:alpha=800", 1, 1.0), ("exp:alpha=-1000", 0, 1.0),
                         ("cosh:beta=800", 1, 1.0), ("xpow:m=200", 2, 10.0),
                         ("poly:coeffs=0,0,1e300,1e300", 0, 1e3)]:
        assert parse_function(spec).omega_enclosure(2, r, 0.5, -end, end)[1] == math.inf, spec
    f = parse_function("exp:alpha=2")
    assert f.omega_enclosure(2, 1, math.nan, -1.0, 1.0)[1] == math.inf
    assert f.omega_enclosure(2, 1, 0.0, -1.0, 1.0)[1] > 0.0  # the rounding of a zero step
    assert f.omega_enclosure(2, 1, 0.5, -1e308, 1e308)[1] == math.inf


@pytest.mark.parametrize("spec, nu", [("exp:alpha=1", 2), ("exp:alpha=-3", 1), ("cosh:beta=1.3", 1),
                                      ("cosh:beta=-2", 2), ("xpow:m=2", 1), ("xpow:m=3", 2),
                                      ("f0:r=2", 2), ("truncpow:r=1,eps=0.2", 1),
                                      ("poly:coeffs=0.5,-0.25,1,0.125", 1)])
def test_omega_enclosure_takes_arrays_entry_by_entry(spec, nu):
    # as certify reads the lower ends of a grid's steps and of many knot
    # intervals in one call; each end equals the scalar call bit for bit
    f = parse_function(spec)
    rng = np.random.default_rng(7)
    knots = chebyshev_partition(64).knots
    ts = np.concatenate([10.0 ** rng.uniform(-9, 0, 40), [0.0, 0.7, 3.0]])
    los, his = np.resize(knots[:-1], ts.size), np.resize(knots[1:], ts.size)
    for k in (1, 2):
        for args in ((ts, -1.0, 1.0), (ts, los, his), (0.01, los, his)):
            low, up = f.omega_enclosure(k, nu, *args)
            each = np.broadcast(*args)
            assert np.shape(up) == each.shape
            pairs = [f.omega_enclosure(k, nu, *map(float, entry)) for entry in each]
            assert [float(u).hex() for u in up] == [float(p[1]).hex() for p in pairs]
            if f.name == "poly":
                assert low is None and all(p[0] is None for p in pairs)
                continue
            assert np.shape(low) == each.shape and np.all(low <= up)
            assert [float(v).hex() for v in low] == [float(p[0]).hex() for p in pairs]


def test_omega_enclosure_lower_end_reads_zero_or_nan_and_k_is_checked():
    f = parse_function("exp:alpha=2")
    assert f.omega_enclosure(2, 1, math.nan, -1.0, 1.0)[0] == 0.0
    assert f.omega_enclosure(1, 1, 0.0, -1.0, 1.0)[0] == 0.0
    assert f.omega_enclosure(2, 1, 0.1, 0.5, 0.5)[0] == 0.0  # no admissible step
    # the closed form of e^(800 x) overflows at x = 1: no lower end, not inf
    assert math.isnan(parse_function("exp:alpha=800").omega_enclosure(2, 1, 0.1, -1.0, 1.0)[0])
    with pytest.raises(ValueError, match="k = 1 or 2"):
        f.omega_enclosure(3, 1, 0.1, -1.0, 1.0)

