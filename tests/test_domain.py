import math

import numpy as np
import pytest

from convexlab.domain import (
    InvalidN,
    Partition,
    chebyshev_partition,
    cosh_oracle,
    even_power_oracle,
    exp_oracle,
    f0_oracle,
    normalize_to_unit,
    parse_function,
    phi,
    poly_oracle,
    read_partition,
    reflect,
    rho,
    tangent_line,
    truncpow_oracle,
    uniform_partition,
)

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


def test_chebyshev_clamped_accessor():
    t = chebyshev_partition(6)
    assert t.knot(9) == 1.0
    assert t.knot(-3) == -1.0
    assert t.knot(0) == -1.0


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


def test_normalize_affine_gives_zero():
    f = poly_oracle([5.0, -2.0])
    g, amap = normalize_to_unit(f, (-1.0, 1.0))
    us = np.linspace(0, 1, 33)
    assert np.allclose(g(us), 0.0, atol=1e-14)


def test_normalize_square_on_sym_interval():
    f = poly_oracle([0.0, 0.0, 1.0])
    g, amap = normalize_to_unit(f, (-1.0, 1.0))
    us = np.linspace(0, 1, 41)
    assert np.allclose(g(us), 4 * us**2 - 4 * us, atol=1e-13)
    assert g(0.0) == pytest.approx(0.0, abs=1e-14)
    assert g(1.0) == pytest.approx(0.0, abs=1e-14)


def test_normalize_round_trip():
    rng = np.random.default_rng(7)
    f = exp_oracle(1.3)
    g, amap = normalize_to_unit(f, (-1.0, 1.0))
    us = rng.uniform(0, 1, 100)
    fa, fb = float(f(-1.0)), float(f(1.0))
    back = g(us) + (fa + (fb - fa) * us)
    want = f(amap.shift + amap.scale * us)
    assert np.allclose(back, want, rtol=1e-12)


def test_normalize_derivative_scaling():
    f = cosh_oracle(0.7)
    g, amap = normalize_to_unit(f, (-1.0, 1.0))
    us = np.linspace(0, 1, 9)
    xs = amap.shift + amap.scale * us
    assert np.allclose(g.deriv(2, us), 4.0 * f.deriv(2, xs), rtol=1e-12)
    slope = float(f(1.0)) - float(f(-1.0))
    assert np.allclose(g.deriv(1, us), 2.0 * f.deriv(1, xs) - slope, rtol=1e-12)


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


def test_parse_function_rejects_unknown():
    with pytest.raises(ValueError):
        parse_function("sin:freq=1")
    with pytest.raises(ValueError):
        parse_function("exp:gamma=2")


def test_uniform_partition():
    p = uniform_partition(0.0, 1.0, 4)
    assert np.allclose(p.knots, [0, 0.25, 0.5, 0.75, 1.0])
