"""Partitions, pointwise weights, and convex function oracles.

Oracles carry exact closed-form derivative evaluators up to their guaranteed
smoothness order; numerical differentiation is only ever a cross-check.  The
endpoint Hermite blocks consume derivative values at the interval ends, and
noise there would destroy them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "InvalidN",
    "Partition",
    "ConvexOracle",
    "AffineMap",
    "phi",
    "rho",
    "chebyshev_partition",
    "uniform_partition",
    "read_partition",
    "normalize_to_unit",
    "tangent_line",
    "reflect",
    "exp_oracle",
    "cosh_oracle",
    "even_power_oracle",
    "poly_oracle",
    "f0_oracle",
    "truncpow_oracle",
    "parse_function",
]

SMOOTH_ORDER_CAP = 8


class InvalidN(ValueError):
    """Partition size below the minimum the construction can address."""


@dataclass(frozen=True)
class Partition:
    """Sorted knot vector x_0 < x_1 < ... < x_n with n >= 2."""

    knots: np.ndarray

    def __post_init__(self):
        ks = np.asarray(self.knots, dtype=float)
        if ks.ndim != 1 or ks.size < 3:
            raise InvalidN("need at least 3 knots (n >= 2)")
        if not np.all(np.diff(ks) > 0):
            raise ValueError("knots must be strictly increasing")
        ks.setflags(write=False)
        object.__setattr__(self, "knots", ks)

    @property
    def n(self) -> int:
        return self.knots.size - 1

    @property
    def a(self) -> float:
        return float(self.knots[0])

    @property
    def b(self) -> float:
        return float(self.knots[-1])

    def knot(self, j: int) -> float:
        """Knot accessor with the clamping convention: j > n maps to b, j < 0 to a."""
        if j < 0:
            return self.a
        if j > self.n:
            return self.b
        return float(self.knots[j])

    def interval(self, j: int):
        """The j-th interval [x_{j-1}, x_j], 1 <= j <= n."""
        if not 1 <= j <= self.n:
            raise IndexError(f"interval index {j} outside 1..{self.n}")
        return float(self.knots[j - 1]), float(self.knots[j])

    def lengths(self) -> np.ndarray:
        return np.diff(self.knots)


def chebyshev_partition(n: int) -> Partition:
    """Knots -cos(j pi / n), j = 0..n, with exact endpoint snap.

    Computed through sin(pi (2j - n) / (2n)) so the knot vector is exactly
    antisymmetric in floating point.
    """
    n = int(n)
    if n < 2:
        raise InvalidN(f"Chebyshev partition needs n >= 2, got {n}")
    j = np.arange(n + 1)
    ks = np.sin(np.pi * (2 * j - n) / (2 * n))
    ks[0] = -1.0
    ks[-1] = 1.0
    if n % 2 == 0:
        ks[n // 2] = 0.0
    return Partition(ks)


def uniform_partition(a: float, b: float, n: int) -> Partition:
    if n < 2:
        raise InvalidN(f"need n >= 2, got {n}")
    return Partition(np.linspace(a, b, n + 1))


def read_partition(path) -> Partition:
    """Plain-text partition file: one knot per line, strictly increasing."""
    with open(path, "r", encoding="utf-8") as fh:
        vals = [float(line) for line in fh if line.strip()]
    return Partition(np.asarray(vals))


def phi(x):
    """sqrt(1 - x^2), clipped against rounding spill just outside [-1, 1]."""
    x = np.asarray(x, dtype=float)
    out = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    return float(out) if out.ndim == 0 else out


def rho(n: int, x):
    """The pointwise scale phi(x)/n + 1/n^2."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return phi(x) / n + 1.0 / (n * n)


@dataclass(frozen=True)
class ConvexOracle:
    """A convex function with exact derivative evaluators up to order r."""

    name: str
    params: dict
    r: int
    domain: tuple
    derivs: tuple = field(repr=False)  # derivs[nu](x), nu = 0..r
    nonsmooth: tuple = ()

    def __post_init__(self):
        if len(self.derivs) < self.r + 1:
            raise ValueError("need derivative evaluators up to order r")

    def __call__(self, x):
        return self.derivs[0](np.asarray(x, dtype=float))

    def deriv(self, nu: int, x):
        """Value of the nu-th derivative (nu = 0 is the function itself)."""
        if not 0 <= nu <= self.r:
            raise ValueError(f"derivative order {nu} outside 0..{self.r}")
        return self.derivs[nu](np.asarray(x, dtype=float))

    def deriv_fn(self, nu: int):
        if not 0 <= nu <= self.r:
            raise ValueError(f"derivative order {nu} outside 0..{self.r}")
        return self.derivs[nu]

    @property
    def a(self) -> float:
        return float(self.domain[0])

    @property
    def b(self) -> float:
        return float(self.domain[1])

    def label(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={_fmt_param(v)}" for k, v in self.params.items())
        return f"{self.name}:{inner}"


def _fmt_param(v):
    if isinstance(v, (list, tuple)):
        return ",".join(repr(float(x)) for x in v)
    if float(v) == int(v):
        return str(int(v))
    return repr(float(v))


@dataclass(frozen=True)
class AffineMap:
    """The map of [a, b] onto [0, 1]: u = (x - shift)/scale.  The secant
    that normalization subtracts, f(a) + (f(b) - f(a)) u, is recomputed from
    f where it is needed."""

    scale: float
    shift: float


def normalize_to_unit(f: ConvexOracle, interval=None):
    """Map f|[a,b] onto [0,1] and subtract the secant: g(0) = g(1) = 0.

    Returns (g, AffineMap).  Derivatives of g pick up the factor (b-a)^nu;
    the secant only touches orders 0 and 1.
    """
    a, b = (f.domain if interval is None else interval)
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    length = b - a
    fa = float(f(a))
    fb = float(f(b))
    slope = fb - fa  # per unit coordinate
    amap = AffineMap(scale=length, shift=a)

    def make(nu):
        base = f.deriv_fn(nu)
        fac = length ** nu
        if nu == 0:
            return lambda u: base(a + length * np.asarray(u, dtype=float)) - (slope * np.asarray(u, dtype=float) + fa)
        if nu == 1:
            return lambda u: fac * base(a + length * np.asarray(u, dtype=float)) - slope
        return lambda u: fac * base(a + length * np.asarray(u, dtype=float))

    g = ConvexOracle(
        name=f.name,
        params=dict(f.params),
        r=f.r,
        domain=(0.0, 1.0),
        derivs=tuple(make(nu) for nu in range(f.r + 1)),
        nonsmooth=tuple((p - a) / length for p in f.nonsmooth if a <= p <= b),
    )
    return g, amap


def tangent_line(f: ConvexOracle, x0: float):
    """(slope, intercept) of the tangent line to f at x0."""
    x0 = float(x0)
    slope = float(f.deriv(1, x0))
    intercept = float(f(x0)) - slope * x0
    return slope, intercept


def reflect(f: ConvexOracle, interval=None) -> ConvexOracle:
    """The reflection g(x) = f(a + b - x) on the same interval."""
    a, b = (f.domain if interval is None else interval)
    a, b = float(a), float(b)
    s = a + b

    def make(nu):
        base = f.deriv_fn(nu)
        sign = (-1.0) ** nu
        return lambda x: sign * base(s - np.asarray(x, dtype=float))

    return ConvexOracle(
        name=f.name + "~",
        params=dict(f.params),
        r=f.r,
        domain=(a, b),
        derivs=tuple(make(nu) for nu in range(f.r + 1)),
        nonsmooth=tuple(s - p for p in f.nonsmooth),
    )


# ---------------------------------------------------------------------------
# builtin oracle families


def _ipow(y: np.ndarray, e: int) -> np.ndarray:
    """y**e for small integer e by squaring; numpy's pow is ~50x slower."""
    out = np.ones_like(y)
    base = y
    while e:
        if e & 1:
            out = out * base
        e >>= 1
        if e:
            base = base * base
    return out


def exp_oracle(alpha: float = 1.0, domain=(-1.0, 1.0)) -> ConvexOracle:
    alpha = float(alpha)

    def make(nu):
        fac = alpha ** nu
        return lambda x: fac * np.exp(alpha * np.asarray(x, dtype=float))

    return ConvexOracle("exp", {"alpha": alpha}, SMOOTH_ORDER_CAP, tuple(domain),
                        tuple(make(nu) for nu in range(SMOOTH_ORDER_CAP + 1)))


def cosh_oracle(beta: float = 1.0, domain=(-1.0, 1.0)) -> ConvexOracle:
    beta = float(beta)

    def make(nu):
        fac = beta ** nu
        fn = np.cosh if nu % 2 == 0 else np.sinh
        return lambda x: fac * fn(beta * np.asarray(x, dtype=float))

    return ConvexOracle("cosh", {"beta": beta}, SMOOTH_ORDER_CAP, tuple(domain),
                        tuple(make(nu) for nu in range(SMOOTH_ORDER_CAP + 1)))


def even_power_oracle(m: int, domain=(-1.0, 1.0)) -> ConvexOracle:
    """x^(2m)."""
    m = int(m)
    if m < 1:
        raise ValueError("need m >= 1")
    p = 2 * m

    def make(nu):
        if nu > p:
            return lambda x: np.zeros_like(np.asarray(x, dtype=float))
        fac = math.perm(p, nu)
        return lambda x: fac * _ipow(np.asarray(x, dtype=float), p - nu)

    return ConvexOracle("xpow", {"m": m}, SMOOTH_ORDER_CAP, tuple(domain),
                        tuple(make(nu) for nu in range(SMOOTH_ORDER_CAP + 1)))


def poly_oracle(coeffs, domain=(-1.0, 1.0)) -> ConvexOracle:
    """Polynomial with prescribed ascending coefficients; caller owns convexity."""
    cs = np.asarray(list(coeffs), dtype=float)
    if cs.size == 0:
        raise ValueError("need at least one coefficient")

    def make(nu):
        d = np.polynomial.polynomial.polyder(cs, nu) if nu > 0 else cs
        if d.size == 0:
            d = np.zeros(1)
        return lambda x, d=d: np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), d)

    return ConvexOracle("poly", {"coeffs": tuple(float(c) for c in cs)},
                        SMOOTH_ORDER_CAP, tuple(domain),
                        tuple(make(nu) for nu in range(SMOOTH_ORDER_CAP + 1)))


def f0_oracle(r: int, domain=(-1.0, 1.0)) -> ConvexOracle:
    """(1 + x)^(r + 1/2): C^r on [-1, 1] with a square-root cusp at -1."""
    r = int(r)
    if r < 1:
        raise ValueError("the square-root family is convex only for r >= 1")
    p = r + 0.5

    def make(nu):
        fac = 1.0
        for i in range(nu):
            fac *= p - i
        whole = r - nu  # exponent is whole + 1/2
        def ev(x, fac=fac, whole=whole):
            y = np.clip(1.0 + np.asarray(x, dtype=float), 0.0, None)
            return fac * _ipow(y, whole) * np.sqrt(y)
        return ev

    return ConvexOracle("f0", {"r": r}, r, tuple(domain),
                        tuple(make(nu) for nu in range(r + 1)))


def truncpow_oracle(r: int, eps: float, domain=(-1.0, 1.0)) -> ConvexOracle:
    """max(0, x - 1 + eps)^(r+1): C^r but not C^(r+1) at 1 - eps."""
    r = int(r)
    eps = float(eps)
    if r < 1 or not 0 < eps < 2:
        raise ValueError("need r >= 1 and eps in (0, 2)")
    p = r + 1

    def make(nu):
        fac = math.perm(p, nu)
        e = p - nu
        return lambda x: fac * _ipow(
            np.clip(np.asarray(x, dtype=float) - 1.0 + eps, 0.0, None), e)

    return ConvexOracle("truncpow", {"r": r, "eps": eps}, r, tuple(domain),
                        tuple(make(nu) for nu in range(r + 1)),
                        nonsmooth=(1.0 - eps,))


_FAMILIES = {
    "exp": (exp_oracle, {"alpha": float}),
    "cosh": (cosh_oracle, {"beta": float}),
    "xpow": (even_power_oracle, {"m": int}),
    "poly": (poly_oracle, {"coeffs": "floats"}),
    "f0": (f0_oracle, {"r": int}),
    "truncpow": (truncpow_oracle, {"r": int, "eps": float}),
}


def parse_function(spec: str) -> ConvexOracle:
    """Build an oracle from a CLI spec like ``exp:alpha=1`` or ``poly:coeffs=0,0,1``.

    Comma-separated values after a ``key=`` with no further ``=`` are folded
    into that key, so list-valued parameters parse naturally.
    """
    spec = spec.strip()
    name, _, rest = spec.partition(":")
    name = name.strip()
    if name not in _FAMILIES:
        raise ValueError(f"unknown function family {name!r}; "
                         f"choose from {sorted(_FAMILIES)}")
    ctor, schema = _FAMILIES[name]
    kwargs = {}
    if rest:
        current = None
        for tok in rest.split(","):
            tok = tok.strip()
            if "=" in tok:
                key, _, val = tok.partition("=")
                current = key.strip()
                kwargs[current] = [val.strip()]
            elif current is not None:
                kwargs[current].append(tok)
            else:
                raise ValueError(f"malformed parameter {tok!r} in {spec!r}")
    args = {}
    for key, vals in kwargs.items():
        if key not in schema:
            raise ValueError(f"unknown parameter {key!r} for family {name!r}")
        nums = [float(v) for v in vals]
        if not all(math.isfinite(v) for v in nums):
            raise ValueError(f"parameter {key!r} of family {name!r} must be finite, "
                             f"got {','.join(vals)}")
        want = schema[key]
        if want == "floats":
            args[key] = nums
        elif len(nums) != 1:
            raise ValueError(f"parameter {key!r} takes a single value")
        else:
            args[key] = want(nums[0])
    return ctor(**args)
