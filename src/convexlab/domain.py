"""Partitions, pointwise weights, and convex function oracles.

Oracles carry exact closed-form derivative evaluators up to their guaranteed
smoothness order; numerical differentiation is only ever a cross-check.  The
endpoint Hermite blocks consume derivative values at the interval ends, and
noise there would destroy them.  The construction evaluates f itself, in
x, with no secant subtracted and no derived oracle.  The builtin evaluators
come from two shapes, c^nu g_nu(c x) for ``exp`` and ``cosh`` and
fac_nu base(x)^(p - nu) for ``xpow``, ``f0`` and ``truncpow``; each
allocates one array, its first temporary, and computes every later step in
it, the same floats as the plain expression.  Every builtin family also
carries ``omega_enclosure``, proved bounds of the first- and second-order
moduli of its derivatives: an upper end that covers the rounding of a
sampled modulus, and, for every family but ``poly``, a lower end that is
the exact modulus, reached at one admissible step and center in closed
form, less its rounding slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "InvalidN",
    "Partition",
    "ConvexOracle",
    "phi",
    "rho",
    "chebyshev_partition",
    "read_partition",
    "tangent_line",
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
        if not (np.all(np.isfinite(ks)) and np.all(np.diff(ks) > 0)):
            raise ValueError("knots must be finite and strictly increasing")
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

    def interval(self, j: int):
        """The j-th interval [x_{j-1}, x_j], 1 <= j <= n."""
        if not 1 <= j <= self.n:
            raise IndexError(f"interval index {j} outside 1..{self.n}")
        return float(self.knots[j - 1]), float(self.knots[j])


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
    """A convex function with exact derivative evaluators up to order r.

    ``omega_enclosure(k, nu, t, lo, hi)``, when given, encloses the modulus
    omega_k(f^(nu), t) on [lo, hi] for k = 1 and 2 and returns the pair
    (lower, upper); each end is computed only when it is read.  ``upper`` is
    a float bound of every |Delta^k_u f^(nu)| that ``smoothness`` can compute
    for steps 0 < u <= t and points in [lo, hi]: the exact modulus plus the
    rounding of the sample (the evaluators' own error, fl(x + u) - x !=
    x - fl(x - u), the clip onto [lo, hi] and the sum of the terms).  It
    reads inf where it has no bound or the bound overflows, and never
    raises.  Where it is finite at k = 2 it alone decides glue's smallness
    radius; where it is inf, or the hook is None (a user oracle), the
    sampled modulus decides instead.  ``lower`` is |Delta^k_v f^(nu)(z)| at
    one admissible step and center, computed with a proved slack below
    it, so at most the exact modulus; it reads 0 at a NaN or nonpositive t
    and nan where its closed form overflows, and it is None for a family
    that proves none (``poly``).  t, lo and hi may be numpy arrays of one
    broadcast shape, each entry equal to the scalar call.  Where the lower
    end is there, ``certify`` divides by it; elsewhere by sampled moduli.
    """

    name: str
    params: dict
    r: int
    domain: tuple
    derivs: tuple = field(repr=False)  # derivs[nu](x), nu = 0..r
    nonsmooth: tuple = ()
    omega_enclosure: object = field(default=None, repr=False)

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


def tangent_line(f: ConvexOracle, x0: float):
    """(slope, intercept) of the tangent line to f at x0."""
    x0 = float(x0)
    slope = float(f.deriv(1, x0))
    intercept = float(f(x0)) - slope * x0
    return slope, intercept


# ---------------------------------------------------------------------------
# builtin oracle families


def _ipow(y, e: int):
    """y**e for small whole e by squaring; numpy's pow is ~50x slower.

    The products are those of the ladder acc <- acc * base, base <- base *
    base, acc starting from its first factor (1.0 * y is y bit for bit).
    The base is squared in y's own memory, so the caller passes an array it
    owns: y itself is returned when e is a power of two, and at most one
    more array is made.  e = 0 gives new ones (a float64 for a scalar y)."""
    if e == 0:
        return np.ones_like(y) if isinstance(y, np.ndarray) else np.float64(1.0)
    acc = None
    while e > 1:
        if e & 1:
            if acc is None:
                acc = y.copy()
            else:
                acc *= y
        y *= y
        e >>= 1
    if acc is None:
        return y
    acc *= y
    return acc


def _arg(x):
    """An evaluator's argument as a float array, or as a numpy scalar for a
    0-d x: scalar arithmetic is several times faster than 0-d arrays'."""
    x = np.asarray(x, dtype=float)
    return x if x.ndim else x[()]


def _apply(fn, y, *args):
    """fn(y, *args) in y's own memory, or a new scalar for a scalar y."""
    return fn(y, *args, out=y) if isinstance(y, np.ndarray) else fn(y, *args)


def _scaled_derivs(c: float, fns) -> tuple:
    """Evaluators of f^(nu)(x) = c^nu g_nu(c x), nu = 0..SMOOTH_ORDER_CAP,
    with g_nu = fns[nu % len(fns)]: (exp,), or (cosh, sinh) by parity."""
    def make(nu):
        fac, fn = c ** nu, fns[nu % len(fns)]

        def ev(x):
            y = _apply(fn, c * _arg(x))
            if fac != 1.0:
                y *= fac
            return y
        return ev
    return tuple(make(nu) for nu in range(SMOOTH_ORDER_CAP + 1))


def _power_derivs(p, base, r: int) -> tuple:
    """Evaluators of f^(nu)(x) = fac_nu base(x)^(p - nu), nu = 0..r, with
    fac_nu = p (p - 1) ... (p - nu + 1) for a whole or half-integer p, and
    base(x) a new array that the evaluator computes in.  A whole p takes
    the power by _ipow, 1 from nu = p on (fac_nu is 0 past p); a
    half-integer p multiplies (fac_nu base^e) sqrt(base), e = p - nu - 1/2,
    in that order."""
    half = p != int(p)

    def make(nu):
        fac, e = math.prod(p - i for i in range(nu)), max(int(p - nu), 0)

        def ev(x):
            x = _arg(x)
            y = base(x) if e or half else x  # e = 0: no base, _ipow makes new ones
            if half and e:
                acc = _ipow(y.copy(), e)
                acc *= fac
                acc *= _apply(np.sqrt, y)
                return acc
            y = _apply(np.sqrt, y) if half else _ipow(y, e)
            y *= fac
            return y
        return ev
    return tuple(make(nu) for nu in range(r + 1))


# omega_enclosure's slack over the exact modulus.  A sampled difference
# differs from the exact one by its rounding: each computed point and each
# evaluator's argument strays by at most 2^-50 (1 + |x|) (fl(x +- u),
# fl(alpha x), fl(1 + x), fl(x - 1 + eps); the clip onto [lo, hi] only moves
# a point closer), and the values and the sum of the terms carry some 32
# ulps of max |f^(nu)|.  delta = _SLACK (1 + max |x|) and _SLACK max |f^(nu)|
# cover both several times over, and the factor 1 + _SLACK the rounding of
# the upper end's own few operations.
_SLACK = 2.0 ** -44
# The lower ends' factor 1 - _LOWER_KAPPA _SLACK: each lower form is a
# product of at most a dozen correctly or faithfully rounded operations on
# normal floats, and an argument x of exp, sinh or cosh that carries 2
# roundings moves the value by at most 2 |x| 2^-53 relative, |x| <= 710
# wherever the value is finite; with f0's fl(1 + lo) each form stays within
# 1500 2^-53 < 2^-42.4 of the exact value at its point, under a quarter of
# 16 _SLACK.  xpow's powers add 2e roundings (e <= p = 2m), which its own
# factor 1 - (p // 256) _SLACK covers past p = 256.
_LOWER_KAPPA = 16
# a step shrunk by this factor is admissible in exact arithmetic:
# fl(hi - lo) and the product exceed the exact value by at most 2^-53 each
_ADMISSIBLE = 1.0 - 2.0 ** -50
_NORMAL = 2.0 ** -1022  # the smallest normal float


class _Ends:
    """The pair (lower, upper) of an enclosure, each end computed from the
    call's arguments when it is read: glue reads only the upper end of a
    scalar step and certify only the lower ends of a grid's steps, whose
    upper ends would be a Python loop."""

    __slots__ = ("_ends", "_args")

    def __init__(self, lower, upper, args):
        self._ends, self._args = (lower, upper), args

    def __getitem__(self, i):
        return self._ends[i](*self._args)


def _enclosure(bound, lower=None, kappa: int = 1):
    """omega_enclosure(k, nu, t, lo, hi) of a family.

    The upper end is bound(k, nu, t, lo, hi, delta), an upper bound of
    |Delta^k| over the computed points of a step 0 < u <= t (for k = 2,
    |f^(nu)(z0) - 2 f^(nu)(z1) + f^(nu)(z2)| with z1 in [lo + u + delta/2,
    hi - u - delta/2] and z0 - z1 and z1 - z2 within delta/2 of u) on
    [lo, hi] widened by delta, and of the values' rounding; kappa scales
    the slack for an evaluator of kappa operations; overflow and nan read
    inf.  An array argument is taken entry by entry.  The lower end is
    lower(k, nu, t, lo, hi), the value at one admissible point, times
    1 - _LOWER_KAPPA _SLACK; overflow reads nan."""
    def upper(k, nu, t, lo, hi):
        delta = _SLACK * (1.0 + max(abs(lo), abs(hi)))
        try:
            with np.errstate(all="ignore"):
                v = bound(k, nu, float(t), lo - delta, hi + delta, delta) * (1.0 + kappa * _SLACK)
        except OverflowError:
            return math.inf
        return v if v >= 0.0 else math.inf

    def upper_end(k, nu, t, lo, hi):
        if _scalars(t, lo, hi):
            return upper(k, nu, t, lo, hi)
        each = np.broadcast(t, lo, hi)
        return np.array([upper(k, nu, *map(float, args)) for args in each]).reshape(each.shape)

    def lower_end(k, nu, t, lo, hi):
        if lower is None:
            return None
        scalar, shape = _scalars(t, lo, hi), np.broadcast(t, lo, hi).shape
        # computed on arrays of at least one entry, so that a scalar call
        # runs the same numpy loops as an array's entries (numpy scalars
        # take other code paths)
        t, lo, hi = np.broadcast_arrays(*(np.atleast_1d(np.asarray(x, dtype=float))
                                          for x in (t, lo, hi)))
        with np.errstate(all="ignore"):
            v = np.asarray(lower(k, nu, t, lo, hi)) * (1.0 - _LOWER_KAPPA * _SLACK)
        v = np.where(np.isinf(v), np.nan, np.broadcast_to(v, t.shape))
        return float(v[0]) if scalar else v.reshape(shape)

    def omega_enclosure(k, nu, t, lo, hi):
        if k not in (1, 2):
            raise ValueError(f"omega_enclosure takes k = 1 or 2, got {k}")
        return _Ends(lower_end, upper_end, (k, nu, t, lo, hi))
    return omega_enclosure


def _scalars(t, lo, hi) -> bool:
    """Whether a call takes no array (np.ndim is several times slower, and
    glue asks one scalar upper end per radius)."""
    return not (isinstance(t, np.ndarray) or isinstance(lo, np.ndarray)
                or isinstance(hi, np.ndarray))


def _step(k, t, lo, hi):
    """The step of a lower end: min(t, (hi - lo)/k), shrunk so that it is
    admissible in exact arithmetic, and 0 at a NaN or nonpositive t."""
    v = np.minimum(t, (hi - lo) * _ADMISSIBLE / k)
    return np.where(v > 0.0, v, 0.0)


def _product(*factors):
    """The product of nonnegative factors, left to right, and 0 wherever a
    factor or a partial product is not a normal float (a subnormal has lost
    bits, and a NaN arises only at a zero step): 0 is a lower bound, and
    every other entry carries only the relative roundings counted in
    _LOWER_KAPPA."""
    acc, ok = 1.0, True
    for x in factors:
        acc = acc * x
        ok = ok & (x >= _NORMAL) & (acc >= _NORMAL)
    return np.where(ok, acc, 0.0)


def _smooth_enclosure(deriv_max, kappa: int = 1, second=None, lower=None):
    """omega_enclosure of a family with closed-form maxima deriv_max(j, lo,
    hi, scale) of scale |f^(j)| on [lo, hi].  A computed first difference is
    at most w max |f^(nu+1)| with w = t + delta.  Centered at the middle
    point, a computed second difference is a second difference of step
    v <= t + delta/2, at most w^2 max |f^(nu+2)|, plus a first difference
    over the steps' mismatch, at most delta max |f^(nu+1)|.  second(nu, t,
    w, lo, hi), where given and not None, is a sharper bound of that second
    difference and replaces Taylor's.  Each term coef max |f^(j)| is formed
    as the product of coef and the maximum, and where that overflows, with
    coef inside the maximum ahead of its exponential: so it reads inf only
    where it really exceeds the float range."""
    def bound(k, nu, t, lo, hi, delta):
        def term(coef, j):
            v = coef * deriv_max(j, lo, hi)
            return v if v < math.inf else deriv_max(j, lo, hi, coef)

        w = t + delta
        if k == 1:
            return term(w, nu + 1) + term(kappa * _SLACK, nu)
        main = None if second is None else second(nu, t, w, lo, hi)
        if main is None:
            main = term(w ** 2, nu + 2)
        return main + term(delta, nu + 1) + term(kappa * _SLACK, nu)
    return _enclosure(bound, lower, kappa)


def _scaled_enclosure(c: float, deriv_max, odd_sinh: bool = False):
    """omega_enclosure of f^(nu)(x) = c^nu g(c x) with g in {exp, cosh, sinh}
    (sinh at odd nu where ``odd_sinh``).

    The exact differences are |Delta^1_v f^(nu)| = |c|^nu |g'(c y)|
    2 sinh(|c| v / 2) for the step centered at y, and Delta^2_v f^(nu)(z) =
    f^(nu)(z) 4 sinh^2(|c| v / 2); written so, and not as 2 (cosh(c v) - 1),
    which cancels for small c v.  |g| and |g'| grow with c x for exp and
    with |x| for cosh and sinh, so both moduli are reached at the farthest
    admissible point, in the direction of c for exp and at distance
    m = max(|lo|, |hi|) from 0 for cosh and sinh.  Along the steps, with
    the points pushed against that end, G2(v) = 4 sinh^2(|c| v / 2)
    |f^(nu)(m - v)| has G2'(v) a positive multiple of sinh(|c|(m - v)) -
    sinh(|c|(m - 2v)) >= 0 for cosh, and of cosh(|c|(m - v)) -
    cosh(|c|(m - 2v)) for sinh, >= 0 while 3v <= 2m; the rise G1(v) =
    cosh(|c| m) - cosh(|c|(m - v)) grows while v <= m, and the other rises
    always.

    Upper end: while 2w < hi - lo (and 3w <= 2m for sinh), G2(v) <=
    G2(t + delta/2) <= 4 sinh^2(|c| w / 2) max |f^(nu)| on [lo + t, hi - t];
    otherwise the Taylor form stands, as it does for k = 1.

    Lower end, with v = min(t, (hi - lo)/k): for exp, |c|^nu e^(c e)
    (1 - e^(-|c| v))^k, the rise over [e - v, e] and the second difference
    centered at e - v, e = hi for c >= 0 and lo for c < 0; for cosh, with
    u = v, or min(v, 2m/3) for sinh at k = 2 and min(v, m) for cosh at
    k = 1, |c|^nu |g(|c|(m - u))| (2 sinh(|c| u / 2))^2 at k = 2 and
    |c|^nu |g'(|c|(m - u/2))| 2 sinh(|c| u / 2) at k = 1: each the exact
    modulus, as a product of factors without cancellation."""
    a = abs(c)

    def second(nu, t, w, lo, hi):
        if not 2.0 * w < hi - lo or (odd_sinh and nu % 2 and 3.0 * w > 2.0 * max(abs(lo), abs(hi))):
            return None
        return 4.0 * math.sinh(0.5 * a * w) ** 2 * deriv_max(nu, lo + t, hi - t)

    def lower(k, nu, t, lo, hi):
        v = _step(k, t, lo, hi)
        scale = np.float64(a) ** nu
        if not odd_sinh:  # exp
            rise = -np.expm1(-a * v)
            return _product(scale, np.exp(c * (hi if c >= 0.0 else lo)), *[rise] * k)
        m = np.maximum(np.abs(lo), np.abs(hi))
        odd = nu % 2 == 1
        if k == 2:
            u = np.minimum(v, 2.0 / 3.0 * m) if odd else v
            half = 2.0 * np.sinh(0.5 * a * u)
            return _product(scale, (np.sinh if odd else np.cosh)(a * (m - u)), half, half)
        u = v if odd else np.minimum(v, m)
        return _product(scale, (np.cosh if odd else np.sinh)(a * (m - 0.5 * u)),
                        2.0 * np.sinh(0.5 * a * u))
    return _smooth_enclosure(deriv_max, second=second, lower=lower)


def _monotone_enclosure(r: int, modulus1, value_max, lower, second=None):
    """omega_enclosure at nu = r of a family whose f^(r) is nondecreasing
    with omega_1(f^(r), s) <= modulus1(s), a multiple of s or of sqrt(s).
    A computed first difference is a rise over a length within delta/2 of
    a step u <= t, at most modulus1(t + delta).  A computed second
    difference is the difference of two rises f^(r)(z0) - f^(r)(z1) and
    f^(r)(z1) - f^(r)(z2), over lengths within delta/2 of u.  For u >=
    delta/2 each is in [0, modulus1(t + delta/2)], so their difference is
    at most that; a smaller step may misorder the points, and two rises over
    signed lengths up to delta/2 -+ u differ by at most 2 modulus1(delta/2).
    modulus1(max(t, delta) + delta) covers both.  second(t, lo, delta), where
    given and not None, is a sharper bound that replaces it.  value_max(hi)
    bounds |f^(r)| on [lo, hi], and lower(k, t, lo, hi) is the lower end.
    Other orders read (0, inf)."""
    def bound(k, nu, t, lo, hi, delta):
        if nu != r:
            return math.inf
        if k == 1:
            main = modulus1(t + delta)
        else:
            main = None if second is None else second(t, lo, delta)
            if main is None:
                main = modulus1(max(t, delta) + delta)
        return main + _SLACK * value_max(hi)

    def lower_at_r(k, nu, t, lo, hi):
        return lower(k, t, lo, hi) if nu == r else 0.0
    return _enclosure(bound, lower_at_r)


def exp_oracle(alpha: float = 1.0, domain=(-1.0, 1.0)) -> ConvexOracle:
    alpha = float(alpha)

    def deriv_max(j, lo, hi, scale=1.0):
        return scale * abs(alpha) ** j * math.exp(max(alpha * lo, alpha * hi))

    return ConvexOracle("exp", {"alpha": alpha}, SMOOTH_ORDER_CAP, tuple(domain),
                        _scaled_derivs(alpha, (np.exp,)),
                        omega_enclosure=_scaled_enclosure(alpha, deriv_max))


def cosh_oracle(beta: float = 1.0, domain=(-1.0, 1.0)) -> ConvexOracle:
    beta = float(beta)

    def deriv_max(j, lo, hi, scale=1.0):
        # |cosh| and |sinh| grow with |x|, so both peak at the end farthest from 0
        fn = math.cosh if j % 2 == 0 else math.sinh
        return scale * abs(beta) ** j * fn(abs(beta) * max(abs(lo), abs(hi)))

    return ConvexOracle("cosh", {"beta": beta}, SMOOTH_ORDER_CAP, tuple(domain),
                        _scaled_derivs(beta, (np.cosh, np.sinh)),
                        omega_enclosure=_scaled_enclosure(beta, deriv_max, odd_sinh=True))


def even_power_oracle(m: int, domain=(-1.0, 1.0)) -> ConvexOracle:
    """x^(2m)."""
    m = int(m)
    if m < 1:
        raise ValueError("need m >= 1")
    p = 2 * m

    def deriv_max(j, lo, hi, scale=1.0):
        return scale * math.perm(p, j) * max(abs(lo), abs(hi)) ** (p - j) if j <= p else 0.0

    # f^(nu) = fac x^e, e = p - nu, is even or odd with e and |f^(nu)| grows
    # with |x|.  Delta^2_u f^(nu)(z) = fac sum_j 2 C(e, 2j) z^(e-2j) u^(2j)
    # over j >= 1, whose terms all have the sign of z^e, so it grows with |z|
    # and is largest at the admissible center z = w - u on the far side,
    # w = max(|lo|, |hi|); along the steps its derivative there is 2 e fac
    # ((w - u)^(e-1) - (w - 2u)^(e-1)), >= 0 for even e and, for odd e, while
    # 3u <= 2w.  The rise over [w - u, w] is fac sum_(j >= 1) C(e, j)
    # (w - u)^(e-j) u^j, or fac (w^e + (u - w)^e) where an odd e crosses 0;
    # it grows with u, for even e while u <= w.  So u = v, or min(v, 2w/3)
    # and min(v, w) there, gives the exact modulus, a sum of positive terms.
    def lower(k, nu, t, lo, hi):
        e = max(p - nu, 0)
        fac = math.perm(p, nu) * (1.0 - (p // 256) * _SLACK)  # the powers' extra slack
        w = np.maximum(np.abs(lo), np.abs(hi))
        v = _step(k, t, lo, hi)
        if k == 2:
            u = np.minimum(v, 2.0 / 3.0 * w) if e % 2 else v
            z = w - u
            return sum((_product(2.0 * math.comb(e, 2 * j) * fac, z ** (e - 2 * j), u ** (2 * j))
                        for j in range(1, e // 2 + 1)), np.zeros_like(v))
        u = v if e % 2 else np.minimum(v, w)
        z = w - u
        rise = sum((_product(math.comb(e, j) * fac, np.maximum(z, 0.0) ** (e - j), u ** j)
                    for j in range(1, e + 1)), np.zeros_like(v))
        return np.where(z >= 0.0, rise, _product(fac, w ** e) + _product(fac, (-z) ** e))

    return ConvexOracle("xpow", {"m": m}, SMOOTH_ORDER_CAP, tuple(domain),
                        _power_derivs(p, lambda x: x.copy(), SMOOTH_ORDER_CAP),
                        omega_enclosure=_smooth_enclosure(deriv_max, lower=lower))


def poly_oracle(coeffs, domain=(-1.0, 1.0)) -> ConvexOracle:
    """Polynomial with prescribed ascending coefficients; caller owns convexity.
    Its enclosure has no lower end: the modulus of a general polynomial is
    reached at no point known in closed form."""
    cs = np.asarray(list(coeffs), dtype=float)
    if cs.size == 0:
        raise ValueError("need at least one coefficient")

    def der(j):
        d = np.polynomial.polynomial.polyder(cs, j) if j > 0 else cs
        return d if d.size else np.zeros(1)

    def make(nu):
        d = der(nu)

        def ev(x):
            # numpy's polyval, c[-1] + x*0 then c[-i] + c0*x, in one array
            x = _arg(x)
            y = x * 0.0
            y += d[-1]
            for c in d[-2::-1]:
                y *= x
                y += c
            return y
        return ev

    def deriv_max(j, lo, hi, scale=1.0):
        # sum |d_k| s^k with s = max |x|, by Horner over nonnegative terms
        return scale * float(np.polynomial.polynomial.polyval(max(abs(lo), abs(hi)),
                                                              np.abs(der(j))))

    return ConvexOracle("poly", {"coeffs": tuple(float(c) for c in cs)},
                        SMOOTH_ORDER_CAP, tuple(domain),
                        tuple(make(nu) for nu in range(SMOOTH_ORDER_CAP + 1)),
                        omega_enclosure=_smooth_enclosure(deriv_max, kappa=cs.size))


def f0_oracle(r: int, domain=(-1.0, 1.0)) -> ConvexOracle:
    """(1 + x)^(r + 1/2): C^r on [-1, 1] with a square-root cusp at -1."""
    r = int(r)
    if r < 1:
        raise ValueError("the square-root family is convex only for r >= 1")
    p = r + 0.5
    derivs = _power_derivs(p, lambda x: _apply(np.maximum, 1.0 + x, 0.0), r)

    # f^(r) = G = c sqrt(max(1 + x, 0)) rises, sqrt(y) - sqrt(y - s) <= sqrt(s),
    # and on [-1, inf) G is concave with a convex G'.  Let E >= e be the
    # computed steps z0 - z1 and z1 - z2, within delta/2 of a step u.  For
    # u >= delta/2 both are >= 0, and -Delta <= 2G(z1) - G(z1 - E) - G(z1 + e),
    # which rises in z1 up to -1 + E and falls after (G' is convex), so
    # -Delta <= c (2 sqrt(E) - sqrt(E + e)) <= c h(u), with h(u) = 2 sqrt(u +
    # delta/2) - sqrt(2u) = (2 - sqrt(2)) sqrt(u) + delta / (sqrt(u + delta/2)
    # + sqrt(u)): the exact omega_2 = c (2 - sqrt(2)) sqrt(t), at z1 = -1 + t,
    # and the mismatch.  Where lo >= -1 - delta, z1 >= -1 + u - delta/2 and
    # Delta <= G(z1 + E) - 2G(z1) + G(z1 - e) is at most c (sqrt(E + e) -
    # sqrt(2e)) if z1 - e >= -1 and c (sqrt(2u) - 2 sqrt(u - delta/2)) if not,
    # both <= c h(u).  h rises with u, so |Delta| <= c ((2 - sqrt(2)) sqrt(t) +
    # delta / (2 sqrt(t))).  A step u < delta/2 may misorder the points: the
    # two rises, over lengths within delta/2 of u, are then at most
    # c sqrt(delta/2 -+ u) in size, so |Delta| <= c sqrt(2 delta).  An
    # interval reaching past the cusp keeps the rises' bound.
    c = math.prod(p - i for i in range(r))

    def second(t, lo, delta):
        if lo + delta < -1.0:
            return None
        v = max(t, 0.5 * delta)
        return c * max((2.0 - math.sqrt(2.0)) * math.sqrt(v) + delta / (2.0 * math.sqrt(v)),
                       math.sqrt(2.0 * delta))

    # The lower end sits at the left end lo' = max(lo, -1) of [lo', hi],
    # where G is steepest and |G''| largest.  In y = 1 + x, G = c sqrt(y);
    # from y = 1 + lo', 2G(y + v) - G(y) - G(y + 2v) rises with v (its
    # derivative is 2 (G'(y + v) - G'(y + 2v)) >= 0), and so does the rise
    # G(y + v) - G(y).  Both are written without cancellation: c v /
    # (sqrt(y + v) + sqrt(y)) and 2c v^2 / ((sqrt(y + 2v) + sqrt(y))
    # (sqrt(y + v) + sqrt(y)) (sqrt(y + 2v) + sqrt(y + v))), c (2 - sqrt(2))
    # sqrt(v) at y = 0.
    def lower(k, t, lo, hi):
        lo = np.maximum(lo, -1.0)
        v = _step(k, t, lo, hi)
        y = 1.0 + lo
        ry, r1, r2 = np.sqrt(y), np.sqrt(y + v), np.sqrt(y + 2.0 * v)
        if k == 1:
            return _product(c, v / (r1 + ry))
        return _product(2.0 * c, v / (r2 + ry), v / (r1 + ry), 1.0 / (r2 + r1))

    enclosure = _monotone_enclosure(r, lambda s: c * math.sqrt(s),
                                    lambda hi: c * math.sqrt(max(1.0 + hi, 0.0)), lower, second)
    return ConvexOracle("f0", {"r": r}, r, tuple(domain), derivs, omega_enclosure=enclosure)


def truncpow_oracle(r: int, eps: float, domain=(-1.0, 1.0)) -> ConvexOracle:
    """max(0, x - 1 + eps)^(r+1): C^r but not C^(r+1) at 1 - eps."""
    r = int(r)
    eps = float(eps)
    if r < 1 or not 0 < eps < 2:
        raise ValueError("need r >= 1 and eps in (0, 2)")
    p = r + 1

    def base(x):
        y = x - 1.0
        y += eps
        return _apply(np.maximum, y, 0.0)

    # f^(r) = (r+1)! max(0, x - P), P = 1 - eps, rises with slope at most
    # (r+1)!.  Its exact moduli on [lo, hi], with v = min(t, (hi - lo)/k):
    # the rise over [hi - v, hi] is slope min(v, hi - P), and the second
    # difference centered on the kink slope min(v, P - lo, hi - P), each
    # where positive.  fl(1 - eps) and the two distances stray by less than
    # delta = _SLACK (1 + max |x|), which the lower end takes off them.
    slope = math.perm(p, r)
    kink = 1.0 - eps

    def lower(k, t, lo, hi):
        delta = _SLACK * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
        reach = hi - kink - delta
        if k == 2:
            reach = np.minimum(reach, kink - lo - delta)
        return slope * np.maximum(np.minimum(_step(k, t, lo, hi), reach), 0.0)

    enclosure = _monotone_enclosure(r, lambda s: slope * s,
                                    lambda hi: slope * max(hi - 1.0 + eps, 0.0), lower)
    return ConvexOracle("truncpow", {"r": r, "eps": eps}, r, tuple(domain),
                        _power_derivs(p, base, r), nonsmooth=(kink,), omega_enclosure=enclosure)


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
        elif want is int and not nums[0].is_integer():
            raise ValueError(f"parameter {key!r} of family {name!r} must be an integer, "
                             f"got {vals[0]}")
        else:
            args[key] = want(nums[0])
    return ctor(**args)
