"""Correctness checks for the benchmark, computed apart from convexlab.

Nothing here calls convexlab's certificate, bound or oracle code: the
function values come from closed forms written out below, and the spline is
evaluated straight from its stored local coefficients with numpy.  The one
exception is `check_refusal`, which asks the public API to refuse n = N - 1,
because that refusal is the behaviour being checked.

Every check raises `CheckFailed` with a one-line reason.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

EPS = np.finfo(float).eps
BOUND_IDS = ("2.3", "2.4", "2.5", "2.11", "2.12", "2.13")
CSV_FIELDS = ["n", "N_threshold"] + [f"sup_ratio_{b.replace('.', '_')}" for b in BOUND_IDS] \
    + ["wall_ms"]
# relative slack granted to continuity and knot-slope comparisons; the spline
# format is documented as certified to this level
REL_TOL = 1e-9


class CheckFailed(AssertionError):
    """An output violates a property of the method."""


# ---------------------------------------------------------------------------
# closed forms


def _parse_spec(spec: str):
    name, _, rest = spec.partition(":")
    params, key = {}, None
    for tok in rest.split(",") if rest else []:
        if "=" in tok:
            key, _, val = tok.partition("=")
            params[key] = [float(val)]
        else:
            params[key].append(float(tok))
    return name, params


def closed_form(spec: str):
    """deriv(nu, x): the nu-th derivative of the oracle named by a CLI spec."""
    name, p = _parse_spec(spec)
    if name == "exp":
        a = p["alpha"][0]
        return lambda nu, x: a ** nu * np.exp(a * np.asarray(x, dtype=float))
    if name == "cosh":
        b = p["beta"][0]
        return lambda nu, x: b ** nu * (np.cosh if nu % 2 == 0 else np.sinh)(
            b * np.asarray(x, dtype=float))
    if name == "f0":
        e = int(p["r"][0]) + 0.5

        def f0(nu, x):
            fac = math.prod(e - i for i in range(nu))
            return fac * np.clip(1.0 + np.asarray(x, dtype=float), 0.0, None) ** (e - nu)
        return f0
    if name == "truncpow":
        k, eps = int(p["r"][0]) + 1, p["eps"][0]
        return lambda nu, x: math.perm(k, nu) * np.clip(
            np.asarray(x, dtype=float) - 1.0 + eps, 0.0, None) ** (k - nu)
    if name == "poly":
        cs = np.asarray(p["coeffs"])
        return lambda nu, x: np.polynomial.polynomial.polyval(
            np.asarray(x, dtype=float), np.polynomial.polynomial.polyder(cs, nu) if nu else cs)
    raise ValueError(f"no closed form for {spec!r}")


# ---------------------------------------------------------------------------
# splines from their stored coefficients


class Spline:
    """The spline JSON document, evaluated from its local coefficients."""

    def __init__(self, doc: dict):
        self.knots = np.asarray(doc["knots"], dtype=float)
        pieces = doc["pieces"]
        if len(pieces) != self.knots.size - 1:
            raise CheckFailed("spline needs one piece per knot interval")
        width = max(len(pc["coeffs"]) for pc in pieces)
        self.coeffs = np.zeros((len(pieces), width))
        for i, pc in enumerate(pieces):
            self.coeffs[i, :len(pc["coeffs"])] = pc["coeffs"]
        self.center = np.array([pc["center"] for pc in pieces], dtype=float)
        self.half = np.array([pc["halfwidth"] for pc in pieces], dtype=float)
        self.certified = bool(doc.get("convex_certified", False))

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]

    def local_deriv_coeffs(self, nu: int) -> np.ndarray:
        """Coefficients of d^nu/du^nu, ascending in u, one row per piece."""
        m = self.coeffs.shape[1]
        if nu >= m:
            return np.zeros((self.n, 1))
        k = np.arange(nu, m)
        fall = np.array([math.perm(int(j), nu) for j in k], dtype=float)
        return self.coeffs[:, nu:] * fall

    def deriv_at(self, nu: int, x, pieces) -> tuple:
        """nu-th x-derivative of the given pieces at x, with a rounding
        bound for evaluating it from the stored coefficients."""
        d = self.local_deriv_coeffs(nu)[pieces]
        u = (np.asarray(x, dtype=float) - self.center[pieces]) / self.half[pieces]
        powers = u[:, None] ** np.arange(d.shape[1])
        scale = self.half[pieces] ** nu
        value = np.sum(d * powers, axis=1) / scale
        err = 8 * d.shape[1] * EPS * np.sum(np.abs(d * powers), axis=1) / scale
        return value, err

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.knots, x, side="right") - 1, 0, self.n - 1)
        return self.deriv_at(0, x, idx)[0]


# ---------------------------------------------------------------------------
# spline checks


def check_endpoint_derivatives(S: Spline, deriv, r: int) -> None:
    """S^(nu)(+-1) = f^(nu)(+-1) for nu <= r, up to the rounding of
    evaluating the stored coefficients."""
    ends = np.array([S.knots[0], S.knots[-1]])
    pieces = np.array([0, S.n - 1])
    for nu in range(r + 1):
        got, err = S.deriv_at(nu, ends, pieces)
        want = np.asarray(deriv(nu, ends), dtype=float)
        tol = 64 * err + 1e-9 * (1.0 + np.abs(want))
        bad = np.abs(got - want) > tol
        if np.any(bad):
            i = int(np.argmax(bad))
            raise CheckFailed(f"S^({nu})({ends[i]:g}) = {got[i]!r}, "
                              f"closed form gives {want[i]!r}")


def check_convexity(S: Spline) -> None:
    """p'' >= 0 on every piece, continuity at the knots and nondecreasing
    one-sided knot slopes."""
    d2 = S.local_deriv_coeffs(2)
    u = np.linspace(-1.0, 1.0, 33)  # exact for p'' of degree <= 1, i.e. r <= 2
    vals = d2 @ (u[None, :] ** np.arange(d2.shape[1])[:, None])
    floor = -8 * d2.shape[1] * EPS * np.sum(np.abs(d2), axis=1)
    low = vals.min(axis=1)
    if np.any(low < floor):
        i = int(np.argmax(low < floor))
        raise CheckFailed(f"piece {i} has p'' = {low[i]!r} < 0 (local units)")

    inner = S.knots[1:-1]
    left = np.arange(S.n - 1)
    vl, _ = S.deriv_at(0, inner, left)
    vr, _ = S.deriv_at(0, inner, left + 1)
    vscale = 1.0 + float(np.max(np.abs(vl)))
    jump = np.abs(vl - vr)
    if np.any(jump > REL_TOL * vscale):
        i = int(np.argmax(jump))
        raise CheckFailed(f"jump {jump[i]!r} at knot {inner[i]!r}")

    sl, _ = S.deriv_at(1, inner, left)
    sr, _ = S.deriv_at(1, inner, left + 1)
    flat = np.column_stack([sl, sr]).ravel()
    tol = REL_TOL * (1.0 + float(np.max(np.abs(flat))))
    drop = flat[:-1] - flat[1:]
    if np.any(drop > tol):
        i = int(np.argmax(drop))
        raise CheckFailed(f"knot slopes fall by {drop[i]!r} near knot {inner[i // 2]!r}")


def check_reproduction(S: Spline, deriv) -> None:
    """A polynomial of degree <= r+1 is reproduced: max|f - S| <= 1e-9 scale."""
    xs = np.linspace(S.knots[0], S.knots[-1], 4097)
    fx = np.asarray(deriv(0, xs), dtype=float)
    err = float(np.max(np.abs(fx - S(xs))))
    if err > 1e-9 * (1.0 + float(np.max(np.abs(fx)))):
        raise CheckFailed(f"polynomial not reproduced: max|f-S| = {err!r}")


def check_spline(doc: dict, spec: str, r: int, n: int) -> int:
    """All spline checks for one `approximate` output; returns its pieces."""
    S = Spline(doc)
    if S.n != n or not S.certified:
        raise CheckFailed(f"expected a certified spline of {n} pieces, got "
                          f"{S.n} pieces, certified = {S.certified}")
    expected = -np.cos(np.pi * np.arange(n + 1) / n)
    if not np.allclose(S.knots, expected, rtol=0, atol=1e-12):
        raise CheckFailed("knots are not the Chebyshev points -cos(j pi / n)")
    deriv = closed_form(spec)
    check_endpoint_derivatives(S, deriv, r)
    check_convexity(S)
    if spec.startswith("poly:") and len(_parse_spec(spec)[1]["coeffs"]) <= r + 2:
        check_reproduction(S, deriv)
    return S.n


# ---------------------------------------------------------------------------
# sweep checks


def parse_sweep_csv(text: str, n_list) -> list:
    """Rows of a sweep CSV as dicts, after structural checks: the fixed
    header, one row per requested n, ratios present exactly when n >= N."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_FIELDS:
        raise CheckFailed(f"sweep header {rows[0] if rows else None}")
    out = []
    for cells, n in zip(rows[1:], n_list):
        row = dict(zip(CSV_FIELDS, cells))
        if int(row["n"]) != n:
            raise CheckFailed(f"sweep row for n = {row['n']}, expected {n}")
        thr = int(row["N_threshold"])
        ratios = [row[f] for f in CSV_FIELDS[2:-1]]
        computed = all(ratios)
        if computed != (n >= thr) or (not computed and any(ratios)):
            raise CheckFailed(f"row n = {n} with N = {thr} has ratios {ratios}")
        if computed:
            vals = [float(v) for v in ratios]
            if not all(math.isfinite(v) and v >= 0.0 for v in vals):
                raise CheckFailed(f"row n = {n}: ratios {vals} not finite and >= 0")
            row["ratios"] = dict(zip(BOUND_IDS, vals))
        out.append(row)
    if len(rows) - 1 != len(n_list):
        raise CheckFailed(f"{len(rows) - 1} sweep rows for {len(n_list)} values of n")
    return out


def exp_ratio_2_3(S: Spline, alpha: float, r: int, n: int, grid_size: int = 257) -> float:
    """Sup over the default grid of |f - S| / ((phi/n)^r w2(f^(r), phi/n)) for
    f = exp(alpha x), with the closed-form modulus
    w2(alpha^r e^(alpha x), t) = alpha^r e^alpha (1 - e^(-alpha t))^2."""
    j = np.arange(1, grid_size + 1)
    xs = -np.cos(np.pi * j / (grid_size + 1))
    fx = np.exp(alpha * xs)
    err = np.abs(fx - S(xs))
    t = np.sqrt(np.clip(1.0 - xs * xs, 0.0, None)) / n
    bound = t ** r * alpha ** r * math.exp(alpha) * (-np.expm1(-alpha * t)) ** 2
    keep = err > 1e-13 * (1.0 + float(np.max(fx)))  # float noise has no ratio
    return float(np.max(err[keep] / bound[keep])) if np.any(keep) else 0.0


def check_exp_ratio(program: float, recomputed: float, n: int) -> None:
    """The program divides by a lower bound of the modulus, so its ratio may
    not fall below the one recomputed with the exact modulus."""
    if program < recomputed * (1.0 - 1e-9):
        raise CheckFailed(f"n = {n}: sup ratio 2.3 = {program!r} below the "
                          f"closed-form recomputation {recomputed!r}")


# ---------------------------------------------------------------------------
# threshold checks


def check_threshold(N: int, H: float) -> None:
    """The Chebyshev end gap at N fits in H, and N = ceil(3 / sqrt(H))."""
    if 1.0 - math.cos(math.pi / N) > H:
        raise CheckFailed(f"end gap 1 - cos(pi/{N}) exceeds H = {H!r}")
    if N != math.ceil(3.0 / math.sqrt(H)):
        raise CheckFailed(f"N = {N} but ceil(3/sqrt(H)) = {math.ceil(3.0 / math.sqrt(H))}")


def check_markov(eps: float, r: int, N: int) -> None:
    """No admissible N may sit where the Markov witness forbids a convex
    spline of order r+2: eps >= (1 - cos(pi/N)) / (2 (r+1))."""
    floor = (1.0 - math.cos(math.pi / N)) / (2.0 * (r + 1))
    if eps < floor:
        raise CheckFailed(f"N = {N} at eps = {eps!r} is below the Markov bound "
                          f"(needs eps >= {floor!r})")


def check_growth(eps_list, n_list) -> None:
    """N never falls as the corner sharpens (eps decreasing)."""
    pairs = sorted(zip(eps_list, n_list), reverse=True)
    for (e1, n1), (e2, n2) in zip(pairs, pairs[1:]):
        if n2 < n1:
            raise CheckFailed(f"N fell from {n1} at eps = {e1!r} to {n2} at eps = {e2!r}")


def check_refusal(construct, below_threshold, f, r: int, N: int) -> None:
    """The construction refuses n = N - 1 with the typed threshold error."""
    try:
        construct(f, r, N - 1)
    except below_threshold as exc:
        if exc.n_threshold != N:
            raise CheckFailed(f"refusal names N = {exc.n_threshold}, expected {N}")
        return
    raise CheckFailed(f"n = N - 1 = {N - 1} was not refused")
