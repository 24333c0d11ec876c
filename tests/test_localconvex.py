import math
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.optimize import linprog as scipy_linprog
from scipy.sparse import block_diag

from convexlab.domain import (
    ConvexOracle,
    chebyshev_partition,
    cosh_oracle,
    even_power_oracle,
    exp_oracle,
    f0_oracle,
    normalize_to_unit,
    poly_oracle,
    truncpow_oracle,
    uniform_partition,
)
from convexlab import localconvex
from convexlab.localconvex import (
    CHUNK,
    NotConvexInput,
    SolverStall,
    build_sigma,
    convex_parabola,
    convex_piece,
    convex_pieces,
)
from convexlab.polynomial import convexity_certificate
from convexlab.smoothness import modulus


def sample_max_error(f, piece, npts=200):
    a, b = piece.interval
    xs = np.linspace(a, b, npts)
    return float(np.max(np.abs(f(xs) - piece.poly(xs))))


def test_parabola_reproduces_square():
    # worked through the construction: g'(0) = -1, g'(1) = 1, first branch,
    # re-adding the secant yields x^2 itself
    f = poly_oracle([0.0, 0.0, 1.0])
    piece = convex_parabola(f, (0.0, 1.0))
    xs = np.linspace(0, 1, 50)
    assert np.allclose(piece.poly(xs), xs**2, atol=1e-13)
    assert piece.slack_left == pytest.approx(0.0, abs=1e-12)
    assert piece.slack_right == pytest.approx(0.0, abs=1e-12)


def test_parabola_of_affine_is_affine():
    f = poly_oracle([3.0, -2.0])
    piece = convex_parabola(f, (-1.0, 1.0))
    xs = np.linspace(-1, 1, 20)
    assert np.allclose(piece.poly(xs), f(xs), atol=1e-13)


def test_parabola_exp_branch_arithmetic():
    # g'(0) = 2 - e, g'(1) = 1, so the first branch fires and the parabola in
    # normalized coordinates is (2 - e)(v - v^2)
    f = exp_oracle(1.0, domain=(0.0, 1.0))
    piece = convex_parabola(f, (0.0, 1.0))
    e = math.e
    vs = np.linspace(0, 1, 33)
    expected = (2.0 - e) * (vs - vs**2) + (1.0 + (e - 1.0) * vs)
    assert np.allclose(piece.poly(vs), expected, atol=1e-12)
    # inner-end slope drops below f': P'(1) = e - 2 <= g'(1) = 1
    assert piece.slack_right >= -1e-12
    assert piece.slack_left == pytest.approx(0.0, abs=1e-12)


def test_parabola_interpolates_and_certifies():
    for f in (exp_oracle(1.0), cosh_oracle(2.0), f0_oracle(1)):
        piece = convex_parabola(f, (-0.5, 0.75))
        a, b = piece.interval
        scale = 1.0 + max(abs(float(f(a))), abs(float(f(b))))
        assert abs(piece.poly(a) - float(f(a))) <= 1e-10 * scale
        assert abs(piece.poly(b) - float(f(b))) <= 1e-10 * scale
        assert piece.slack_left >= -1e-10 * scale
        assert piece.slack_right >= -1e-10 * scale
        assert convexity_certificate(piece.poly, piece.interval).convex


def test_parabola_rejects_concave_input():
    f = poly_oracle([0.0, 0.0, -1.0])
    with pytest.raises(NotConvexInput):
        convex_parabola(f, (-1.0, 1.0))


def test_piece_reproduces_polynomials():
    # any convex polynomial of degree <= requested degree comes back exactly
    cases = [
        (poly_oracle([0.0, 0.0, 1.0]), 2),
        (poly_oracle([0.1, -0.3, 1.0, 0.1]), 3),
        (even_power_oracle(2), 4),
    ]
    for f, degree in cases:
        piece = convex_piece(f, (0.0, 1.0), degree)
        assert sample_max_error(f, piece) <= 1e-9
        assert piece.source == "lp"


def test_piece_x4_reproduction():
    f = even_power_oracle(2)
    piece = convex_piece(f, (0.0, 1.0), 4)
    xs = np.linspace(0, 1, 100)
    assert np.max(np.abs(piece.poly(xs) - xs**4)) <= 1e-9


def test_piece_beats_parabola():
    # the parabola is in the LP's feasible set, so the optimum cannot be worse
    # on the LP's own sample grid
    cases = [(f, interval, 3) for f in (exp_oracle(1.0), cosh_oracle(1.3), f0_oracle(2))
             for interval in ((-0.8, -0.2), (0.1, 0.9))]
    cases.append((exp_oracle(1.0, domain=(0.0, 1.0)), (0.0, 1.0), 2))
    for f, interval, degree in cases:
        a, b = interval
        zeta = 0.5 * (a + b) - 0.5 * (b - a) * np.cos(np.pi * np.arange(8 * degree) / (8 * degree - 1))
        lp = convex_piece(f, interval, degree)
        par = convex_parabola(f, interval)
        err = lambda pc: float(np.max(np.abs(f(zeta) - pc.poly(zeta))))
        assert err(lp) <= err(par) + 1e-9


def test_piece_certified_convex_on_oracles():
    for f in (exp_oracle(1.0), f0_oracle(1), truncpow_oracle(1, 0.3)):
        piece = convex_piece(f, (0.4, 0.95), 2)
        assert convexity_certificate(piece.poly, piece.interval).convex


def test_build_sigma_reproduces_square():
    f = poly_oracle([0.0, 0.0, 1.0])
    X = chebyshev_partition(8)
    sigma = build_sigma(f, X, 1)
    xs = np.linspace(-1, 1, 301)
    assert np.max(np.abs(sigma(xs) - xs**2)) <= 1e-9
    assert sigma.convex_certified


def test_build_sigma_knot_interpolation():
    f = exp_oracle(1.0)
    X = chebyshev_partition(12)
    sigma = build_sigma(f, X, 2)
    vals = sigma(X.knots)
    want = f(X.knots)
    assert np.allclose(vals, want, rtol=1e-10, atol=1e-10)


def test_build_sigma_globally_convex():
    f = exp_oracle(1.0)
    X = chebyshev_partition(16)
    sigma = build_sigma(f, X, 2)
    assert sigma.convex_certified
    slopes = sigma.knot_slopes()
    flat = [s for pair in slopes for s in pair]
    tol = 1e-9 * sigma.slope_scale()
    assert all(s2 >= s1 - tol for s1, s2 in zip(flat, flat[1:]))


def test_sigma_slopes_sandwich_derivative():
    f = cosh_oracle(1.0)
    X = uniform_partition(-1.0, 1.0, 10)
    pieces = convex_pieces(f, X, 2)
    scale = 1.0 + float(np.max(np.abs(f.deriv(1, X.knots))))
    for pc in pieces:
        assert pc.slack_left >= -1e-9 * scale
        assert pc.slack_right >= -1e-9 * scale


def test_sigma_error_contract_stable_in_n():
    # ||f - sigma|| on interior intervals, against len^r * omega_2(f^(r), len),
    # must not grow between n = 32 and n = 256
    for f, r in ((exp_oracle(1.0), 1), (f0_oracle(2), 2)):
        ratios = {}
        for n in (32, 256):
            X = chebyshev_partition(n)
            sigma = build_sigma(f, X, r)
            worst = 0.0
            for j in range(2, n):  # interior intervals
                lo, hi = X.interval(j)
                length = hi - lo
                xs = np.linspace(lo, hi, 33)
                err = float(np.max(np.abs(f(xs) - sigma(xs))))
                if err <= 1e-13 * (1.0 + float(np.max(np.abs(f(xs))))):
                    continue  # at rounding scale: satisfied-degenerate
                den = max(length**r * modulus(f.deriv_fn(r), 2, length,
                                              (lo, hi), grid=64).value, 1e-300)
                worst = max(worst, err / den)
            ratios[n] = worst
        assert math.isfinite(ratios[256])
        assert ratios[256] <= 1.5 * ratios[32] + 1e-9


# -- the batched LP: chunks, rescue paths, and the call count -----------------


def _linprog_spy(monkeypatch, f, X, fail=lambda pieces: False):
    """Record each of localconvex's linprog calls on the partition X as
    (pieces, b_ub): pieces are the 0-based indices of its intervals, read off
    the end values f(a) in b_eq, so f must be one-to-one on them.  A call for which fail(pieces) holds raises
    SolverStall instead.  The chunk LPs run on worker threads, so records
    are in the order the calls began, not in chunk order."""
    real = localconvex.linprog
    left = f(X.knots[:-1])
    calls = []

    def spy(c, **kwargs):
        fa = kwargs["b_eq"][0::2]
        pieces = tuple(np.abs(fa[:, None] - left).argmin(axis=1).tolist())
        calls.append((pieces, kwargs["b_ub"]))
        if fail(pieces):
            raise SolverStall("injected failure")
        return real(c, **kwargs)

    monkeypatch.setattr(localconvex, "linprog", spy)
    return calls


def _failing_certificate(monkeypatch, interval, times):
    """The first `times` certificates of a piece on `interval` fail; all
    others are real."""
    real = localconvex.convexity_certificates
    seen = []

    def certs(coeffs, centers, halfwidths, a, b):
        convex, minimum, witness = real(coeffs, centers, halfwidths, a, b)
        for i in np.flatnonzero((a == interval[0]) & (b == interval[1])):
            if len(seen) < times:
                seen.append(interval)
                convex[i], minimum[i], witness[i] = False, -1.0, a[i]
        return convex, minimum, witness

    monkeypatch.setattr(localconvex, "convexity_certificates", certs)
    return seen


def _one_at_a_time(f, X, r):
    return [convex_piece(f, X.interval(j), r + 1) for j in range(1, X.n + 1)]


@pytest.mark.parametrize("f,r", [(exp_oracle(1.0), 2), (truncpow_oracle(1, 0.3), 1)])
def test_convex_pieces_match_pieces_solved_one_at_a_time(f, r):
    X = chebyshev_partition(3 * CHUNK + 5)
    batched = convex_pieces(f, X, r)
    for got, want in zip(batched, _one_at_a_time(f, X, r)):
        assert got.source == want.source
        assert got.interval == want.interval
        scale = float(np.max(np.abs(want.poly.coeffs)))
        assert np.allclose(got.poly.coeffs, want.poly.coeffs, rtol=0.0, atol=1e-12 * scale)


def _dip_oracle(centers=(0.45, 0.75), depth=0.005, width=0.002):
    """x^2/2 - sum of depth*width*log cosh((x - c)/width) over the centers c:
    f'' = 1 - sum of (depth/width) sech^2 dips below 0 near each c, over a
    span much shorter than a Chebyshev interval there, so only the spot check
    sees it; the LP stays feasible."""
    zs = [lambda x, c=c: (np.asarray(x, dtype=float) - c) / width for c in centers]
    derivs = (
        lambda x: 0.5 * np.asarray(x, dtype=float) ** 2 - depth * width * sum(
            np.logaddexp(z(x), -z(x)) - math.log(2.0) for z in zs),
        lambda x: np.asarray(x, dtype=float) - depth * sum(np.tanh(z(x)) for z in zs),
        lambda x: 1.0 - depth / width * sum(
            1.0 / np.cosh(np.clip(z(x), -300, 300)) ** 2 for z in zs),
    )
    return ConvexOracle("dip", {}, 2, (-1.0, 1.0), derivs)


def test_convex_pieces_name_first_nonconvex_interval():
    f = _dip_oracle()
    X = chebyshev_partition(3 * CHUNK + 5)
    first_bad = None
    for j in range(1, X.n + 1):
        try:
            convex_piece(f, X.interval(j), 3)
        except NotConvexInput as exc:
            first_bad = (j, str(exc))
            break
    j, message = first_bad
    lo, hi = X.interval(j)
    assert lo < 0.45 < hi and j > CHUNK  # the first dip, past the first chunk
    second = int(np.searchsorted(X.knots, 0.75))  # interval of the second dip
    assert second > j and (second - 1) // CHUNK == (j - 1) // CHUNK
    with pytest.raises(NotConvexInput) as ei:
        convex_pieces(f, X, 2)
    assert str(ei.value) == message


def test_failed_chunk_is_solved_one_piece_at_a_time(monkeypatch):
    f = exp_oracle(1.0)
    X = chebyshev_partition(CHUNK + 4)
    want = _one_at_a_time(f, X, 2)
    calls = _linprog_spy(monkeypatch, f, X, fail=lambda pieces: len(pieces) > 1)
    got = convex_pieces(f, X, 2)
    order = [pieces for pieces, _ in calls]
    chunks = [tuple(range(CHUNK)), tuple(range(CHUNK, CHUNK + 4))]
    # each chunk's LP once, then every piece of it alone, after that LP
    assert sorted(order) == sorted(chunks + [(i,) for i in range(CHUNK + 4)])
    for chunk in chunks:
        assert all(order.index((i,)) > order.index(chunk) for i in chunk)
    for g, w in zip(got, want):
        assert g.source == "lp"
        assert g.poly == w.poly


def test_failed_single_piece_lp_falls_back_to_parabola(monkeypatch):
    f = exp_oracle(1.0)
    X = chebyshev_partition(6)
    _linprog_spy(monkeypatch, f, X, fail=lambda pieces: True)
    for j, pc in enumerate(convex_pieces(f, X, 2), start=1):
        assert pc.source == "parabola-fallback"
        assert pc.poly == convex_parabola(f, X.interval(j)).poly


def test_one_failed_certificate_is_resolved_with_curvature_floor(monkeypatch):
    f = exp_oracle(1.0)
    X = chebyshev_partition(CHUNK + 4)
    interval = X.interval(5)
    calls = _linprog_spy(monkeypatch, f, X)
    seen = _failing_certificate(monkeypatch, interval, times=1)
    pieces = convex_pieces(f, X, 2)
    assert len(seen) == 1
    # the first pass solves both chunks; the re-solve, which starts only once
    # the first pass is done, batches just the failed piece
    *first, (again, rhs) = calls
    assert sorted(p for p, _ in first) == [tuple(range(CHUNK)), tuple(range(CHUNK, CHUNK + 4))]
    assert again == (4,)
    curvature = slice(2, 2 + 4 * 3)  # rows p'' >= mu at 4*degree points
    assert all(np.all(b_ub.reshape(len(p), -1)[:, curvature] == 0.0) for p, b_ub in first)
    assert np.all(rhs[curvature] < 0.0)
    assert all(pc.source == "lp" for pc in pieces)
    assert convexity_certificate(pieces[4].poly, interval).convex


def test_two_failed_certificates_fall_back_to_parabola(monkeypatch):
    f = exp_oracle(1.0)
    X = chebyshev_partition(CHUNK + 4)
    interval = X.interval(5)
    seen = _failing_certificate(monkeypatch, interval, times=2)
    pieces = convex_pieces(f, X, 2)
    assert len(seen) == 2
    assert pieces[4].source == "parabola-fallback"
    assert pieces[4].poly == convex_parabola(f, interval).poly
    assert all(pc.source == "lp" for j, pc in enumerate(pieces) if j != 4)


def test_lp_calls_are_batched(monkeypatch):
    # one LP per chunk of pieces, not one per piece
    f = exp_oracle(1.0)
    X = chebyshev_partition(512)
    calls = _linprog_spy(monkeypatch, f, X)
    pieces = convex_pieces(f, X, 2)
    assert all(pc.source == "lp" for pc in pieces)
    assert len(calls) <= math.ceil(X.n / CHUNK) <= X.n // 8


@pytest.mark.parametrize("f,r", [(exp_oracle(1.0), 2), (f0_oracle(2), 2),
                                 (truncpow_oracle(1, 0.3), 1)])
def test_concurrent_chunks_equal_sequential_linprog(monkeypatch, f, r):
    """The pieces solved on the thread pool equal, bit for bit, one linprog
    per chunk in a plain loop.  Repeated with the pool's own size and with
    more threads than CPUs, under a short switch interval, to give a race
    the chance to show."""
    knots = chebyshev_partition(8 * CHUNK + 3).knots
    want = []
    for s in range(0, knots.size - 1, CHUNK):
        a, b = knots[:-1][s:s + CHUNK], knots[1:][s:s + CHUNK]
        cost, blocks = localconvex._lp_blocks(f, a, b, r + 1, np.zeros(a.size))
        want += localconvex.linprog(cost, **blocks).reshape(a.size, r + 3)[:, :r + 2].tolist()
    many = ThreadPoolExecutor(8, initializer=localconvex._one_highs_thread)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for pool, threads in ((localconvex._pool, localconvex._MAX_THREADS), (many, 8)):
            monkeypatch.setattr(localconvex, "_pool", pool)
            monkeypatch.setattr(localconvex, "_MAX_THREADS", threads)
            for _ in range(5):
                pieces = localconvex._convex_pieces(f, knots, r + 1)
                assert all(pc.source == "lp" for pc in pieces)
                assert np.array_equal([pc.poly.coeffs for pc in pieces], want)
    finally:
        sys.setswitchinterval(switch)
        many.shutdown()


def test_pool_threads_are_kept_and_run_one_highs_thread_each(monkeypatch):
    """HiGHS sizes one scheduler per thread by its first solve there, so the
    pool's threads must outlive a construction and ask for one HiGHS thread,
    while the calling thread keeps linprog's default of 0."""
    real = localconvex.linprog
    seen = []

    def spy(c, **kwargs):
        seen.append((threading.current_thread(), localconvex._per_thread.highs_options.threads))
        return real(c, **kwargs)

    monkeypatch.setattr(localconvex, "linprog", spy)
    X = chebyshev_partition(8 * CHUNK)
    for _ in range(2):
        convex_pieces(exp_oracle(1.0), X, 2)
    assert len(seen) == 16
    threads = {thread for thread, _ in seen}
    assert len(threads) <= min(localconvex._cpus(), localconvex._MAX_THREADS)
    assert threading.current_thread() not in threads
    assert {n for _, n in seen} == {1}
    assert localconvex._per_thread.highs_options.threads == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_gets_a_pool_of_its_own():
    """A forked child inherits the pool object but none of its threads, so
    without a fresh pool its first chunk LP would wait forever."""
    f, X = exp_oracle(1.0), chebyshev_partition(4 * CHUNK)
    want = [pc.poly for pc in convex_pieces(f, X, 2)]  # the pool's threads are running
    pid = os.fork()
    if pid == 0:  # the child ends here, whatever happens
        code = 1
        try:
            code = 0 if [pc.poly for pc in convex_pieces(f, X, 2)] == want else 2
        finally:
            os._exit(code)
    for _ in range(600):
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.05)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's construction did not finish in 30 s")
    assert os.waitstatus_to_exitcode(status) == 0


# -- the direct HiGHS model against scipy.optimize.linprog ---------------------


def _scipy_solve(cost, blocks):
    """scipy.optimize.linprog on the same LP, its blocks made block-diagonal,
    with the presolve and tolerances the direct model uses."""
    return scipy_linprog(cost, A_ub=block_diag(list(blocks["A_ub"])), b_ub=blocks["b_ub"],
                         A_eq=block_diag(list(blocks["A_eq"])), b_eq=blocks["b_eq"],
                         bounds=blocks["bounds"], method="highs",
                         options={"presolve": True, "primal_feasibility_tolerance": 1e-10,
                                  "dual_feasibility_tolerance": 1e-10})


@pytest.mark.parametrize("f,r,n", [(exp_oracle(1.0), 2, 3 * CHUNK),
                                   (truncpow_oracle(1, 0.3), 1, 3 * CHUNK),
                                   (f0_oracle(2), 2, 3 * CHUNK),
                                   (exp_oracle(1.0), 2, CHUNK + 1)])  # then one piece
def test_direct_solve_equals_scipy_linprog_bit_for_bit(f, r, n):
    knots = chebyshev_partition(n).knots
    for s in range(0, n, CHUNK):
        a, b = knots[:-1][s:s + CHUNK], knots[1:][s:s + CHUNK]
        cost, blocks = localconvex._lp_blocks(f, a, b, r + 1, np.zeros(a.size))
        got = localconvex.linprog(cost, **blocks)
        want = _scipy_solve(cost, blocks)
        assert want.status == 0
        assert np.array_equal(got, want.x)


def test_model_error_is_a_failure_on_both_paths():
    # the end intervals of n = 4096 have width 1.5e-7 in [0, 1], so their
    # curvature rows carry coefficients near 1e15, which HiGHS refuses
    g, amap = normalize_to_unit(exp_oracle(1.0))
    u = (chebyshev_partition(4096).knots - amap.shift) / amap.scale
    u[0], u[-1] = 0.0, 1.0
    for a, b in [(u[:1], u[1:2]), (u[-2:-1], u[-1:])]:
        cost, blocks = localconvex._lp_blocks(g, a, b, 3, np.zeros(1))
        with pytest.raises(SolverStall, match="Model error"):
            localconvex.linprog(cost, **blocks)
        assert _scipy_solve(cost, blocks).status != 0


@pytest.mark.parametrize("corrupt", ["bound", "ub slack", "eq residual"])
def test_infeasible_solution_is_a_stall(monkeypatch, corrupt):
    """An 'optimal' solution off its bounds, ub rows or eq rows by more than
    the feasibility tolerance ends in SolverStall, as linprog's check does."""
    real = localconvex._highs._Highs

    class Corrupted(real):
        def getSolution(self):
            sol = super().getSolution()
            if corrupt == "bound":  # the first epigraph variable below 0
                sol.col_value = [-1e-3 if i == 4 else v for i, v in enumerate(sol.col_value)]
            else:  # rows: the ub rows, then the eq rows
                i = 0 if corrupt == "ub slack" else len(sol.row_value) - 1
                sol.row_value = [v + 1e-3 if j == i else v for j, v in enumerate(sol.row_value)]
            return sol

    monkeypatch.setattr(localconvex._highs, "_Highs", Corrupted)
    knots = chebyshev_partition(CHUNK).knots
    a, b = knots[:-1], knots[1:]
    cost, blocks = localconvex._lp_blocks(exp_oracle(1.0), a, b, 3, np.zeros(a.size))
    with pytest.raises(SolverStall, match="violates the constraints"):
        localconvex.linprog(cost, **blocks)


def test_missing_highs_bindings_name_the_scipy_version():
    code = ("import sys, scipy.optimize._highspy as h; del h._core; "
            "sys.modules['scipy.optimize._highspy._core'] = None; "
            "import convexlab.localconvex")
    src = os.path.dirname(os.path.dirname(localconvex.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode != 0
    assert out.stderr.strip().splitlines()[-1] == (
        "ImportError: convexlab needs scipy>=1.17 for scipy.optimize._highspy._core")
