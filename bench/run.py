"""Benchmark for convexlab: construction, sweeps and threshold search.

    python3 bench/run.py --workload construct|sweep|threshold|all \
        --seed N --seconds S --trace 0|1

Each workload is a fixed list of operations driven through convexlab's public
entry points (the CLI's `main` in-process, and `glue.chebyshev_threshold`).
A run repeats whole rounds of that list until `--seconds` of operation time
have been measured, then checks every output with `checks.py`, which does not
use convexlab's own certificate or bound code.  Times are scaled to a fixed
machine speed (see `pace.py`).  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.  With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` the run
times one round untraced and one round traced (see `tracing.py`) and reports
the per-layer metrics, writing its spans and a per-layer table under
`bench/out/<workload>/`.
"""

from __future__ import annotations

import os

# one thread of work: pin the BLAS/OpenMP pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import checks  # noqa: E402  (python puts the script's directory on sys.path)
from checks import CheckFailed  # noqa: E402
from pace import Pace, spawn_times  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("construct", "sweep", "threshold")
SETUP_PROBES = 5
SWEEP_RANGE = "32:256:x2"
SWEEP_NS = [32, 64, 128, 256]
TRUNCPOW_LADDER = (0.1, 0.03, 0.01, 0.003, 0.001, 3e-4, 1e-4)
STRATA = 2  # seeded draws per smooth family in `threshold`, one per stratum
CONVEX_CUBIC = "poly:coeffs=0.5,-0.25,1,0.125"  # p'' = 2 + 0.75 x > 0


class OpFailed(RuntimeError):
    """The operation did not end the way the method requires."""


@dataclass
class Op:
    """One benchmark operation: `run` is timed, `check` is not.

    run() returns a result, or raises for a failed operation.  digest(result)
    is a cheap fingerprint: later rounds must reproduce the first round's.
    check(result) validates the output and returns the spline pieces it
    delivered (for `threshold`, the threshold N it sized).
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], int]
    digest: Callable[[object], object]
    out: Path | None = None


@dataclass
class Workload:
    ops: list
    final_check: Callable[[dict], None] = lambda results: None
    seeded: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# convexlab from the checkout's own sources


def load_convexlab():
    src = ROOT / "src"
    if not (src / "convexlab" / "__init__.py").is_file():
        sys.exit(f"bench: no convexlab sources under {src}")
    sys.path.insert(0, str(src))
    import convexlab.cli
    import convexlab.domain
    import convexlab.glue
    if Path(convexlab.__file__).resolve().parent != src / "convexlab":
        sys.exit(f"bench: imported convexlab from {convexlab.__file__}, not {src}")
    return convexlab


def _g(x: float) -> str:
    return f"{x:.6g}"


def _file_digest(path: Path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def cli_op(cx, label: str, argv: list, out: Path, expect: int, check) -> Op:
    """`convexlab <argv>` run in-process through cli.main."""
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cx.cli.main(argv + ["--out", str(out)])
        if code != expect:
            raise OpFailed(f"exit code {code}, expected {expect}: {buf.getvalue().strip()!r}")
        return buf.getvalue()

    return Op(label, run, check, lambda text: (text, _file_digest(out)), out)


# ---------------------------------------------------------------------------
# workloads


def construct_workload(cx, seed: int, out: Path) -> Workload:
    rng = random.Random(seed)
    # in a scan at n = 1024, cosh took 10-30% longer for beta above 2.5; the
    # narrower band keeps the round's cost flat across seeds
    beta = rng.uniform(0.5, 2.5)
    eps = math.exp(rng.uniform(math.log(0.003), math.log(0.5)))
    cases = [("exp:alpha=1", 2, 4096), ("f0:r=2", 2, 1024),
             (f"truncpow:r=1,eps={_g(eps)}", 1, 1024), (f"cosh:beta={_g(beta)}", 1, 1024),
             (CONVEX_CUBIC, 2, 1024),
             # known fault: NotConvexOutput at its own threshold N = 28
             ("exp:alpha=20", 2, 28)]
    ops = []
    for i, (spec, r, n) in enumerate(cases):
        path = out / f"spline{i}.json"

        def check(text, spec=spec, r=r, n=n, path=path):
            return checks.check_spline(json.loads(path.read_text()), spec, r, n)

        argv = ["approximate", "--function", spec, "--r", str(r), "--n", str(n)]
        ops.append(cli_op(cx, f"approximate {spec} r={r} n={n}", argv, path, 0, check))

    # known fault: a concave input must end in a one-line refusal, exit 1
    def refusal(text):
        if len(text.strip().splitlines()) != 1:
            raise CheckFailed(f"refusal is not one line: {text!r}")
        return 0

    argv = ["approximate", "--function", "poly:coeffs=0,0,-1", "--r", "2", "--n", "64"]
    ops.append(cli_op(cx, "approximate poly:coeffs=0,0,-1 r=2 n=64 (concave)", argv,
                      out / "concave.json", 1, refusal))
    return Workload(ops, seeded={"truncpow eps": _g(eps), "cosh beta": _g(beta)})


def sweep_workload(cx, seed: int, out: Path) -> Workload:
    rng = random.Random(seed)
    # eps in [0.15, 0.25] keeps N <= 32, so every row of the range is
    # computed, and the sweep's cost stays flat across the band
    eps = rng.uniform(0.15, 0.25)
    cases = [("exp:alpha=1", 2), ("f0:r=2", 2), (f"truncpow:r=1,eps={_g(eps)}", 1)]
    ops = []
    for i, (spec, r) in enumerate(cases):
        path = out / f"sweep{i}.csv"

        def check(text, spec=spec, r=r, path=path):
            rows = checks.parse_sweep_csv(path.read_text(), SWEEP_NS)
            computed = [row for row in rows if "ratios" in row]
            if spec.startswith("exp:"):
                alpha = float(spec.partition("=")[2])
                f = cx.domain.parse_function(spec)
                for row in computed:
                    n = int(row["n"])
                    S, _, _ = cx.glue.construct_chebyshev(f, r, n)
                    doc = S.to_json_dict()
                    checks.check_spline(doc, spec, r, n)
                    mine = checks.exp_ratio_2_3(checks.Spline(doc), alpha, r, n)
                    checks.check_exp_ratio(row["ratios"]["2.3"], mine, n)
            return sum(int(row["n"]) for row in computed)

        argv = ["sweep", "--function", spec, "--r", str(r), "--n", SWEEP_RANGE]
        ops.append(cli_op(cx, f"sweep {spec} r={r} n={SWEEP_RANGE}", argv, path, 0, check))
    return Workload(ops, seeded={"truncpow eps": _g(eps)})


def threshold_workload(cx, seed: int, out: Path) -> Workload:
    rng = random.Random(seed)
    cases = [(f"truncpow:r={r},eps={_g(e)}", r) for r in (1, 2) for e in TRUNCPOW_LADDER]
    seeded = {}
    for name, key, lo, hi in (("exp", "alpha", 0.5, 8.0), ("cosh", "beta", 0.5, 4.0)):
        draws = [lo + (hi - lo) * (k + rng.random()) / STRATA for k in range(STRATA)]
        seeded[f"{name} {key}"] = [_g(v) for v in draws]
        cases += [(f"{name}:{key}={_g(v)}", r) for v in draws for r in (1, 2, 3)]
    cases += [(f"f0:r={r}", r) for r in (1, 2, 3)]

    def threshold_op(spec, r):
        def run():
            return cx.glue.chebyshev_threshold(cx.domain.parse_function(spec), r)

        def check(result):
            N, H = result
            checks.check_threshold(N, H)
            checks.check_refusal(cx.glue.construct_chebyshev, cx.glue.NBelowThreshold,
                                 cx.domain.parse_function(spec), r, N)
            if spec.startswith("truncpow:"):
                checks.check_markov(float(spec.rpartition("=")[2]), r, N)
            return N

        return Op(f"chebyshev_threshold {spec} r={r}", run, check, lambda res: res)

    def growth(results):
        for r in (1, 2):
            checks.check_growth(TRUNCPOW_LADDER, [
                results[f"chebyshev_threshold truncpow:r={r},eps={_g(e)} r={r}"][0]
                for e in TRUNCPOW_LADDER])

    return Workload([threshold_op(s, r) for s, r in cases], growth, seeded)


BUILDERS = {"construct": construct_workload, "sweep": sweep_workload,
            "threshold": threshold_workload}


# ---------------------------------------------------------------------------
# running


@dataclass
class Tally:
    runs: list = field(default_factory=list)         # (label, scaled s, failed)
    round_times: list = field(default_factory=list)  # scaled seconds
    round_walls: list = field(default_factory=list)  # wall seconds
    pieces: int = 0
    bytes_written: int = 0
    errors: list = field(default_factory=list)       # incorrect outputs
    failures: list = field(default_factory=list)
    first: dict = field(default_factory=dict)        # label -> (digest, pieces)
    results: dict = field(default_factory=dict)      # label -> first result


def run_round(wl: Workload, tally: Tally, pace: Pace, tracer=None) -> None:
    round_time = round_wall = 0.0
    for i, op in enumerate(wl.ops):
        if op.out is not None:
            op.out.unlink(missing_ok=True)
        if tracer is not None:
            tracer.current_op = i
        result, exc, wall, dt = pace.run(op.run)
        failed = None
        if exc is not None:
            where = traceback.extract_tb(exc.__traceback__)[-1]
            failed = f"{type(exc).__name__}: {exc} (raised at {where.filename}:{where.lineno})"
        round_time += dt
        round_wall += wall
        tally.runs.append((op.label, dt, failed is not None))
        if failed:
            tally.failures.append(f"{op.label}: {failed}")
            continue
        if op.out is not None and op.out.exists():
            tally.bytes_written += op.out.stat().st_size
        digest = op.digest(result)
        try:
            if op.label not in tally.first:
                tally.first[op.label] = (digest, op.check(result))
                tally.results[op.label] = result
            elif tally.first[op.label][0] != digest:
                raise CheckFailed("output differs from the first round's")
            tally.pieces += tally.first[op.label][1]
        except CheckFailed as exc:
            tally.errors.append(f"{op.label}: {exc}")
    tally.round_times.append(round_time)
    tally.round_walls.append(round_wall)


def setup_seconds(workload: str, seed: int) -> tuple:
    """Medians over fresh interpreters of import plus input preparation,
    (wall s, scaled s)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    return spawn_times(cmd, SETUP_PROBES)


def final_errors(wl: Workload, tally: Tally) -> None:
    try:
        wl.final_check(tally.results)
    except KeyError:
        pass  # an operation it needs failed, which is counted already
    except CheckFailed as exc:
        tally.errors.append(f"workload check: {exc}")


def emit(tally: Tally, metrics: dict) -> None:
    for line in tally.failures:
        print(f"failed: {line}", file=sys.stderr)
    for line in tally.errors:
        print(f"INCORRECT: {line}", file=sys.stderr)
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g}  {unit}")
    attempted = len(tally.runs)
    failed = sum(1 for _, _, f in tally.runs if f)
    print(f"attempted {attempted}, failed {failed}, correct {not tally.errors}")
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_workload(args) -> int:
    cx = load_convexlab()
    out = OUT / args.workload
    wl = BUILDERS[args.workload](cx, args.seed, out)
    if args.setup_probe:
        return 0
    out.mkdir(parents=True, exist_ok=True)
    for path in out.iterdir():
        path.unlink()
    print(f"workload {args.workload}, seed {args.seed}: {len(wl.ops)} operations a round; "
          f"seeded {json.dumps(wl.seeded)}")

    if args.trace:
        return run_traced(args, wl, out)

    setup_wall, setup_s = setup_seconds(args.workload, args.seed)
    pace = Pace()
    tally = Tally()
    while not tally.round_walls or sum(tally.round_walls) < args.seconds:
        run_round(wl, tally, pace)
    final_errors(wl, tally)
    # Times are scaled to a fixed machine speed (pace.py): the VM's speed
    # changes by up to 2x within seconds, which wall time would report.
    per_op = {}
    for label, dt, failed in tally.runs:
        if not failed:
            per_op.setdefault(label, []).append(dt)
    per_op = {label: statistics.median(v) for label, v in per_op.items()}
    wall_s = statistics.median(tally.round_times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "op_median_s": (statistics.median(per_op.values()) if per_op else 0.0, "s"),
        "pieces_per_s": (tally.pieces / len(tally.round_times) / wall_s, "pieces/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"set-up: {setup_wall:.3f} s wall, {setup_s:.3f} s scaled")
    print(f"{len(tally.round_times)} rounds, wall / scaled: " +
          ", ".join(f"{w:.3f} / {t:.3f} s"
                    for w, t in zip(tally.round_walls, tally.round_times)))
    for op in wl.ops:
        if op.label in per_op:
            print(f"    {per_op[op.label]:8.3f} s  {op.label}")
    emit(tally, metrics)
    return 0


def run_traced(args, wl: Workload, out: Path) -> int:
    tally = Tally()
    pace = Pace(sampling=False)  # per-layer figures are wall seconds
    run_round(wl, tally, pace)
    plain_s = tally.round_walls[-1]
    tracer = Tracer()
    tracer.install()
    written = tally.bytes_written
    try:
        run_round(wl, tally, pace, tracer)
    finally:
        tracer.uninstall()
    traced_s = tally.round_walls[-1]
    final_errors(wl, tally)
    metrics = layer_metrics(tracer, tally.bytes_written - written, traced_s - plain_s)

    tracer.write_spans(out / "spans.tsv")
    rows = sorted(tracer.table().items(), key=lambda kv: -kv[1][2])
    lines = [f"untraced round {plain_s:.3f} s, traced round {traced_s:.3f} s, "
             f"{len(tracer.start)} spans",
             f"{'span':<36} {'calls':>9} {'total_s':>10} {'self_s':>10}"]
    lines += [f"{k:<36} {c:>9} {t:>10.4f} {s:>10.4f}" for k, (c, t, s) in rows if c]
    lines.append("")
    retries = tracer.lp_retries()
    for i, op in enumerate(wl.ops):
        lines.append(f"operation {i}: {op.label}")
        lines += [f"    {key}: {v}" for (j, key), v in sorted(tracer.per_op.items()) if j == i]
        if retries[i]:
            lines.append(f"    pieces that solved a second LP (mu > 0): {retries[i]}")
    lines.append("")
    lines += [f"{k:<36} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    (out / "layers.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines[:-len(metrics)]))
    emit(tally, metrics)
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each one's output."""
    results = {}
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(f"== {w}")
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        results[w] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="import and prepare inputs only (times set-up)")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
