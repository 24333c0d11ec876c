"""Command-line front end: approximate, certify, sweep, counterexample, modulus.

All file outputs are UTF-8 with '.' decimals and fixed key order, so a
repeated run with the same flags produces byte-identical artifacts (timing
collection is opt-in for exactly that reason).  Every JSON file is laid out as
``json.dumps(obj, indent=2)`` plus a newline; the spline file of
``approximate`` is written in that layout straight from the spline's arrays
(:meth:`PiecewisePoly.to_json_text`).  An ``--out`` path whose parent is not
an existing directory, or which is itself a directory, is refused before any
work is done.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from convexlab.certify import (
    BOUND_IDS,
    CERTIFICATION_DENSITY,
    DEFAULT_GRID_SIZE,
    counterexample_witness,
    pointwise_bound_report,
    sweep,
    verify_convexity,
)
from convexlab.domain import parse_function, read_partition
from convexlab.endblocks import NoConvexityThreshold
from convexlab.glue import (
    ConstructionError,
    NBelowThreshold,
    NotConvexOutput,
    PartitionTooCoarse,
    construct_chebyshev,
    construct_spline,
)
from convexlab.piecewise import PiecewisePoly, record_json_dict
from convexlab.smoothness import modulus

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_THRESHOLD = 2
DENSITY_HELP = ("modulus lattice density for sampled denominators (>= 64), those of an "
                "oracle without a lower end of omega (poly); for bound 2.13 also the "
                "lattice steps per knot interval")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _write_json(path: str, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2))


def _check_out(path) -> None:
    """Refuse an --out path that cannot be a file in an existing directory,
    before any work is done or printed."""
    if not path:
        return
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"--out {path}: {parent} is not an existing directory")
    if os.path.isdir(path):
        raise ValueError(f"--out {path} is a directory")


def _parse_n_range(text: str):
    """``64`` | ``16:256:x2`` (geometric) | ``8:32:+8`` (arithmetic)."""
    parts = text.split(":") if ":" in text else [text, text, "+1"]
    if len(parts) != 3:
        raise ValueError(f"bad range {text!r}; use a:b:x2 or a:b:+d")
    lo, hi, step = int(parts[0]), int(parts[1]), parts[2]
    if lo < 1:
        raise ValueError(f"range start must be >= 1, got {lo}")
    out = []
    n = lo
    if step.startswith("x"):
        fac = int(step[1:])
        if fac < 2:
            raise ValueError("geometric factor must be >= 2")
        while n <= hi:
            out.append(n)
            n *= fac
    elif step.startswith("+"):
        inc = int(step[1:])
        if inc < 1:
            raise ValueError("arithmetic increment must be >= 1")
        while n <= hi:
            out.append(n)
            n += inc
    else:
        raise ValueError(f"bad range step {step!r}; use x<k> or +<d>")
    if not out:
        raise ValueError(f"empty range {text!r}")
    return out


def _parse_interval(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"bad interval {text!r}; use a,b")
    a, b = float(parts[0]), float(parts[1])
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"interval ends must be finite, got {text!r}")
    if not a < b:
        raise ValueError(f"need a < b in interval, got {text!r}")
    return a, b


def cmd_approximate(args) -> int:
    if args.n is not None and args.partition:
        raise ValueError("give --n or --partition, not both")
    f = parse_function(args.function)
    meta = {"function": f.label(), "r": args.r}
    try:
        if args.partition:
            X = read_partition(args.partition)
            S, trace = construct_spline(f, X, args.r)
            n_threshold = None
            meta["n"] = X.n
            meta["partition_file"] = args.partition
        else:
            if args.n is None:
                raise ValueError("need --n or --partition")
            S, trace, n_threshold = construct_chebyshev(f, args.r, args.n)
            meta["n"] = args.n
    except NBelowThreshold as exc:
        print(f"n below threshold: N_threshold = {exc.n_threshold}")
        return EXIT_THRESHOLD
    except PartitionTooCoarse as exc:
        print(f"partition too coarse: end intervals must be <= {exc.h_required:.6g}")
        return EXIT_THRESHOLD

    xs = np.linspace(S.a, S.b, 4097)
    fx = np.asarray(f(xs))
    ferr = float(np.max(np.abs(fx - S(xs))))
    scale = 1.0 + float(np.max(np.abs(fx)))
    meta["reproduction"] = bool(ferr <= 1e-9 * scale)
    if n_threshold is not None:
        meta["N_threshold"] = n_threshold
        print(f"N_threshold = {n_threshold}")
    print(f"convex_certified = {S.convex_certified}; "
          f"pieces = {S.n}; order = {S.order}; reproduction = {meta['reproduction']}")
    if args.out:
        _write_text(args.out, S.to_json_text({"trace": trace.to_json_dict(), "meta": meta}))
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_certify(args) -> int:
    f = parse_function(args.function)
    try:
        with open(args.spline, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        S = PiecewisePoly.from_json_dict(doc)
        meta = doc.get("meta") or {}
        if not isinstance(meta, dict):
            raise TypeError("meta must be an object")
    except (KeyError, TypeError, ValueError) as exc:
        print(f"bad spline file: {exc}")
        return EXIT_ERROR
    if meta:
        if meta.get("function") not in (None, f.label()):
            print(f"mismatched inputs: spline built for {meta.get('function')}, "
                  f"got {f.label()}")
            return EXIT_ERROR
        if meta.get("r") not in (None, args.r) or meta.get("n") not in (None, args.n):
            print(f"mismatched inputs: spline built for r={meta.get('r')}, "
                  f"n={meta.get('n')}")
            return EXIT_ERROR

    conv = verify_convexity(S)
    reports = []
    ok = conv.convex
    for b in BOUND_IDS:
        rep = pointwise_bound_report(f, S, args.r, args.n, b,
                                     grid_size=args.grid_size, density=args.density)
        reports.append(rep)
        finite = math.isfinite(rep.sup_ratio)
        ok = ok and finite
        print(f"bound {b}: sup_ratio = {rep.sup_ratio!r} "
              f"({len(rep.grid)} points, {len(rep.excluded_points)} degenerate)")
    print(f"convexity certified = {conv.convex}")
    if args.out:
        _write_json(args.out, {
            "function": f.label(), "r": args.r, "n": args.n,
            "convexity": conv.to_json_dict(),
            "bounds": [rep.to_json_dict() for rep in reports],
        })
        print(f"wrote {args.out}")
    return EXIT_OK if ok else EXIT_ERROR


def cmd_sweep(args) -> int:
    f = parse_function(args.function)
    n_list = _parse_n_range(args.n)
    tab = sweep(f, args.r, n_list, grid_size=args.grid_size,
                density=args.density, timing=args.timing)
    below = [row["n"] for row in tab.rows if not row["computed"]]
    if below:
        print(f"rows below N_threshold = {tab.n_threshold}: {below}")
    text = tab.to_csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_counterexample(args) -> int:
    eps = "auto" if args.epsilon is None else args.epsilon
    w = counterexample_witness(args.r, args.m, args.x_last, epsilon=eps)
    print(f"epsilon_threshold = {w.epsilon_threshold!r}")
    print(f"epsilon = {w.epsilon!r}: markov_lhs = {w.markov_lhs!r}, "
          f"markov_rhs = {w.markov_rhs!r}, contradiction = {w.contradiction}")
    if args.out:
        _write_json(args.out, w.to_json_dict())
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_modulus(args) -> int:
    f = parse_function(args.function)
    interval = _parse_interval(args.interval)
    if interval[0] < f.a or f.b < interval[1]:
        raise ValueError(f"interval {args.interval!r} is not inside the domain "
                         f"[{f.a:g}, {f.b:g}] of {f.label()}")
    if not math.isfinite(args.t):  # the library takes t = inf, which JSON cannot hold
        raise ValueError(f"--t must be finite, got {args.t!r}")
    res = modulus(f, args.k, args.t, interval, grid=args.grid, focus=f.nonsmooth)
    print(f"modulus = {res.value!r} at u = {res.arg_u!r}, x = {res.arg_x!r} "
          f"(grid {res.grid})")
    if args.out:
        _write_json(args.out, {"function": f.label(), "k": args.k, "t": args.t,
                               "interval": list(interval), **record_json_dict(res)})
        print(f"wrote {args.out}")
    return EXIT_OK


def _add_common(p):
    p.add_argument("--function", required=True,
                   help="oracle spec, e.g. exp:alpha=1, f0:r=2, "
                        "truncpow:r=1,eps=0.01, poly:coeffs=0,0,1")
    p.add_argument("--r", type=int, required=True, help="smoothness order used")


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ValueError, so main reports them in one line."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="convexlab",
        description="Convex piecewise-polynomial approximation with certified "
                    "pointwise bounds.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("approximate", help="build a convex spline")
    _add_common(p)
    p.add_argument("--n", type=int, help="Chebyshev partition size")
    p.add_argument("--partition", help="knot file (one knot per line) instead of --n")
    p.add_argument("--out", help="spline JSON output path")
    p.set_defaults(fn=cmd_approximate)

    p = sub.add_parser("certify", help="verify bounds for a stored spline")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--spline", required=True, help="spline JSON from 'approximate'")
    p.add_argument("--grid-size", type=int, default=DEFAULT_GRID_SIZE)
    p.add_argument("--density", type=int, default=CERTIFICATION_DENSITY, help=DENSITY_HELP)
    p.add_argument("--out", help="report JSON output path")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("sweep", help="sup-ratio table over an n range")
    _add_common(p)
    p.add_argument("--n", required=True, help="range: 16:256:x2 or 8:64:+8 or 64")
    p.add_argument("--grid-size", type=int, default=DEFAULT_GRID_SIZE)
    p.add_argument("--density", type=int, default=CERTIFICATION_DENSITY, help=DENSITY_HELP)
    p.add_argument("--timing", action="store_true",
                   help="record wall_ms (breaks byte determinism)")
    p.add_argument("--out", help="CSV output path (stdout otherwise)")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("counterexample", help="Markov-chain impossibility witness")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True, help="spline order")
    p.add_argument("--x-last", type=float, required=True, dest="x_last")
    p.add_argument("--epsilon", type=float, default=None,
                   help="corner sharpness; default threshold/2")
    p.add_argument("--out", help="witness JSON output path")
    p.set_defaults(fn=cmd_counterexample)

    p = sub.add_parser("modulus", help="modulus of smoothness by grid search")
    p.add_argument("--function", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--interval", default="-1,1")
    p.add_argument("--grid", type=int, default=512)
    p.add_argument("--out", help="JSON output path")
    p.set_defaults(fn=cmd_modulus)

    return ap


def _options(parser: argparse.ArgumentParser) -> tuple:
    """(every option string, the ones that take a value) of the parser and
    of its subcommands."""
    actions = list(parser._actions)
    for action in parser._actions:
        if action.nargs == argparse.PARSER:  # the subcommands
            actions += [a for sub in action.choices.values() for a in sub._actions]
    names = {name for a in actions for name in a.option_strings}
    valued = {name for a in actions if a.nargs != 0 for name in a.option_strings}
    return names, valued


def _merge_dash_values(parser: argparse.ArgumentParser, argv: list) -> list:
    """Fold ``--t -inf`` into ``--t=-inf`` for every option that takes a
    value, so argparse does not mistake a value with a leading dash for an
    option; a next token that is itself an option is left alone."""
    names, valued = _options(parser)
    out = []
    for tok in argv:
        if out and out[-1] in valued and tok.startswith("-") and tok not in names:
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        parser = build_parser()
        args = parser.parse_args(_merge_dash_values(parser, list(argv)))
        _check_out(args.out)
        return args.fn(args)
    except (ValueError, OSError, NotConvexOutput, ConstructionError,
            NoConvexityThreshold) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:  # a size too large to allocate
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
