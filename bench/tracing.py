"""Spans and counters around convexlab's public functions, from outside.

`Tracer.install` replaces each traced function by a timing wrapper at every
place convexlab binds it: modules bind names at import, so patching only the
defining module would miss, say, `convexlab.cli.construct_chebyshev`.  Class
methods (`ModulusProfile`, `PiecewisePoly`) are patched on the class.  The
evaluators of every oracle that `parse_function` returns are wrapped too,
which counts oracle calls and points.

Spans live in flat arrays (name, start, end, parent, operation) until
`write_spans`; `layer_metrics` turns them into the per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from checks import BOUND_IDS

# (module defining it, attribute, span name); classes are given as
# "module:Class" and their methods as attributes
FUNCTIONS = [
    ("convexlab.cli", "main", "cli.main"),
    ("convexlab.glue", "construct_chebyshev", "glue.construct_chebyshev"),
    ("convexlab.glue", "construct_spline", "glue.construct_spline"),
    ("convexlab.glue", "chebyshev_threshold", "glue.chebyshev_threshold"),
    ("convexlab.localconvex", "build_sigma", "localconvex.build_sigma"),
    ("convexlab.localconvex", "convex_pieces", "localconvex.convex_pieces"),
    ("convexlab.localconvex", "convex_piece", "localconvex.convex_piece"),
    ("convexlab.localconvex", "convex_parabola", "localconvex.convex_parabola"),
    ("convexlab.localconvex", "_secant_piece", "localconvex.secant_piece"),
    ("convexlab.localconvex", "linprog", "scipy.linprog"),
    ("convexlab.endblocks", "find_H", "endblocks.find_H"),
    ("convexlab.endblocks", "integrated_L", "endblocks.integrated_L"),
    ("convexlab.endblocks", "mirrored_L", "endblocks.mirrored_L"),
    ("convexlab.polynomial", "convexity_certificate", "polynomial.convexity_certificate"),
    ("convexlab.polynomial", "hermite_interpolant", "polynomial.hermite_interpolant"),
    ("convexlab.smoothness", "modulus", "smoothness.modulus"),
    ("convexlab.smoothness", "modulus_lower_bound", "smoothness.modulus_lower_bound"),
    ("convexlab.smoothness:ModulusProfile", "__init__", "smoothness.profile_build"),
    ("convexlab.smoothness:ModulusProfile", "value", "smoothness.profile_query"),
    ("convexlab.certify", "sweep", "certify.sweep"),
    ("convexlab.certify", "pointwise_bound_report", "certify.bound_report"),
    ("convexlab.certify", "verify_convexity", "certify.verify_convexity"),
    ("convexlab.piecewise:PiecewisePoly", "__call__", "piecewise.eval"),
    ("convexlab.piecewise:PiecewisePoly", "is_continuous", "piecewise.is_continuous"),
    ("convexlab.piecewise:PiecewisePoly", "continuity_defects", "piecewise.continuity_defects"),
    ("convexlab.piecewise:PiecewisePoly", "knot_slopes", "piecewise.knot_slopes"),
    ("convexlab.piecewise:PiecewisePoly", "piece_certificates", "piecewise.piece_certificates"),
    ("convexlab.piecewise:PiecewisePoly", "slope_scale", "piecewise.slope_scale"),
    ("convexlab.piecewise:PiecewisePoly", "value_scale", "piecewise.value_scale"),
]
PIECE_SPANS = ("localconvex.convex_piece", "localconvex.convex_parabola",
               "localconvex.secant_piece")
CHECK_SPANS = ("piecewise.is_continuous", "piecewise.continuity_defects",
               "piecewise.knot_slopes", "piecewise.piece_certificates",
               "piecewise.slope_scale", "piecewise.value_scale")
PREPARE_SPANS = ("glue.construct_chebyshev", "glue.construct_spline",
                 "glue.chebyshev_threshold")


def _bound_id(args, kwargs) -> str:
    # pointwise_bound_report(f, S, r, n, bound_id, ...)
    return kwargs["bound_id"] if "bound_id" in kwargs else args[4]


def _bound_label(args, kwargs) -> str:
    return f"certify.bound_{_bound_id(args, kwargs)}"


def _resolve(owner: str):
    mod, _, cls = owner.partition(":")
    obj = sys.modules[mod]
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.current_op = -1
        self.counts = Counter()
        self.per_op = Counter()  # (operation, key) -> count, for the table
        self._patches: list[tuple] = []
        self._piece_ids: set[int] = set()

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None, label=None):
        """fn with a span per call; after(result, args, kwargs) runs once the
        span has closed and may update counters; label(args, kwargs), if
        given, names the span per call instead of `name`."""
        nid = self._intern(name)
        add_name, add_parent, add_op = self.name.append, self.parent.append, self.op.append
        add_start, add_end, ends = self.start.append, self.end.append, self.end
        stack = self.stack
        clock = perf_counter

        def traced(*args, **kwargs):
            sid = len(ends)
            add_name(nid if label is None else self._intern(label(args, kwargs)))
            add_parent(stack[-1] if stack else -1)
            add_op(self.current_op)
            add_end(0.0)
            stack.append(sid)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "convexlab" and not mod_name.startswith("convexlab."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        hooks = {
            "certify.bound_report": self._after_bound_report,
            "localconvex.build_sigma": self._after_build_sigma,
            "piecewise.eval": self._after_eval,
        }
        for name in PIECE_SPANS:
            hooks[name] = self._after_piece
        for owner, attr, name in FUNCTIONS:
            target = _resolve(owner)
            original = getattr(target, attr)
            label = _bound_label if name == "certify.bound_report" else None
            wrapper = self.wrap(name, original, hooks.get(name), label)
            if ":" in owner:
                self._patches.append((target, attr, original))
                setattr(target, attr, wrapper)
            else:
                self._replace_everywhere(original, wrapper)
        parse = sys.modules["convexlab.domain"].parse_function
        self._replace_everywhere(parse, self._traced_parse(parse))
        self._piece_ids = {self._ids[n] for n in PIECE_SPANS}

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _traced_parse(self, parse):
        def parse_function(spec):
            oracle = parse(spec)
            derivs = tuple(self.wrap("domain.oracle", d, self._after_oracle)
                           for d in oracle.derivs)
            return dataclasses.replace(oracle, derivs=derivs)
        return parse_function

    # -- counters -----------------------------------------------------------

    def _after_oracle(self, result, args, kwargs):
        self.counts["oracle_points"] += getattr(args[0], "size", 1)

    def _after_eval(self, result, args, kwargs):
        self.counts["eval_points"] += getattr(args[1], "size", 1)

    def _after_piece(self, result, args, kwargs):
        if any(self.name[s] in self._piece_ids for s in self.stack):
            return  # the parabola or secant behind a convex_piece call
        self.counts["pieces_built"] += 1
        self.counts[f"source_{result.source}"] += 1
        self.per_op[(self.current_op, f"pieces from {result.source}")] += 1
        if result.source == "parabola-fallback":
            a, b = result.interval
            self.per_op[(self.current_op, f"parabola-fallback on [{a:.10g}, {b:.10g}]")] += 1

    def _after_build_sigma(self, result, args, kwargs):
        self.counts["pieces_kept"] += result.n - 2  # _assemble swaps in end blocks

    def _after_bound_report(self, result, args, kwargs):
        bound_id = _bound_id(args, kwargs)
        useful, points = len(result.grid), len(result.grid) + len(result.excluded_points)
        self.counts[f"bound_useful_{bound_id}"] += useful
        self.counts[f"bound_points_{bound_id}"] += points
        self.per_op[(self.current_op, f"bound {bound_id}: useful points")] += useful
        self.per_op[(self.current_op, f"bound {bound_id}: points")] += points

    # -- output -------------------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        return name, start, end, parent

    def table(self):
        """{span name: (calls, total seconds, self seconds)}."""
        name, start, end, parent = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        out = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            out[label] = (int(np.count_nonzero(sel)), float(dur[sel].sum()),
                          float(self_t[sel].sum()))
        return out

    def lp_retries(self) -> Counter:
        """{operation: convex_piece calls that solved a second LP (mu > 0)}."""
        if "scipy.linprog" not in self._ids:
            return Counter()
        name, _, _, parent = self.arrays()
        lp_parents = parent[name == self._ids["scipy.linprog"]]
        per_parent = np.bincount(lp_parents[lp_parents >= 0], minlength=len(name))
        op = np.frombuffer(self.op, dtype=np.int32)
        return Counter(int(i) for i in op[per_parent > 1])

    def outermost_total(self, names) -> float:
        """Time inside spans of the group, counting nested ones once."""
        ids = {self._ids[n] for n in names if n in self._ids}
        name, start, end, parent = self.arrays()
        in_group = np.isin(name, list(ids))
        covered = np.zeros(len(name), dtype=bool)  # has an ancestor in the group
        for sid in np.flatnonzero(in_group):
            p = parent[sid]
            while p >= 0 and not in_group[p]:
                p = parent[p]
            covered[sid] = p >= 0
        top = in_group & ~covered
        return float((end[top] - start[top]).sum())

    def write_spans(self, path) -> None:
        """Tab-separated: id, operation, name, start, end, parent (-1: none)."""
        name, start, end, parent = self.arrays()
        op = np.frombuffer(self.op, dtype=np.int32)
        t0 = float(start.min()) if len(start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\top\tname\tstart_s\tend_s\tparent\n")
            for sid in range(len(name)):
                fh.write(f"{sid}\t{op[sid]}\t{self.names[name[sid]]}\t"
                         f"{start[sid] - t0:.9f}\t{end[sid] - t0:.9f}\t{parent[sid]}\n")


def layer_metrics(tr: Tracer, bytes_written: int, overhead_s: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced round."""
    tab = defaultdict(lambda: (0, 0.0, 0.0), tr.table())
    c = tr.counts

    def calls(n):
        return tab[n][0]

    def total(n):
        return tab[n][1]

    def self_by_layer(layer):
        return sum(v[2] for k, v in tab.items() if k.split(".")[0] == layer)

    def ratio(a, b):
        return a / b if b else 0.0

    built = c["pieces_built"]
    bound_calls = sum(calls(f"certify.bound_{b}") for b in BOUND_IDS)
    useful = sum(c[f"bound_useful_{b}"] for b in BOUND_IDS)
    points = sum(c[f"bound_points_{b}"] for b in BOUND_IDS)
    m = {
        "localconvex.build_sigma_s": (total("localconvex.build_sigma"), "s"),
        "localconvex.self_s": (self_by_layer("localconvex"), "s"),
        "localconvex.pieces_built": (built, "count"),
        "localconvex.lp_calls": (calls("scipy.linprog"), "count"),
        "localconvex.lp_s": (total("scipy.linprog"), "s"),
        "localconvex.lp_per_piece": (ratio(calls("scipy.linprog"), built), "1/piece"),
        "localconvex.fallback_pieces": (c["source_parabola-fallback"], "count"),
        "localconvex.secant_pieces": (c["source_secant"], "count"),
        "localconvex.pieces_used_ratio": (ratio(c["pieces_kept"], built), "ratio"),
        "smoothness.modulus_calls": (calls("smoothness.modulus"), "count"),
        "smoothness.modulus_s": (total("smoothness.modulus"), "s"),
        "smoothness.profile_builds": (calls("smoothness.profile_build"), "count"),
        "smoothness.profile_build_s": (total("smoothness.profile_build"), "s"),
        "smoothness.profile_queries": (calls("smoothness.profile_query"), "count"),
        "smoothness.profile_query_s": (total("smoothness.profile_query"), "s"),
        "smoothness.lower_bound_calls": (calls("smoothness.modulus_lower_bound"), "count"),
        "smoothness.lower_bound_s": (total("smoothness.modulus_lower_bound"), "s"),
        "certify.sweep_s": (total("certify.sweep"), "s"),
        "certify.bound_report_calls": (bound_calls, "count"),
        "certify.bound_report_s": (sum(total(f"certify.bound_{b}") for b in BOUND_IDS), "s"),
    }
    for b in BOUND_IDS:
        m[f"certify.bound_{b}_s"] = (total(f"certify.bound_{b}"), "s")
    m.update({
        "certify.useful_point_ratio": (ratio(useful, points), "ratio"),
        "glue.construct_s": (total("glue.construct_chebyshev")
                             + total("glue.construct_spline"), "s"),
        "glue.threshold_s": (total("glue.chebyshev_threshold"), "s"),
        "glue.self_s": (self_by_layer("glue"), "s"),
        "glue.prepare_runs": (sum(calls(n) for n in PREPARE_SPANS), "count"),
        "endblocks.find_H_calls": (calls("endblocks.find_H"), "count"),
        "endblocks.find_H_s": (total("endblocks.find_H"), "s"),
        "endblocks.blocks_built": (calls("endblocks.integrated_L"), "count"),
        "polynomial.certificate_calls": (calls("polynomial.convexity_certificate"), "count"),
        "polynomial.certificate_s": (total("polynomial.convexity_certificate"), "s"),
        "polynomial.hermite_calls": (calls("polynomial.hermite_interpolant"), "count"),
        "polynomial.hermite_s": (total("polynomial.hermite_interpolant"), "s"),
        "piecewise.eval_points": (c["eval_points"], "count"),
        "piecewise.eval_s": (total("piecewise.eval"), "s"),
        "piecewise.checks_s": (tr.outermost_total(CHECK_SPANS), "s"),
        "domain.oracle_calls": (calls("domain.oracle"), "count"),
        "domain.oracle_points": (c["oracle_points"], "count"),
        "domain.oracle_s": (total("domain.oracle"), "s"),
        "cli.self_s": (self_by_layer("cli"), "s"),
        "cli.bytes_written": (bytes_written, "bytes"),
        "tracing.overhead_s": (overhead_s, "s"),
    })
    return m
