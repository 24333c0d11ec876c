"""The benchmark's tracer (`bench/tracing.py`) wraps convexlab functions and
methods by name.  Renaming or removing one of them breaks
`python3 bench/run.py --trace 1`; these tests catch that without running the
benchmark."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import convexlab.cli  # noqa: F401  (the tracer resolves every module it patches)
from convexlab import glue, piecewise

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # tracing imports checks
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every function bound in a convexlab module, plus the traced methods."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "convexlab" or name.startswith("convexlab."):
            out.update({(name, attr): value for attr, value in vars(mod).items()
                        if callable(value)})
    return out


def test_tracer_installs_traces_and_restores(tracing):
    before = _bindings()
    methods = {(owner, attr): getattr(tracing._resolve(owner), attr)
               for owner, attr, _ in tracing.FUNCTIONS if ":" in owner}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        parse = sys.modules["convexlab.domain"].parse_function
        S, _, _ = glue.construct_chebyshev(parse("exp:alpha=1"), 2, 16)
        # no construction runs an LP, not even r = 1 with a sigma left open
        # by the shortcut, as on the wide middle piece of xpow:m=2 at N = 13
        glue.construct_chebyshev(parse("xpow:m=2"), 1, 13)
        report = piecewise.verify_convexity(S)
    finally:
        tracer.uninstall()
    assert report.convex

    table = tracer.table()
    # the convexity check evaluates and certifies the rows of all its splines
    # in one pass, through none of the PiecewisePoly methods that the tracer
    # wraps, so it opens no piecewise span of its own
    for span in ("glue.construct_chebyshev", "certify.verify_convexity",
                 "endblocks.find_H", "domain.oracle"):
        assert table[span][0] >= 1, span
    assert table["scipy.linprog"][0] == 0
    metrics = tracing.layer_metrics(tracer, 0, 0.0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} <= set(metrics)

    assert _bindings() == before
    for (owner, attr), original in methods.items():
        assert getattr(tracing._resolve(owner), attr) is original
