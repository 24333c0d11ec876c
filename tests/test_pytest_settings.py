"""The pytest settings in pyproject.toml: a failing hypothesis property ends
in its falsifying example, not in an INTERNALERROR."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_property_prints_its_falsifying_example(tmp_path):
    # on a failure hypothesis imports libcst, whose use of
    # mypy_extensions.TypedDict warns; error::DeprecationWarning made that an
    # INTERNALERROR, which hid the example
    (tmp_path / "test_prop.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_prop(x):\n"
        "    assert x < 5\n")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_prop.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out  # tests failed; 3 is an internal error
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_prop(" in out
