"""The suite's pytest settings keep a failing Hypothesis test readable.

``pyproject.toml`` turns every warning into an error.  Hypothesis's pytest
plugin emits a ``DeprecationWarning`` from ``mypy_extensions`` while it
reports a failure; unless that one warning is ignored, the error replaces
the falsifying example with an ``INTERNALERROR``.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_TEST = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers(0, 100))
def test_fails(x):
    assert x < 50
'''


def test_failing_hypothesis_test_reports_its_falsifying_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING_TEST)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path / "test_fails.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out  # tests failed; 3 would be an internal error
    assert "Falsifying example: test_fails(" in out
    assert "INTERNALERROR" not in out and "PluggyTeardownRaisedWarning" not in out
