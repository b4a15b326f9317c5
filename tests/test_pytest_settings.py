"""The test settings in pyproject.toml: a failing Hypothesis test must not
stop the run, so every later failure is still reported."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_FILE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_hypothesis_fails(x):
    assert x < 0


def test_passes():
    pass


def test_later_fails():
    assert False
'''


def test_a_failing_hypothesis_test_does_not_hide_later_failures(tmp_path):
    """With every warning an error, the deprecation warning that the
    Hypothesis plugin raises while reporting a failure aborted the run
    with INTERNALERROR after the first failure."""
    test_file = tmp_path / "test_planted.py"
    test_file.write_text(FAILING_FILE, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "FAILED" in out and "::test_hypothesis_fails" in out, out
    assert "::test_later_fails" in out, out
    assert "2 failed, 1 passed" in out, out
