"""The repository's pytest configuration reports a failing Hypothesis test
as an ordinary failure and goes on to the next test."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_GIVEN = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_runs_after():
    pass
'''


def test_a_failing_given_test_is_an_ordinary_failure(tmp_path):
    # on a failure Hypothesis imports libcst to write its patch, and that
    # import warns; as an error it was an INTERNALERROR that ended the run
    (tmp_path / "test_given.py").write_text(FAILING_GIVEN)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(CONFIG), "--rootdir", str(tmp_path), "test_given.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in run.stdout, out
