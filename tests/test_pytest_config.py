"""The repository's pytest configuration, run on a throwaway test suite.

pyproject.toml turns every warning into an error.  A failing hypothesis test
must still fail as a test, with its falsifying example, and leave the session
running: hypothesis's report hook can raise a DeprecationWarning (from
mypy_extensions.TypedDict) while it writes that report, and as an error it
aborted the session with INTERNALERROR (exit 3).
"""

import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "pyproject.toml")

FAILING_SUITE = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after():
    pass
"""


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    (tmp_path / "test_throwaway.py").write_text(FAILING_SUITE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", PYPROJECT, "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
