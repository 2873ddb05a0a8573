"""The pytest settings in pyproject.toml, checked on a throwaway suite."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

SUITE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_reports_its_example_and_the_run_goes_on(tmp_path):
    # Every warning is an error, and Hypothesis's failure report raises a
    # DeprecationWarning unless pyproject.toml ignores it; the run then ends
    # in INTERNALERROR (exit 3) with no falsifying example and later tests
    # unrun.
    (tmp_path / "test_suite.py").write_text(SUITE)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider", "-rA", "test_suite.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "PASSED test_suite.py::test_passes" in out
