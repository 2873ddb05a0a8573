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


PASSING_XFAIL = """
import pytest


@pytest.mark.xfail(reason="fixed since")
def test_fixed():
    pass
"""


def _run_suite(tmp_path, suite):
    """Run pytest under pyproject.toml's settings on one throwaway file."""
    (tmp_path / "test_suite.py").write_text(suite)
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
    return run, run.stdout + run.stderr


def test_a_failing_hypothesis_test_reports_its_example_and_the_run_goes_on(tmp_path):
    # Every warning is an error, and Hypothesis's failure report raises a
    # DeprecationWarning unless pyproject.toml ignores it; the run then ends
    # in INTERNALERROR (exit 3) with no falsifying example and later tests
    # unrun.
    run, out = _run_suite(tmp_path, SUITE)
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "PASSED test_suite.py::test_passes" in out


def test_an_xfail_without_strict_that_passes_fails_the_run(tmp_path):
    # xfail_strict makes every expected failure strict, so a test that no
    # longer fails cannot pass unnoticed as XPASS.
    run, out = _run_suite(tmp_path, PASSING_XFAIL)
    assert run.returncode == 1, out
    assert "XPASS(strict)" in out
