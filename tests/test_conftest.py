"""The suite's own configuration: a failing Hypothesis test fails alone, and the rest still run."""

import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

FAILING_AND_PASSING = '''
import sys

from hypothesis import given, strategies as st


def test_a_green_test_loads_no_libcst():
    assert "libcst" not in sys.modules


@given(st.integers())
def test_b_fails(n):
    assert n < 5


def test_c_passes():
    pass
'''


def test_a_failing_hypothesis_test_fails_alone(tmp_path):
    # the suite's warning filter and conftest, over one failing @given test between two passing
    shutil.copy(TESTS / "conftest.py", tmp_path / "conftest.py")
    shutil.copy(TESTS.parent / "pyproject.toml", tmp_path / "pyproject.toml")
    (tmp_path / "test_x.py").write_text(FAILING_AND_PASSING, encoding="utf-8")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "test_x.py"], cwd=tmp_path, capture_output=True, text=True)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "FAILED test_x.py::test_b_fails" in run.stdout
    assert "1 failed, 2 passed" in run.stdout
