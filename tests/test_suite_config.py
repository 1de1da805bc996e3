"""The test configuration in ``pyproject.toml`` reports every failure.

Warnings fail the suite, but one failing property must not stop the tests
after it.  This module imports no numpy.
"""

import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.numpy_free

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

_TWO_TESTS = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    if x > 0:
        raise AssertionError(x)


def test_a_passing_test():
    pass
"""


def test_a_failing_property_does_not_abort_the_session(tmp_path):
    # Hypothesis's plugin can warn while it reports a failure; turned into an
    # error, that warning became INTERNALERROR and the second test never ran.
    (tmp_path / "test_two.py").write_text(_TWO_TESTS, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_two.py"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-1].startswith("1 failed, 1 passed in ")
