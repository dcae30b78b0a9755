"""The suite's pytest configuration, run on a throwaway test module."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"

FAILING_THEN_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_property_test_hides_no_later_test(tmp_path):
    (tmp_path / "test_module.py").write_text(FAILING_THEN_PASSING)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_module.py"],
        cwd=tmp_path, capture_output=True, text=True, check=False,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    assert "1 failed, 1 passed" in output
