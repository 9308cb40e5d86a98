"""The pytest warning filters of pyproject.toml, run on a small suite in a
fresh pytest process."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

SUITE = '''
import numpy as np
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_hypothesis_failure(n):
    assert n != n


def test_numpy_overflow():
    np.int64(2**62) * np.int64(4)


def test_passes():
    pass
'''


def test_failing_hypothesis_test_leaves_the_run_going(tmp_path):
    # hypothesis's report hook touches mypy_extensions.TypedDict when a test
    # fails; under "error" alone its DeprecationWarning ends the run in an
    # INTERNALERROR and the tests after the failing one never run.  numpy's
    # overflow RuntimeWarning still fails its test.
    (tmp_path / "test_suite.py").write_text(SUITE)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_suite.py",
        ],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout
    summary = proc.stdout.strip().splitlines()[-1]
    assert summary.startswith("2 failed, 1 passed"), proc.stdout
    assert "FAILED test_suite.py::test_hypothesis_failure" in proc.stdout
    assert "FAILED test_suite.py::test_numpy_overflow - RuntimeWarning" in proc.stdout
