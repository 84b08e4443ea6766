"""The repository's pytest settings keep a failing run reportable."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_property_test_does_not_abort_the_session(tmp_path):
    # Warnings are errors, so a warning raised while hypothesis reports a
    # failure would end the session as an internal error (exit 3) and skip
    # every later test.
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-rA",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "FAILED test_probe.py::test_fails" in run.stdout
    assert "PASSED test_probe.py::test_passes" in run.stdout
