"""The repository's pytest settings report a failing property and run on."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(n):
    assert n != 0


def test_passes():
    pass
'''


def test_failing_property_is_reported_and_the_session_runs_on(tmp_path):
    # on a failure hypothesis imports libcst, which warns through a deprecated
    # mypy_extensions.TypedDict; with every DeprecationWarning an error that
    # stopped the session with INTERNALERROR before the second test ran
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout[-2000:]
