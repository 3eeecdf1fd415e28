"""The repository's pytest configuration reports failures as failures."""

import subprocess
import sys
from pathlib import Path

import pytest

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = {
    # hypothesis's failure report imports libcst when it is installed
    "hypothesis": """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
""",
    # a DeprecationWarning from anywhere else still fails its test
    "deprecation": """
import warnings


def test_fails():
    warnings.warn("deprecated", DeprecationWarning)
""",
}


@pytest.mark.parametrize("kind", sorted(FAILING))
def test_a_failing_test_is_reported_and_later_tests_run(tmp_path, kind):
    module = tmp_path / "test_sample.py"
    module.write_text(FAILING[kind] + "\n\ndef test_passes():\n    pass\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(CONFIG), "--rootdir", str(tmp_path), str(module)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
