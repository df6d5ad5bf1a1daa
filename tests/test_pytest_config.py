"""The repository's pytest settings: a failing property test reports its
falsifying example instead of crashing pytest."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_a_failing_property_test_prints_its_falsifying_example(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Falsifying example" in result.stdout
    assert "INTERNALERROR" not in result.stdout + result.stderr
