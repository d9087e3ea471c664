"""Every narrated demo script runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, src_env):
    proc = subprocess.run([sys.executable, str(path)], capture_output=True, text=True,
                          env=src_env, timeout=300)
    assert proc.returncode == 0, proc.stderr
