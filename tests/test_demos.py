"""Smoke test: every script in demos/ runs to exit status 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SLOW = {"conserved_drift_runs", "peakon_transport"}  # long solver runs


@pytest.mark.parametrize("demo", [
    pytest.param(path, id=path.stem, marks=[pytest.mark.slow] if path.stem in SLOW else [])
    for path in sorted((ROOT / "demos").glob("*.py"))
])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
