"""Smoke runs of the example scripts against the package sources."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(*argv):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})


def test_demo_runs():
    result = run_script("scripts/demo.py")
    assert result.returncode == 0, result.stderr


def test_check_timings_profiles_a_filtered_run():
    result = run_script("scripts/check_timings.py", "--filter", "tau_calculus")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1].startswith("1/1 checks passed")
