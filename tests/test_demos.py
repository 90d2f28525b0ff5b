"""Smoke runs of the demo scripts: each must import and finish with exit code 0.

accelerated_spreading.py (~13 s) and semiwave_speed.py (~20 s) are left
out: together they would more than double the time of this suite, and
the long fat-tail runs and semi-wave solves they make are covered by
the acceptance criteria already.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["kernel_identities.py", "eigen_threshold.py",
                                  "spreading_run.py"])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
