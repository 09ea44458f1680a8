"""Demo scripts run to completion against the package sources."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_occupancy_demo_runs():
    # builds a grid and draws the whole population from its class layout
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", "occupancy_proportionality.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "fitted slope" in proc.stdout
