"""Demo scripts run to completion against the package sources."""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_demo(name: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_occupancy_demo_runs():
    # builds a grid and draws the whole population from its class layout
    last = _run_demo("occupancy_proportionality.py").splitlines()[-1]
    assert re.fullmatch(r"fitted slope \d\.\d{4} vs n/W \d\.\d{4}", last), last


# the last line each demo prints; the first two reach dense count steps
# (|I| >= 3150 on the 1e4-cell grid) at n = 1e4
SUMMARIES = {
    "emerging_outbreak.py": r"large outbreaks, yet a polynomial-sized block never gets infected",
    "awareness_trigger.py":
        r"median ever infected: \d+ without vs \d+ with the trigger \(\d+\.\dx reduction\)",
    "industrialized_containment.py":
        r"median extinction step \d+, median outbreak size \d+ of 100000 \(\d+\.\d{3}%\)",
    "exact_oracles.py": r"exact PMF sums to 1\.0{12}",
}


@pytest.mark.parametrize("name", sorted(SUMMARIES))
def test_demo_prints_its_summary(name):
    lines = _run_demo(name).splitlines()
    assert re.fullmatch(SUMMARIES[name], lines[-1]), lines[-3:]
