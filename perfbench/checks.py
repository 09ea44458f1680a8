"""Correctness checks that any exact-in-law engine must pass.

None of them compares digests of random output: each one is an identity
that holds on every sample path (conservation, bookkeeping, trigger timing,
byte determinism across worker counts) or a statistical bound loose enough
that a correct engine fails it with negligible probability.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# Criterion 2 tests 20 outcomes at one pinned seed against 3 standard errors.
# Over the ~100 outcomes of one benchmark run at an arbitrary seed that rule
# flags a correct engine in 15-20% of runs (binomial simulation at the exact
# PMFs), so a unit here fails only beyond 5 standard errors plus 5 counts; the
# slack covers the Poisson tail of outcomes whose expected count is below one.
ORACLE_Z = 5.0
ORACLE_SLACK = 5.0


def replicate_problems(summary, trace, params) -> list[str]:
    """Identities every replicate satisfies, whatever random draws it consumed."""
    n = params.n
    problems = []
    if np.any(trace.uninfected + trace.infected + trace.recovered != n):
        problems.append("U+I+R != n on a trace row")
    if summary.ever_infected != n - int(trace.uninfected[-1]):
        problems.append("summary ever_infected disagrees with the trace")
    if int(trace.new_total.sum()) != summary.ever_infected - params.initial_infected:
        problems.append("sum of new_total != ever_infected - initial_infected")
    if summary.extinction_step is None or int(trace.infected[-1]) != 0:
        problems.append("replicate reached the step cap without going extinct")
    return problems


def criterion5_problems(summary, n: int) -> list[str]:
    """Criterion 5 containment, applied to every industrialized replicate."""
    problems = []
    if summary.extinction_step is None or summary.extinction_step > 200:
        problems.append("not extinct within 200 steps")
    if summary.ever_infected > math.log2(n) ** 3:
        problems.append("ever_infected above (log2 n)^3")
    return problems


def trigger_problems(summary, trace, fraction: float, n: int) -> list[str]:
    """A prevalence trigger fires at the first trace row that reaches it, and only then."""
    reached = np.flatnonzero(trace.infected >= fraction * n)
    expected = int(trace.steps[reached[0]]) if reached.size else None
    fired = summary.fired_steps[0]
    if fired != expected:
        return [f"trigger fired at {fired}, prevalence {fraction} first reached at {expected}"]
    return []


def trace_csv_problems(path: str, n: int) -> list[str]:
    """U+I+R = n on every row of a written trace file."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    if header[:4] != ["step", "I", "U", "R"] or not rows:
        return [f"{os.path.basename(path)}: malformed trace file"]
    if any(int(r[1]) + int(r[2]) + int(r[3]) != n for r in rows):
        return [f"{os.path.basename(path)}: U+I+R != n on a row"]
    return []


def _manifest_view(raw: bytes) -> dict:
    # criterion 8's comparison: wall-clock fields and the output directory differ by design
    doc = json.loads(raw)
    doc.pop("started_at")
    doc.pop("wall_seconds")
    doc["config_text"] = "\n".join(
        ln for ln in doc["config_text"].splitlines() if not ln.startswith("out_dir=")
    )
    return doc


def mismatched_files(dir_a: str, dir_b: str) -> list[str]:
    """Output files that differ between two runs of one config at different worker counts."""
    names_a, names_b = set(os.listdir(dir_a)), set(os.listdir(dir_b))
    bad = sorted(names_a ^ names_b)
    for name in sorted(names_a & names_b):
        with open(os.path.join(dir_a, name), "rb") as fa, open(os.path.join(dir_b, name), "rb") as fb:
            a, b = fa.read(), fb.read()
        same = _manifest_view(a) == _manifest_view(b) if name == "manifest.json" else a == b
        if not same:
            bad.append(name)
    return bad


def oracle_outcome_ok(counts: np.ndarray, exact: np.ndarray) -> bool:
    """Whether an engine histogram of new infections agrees with the exact PMF."""
    trials = int(counts.sum())
    if counts.size != exact.size or trials == 0:
        return False
    expected = trials * exact
    spread = np.sqrt(trials * exact * (1.0 - exact))
    return bool(np.all(np.abs(counts - expected) <= ORACLE_Z * spread + ORACLE_SLACK))


def worst_z(counts: np.ndarray, exact: np.ndarray) -> float:
    """Largest standardized gap |freq - p| / SE over outcomes with p in (0, 1)."""
    trials = int(counts.sum())
    mask = (exact > 0) & (exact < 1)
    if trials == 0 or not mask.any():
        return 0.0
    se = np.sqrt(exact[mask] * (1.0 - exact[mask]) / trials)
    return float(np.max(np.abs(counts[mask] / trials - exact[mask]) / se))
