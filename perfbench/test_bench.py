"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest -q perfbench

They run every workload at a tiny size, traced and untraced, and check the
correctness checks against deliberately broken inputs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (puts the checkout's src/ on sys.path)
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from epimob import harness, metrics, oracle, scenario  # noqa: E402
from epimob.attractiveness import CellGrid  # noqa: E402

SPEC = run.load_spec()
SEED = 3


def bench(workload: str, trace: int, cwd: str = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_metric_is_present_finite_and_in_its_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_top_level_spans_cover_the_traced_wall_time(workload):
    proc = bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    trace_dir = os.path.join(run.OUT, "trace", f"{workload}-seed{SEED}")
    with open(os.path.join(trace_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    rows = spans.read_spans(trace_dir)
    main = rows[rows["pid"] == rows[rows["name"] == spans.CODE["bench.unit"]]["pid"][0]]
    top = main[main["parent"] == -1]
    wall = summary["traced_wall_s"]
    assert 0.95 <= (top["end"] - top["start"]).sum() / wall <= 1.0
    # self times partition the main process's top-level spans, bar the tracer's own counting
    assert 0.8 <= main["self"].sum() / wall <= 1.0
    replicates = rows[rows["name"] == spans.CODE["harness.run_replicate"]]
    if workload == "awareness_1e4_files":
        assert replicates.size and np.all(replicates["pid"] != main["pid"][0])
        assert 0.0 < summary["metrics"]["harness.parallel_efficiency"] <= 1.0


def test_install_restores_every_rebound_attribute():
    before = (harness.run_replicate, harness.step, scenario.PrevalenceReached.met,
              harness.ReplicateStreams.__dict__["from_seed"])
    restore = spans.install(spans.Tracer(run.OUT))
    assert harness.run_replicate is not before[0]
    restore()
    after = (harness.run_replicate, harness.step, scenario.PrevalenceReached.met,
             harness.ReplicateStreams.__dict__["from_seed"])
    assert after == before


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("tiny_oracle", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_replicate_checks_catch_a_corrupted_trace():
    config = dataclasses.replace(scenario.preset_emerging(500), seed=SEED)
    summary, trace = harness.run_replicate(config, 0)
    assert checks.replicate_problems(summary, trace, config.params) == []
    bad = dataclasses.replace(trace, uninfected=trace.uninfected.copy())
    bad.uninfected[1] += 1
    assert checks.replicate_problems(summary, bad, config.params)
    bad = dataclasses.replace(trace, new_total=trace.new_total.copy())
    bad.new_total[-1] += 1
    assert checks.replicate_problems(summary, bad, config.params)
    capped = dataclasses.replace(summary, extinction_step=None)
    assert checks.replicate_problems(capped, trace, config.params)
    assert checks.criterion5_problems(dataclasses.replace(summary, ever_infected=10), 500) == []
    assert checks.criterion5_problems(dataclasses.replace(summary, ever_infected=722), 500)
    assert checks.criterion5_problems(dataclasses.replace(summary, ever_infected=10, extinction_step=201), 500)


def test_trigger_check_catches_a_missed_or_early_trigger():
    config = dataclasses.replace(
        workloads.make("awareness_1e4_files", True, run.OUT).config, seed=SEED
    )
    summary, trace = harness.run_replicate(config, 0)
    assert summary.fired_steps[0] is not None
    assert checks.trigger_problems(summary, trace, 0.02, config.params.n) == []
    for fired in (None, summary.fired_steps[0] + 1):
        wrong = dataclasses.replace(summary, fired_steps=(fired,))
        assert checks.trigger_problems(wrong, trace, 0.02, config.params.n)


def test_file_checks_catch_a_corrupted_row_and_a_byte_difference(tmp_path):
    config = dataclasses.replace(
        scenario.preset_emerging(500), seed=SEED, replications=2, out_dir=str(tmp_path / "a")
    )
    harness.run_replications(config)
    harness.run_replications(dataclasses.replace(config, out_dir=str(tmp_path / "b")), workers=2)
    a, b = tmp_path / "a", tmp_path / "b"
    assert checks.mismatched_files(str(a), str(b)) == []
    trace_file = a / "trace_0001.csv"
    assert checks.trace_csv_problems(str(trace_file), 500) == []
    lines = trace_file.read_text().splitlines()
    fields = lines[2].split(",")
    fields[2] = str(int(fields[2]) + 1)
    lines[2] = ",".join(fields)
    trace_file.write_text("\n".join(lines) + "\n")
    assert checks.trace_csv_problems(str(trace_file), 500)
    assert checks.mismatched_files(str(a), str(b)) == ["trace_0001.csv"]


def test_oracle_check_catches_a_shifted_histogram():
    grid = CellGrid.from_weights([2, 3, 5])
    exact = oracle.enumerate_step(grid, np.array([1, 0, 0, 0], dtype=np.int8), 0.5)
    trials = 20_000
    counts = np.round(exact * trials).astype(np.int64)
    assert checks.oracle_outcome_ok(counts, exact)
    shifted = counts.copy()
    shifted[0] -= 400
    shifted[1] += 400
    assert not checks.oracle_outcome_ok(shifted, exact)
    assert not checks.oracle_outcome_ok(counts[:-1], exact)
