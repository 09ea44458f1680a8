"""The four benchmark workloads, each a closed loop of timed units.

A workload object runs one pass: setup(seed) builds its inputs, unit(b)
runs and checks timed unit b, and finish() runs the checks that need the
whole pass.  Every input is a pure function of the workload seed and the
unit index, so an untraced and a traced pass over the same units compute
identical outcomes.
"""

from __future__ import annotations

import dataclasses
import glob
import os
import shutil
import sys
import tempfile
import time
import traceback

import numpy as np

from epimob import dynamics, harness, oracle, scenario
from epimob.attractiveness import CellGrid, EpidemicParams

import checks

AWARENESS = scenario.Trigger(
    scenario.PrevalenceReached(0.02), scenario.ParamOverlay(alpha=6.0, kappa=16.0, tau=2)
)


def unit_seed(seed: int, b: int) -> int:
    """Master seed of timed unit b of a run at workload seed `seed`."""
    return int(np.random.SeedSequence([seed, b]).generate_state(1, np.uint64)[0])


@dataclasses.dataclass
class Done:
    """What one timed unit completed, and the wall time the throughputs divide by."""

    steps: int
    replicates: int
    wall: float


class Replicated:
    """Batches of harness.run_replications; one batch is one timed unit.

    Every replicate is checked (see checks.py) and counts as one attempted
    unit of error accounting.  With files=True each batch writes to its own
    directory under tmp_root, and finish() reruns batch 0 serially and
    compares the bytes.
    """

    def __init__(self, config, batch, *, workers=1, criterion5=False, files=False, tmp_root=None):
        self.config = dataclasses.replace(config, replications=batch)
        self.workers = workers
        self.criterion5 = criterion5
        self.files = files
        self.tmp_root = tmp_root

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.ok: list[bool] = []
        self.outcomes: list = []
        self.first_dir = None

    def _batch_config(self, b: int, out_dir=None):
        return dataclasses.replace(self.config, seed=unit_seed(self.seed, b), out_dir=out_dir)

    def unit(self, b: int, tracer=None):
        out_dir = tempfile.mkdtemp(prefix=f"b{b}-", dir=self.tmp_root) if self.files else None
        config = self._batch_config(b, out_dir)
        t0 = time.perf_counter()
        try:
            result = harness.run_replications(config, workers=self.workers)
        except Exception:
            traceback.print_exc()
            if out_dir:
                shutil.rmtree(out_dir)
            self.ok += [False] * config.replications
            self.outcomes += [None] * config.replications
            return None
        wall = time.perf_counter() - t0
        files = sorted(glob.glob(os.path.join(out_dir, "trace_*.csv"))) if self.files else []
        for r, (summary, trace) in enumerate(zip(result.summaries, result.traces)):
            problems = checks.replicate_problems(summary, trace, config.params)
            if self.criterion5:
                problems += checks.criterion5_problems(summary, config.params.n)
            if len(config.schedule):
                problems += checks.trigger_problems(
                    summary, trace, AWARENESS.condition.fraction, config.params.n
                )
            if self.files:
                problems += (
                    checks.trace_csv_problems(files[r], config.params.n)
                    if len(files) == config.replications
                    else ["trace files missing"]
                )
            for p in problems:
                print(f"FAIL batch {b} replicate {r}: {p}", file=sys.stderr)
            self.ok.append(not problems)
            self.outcomes.append(
                (summary.extinction_step, summary.ever_infected, summary.survivors, summary.fired_steps)
            )
        if b == 0:
            self.first_dir = out_dir
        elif out_dir:
            shutil.rmtree(out_dir)
        steps = sum(t.last_step for t in result.traces)
        return Done(steps=steps, replicates=config.replications, wall=wall)

    def finish(self):
        if self.files and self.first_dir:
            self._check_determinism()
        return self.ok, self.outcomes

    def _check_determinism(self) -> None:
        """Batch 0 at workers=1 must write the same bytes as at self.workers."""
        serial_dir = tempfile.mkdtemp(prefix="serial-", dir=self.tmp_root)
        try:
            harness.run_replications(self._batch_config(0, serial_dir), workers=1)
            bad = checks.mismatched_files(self.first_dir, serial_dir)
        finally:
            shutil.rmtree(serial_dir)
            shutil.rmtree(self.first_dir)
        reps = self.config.replications
        for name in bad:
            print(f"FAIL batch 0: {name} differs between workers={self.workers} and workers=1",
                  file=sys.stderr)
            # a trace file maps to its replicate; summary or manifest taints the batch
            hit = [int(name[6:-4])] if name.startswith("trace_") else range(reps)
            for r in hit:
                self.ok[r] = False


@dataclasses.dataclass
class Instance:
    grid: CellGrid
    params: EpidemicParams
    statuses: np.ndarray
    infected_at: np.ndarray
    exact: np.ndarray


class TinyOracle:
    """Criterion 2's shape: single dynamics.step calls on tiny random instances.

    Instance 0 always sits at the enumeration cap (6 cells, 6 active nodes), so
    that setup time and peak memory do not hinge on the draw.  One timed unit
    is a round of `trials` one-step trials on every instance;
    each trial is a one-step replicate, so both throughputs count trials.
    finish() checks each instance's pooled histogram against the exact PMF.
    """

    def __init__(self, instances: int, trials: int):
        self.num_instances = instances
        self.trials = trials

    def setup(self, seed: int) -> None:
        self.seed = seed
        gen = np.random.default_rng(seed)
        self.instances = []
        for idx in range(self.num_instances):
            num_cells = 6 if idx == 0 else int(gen.integers(1, 7))
            grid = CellGrid.from_weights([int(w) for w in gen.integers(2, 9, size=num_cells)])
            n_nodes = 6 if idx == 0 else int(gen.integers(2, 7))
            i_count = int(gen.integers(1, n_nodes))
            u_count = n_nodes - i_count if idx == 0 else int(gen.integers(1, n_nodes - i_count + 1))
            beta = 0.5 if idx % 2 == 0 else 1.0
            statuses = np.array(
                [dynamics.INFECTED] * i_count
                + [dynamics.UNINFECTED] * u_count
                + [dynamics.RECOVERED] * (n_nodes - i_count - u_count),
                dtype=np.int8,
            )
            self.instances.append(
                Instance(
                    grid=grid,
                    params=EpidemicParams(n=n_nodes, alpha=2.5, kappa=8 / n_nodes, tau=10, beta=beta),
                    statuses=statuses,
                    infected_at=np.where(
                        statuses == dynamics.UNINFECTED, dynamics.NEVER_INFECTED, 0
                    ).astype(np.int64),
                    exact=oracle.enumerate_step(grid, statuses, beta),
                )
            )
        self.counts = [np.zeros(inst.exact.size, dtype=np.int64) for inst in self.instances]

    def unit(self, b: int, tracer=None):
        t0 = time.perf_counter()
        for i, inst in enumerate(self.instances):
            if tracer is not None:
                tracer.unit = i
            gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(self.seed, spawn_key=(i, b))))
            state = dynamics.PopulationState(
                inst.statuses.copy(), inst.infected_at.copy(), np.zeros(inst.statuses.size, dtype=np.int64)
            )
            hist = self.counts[i]
            for _ in range(self.trials):
                state.status[:] = inst.statuses
                state.infected_at[:] = inst.infected_at
                state.step = 0
                hist[dynamics.step(state, inst.grid, inst.params, gen).new_infections_total] += 1
        wall = time.perf_counter() - t0
        done = self.trials * len(self.instances)
        return Done(steps=done, replicates=done, wall=wall)

    def finish(self):
        ok = []
        for i, (hist, inst) in enumerate(zip(self.counts, self.instances)):
            ok.append(checks.oracle_outcome_ok(hist, inst.exact))
            if not ok[-1]:
                print(f"FAIL instance {i}: histogram {hist.tolist()} vs exact {inst.exact.tolist()}",
                      file=sys.stderr)
        return ok, [tuple(h.tolist()) for h in self.counts]

    def worst_z(self) -> float:
        return max(checks.worst_z(h, inst.exact) for h, inst in zip(self.counts, self.instances))


def make(name: str, small: bool, tmp_root: str):
    """A fresh workload object; small=True shrinks every size for the self-tests."""
    if name == "emerging_1e6":
        return Replicated(scenario.preset_emerging(10_000 if small else 1_000_000), batch=1)
    if name == "industrialized_1e5":
        return Replicated(
            scenario.preset_industrialized(2_000 if small else 100_000), batch=2, criterion5=True
        )
    if name == "tiny_oracle":
        return TinyOracle(instances=6 if small else 40, trials=50 if small else 200)
    if name == "awareness_1e4_files":
        config = dataclasses.replace(
            scenario.preset_emerging(2_000 if small else 10_000),
            schedule=scenario.InterventionSchedule((AWARENESS,)),
        )
        return Replicated(config, batch=8 if small else 32, workers=2, files=True, tmp_root=tmp_root)
    raise KeyError(name)


NAMES = ("emerging_1e6", "industrialized_1e5", "tiny_oracle", "awareness_1e4_files")
