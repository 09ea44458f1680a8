"""Monte Carlo replication runner: seeding, parallelism, aggregation, output.

Each replicate r of a run with master seed s draws only from four random
streams derived purely from (s, r): grid, init, movement, transmission.
run_share is the one replicate loop, over either engine: count replicates
(the default) advance together, a batch of them one count_steps call a
step, and per-node replicates (log_cells) one at a time; run_replicate is
run_share of one replicate.  A firing trigger only looks up the params the
config settled for it (ScenarioConfig.moves) and draws a fresh grid.  With
N processes, at most the usable CPUs, replicate r runs in process r mod N:
the calling process runs its own share and N - 1 forked helpers run
theirs, each writing its replicates' trace files.  No replicate's draws
depend on its batch or its process, so outputs are identical at every N,
and the manifest (config text plus master seed) fixes every output byte but
wall-clock metadata.  The loop calls build_grid, init_population, step,
count_steps, apply_intervention, TraceBuilder and the CSV writers, and
run_replications calls run_share, through this module's globals, so they
can be rebound from outside, for example to trace each layer.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .attractiveness import build_grid
from .dynamics import INFECTED, ClassTables, CountState, count_steps, init_population, step
from .errors import ConfigError
from .metrics import (
    ReplicateSummary,
    SimulationTrace,
    TraceBuilder,
    write_summary_csv,
    write_trace_csv,
)
from .rng import ReplicateStreams, derive_seed
from .scenario import ScenarioConfig, apply_intervention, serialize_config


@dataclass
class RunManifest:
    """Everything needed to reproduce a run, plus wall-clock metadata.

    engine is "count" or "per-node", the engine that produced the traces;
    the two agree in law, not byte for byte.  derived_seeds[r] is a pure
    function of (master_seed, r), the seed of replicate r's summary row.
    fired_steps[r] lists, per trigger in config order, the step at which it
    fired in replicate r, or None if it never fired; steps[r] is the number
    of steps replicate r ran (its trace's last_step).  wall_seconds runs from
    the start of run_replications until the trace and summary CSVs are
    written.  started_at and wall_seconds are informational only and
    excluded from the determinism guarantee.
    """

    engine_version: str
    engine: str
    master_seed: int
    replications: int
    derived_seeds: list
    fired_steps: list
    steps: list
    config_text: str
    started_at: str
    wall_seconds: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


@dataclass(frozen=True)
class StatSummary:
    """Mean and linear-interpolation quantiles of one outcome across replicates."""

    mean: float
    q10: float
    median: float
    q90: float


@dataclass(frozen=True)
class AggregateStats:
    replications: int
    extinct_count: int
    cap_count: int
    extinction_time: StatSummary
    survivor_fraction: StatSummary
    ever_infected: StatSummary


@dataclass
class RunResult:
    manifest: RunManifest
    summaries: list
    traces: list
    aggregate: AggregateStats


def _quantiles(ordered: list) -> list:
    """np.quantile(ordered, [0.1, 0.5, 0.9]) bit for bit, for a sorted non-empty list of floats.

    numpy's default linear rule: the rank (n - 1) * q splits into an index i
    and a fraction t, and the result lies between ordered[i] = a and the next
    value b.  Like numpy's _lerp it is a + (b - a) * t below t = 0.5 and
    b - (b - a) * (1 - t) from there on.
    """
    last = len(ordered) - 1
    out = []
    for q in (0.10, 0.50, 0.90):
        rank = last * q
        i = int(rank)
        t = rank - i
        a = ordered[i]
        b = ordered[min(i + 1, last)]
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return out


def _stat_summary(values) -> StatSummary:
    values = list(values)
    if not values:
        nan = math.nan
        return StatSummary(nan, nan, nan, nan)
    ordered = sorted(map(float, values))
    q10, median, q90 = _quantiles(ordered)
    # np.mean's own reduction, without its dispatch
    mean = float(np.add.reduce(np.asarray(values), dtype=np.float64)) / len(values)
    return StatSummary(mean, q10, median, q90)


def aggregate_stats(summaries, n: int) -> AggregateStats:
    """Cross-replicate outcome statistics; extinction stats cover extinct runs only."""
    extinct = [s.extinction_step for s in summaries if s.extinction_step is not None]
    return AggregateStats(
        replications=len(summaries),
        extinct_count=len(extinct),
        cap_count=len(summaries) - len(extinct),
        extinction_time=_stat_summary(extinct),
        survivor_fraction=_stat_summary(s.survivors / n for s in summaries),
        ever_infected=_stat_summary(s.ever_infected for s in summaries),
    )


# A share's count replicates step together in batches of at most
# BATCH_REPLICATES, so that a share holds the streams, grid and trace rows of
# that many at once, not of all of its replicates.  On a 2-vCPU x86-64 host,
# shares of 2000 preset_industrialized(10**5) replicates took 110-120 us a
# replicate at 32 to 512 a batch (340 one at a time), and shares of 1000
# awareness replicates (preset_emerging(10**4), 2% -> alpha=6, kappa=16,
# tau=2) 250-290 us (470); 1024 a batch was slower.  At 64, 1024 replicates
# peaked at 1.9-2.6 MiB traced, against 6-12 MiB at 1024 a batch.
BATCH_REPLICATES = 64


class _Replicate:
    """One replicate's progress through run_share's loop; a run of count_steps.

    Triggers are evaluated at step 0 and after every completed step; each
    fires at most once, moving to the params config.moves names and drawing
    a fresh grid (apply_intervention).  So overlays apply in firing order,
    which need not be list order when time and prevalence triggers
    interleave; the config settled every such order when it was built, so a
    run merges nothing.
    """

    __slots__ = ("replicate", "streams", "params", "at", "grid", "state", "slot", "counts", "builder", "fired")

    def __init__(self, config: ScenarioConfig, replicate: int) -> None:
        self.replicate = replicate
        self.streams = ReplicateStreams.from_seed(config.seed, replicate)
        self.params = config.params
        self.at = 0  # params is config.param_sets[at]
        self.grid = build_grid(self.params, self.streams.grid)
        if config.log_cells:
            self.state = init_population(self.params, self.streams.init)
        else:
            self.state = CountState.initial(self.params)
        self.slot = None
        self.counts = self.state.counts()
        self.builder = TraceBuilder(self.counts, config.band_width)
        self.fired: list = [None] * len(config.schedule.triggers)
        self.fire_due(config)

    def going(self) -> bool:
        return self.counts.infected > 0 and self.state.step < self.params.max_steps

    def fire_due(self, config: ScenarioConfig) -> bool:
        state, changed = self.state, False
        for idx, trig in enumerate(config.schedule.triggers):
            if self.fired[idx] is None and trig.condition.met(state.step, self.counts.infected, self.params.n):
                self.at = config.moves[self.at, idx]
                self.params = config.param_sets[self.at]
                self.grid = apply_intervention(state, self.params, self.streams.grid)
                self.fired[idx] = state.step
                changed = True
        return changed

    def finish(self, config: ScenarioConfig) -> tuple[ReplicateSummary, SimulationTrace]:
        trace = self.builder.finalize()
        extinction_step, ever_infected, survivors = self.builder.end_state()
        summary = ReplicateSummary(
            replicate=self.replicate,
            seed=derive_seed(config.seed, self.replicate),
            extinction_step=extinction_step,
            ever_infected=ever_infected,
            survivors=survivors,
            fired_steps=tuple(self.fired),
        )
        if config.out_dir is not None:
            digits = max(4, len(str(config.replications - 1)))
            path = os.path.join(config.out_dir, f"trace_{self.replicate:0{digits}d}.csv")
            write_trace_csv(trace, path)
        return summary, trace


def _batch_size(config: ScenarioConfig) -> int:
    """Replicates a count batch may hold: at most BATCH_REPLICATES, and few
    enough that the cells of their grids times the largest weight, over every
    parameter set the run can reach, stay below 2**63 (ClassTables)."""
    cells = top = 1
    for p in config.param_sets:
        cells, top = max(cells, p.num_cells), max(top, p.max_attractiveness)
    return max(1, min(BATCH_REPLICATES, (2**63 - 1) // (cells * top)))


def run_share(config: ScenarioConfig, replicates) -> list:
    """Run the given replicates to extinction or the step cap; one (summary, trace) pair each.

    The one replicate loop.  Count replicates advance together in batches
    (_batch_size), one count_steps call a step, each drawing from its own
    streams, so no outcome depends on its batch.  The batch's ClassTables
    are rebuilt only after a trigger changes a grid.  Per-node (log_cells)
    replicates go one at a time, so a share holds one population of n
    nodes, and each step's cells and infectious mask go into the trace.
    Traces are built once their batch is done; with config.out_dir set,
    each goes to trace_<replicate>.csv there (run_replications creates it).
    """
    size = 1 if config.log_cells else _batch_size(config)
    triggers = config.schedule.triggers
    results = []
    for first in range(0, len(replicates), size):
        going = runs = [_Replicate(config, r) for r in replicates[first : first + size]]
        tables = None
        while going := [run for run in going if run.going()]:
            if config.log_cells:
                (run,) = going
                was_infectious = run.state.status == INFECTED
                reports = [step(run.state, run.grid, run.params, run.streams)]
                # substep_move stores a fresh array every step, so no row is shared
                run.builder.record_logs(run.state.current_cell, was_infectious)
            else:
                if tables is None:
                    tables = ClassTables([run.grid for run in going])
                    for slot, run in enumerate(going):
                        run.slot = slot
                reports = count_steps(tables, going)
            for run, report in zip(going, reports):
                run.counts = run.state.counts()
                run.builder.record(report, run.counts)
                if triggers and run.fire_due(config):
                    tables = None
        results += [run.finish(config) for run in runs]
    return results


def run_replicate(config: ScenarioConfig, replicate: int) -> tuple[ReplicateSummary, SimulationTrace]:
    """Run one replicate to extinction or the step cap: run_share of that replicate alone."""
    return run_share(config, [replicate])[0]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _share_helper(config: ScenarioConfig, first: int, stride: int, receiver, sender) -> None:
    """Run replicates first, first + stride, ... in a helper process.

    Sends the list of (summary, trace) pairs over sender, or the exception a
    replicate raised.  The helper first closes its copy of the receiving
    end: were the caller to die, the send then fails instead of blocking
    forever on a pipe only the helper itself could read.
    """
    receiver.close()
    try:
        share = run_share(config, range(first, config.replications, stride))
    except Exception as exc:
        share = exc
    sender.send(share)
    sender.close()


def run_replications(config: ScenarioConfig, workers: int = 1) -> RunResult:
    """Run every replicate, aggregate outcomes, and write files if configured.

    workers counts the calling process and is capped at the replicate count
    and the usable CPUs: replicate r runs in process r mod workers, and
    workers - 1 helper processes run the shares the caller does not.
    Outputs are identical at every worker count because each replicate's
    streams depend only on (master seed, replicate index).
    A helper's exception is raised again here; a helper that dies without
    sending its share raises RuntimeError.  No helper outlives the call.
    When config.out_dir is set, each replicate writes its own trace file, and
    summary.csv and manifest.json follow once every share is in.
    """
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ConfigError("workers must be a positive integer")
    started_at = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    if config.out_dir is not None:
        # an unusable out_dir fails here, before any replicate runs
        os.makedirs(config.out_dir, exist_ok=True)
    reps = config.replications
    if workers > 1:
        workers = min(workers, reps, _usable_cpus())
    results: list = [None] * reps
    helpers = []
    try:
        if workers > 1:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
            for k in range(1, workers):
                receiver, sender = ctx.Pipe(duplex=False)
                helper = ctx.Process(target=_share_helper, args=(config, k, workers, receiver, sender))
                helper.start()
                helpers.append((helper, receiver))
                # only the helper holds the sending end, so its death reads as EOF
                sender.close()
        results[::workers] = run_share(config, range(0, reps, workers))
        for k, (helper, receiver) in enumerate(helpers, 1):
            try:
                share = receiver.recv()
            except EOFError:
                helper.join()
                raise RuntimeError(
                    f"replicate helper {k} exited with code {helper.exitcode} "
                    "without sending its share"
                ) from None
            if isinstance(share, BaseException):
                raise share
            results[k::workers] = share
        summaries = [s for s, _ in results]
        traces = [t for _, t in results]
        if config.out_dir is not None:
            write_summary_csv(summaries, os.path.join(config.out_dir, "summary.csv"))
        # built after the CSVs are written, so wall_seconds covers their cost
        manifest = RunManifest(
            engine_version=__version__,
            engine="per-node" if config.log_cells else "count",
            master_seed=config.seed,
            replications=config.replications,
            derived_seeds=[s.seed for s in summaries],
            fired_steps=[list(s.fired_steps) for s in summaries],
            steps=[t.last_step for t in traces],
            config_text=serialize_config(config),
            started_at=started_at,
            wall_seconds=time.perf_counter() - t0,
        )
        if config.out_dir is not None:
            with open(
                os.path.join(config.out_dir, "manifest.json"), "w", encoding="utf-8", newline=""
            ) as fh:
                fh.write(manifest.to_json() + "\n")
    finally:
        # a helper that has sent its share exits by itself meanwhile, so the
        # summary and manifest above do not wait on it
        for helper, receiver in helpers:
            receiver.close()
            helper.terminate()
            helper.join()
    aggregate = aggregate_stats(summaries, config.params.n)
    return RunResult(manifest=manifest, summaries=summaries, traces=traces, aggregate=aggregate)
