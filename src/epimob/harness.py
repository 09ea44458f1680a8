"""Monte Carlo replication runner: seeding, parallelism, aggregation, output.

Each replicate r of a run with master seed s draws only from four random
streams derived purely from (s, r): grid, init, movement, transmission.
run_replicate is one loop over either engine's state and step function:
the count-level engine by default, the per-node engine when log_cells is
set.  A firing trigger only looks up the params the config settled for it
(ScenarioConfig.moves) and draws a fresh grid.  With N processes, at most
the usable CPUs, replicate r runs in process r mod N: the calling process
runs its own share and N - 1 forked helpers run theirs, each writing its
replicates' trace files.  Outputs are therefore identical at every N, and
the manifest (config text plus master seed) fixes every output byte but
wall-clock metadata.  The loop calls build_grid, init_population, step,
apply_intervention and the CSV writers through this module's globals, so they
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
from .dynamics import INFECTED, CountState, count_step, init_population, step
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


def run_replicate(config: ScenarioConfig, replicate: int) -> tuple[ReplicateSummary, SimulationTrace]:
    """Run one replicate to extinction or the step cap.

    With log_cells, each step's cells and infectious mask also go into the
    trace.  Triggers are evaluated at step 0 and after every completed
    step; each fires at most once, moving to the params config.moves names
    and drawing a fresh grid (apply_intervention).  So overlays apply in
    firing order, which need not be list order when time and prevalence
    triggers interleave; the config settled every such order when it was
    built, so a run merges nothing.  With config.out_dir set, the trace goes
    to trace_<replicate>.csv there, a directory that run_replications creates.
    """
    streams = ReplicateStreams.from_seed(config.seed, replicate)
    params = config.params
    grid = build_grid(params, streams.grid)
    log_cells = config.log_cells
    if log_cells:
        state, advance = init_population(params, streams.init), step
    else:
        state, advance = CountState.initial(params), count_step
    counts = state.counts()
    builder = TraceBuilder(counts, config.band_width)
    triggers = config.schedule.triggers
    fired: list = [None] * len(triggers)
    at = 0  # params is config.param_sets[at]

    def fire_due() -> None:
        nonlocal at, params, grid
        for idx, trig in enumerate(triggers):
            if fired[idx] is None and trig.condition.met(state.step, counts.infected, params.n):
                at = config.moves[at, idx]
                params = config.param_sets[at]
                grid = apply_intervention(state, params, streams.grid)
                fired[idx] = state.step

    fire_due()
    while counts.infected > 0 and state.step < params.max_steps:
        if log_cells:
            was_infectious = state.status == INFECTED
        report = advance(state, grid, params, streams)
        if log_cells:
            # substep_move stores a fresh array every step, so no row is shared
            builder.record_logs(state.current_cell, was_infectious)
        counts = state.counts()
        builder.record(report, counts)
        fire_due()

    trace = builder.finalize()
    extinction_step, ever_infected, survivors = builder.end_state()
    summary = ReplicateSummary(
        replicate=replicate,
        seed=derive_seed(config.seed, replicate),
        extinction_step=extinction_step,
        ever_infected=ever_infected,
        survivors=survivors,
        fired_steps=tuple(fired),
    )
    if config.out_dir is not None:
        digits = max(4, len(str(config.replications - 1)))
        write_trace_csv(trace, os.path.join(config.out_dir, f"trace_{replicate:0{digits}d}.csv"))
    return summary, trace


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_share(config: ScenarioConfig, first: int, step: int, receiver, sender) -> None:
    """Run replicates first, first + step, ... in a helper process.

    Sends the list of (summary, trace) pairs over sender, or the exception a
    replicate raised.  The helper first closes its copy of the receiving
    end: were the caller to die, the send then fails instead of blocking
    forever on a pipe only the helper itself could read.
    """
    receiver.close()
    try:
        share = [run_replicate(config, r) for r in range(first, config.replications, step)]
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
                helper = ctx.Process(target=_run_share, args=(config, k, workers, receiver, sender))
                helper.start()
                helpers.append((helper, receiver))
                # only the helper holds the sending end, so its death reads as EOF
                sender.close()
        results[::workers] = [run_replicate(config, r) for r in range(0, reps, workers)]
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
    finally:
        for helper, receiver in helpers:
            receiver.close()
            helper.terminate()
            helper.join()
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

    aggregate = aggregate_stats(summaries, config.params.n)
    return RunResult(manifest=manifest, summaries=summaries, traces=traces, aggregate=aggregate)
