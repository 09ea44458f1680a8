"""Monte Carlo replication runner: seeding, parallelism, aggregation, output.

Each replicate r of a run with master seed s draws only from four random
streams derived purely from (s, r): grid, init, movement, transmission.
The count-level engine runs by default and the per-node engine when
log_cells is set; both draw from these streams.  Replicates
therefore produce identical bytes whether they run serially or spread over
worker processes, and the manifest (config text plus master seed) fully
determines every output byte except wall-clock metadata.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .attractiveness import EpidemicParams, build_grid, draw_class_counts
from .dynamics import (
    INFECTED,
    CountState,
    StatusCounts,
    StepReport,
    count_step,
    init_population,
    step,
)
from .metrics import (
    ReplicateSummary,
    SimulationTrace,
    TraceBuilder,
    write_summary_csv,
    write_trace_csv,
)
from .rng import ReplicateStreams, derive_seed
from .scenario import (
    InterventionSchedule,
    ParamOverlay,
    ScenarioConfig,
    apply_intervention,
    serialize_config,
)


def engine_version() -> str:
    """The package version; it changes whenever outputs change at fixed seeds."""
    return __version__


@dataclass
class RunManifest:
    """Everything needed to reproduce a run, plus wall-clock metadata.

    engine is "count" or "per-node", the engine that produced the traces;
    the two agree in law, not byte for byte.  derived_seeds[r] is a pure
    function of (master_seed, r).  started_at
    and wall_seconds are informational only and excluded from the
    determinism guarantee.
    """

    engine_version: str
    engine: str
    master_seed: int
    replications: int
    derived_seeds: list
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


def _stat_summary(values) -> StatSummary:
    values = list(values)
    if not values:
        nan = math.nan
        return StatSummary(nan, nan, nan, nan)
    q10, median, q90 = np.quantile(np.asarray(values, dtype=np.float64), [0.10, 0.50, 0.90])
    return StatSummary(float(np.mean(values)), float(q10), float(median), float(q90))


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


def _group_width(params: EpidemicParams, schedule: InterventionSchedule) -> int:
    """Band columns needed to cover every grid the run can see.

    Overlays apply cumulatively in schedule order, so the width is the
    maximum over the whole parameter chain.
    """
    width = int(params.max_attractiveness).bit_length() - 1
    current = params
    for trig in schedule:
        current = trig.overlay.merge(current)
        width = max(width, int(current.max_attractiveness).bit_length() - 1)
    return width


class _NodeEngine:
    """Per-node reference engine (dynamics.step); runs when log_cells is set.

    Places all n nodes every step and records each step's cells and
    infectious mask in the trace.
    """

    name = "per-node"

    def __init__(self, params: EpidemicParams, streams: ReplicateStreams, builder: TraceBuilder) -> None:
        self.params = params
        self.streams = streams
        self.builder = builder
        self.grid = build_grid(params, streams.grid)
        self.state = init_population(params, streams.init)

    def advance(self) -> StepReport:
        was_infectious = self.state.status == INFECTED
        report = step(self.state, self.grid, self.params, self.streams)
        self.builder.record_logs(self.state.current_cell.copy(), was_infectious)
        return report

    def apply(self, overlay: ParamOverlay) -> None:
        self.params, self.grid = apply_intervention(
            self.state, self.grid, self.params, overlay, self.streams.grid
        )


class _CountEngine:
    """Count-level engine (dynamics.count_step), equal in law to the per-node one.

    Holds only counts and the grid's class histogram, nothing of size n or K.
    """

    name = "count"

    def __init__(self, params: EpidemicParams, streams: ReplicateStreams, builder: TraceBuilder) -> None:
        self.params = params
        self.streams = streams
        self.classes = draw_class_counts(params, streams.grid)
        self.state = CountState.initial(params)  # no cells to log: builder is unused

    def advance(self) -> StepReport:
        return count_step(self.state, self.classes, self.params, self.streams)

    def apply(self, overlay: ParamOverlay) -> None:
        # same rule as scenario.apply_intervention: merged params, fresh grid
        self.params = overlay.merge(self.params)
        self.classes = draw_class_counts(self.params, self.streams.grid)


def _engine(config: ScenarioConfig):
    """The engine class a run uses: per-node when cells are logged, else count-level."""
    return _NodeEngine if config.log_cells else _CountEngine


def run_replicate(config: ScenarioConfig, replicate: int) -> tuple[ReplicateSummary, SimulationTrace]:
    """Run one replicate to extinction or the step cap.

    Triggers are evaluated at step 0 and after every completed step; each
    fires at most once, swapping in merged params and a fresh grid.
    """
    streams = ReplicateStreams.from_seed(config.seed, replicate)
    params = config.params
    builder = TraceBuilder(
        StatusCounts(params.n - params.initial_infected, params.initial_infected, 0),
        _group_width(params, config.schedule),
        params.tau,
        log_cells=config.log_cells,
    )
    engine = _engine(config)(params, streams, builder)
    state = engine.state
    fired: list = [None] * len(config.schedule)
    counts = state.counts()

    def fire_due() -> None:
        for idx, trig in enumerate(config.schedule):
            if fired[idx] is None and trig.condition.met(state.step, counts.infected, params.n):
                engine.apply(trig.overlay)
                fired[idx] = state.step

    fire_due()
    while counts.infected > 0 and state.step < params.max_steps:
        report = engine.advance()
        counts = state.counts()
        builder.record(report, counts)
        fire_due()

    extinct = counts.infected == 0
    extinction_step = state.step if extinct else None
    trace = builder.finalize(extinction_step=extinction_step, cap_reached=not extinct)
    summary = ReplicateSummary(
        replicate=replicate,
        seed=derive_seed(config.seed, replicate),
        extinction_step=extinction_step,
        ever_infected=params.n - counts.uninfected,
        survivors=counts.uninfected,
        fired_steps=tuple(fired),
    )
    return summary, trace


def _replicate_job(args: tuple[ScenarioConfig, int]):
    return run_replicate(*args)


def run_replications(config: ScenarioConfig, workers: int = 1) -> RunResult:
    """Run every replicate, aggregate outcomes, and write files if configured.

    With workers > 1, replicates are distributed over processes; outputs
    are identical to a serial run because each replicate's streams depend
    only on (master seed, replicate index).  When config.out_dir is set,
    writes trace_<replicate>.csv per replicate plus summary.csv and
    manifest.json.
    """
    started_at = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    if config.out_dir is not None:
        # an unusable out_dir fails here, before any replicate runs
        os.makedirs(config.out_dir, exist_ok=True)
    jobs = [(config, r) for r in range(config.replications)]
    if workers > 1 and config.replications > 1:
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
        with ProcessPoolExecutor(
            max_workers=min(workers, config.replications), mp_context=ctx
        ) as pool:
            results = list(pool.map(_replicate_job, jobs))
    else:
        results = [run_replicate(config, r) for r in range(config.replications)]
    summaries = [s for s, _ in results]
    traces = [t for _, t in results]

    manifest = RunManifest(
        engine_version=engine_version(),
        engine=_engine(config).name,
        master_seed=config.seed,
        replications=config.replications,
        derived_seeds=[derive_seed(config.seed, r) for r in range(config.replications)],
        config_text=serialize_config(config),
        started_at=started_at,
        wall_seconds=0.0,
    )

    manifest.wall_seconds = time.perf_counter() - t0
    if config.out_dir is not None:
        digits = max(4, len(str(config.replications - 1)))
        for summary, trace in results:
            name = f"trace_{summary.replicate:0{digits}d}.csv"
            write_trace_csv(trace, os.path.join(config.out_dir, name))
        write_summary_csv(summaries, os.path.join(config.out_dir, "summary.csv"))
        with open(
            os.path.join(config.out_dir, "manifest.json"), "w", encoding="utf-8", newline=""
        ) as fh:
            fh.write(manifest.to_json() + "\n")

    aggregate = aggregate_stats(summaries, config.params.n)
    return RunResult(manifest=manifest, summaries=summaries, traces=traces, aggregate=aggregate)
