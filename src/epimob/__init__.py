"""Stochastic epidemic simulation on a mobile population.

A population of n nodes relocates every step over round(kappa * n) cells
whose integer attractiveness follows a truncated power law; infection
passes within shared cells, infected nodes retire after tau steps, and
mid-run interventions can swap in a new environment.  Exact small-instance
oracles validate the Monte Carlo engine.
"""

# The single source of the version, read by pyproject.toml and written into
# every manifest as engine_version; it comes before the imports because
# harness reads it at import time.  Bump it whenever outputs change at
# fixed seeds.
__version__ = "0.8.0"

from types import ModuleType as _ModuleType

from .attractiveness import (
    CellGrid,
    EpidemicParams,
    attractiveness_cutoff,
    build_grid,
    choose_cells,
    draw_class_counts,
    power_law_pmf,
)
from .dynamics import (
    INFECTED,
    CountState,
    NEVER_INFECTED,
    RECOVERED,
    UNINFECTED,
    PopulationState,
    StatusCounts,
    StepReport,
    count_step,
    init_population,
    step,
    substep_move,
    substep_recover,
    substep_transmit,
)
from .errors import ConfigError
from .harness import (
    AggregateStats,
    RunManifest,
    RunResult,
    StatSummary,
    aggregate_stats,
    run_replicate,
    run_replications,
)
from .metrics import (
    ReplicateSummary,
    SimulationTrace,
    TraceBuilder,
    causality_violations,
    write_summary_csv,
    write_trace_csv,
)
from .oracle import (
    RegimeCheckResult,
    enumerate_step,
    exact_meeting_probability,
    expected_new_infections_bound,
    infection_probability_from_exposures,
    sparse_regime_check,
)
from .rng import ReplicateStreams, derive_seed, substream
from .scenario import (
    InterventionSchedule,
    ParamOverlay,
    PrevalenceReached,
    ScenarioConfig,
    TimeReached,
    Trigger,
    apply_intervention,
    parse_config,
    parse_trigger,
    preset_emerging,
    preset_industrialized,
    serialize_config,
)

# every public name imported above; the submodules, bound here by those
# imports, are not exports
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
