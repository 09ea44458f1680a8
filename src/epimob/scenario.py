"""Scenario presets, intervention scheduling, and config parsing.

An intervention models a population-wide behavior change: when a trigger
condition becomes true the run swaps in new environment parameters, with a
fresh grid drawn under the new attractiveness law.  Node statuses and
infection timestamps carry over untouched; only the world changes.

Config files are line-oriented ``key=value`` text with ``#`` comments.
See read_config_keys for the accepted keys and the trigger grammar.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .attractiveness import PARAM_FIELDS, CellGrid, EpidemicParams, Field, build_grid
from .dynamics import CountState, PopulationState
from .errors import ConfigError


# the argument of a time:STEP or prevalence:FRACTION trigger condition
STEP_FIELD = Field("trigger step", int, lambda v: v >= 1,
                   "trigger step must be a positive integer", "steps before a time trigger fires")
FRACTION_FIELD = Field("trigger fraction", float, lambda v: 0.0 < v <= 1.0,
                       "trigger prevalence fraction must be a number in (0, 1]", "infected share")


@dataclass(frozen=True)
class TimeReached:
    """Fires once the run has completed `step` steps."""

    step: int

    def __post_init__(self) -> None:
        STEP_FIELD.check(self.step)

    def met(self, step: int, infected: int, n: int) -> bool:
        return step >= self.step


@dataclass(frozen=True)
class PrevalenceReached:
    """Fires once at least `fraction` of the population is infected."""

    fraction: float

    def __post_init__(self) -> None:
        FRACTION_FIELD.check(self.fraction)

    def met(self, step: int, infected: int, n: int) -> bool:
        return infected >= self.fraction * n


TriggerCondition = Union[TimeReached, PrevalenceReached]


# serialize_config writes out_dir=<path> on one line, which read_config_keys cuts
# at '#' and strips, so only such paths survive the round trip; no OS path
# holds a NUL, and none is empty
RUN_FIELDS = (
    Field("seed", int, lambda v: 0 <= v < 2**64,
          "seed must lie in [0, 2**64)", "master seed (64-bit)"),
    Field("replications", int, lambda v: 1 <= v < 2**63,
          "replications must be a positive integer below 2**63", "independent replicates"),
    Field("log_cells", bool, lambda v: True,
          "log_cells must be a bool",
          "run the per-node engine; its per-step cell logs stay in RunResult.traces, "
          "and the CLI writes no cell log"),
    Field("out_dir", str,
          lambda v: "#" not in v and "\0" not in v and v == v.strip()
          and v.splitlines() == [v],
          "out_dir must be a non-empty string without '#', NUL, line breaks, or edge whitespace",
          "write trace/summary/manifest files here"),
)

FIELDS = {f.name: f for f in (*PARAM_FIELDS, *RUN_FIELDS)}


@dataclass(frozen=True)
class ParamOverlay:
    """Partial parameter replacement applied when a trigger fires.

    Unset fields keep their current value.  Static range checks happen
    here; the full cross-field validation happens at merge time against
    the params then in effect.
    """

    alpha: Optional[float] = None
    kappa: Optional[float] = None
    tau: Optional[int] = None
    beta: Optional[float] = None

    def __post_init__(self) -> None:
        changes = self._changes()
        if not changes:
            raise ConfigError("overlay must set at least one of alpha, kappa, tau, beta")
        for key, value in changes.items():
            FIELDS[key].check(value)

    def _changes(self) -> dict:
        return {k: getattr(self, k) for k in _OVERLAY_KEYS if getattr(self, k) is not None}

    def merge(self, params: EpidemicParams) -> EpidemicParams:
        """New params with the overlay applied; revalidates every invariant."""
        return dataclasses.replace(params, **self._changes())


# overlay keys allowed on the right-hand side of a trigger
_OVERLAY_KEYS = tuple(f.name for f in dataclasses.fields(ParamOverlay))


@dataclass(frozen=True)
class Trigger:
    condition: TriggerCondition
    overlay: ParamOverlay


@dataclass(frozen=True)
class InterventionSchedule:
    """Ordered triggers; each fires at most once per run.

    Time triggers must come with strictly increasing steps and prevalence
    triggers with strictly increasing fractions, so the schedule reads in
    firing order within each condition kind.
    """

    triggers: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "triggers", tuple(self.triggers))
        steps = [self.triggers[k].condition.step for k in self.of_kind(TimeReached)]
        fracs = [self.triggers[k].condition.fraction for k in self.of_kind(PrevalenceReached)]
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ConfigError("time triggers must have strictly increasing steps")
        if any(b <= a for a, b in zip(fracs, fracs[1:])):
            raise ConfigError("prevalence triggers must have strictly increasing fractions")

    def of_kind(self, kind: type) -> list:
        """The indices of the triggers whose condition is a `kind`, in list order."""
        return [k for k, t in enumerate(self.triggers) if isinstance(t.condition, kind)]

    def reachable(self, params: EpidemicParams) -> tuple[tuple, dict]:
        """Every parameter set a run from params can reach, and the moves between them.

        Returns (param_sets, moves): param_sets[0] is params, and moves[a, k]
        is the index of the set in effect once trigger k fires while set a is.
        Each trigger kind fires in list order; the kinds interleave freely.
        row[j] holds, for i = 0, 1, ... in turn, the sets in effect once the
        first i time and the first j prevalence overlays have fired: at most
        16, as each overlay key keeps its base value or the last time or
        prevalence overlay's, each kept with one firing order that reaches
        it.  Sets are told apart by repr, not by equality: equal params may
        differ in type (kappa=1 against kappa=1.0), and so in what they
        compute.  Every merge revalidates, so a reachable invalid grid raises
        ConfigError, naming the triggers that reach it in firing order.
        """
        param_sets = [params]
        index = {repr(params): 0}
        moves = {}

        def fire(k: int, row: dict) -> dict:
            trigger = self.triggers[k]
            fired = {}
            for a, order in row.items():
                try:
                    merged = trigger.overlay.merge(param_sets[a])
                except ConfigError as exc:
                    names = ", ".join(format_trigger(t) for t in (*order, trigger))
                    raise ConfigError(f"{exc} (reached once {names} fired)") from None
                b = index.setdefault(repr(merged), len(param_sets))
                if b == len(param_sets):
                    param_sets.append(merged)
                moves[a, k] = b
                fired.setdefault(b, (*order, trigger))
            return fired

        times = self.of_kind(TimeReached)
        prevs = self.of_kind(PrevalenceReached)
        row = [{0: ()}]
        for prev in prevs:
            row.append(fire(prev, row[-1]))
        for time in times:
            row[0] = fire(time, row[0])
            for j, prev in enumerate(prevs, start=1):
                row[j] = fire(time, row[j]) | fire(prev, row[j - 1])
        return tuple(param_sets), moves

    def __len__(self) -> int:
        return len(self.triggers)

    def __iter__(self):
        return iter(self.triggers)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one invocation needs: params, schedule, seeding, outputs.

    Each field but params and schedule must pass its RUN_FIELDS row, unless
    it is None and so is its default (out_dir).  Every parameter set the
    schedule can reach from params, in any firing order, is built and so
    checked here, and kept as param_sets and the moves between them
    (InterventionSchedule.reachable), which a run only looks up;
    band_width, the highest band any of their grids can hold, is the number
    of band columns of every trace of the run.
    """

    params: EpidemicParams
    schedule: InterventionSchedule = InterventionSchedule()
    seed: int = 0
    replications: int = 1
    out_dir: Optional[str] = None
    log_cells: bool = False
    band_width: int = dataclasses.field(init=False, repr=False, compare=False)
    param_sets: tuple = dataclasses.field(init=False, repr=False, compare=False)
    moves: dict = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for f in RUN_FIELDS:
            value = getattr(self, f.name)
            # the class attribute of a dataclass field is its default
            if value is not None or getattr(ScenarioConfig, f.name) is not None:
                f.check(value)
        param_sets, moves = self.schedule.reachable(self.params)
        object.__setattr__(self, "param_sets", param_sets)
        object.__setattr__(self, "moves", moves)
        object.__setattr__(self, "band_width", max(p.max_band for p in param_sets))


def preset_emerging(n: int) -> ScenarioConfig:
    """Loose-mixing scenario: heavy-tailed attractiveness, one cell per node.

    alpha=2.8 and kappa=1 concentrate the population in few hot cells; the
    infectious period round(ln ln n) grows barely at all with n, and the
    outbreak is seeded with round(ln n) cases.
    """
    if n < 100:
        raise ConfigError("preset requires n >= 100")
    params = EpidemicParams(
        n=n,
        alpha=2.8,
        kappa=1.0,
        tau=max(1, round(math.log(math.log(n)))),
        beta=1.0,
        initial_infected=max(1, round(math.log(n))),
    )
    return ScenarioConfig(params=params)


def preset_industrialized(n: int) -> ScenarioConfig:
    """Dispersed scenario: flat attractiveness tail and many cells per node.

    alpha=6 and kappa=16 spread the population thin and tau=2 retires cases
    quickly, the combination that keeps outbreaks small and short.  The
    concrete constants are this package's choice and fully overridable.
    """
    if n < 100:
        raise ConfigError("preset requires n >= 100")
    params = EpidemicParams(
        n=n,
        alpha=6.0,
        kappa=16.0,
        tau=2,
        beta=1.0,
        initial_infected=max(1, round(math.log(n))),
    )
    return ScenarioConfig(params=params)


def apply_intervention(
    state: PopulationState | CountState,
    params: EpidemicParams,
    rng: np.random.Generator,
) -> CellGrid:
    """Draw a fresh grid under the params a trigger swaps in.

    Either engine's state is checked for its population size, not changed.
    The new tau and beta apply from the next step on; nodes already infected
    longer than a shortened tau retire at the next step's recover substep.
    The rebuilt grid comes from the given stream, so the post-change world
    is independent of the old one.
    """
    if sum(state.counts()) != params.n:
        raise ValueError("state and params disagree on population size")
    return build_grid(params, rng)


def format_trigger(trigger: Trigger) -> str:
    """Config text of a trigger, as parse_trigger reads it."""
    cond = trigger.condition
    head = (
        f"time:{STEP_FIELD.format(cond.step)}"
        if isinstance(cond, TimeReached)
        else f"prevalence:{FRACTION_FIELD.format(cond.fraction)}"
    )
    overrides = ",".join(f"{k}={FIELDS[k].format(v)}" for k, v in trigger.overlay._changes().items())
    return f"{head}->{overrides}"


def parse_trigger(text: str) -> Trigger:
    """Parse `time:STEP->k=v,...` or `prevalence:FRACTION->k=v,...`; each k at most once."""
    head, arrow, tail = text.partition("->")
    if not arrow:
        raise ConfigError(
            "trigger must look like time:STEP->key=value,... "
            "or prevalence:FRACTION->key=value,..."
        )
    kind, colon, arg = head.strip().partition(":")
    kind = kind.strip()
    if not colon:
        raise ConfigError("trigger condition must look like time:STEP or prevalence:FRACTION")
    if kind == "time":
        condition: TriggerCondition = TimeReached(STEP_FIELD.parse(arg))
    elif kind == "prevalence":
        condition = PrevalenceReached(FRACTION_FIELD.parse(arg))
    else:
        raise ConfigError(f"unknown trigger condition {kind!r} (want time or prevalence)")

    fields: dict[str, object] = {}
    for pair in tail.split(","):
        key, eq, value = pair.partition("=")
        key = key.strip()
        value = value.strip()
        if not eq or not key:
            raise ConfigError(f"trigger override {pair.strip()!r} is not key=value")
        if key not in _OVERLAY_KEYS:
            raise ConfigError(f"trigger override key {key!r} not in {_OVERLAY_KEYS}")
        if key in fields:
            raise ConfigError(f"trigger override key {key!r} given twice")
        fields[key] = FIELDS[key].parse(value)
    return Trigger(condition=condition, overlay=ParamOverlay(**fields))


def read_config_keys(text: str) -> tuple[dict, list]:
    """The (values, triggers) of line-oriented key=value config text, unbuilt.

    Accepted keys are the rows of FIELDS, each value checked by its row,
    plus repeatable lines `trigger=<time:STEP|prevalence:FRACTION>->...`
    whose override keys are alpha, kappa, tau, beta (see parse_trigger).
    `#` starts a comment; blank lines are ignored; a scalar key given twice
    keeps the last value.  A malformed line raises ConfigError naming it.
    """
    values: dict[str, object] = {}
    triggers: list[Trigger] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not eq or not key:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        try:
            if key == "trigger":
                triggers.append(parse_trigger(value))
            elif key in FIELDS:
                values[key] = FIELDS[key].parse(value)
            else:
                raise ConfigError(f"unknown key {key!r}")
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return values, triggers


def build_config(values: dict, triggers: list) -> ScenarioConfig:
    """The validated config of FIELDS keys and triggers; n is required, and
    a key left out takes its dataclass field's default."""
    if "n" not in values:
        raise ConfigError("n is required")
    run = dict(values)
    params = EpidemicParams(**{f.name: run.pop(f.name) for f in PARAM_FIELDS if f.name in run})
    return ScenarioConfig(params, InterventionSchedule(tuple(triggers)), **run)


def parse_config(text: str) -> ScenarioConfig:
    """Parse config text into a validated config; see read_config_keys for the format."""
    return build_config(*read_config_keys(text))


def serialize_config(config: ScenarioConfig) -> str:
    """Config text that parses back to an equal ScenarioConfig."""
    items = [(f, getattr(config.params, f.name)) for f in PARAM_FIELDS]
    items += [(f, getattr(config, f.name)) for f in RUN_FIELDS]
    lines = [f"{f.name}={f.format(value)}" for f, value in items if value is not None]
    lines += [f"trigger={format_trigger(t)}" for t in config.schedule]
    return "\n".join(lines) + "\n"
