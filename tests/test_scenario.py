"""Presets, triggers, overlays, config text parsing, and round-trips."""

import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from epimob import (
    ConfigError,
    CountState,
    EpidemicParams,
    InterventionSchedule,
    ParamOverlay,
    PrevalenceReached,
    ScenarioConfig,
    TimeReached,
    Trigger,
    apply_intervention,
    build_grid,
    exact_meeting_probability,
    init_population,
    parse_config,
    parse_trigger,
    preset_emerging,
    preset_industrialized,
    serialize_config,
)
from epimob.rng import substream
from epimob.scenario import FIELDS


def test_preset_emerging_scaling_rules():
    p = preset_emerging(10_000).params
    assert (p.alpha, p.kappa, p.beta) == (2.8, 1.0, 1.0)
    assert p.tau == 2  # round(ln ln 10000)
    assert p.initial_infected == 9  # round(ln 10000)
    assert p.num_cells == 10_000
    assert p.max_attractiveness == 26

    small = preset_emerging(100).params
    assert small.tau == 2
    assert small.initial_infected == 5


def test_preset_industrialized_constants():
    p = preset_industrialized(100_000).params
    assert (p.alpha, p.kappa, p.tau) == (6.0, 16.0, 2)
    assert p.initial_infected == 12
    assert p.num_cells == 1_600_000
    assert p.max_attractiveness == 10


def test_presets_reject_tiny_populations():
    with pytest.raises(ConfigError, match="n >= 100"):
        preset_emerging(99)
    with pytest.raises(ConfigError, match="n >= 100"):
        preset_industrialized(50)


def test_time_trigger_condition():
    cond = TimeReached(3)
    assert not cond.met(2, 50, 100)
    assert cond.met(3, 0, 100)
    assert cond.met(4, 0, 100)
    with pytest.raises(ConfigError):
        TimeReached(0)
    # serialize_config would write time:True, which parse_config refuses
    with pytest.raises(ConfigError, match="trigger step"):
        TimeReached(True)
    # numpy integers too, written back as plain integers
    trig = Trigger(TimeReached(np.int64(3)), ParamOverlay(tau=1))
    assert trig.condition == TimeReached(3)
    config = ScenarioConfig(
        params=EpidemicParams(n=1000, alpha=2.8, kappa=1.0, tau=2),
        schedule=InterventionSchedule((trig,)),
    )
    assert "trigger=time:3->tau=1\n" in serialize_config(config)
    assert parse_config(serialize_config(config)) == config


def test_prevalence_trigger_condition():
    cond = PrevalenceReached(0.02)
    assert not cond.met(7, 1, 100)
    assert cond.met(7, 2, 100)
    assert PrevalenceReached(1.0).met(0, 100, 100)
    with pytest.raises(ConfigError):
        PrevalenceReached(0.0)
    with pytest.raises(ConfigError):
        PrevalenceReached(1.5)
    assert PrevalenceReached(np.float64(0.02)).met(7, 2, 100)
    # serialize_config would write prevalence:True, which parse_config refuses
    for bad in [True, "0.5", None, float("nan")]:
        with pytest.raises(ConfigError, match="prevalence fraction"):
            PrevalenceReached(bad)


def test_overlay_static_validation():
    with pytest.raises(ConfigError, match="at least one"):
        ParamOverlay()
    with pytest.raises(ConfigError, match="alpha"):
        ParamOverlay(alpha=2.0)
    with pytest.raises(ConfigError, match="kappa"):
        ParamOverlay(kappa=0.0)
    with pytest.raises(ConfigError, match="tau"):
        ParamOverlay(tau=0)
    with pytest.raises(ConfigError, match="beta"):
        ParamOverlay(beta=1.5)


def test_overlay_merge_keeps_unset_fields():
    params = EpidemicParams(n=1000, alpha=2.8, kappa=1.0, tau=3, beta=0.8)
    merged = ParamOverlay(tau=5).merge(params)
    assert merged.tau == 5
    assert (merged.n, merged.alpha, merged.kappa, merged.beta) == (1000, 2.8, 1.0, 0.8)


def test_overlay_merge_keeps_each_fields_type():
    overlay = ParamOverlay(tau=5)
    params = EpidemicParams(n=1000, alpha=2.8, kappa=1.0, tau=3)
    # equal params of another type merge to params that keep that type
    as_int = EpidemicParams(n=1000, alpha=2.8, kappa=1, tau=3)
    assert as_int == params
    assert type(overlay.merge(as_int).kappa) is int
    assert type(overlay.merge(params).kappa) is float
    # an overlay holds its four keys and nothing else
    assert [f.name for f in dataclasses.fields(ParamOverlay)] == ["alpha", "kappa", "tau", "beta"]
    assert overlay == ParamOverlay(tau=5) and hash(overlay) == hash(ParamOverlay(tau=5))
    assert repr(overlay) == "ParamOverlay(alpha=None, kappa=None, tau=5, beta=None)"


def test_overlay_merge_revalidates_cross_field_invariants():
    # alpha so large the attractiveness support would collapse below 2
    params = EpidemicParams(n=100, alpha=2.8, kappa=1.0, tau=1)
    with pytest.raises(ConfigError, match="support"):
        ParamOverlay(alpha=50.0).merge(params)


def test_band_width_covers_the_whole_overlay_chain():
    narrow = preset_emerging(10_000)  # max attractiveness 26, band 4
    assert narrow.band_width == 4
    wide_later = InterventionSchedule(
        (Trigger(TimeReached(5), ParamOverlay(alpha=2.2)),)
    )
    # alpha 2.2 stretches the support far beyond 26
    assert dataclasses.replace(narrow, schedule=wide_later).band_width > 4


def test_config_checks_every_grid_of_the_overlay_chain():
    params = EpidemicParams(n=100, alpha=2.8, kappa=1.0, tau=1)
    fine = Trigger(TimeReached(2), ParamOverlay(alpha=3.0))
    # alpha 50 on n = 100 leaves an empty attractiveness support
    empty = Trigger(TimeReached(4), ParamOverlay(alpha=50.0))
    ScenarioConfig(params=params, schedule=InterventionSchedule((fine,)))
    with pytest.raises(ConfigError, match="support"):
        ScenarioConfig(params=params, schedule=InterventionSchedule((fine, empty)))
    with pytest.raises(ConfigError, match="support"):
        parse_config("n=100\ntrigger=time:2->alpha=3.0\ntrigger=time:4->alpha=50\n")
    # in list order alpha 10 meets kappa 10000 (support up to 3); if the time
    # trigger fires first, alpha 10 meets kappa 1 and the support is empty
    with pytest.raises(ConfigError, match="attractiveness support is empty"):
        parse_config(
            "n=100\nalpha=2.5\ntau=50\n"
            "trigger=prevalence:0.99->kappa=10000\ntrigger=time:1->alpha=10\n"
        )


_small_overlays = st.fixed_dictionaries(
    {},
    optional={
        "alpha": st.sampled_from([2.5, 3.0, 4.0]),
        "kappa": st.sampled_from([0.5, 1.0, 8.0]),
        "tau": st.integers(1, 3),
        "beta": st.sampled_from([0.5, 1.0]),
    },
).filter(bool).map(lambda kw: ParamOverlay(**kw))


def _firing_orders(schedule):
    """Every order the triggers can fire in, as trigger indices: each kind in list order."""
    kinds = [type(t.condition) for t in schedule]
    for order in set(itertools.permutations(kinds)):
        queues = {
            kind: iter([k for k, t in enumerate(schedule) if type(t.condition) is kind])
            for kind in set(kinds)
        }
        yield [next(queues[kind]) for kind in order]


def _assert_moves_follow_every_firing_order(params, schedule):
    """Following moves from set 0 reaches, after each firing, the params that merging gives."""
    param_sets, moves = schedule.reachable(params)
    assert param_sets[0] is params
    assert len({repr(p) for p in param_sets}) == len(param_sets)
    reached = {repr(params)}
    for order in _firing_orders(schedule):
        p, at = params, 0
        for k in order:
            p = schedule.triggers[k].overlay.merge(p)
            at = moves[at, k]
            assert repr(param_sets[at]) == repr(p)
            reached.add(repr(p))
    # every set kept is one that some firing order reaches
    assert {repr(p) for p in param_sets} == reached
    return param_sets, moves


@given(
    times=st.lists(_small_overlays, max_size=3),
    prevs=st.lists(_small_overlays, max_size=3),
    slots=st.lists(st.booleans(), min_size=6, max_size=6),
)
def test_reachable_sets_match_every_firing_order(times, prevs, slots):
    # each kind fires in list order, the kinds in any interleaving; the list
    # itself interleaves them as slots says
    params = EpidemicParams(n=10_000, alpha=2.8, kappa=1.0, tau=2)
    queues = {True: iter(enumerate(times, start=1)), False: iter(enumerate(prevs, start=1))}
    triggers = []
    for kind in slots + [True] * len(times) + [False] * len(prevs):
        item = next(queues[kind], None)
        if item is not None:
            k, overlay = item
            condition = TimeReached(k) if kind else PrevalenceReached(k / 4)
            triggers.append(Trigger(condition, overlay))
    schedule = InterventionSchedule(tuple(triggers))
    param_sets, moves = _assert_moves_follow_every_firing_order(params, schedule)
    config = ScenarioConfig(params=params, schedule=schedule)
    assert [repr(p) for p in config.param_sets] == [repr(p) for p in param_sets]
    assert config.moves == moves
    assert config.band_width == max(p.max_band for p in param_sets)


def test_reachable_sets_keep_equal_params_of_another_type_apart():
    # time first ends on kappa=1.0, prevalence first on kappa=1: equal
    # params, but a run computes with the type its firing order gave
    params = EpidemicParams(n=10_000, alpha=2.8, kappa=2.0, tau=2)
    schedule = InterventionSchedule((
        Trigger(TimeReached(3), ParamOverlay(kappa=1)),
        Trigger(PrevalenceReached(0.1), ParamOverlay(kappa=1.0)),
    ))
    param_sets, moves = _assert_moves_follow_every_firing_order(params, schedule)
    assert len(param_sets) == 3
    as_int, as_float = param_sets[moves[moves[0, 1], 0]], param_sets[moves[moves[0, 0], 1]]
    assert as_int == as_float
    assert type(as_int.kappa) is int and type(as_float.kappa) is float


def test_schedule_orders_within_condition_kind():
    t = lambda s: Trigger(TimeReached(s), ParamOverlay(tau=1))
    p = lambda f: Trigger(PrevalenceReached(f), ParamOverlay(tau=1))
    InterventionSchedule((t(3), t(5), p(0.1), p(0.2)))
    InterventionSchedule((p(0.1), t(3), p(0.2), t(5)))  # kinds interleave freely
    with pytest.raises(ConfigError, match="increasing steps"):
        InterventionSchedule((t(5), t(3)))
    with pytest.raises(ConfigError, match="increasing steps"):
        InterventionSchedule((t(5), t(5)))
    with pytest.raises(ConfigError, match="increasing fractions"):
        InterventionSchedule((p(0.2), p(0.1)))


def test_scenario_config_validation():
    params = EpidemicParams(n=1000, alpha=2.8, kappa=1.0, tau=1)
    with pytest.raises(ConfigError, match="replications"):
        ScenarioConfig(params=params, replications=0)
    with pytest.raises(ConfigError, match="seed"):
        ScenarioConfig(params=params, seed=-1)
    with pytest.raises(ConfigError, match="seed"):
        ScenarioConfig(params=params, seed=2**64)
    with pytest.raises(ConfigError, match="seed"):
        ScenarioConfig(params=params, seed=True)
    with pytest.raises(ConfigError, match="replications"):
        ScenarioConfig(params=params, replications=True)
    assert ScenarioConfig(params=params, seed=np.uint64(5)).seed == 5


def test_parse_trigger_grammar():
    trig = parse_trigger("time:10->tau=1")
    assert trig.condition == TimeReached(10)
    assert trig.overlay == ParamOverlay(tau=1)

    trig = parse_trigger("prevalence:0.02->alpha=6.0,kappa=16.0,tau=2")
    assert trig.condition == PrevalenceReached(0.02)
    assert trig.overlay == ParamOverlay(alpha=6.0, kappa=16.0, tau=2)

    for bad in [
        "time:10",  # no arrow
        "time10->tau=1",  # no colon
        "pressure:0.1->tau=1",  # unknown condition
        "time:x->tau=1",  # bad step
        "prevalence:x->tau=1",  # bad fraction
        "time:10->n=50",  # key outside the overlay set
        "time:10->tau=x",  # bad value
        "time:10->",  # empty override list
        "time:1->alpha=inf",  # out of range, caught before the run starts
        "time:1->alpha=3,alpha=4",  # a key given twice
    ]:
        with pytest.raises(ConfigError):
            parse_trigger(bad)
    with pytest.raises(ConfigError, match="'tau' given twice"):
        parse_trigger("time:1->tau=2,beta=0.5,tau=2")


def test_parse_config_defaults():
    config = parse_config("n=1000\n")
    p = config.params
    assert p.n == 1000
    assert (p.alpha, p.kappa, p.tau, p.beta) == (2.8, 1.0, 1, 1.0)
    assert (p.initial_infected, p.max_steps) == (1, 10_000)
    assert (config.seed, config.replications) == (0, 1)
    assert config.out_dir is None
    assert config.log_cells is False
    assert len(config.schedule) == 0


def _dataclass_defaults() -> dict:
    """Each config key's default, read off the dataclass field it sets."""
    return {f.name: f.default for cls in (EpidemicParams, ScenarioConfig)
            for f in dataclasses.fields(cls) if f.name in FIELDS}


def test_each_default_lives_in_its_dataclass_field():
    assert not hasattr(FIELDS["alpha"], "default")
    assert EpidemicParams(n=1000) == parse_config("n=1000\n").params
    assert ScenarioConfig(params=EpidemicParams(n=1000)) == parse_config("n=1000\n")
    defaults = _dataclass_defaults()
    assert set(defaults) == set(FIELDS)
    assert defaults["n"] is dataclasses.MISSING and defaults["out_dir"] is None


def test_readme_config_block_matches_the_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config files", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    parse_config(block)
    lines = [line.split("=", 1) for line in block.splitlines()]
    keys = [key for key, _ in lines if key != "trigger"]
    assert sorted(keys) == sorted(FIELDS)  # every key exactly once
    defaults = _dataclass_defaults()
    for key, rest in lines:
        if key == "trigger":
            continue
        words = rest.split("#", 1)[1].split()
        default = defaults[key]
        if default is dataclasses.MISSING:
            assert words == ["required"], key
        else:
            shown = "unset" if default is None else FIELDS[key].format(default)
            assert words[:2] == ["default", shown], key


def test_an_integer_kappa_builds_the_grid_its_config_text_does():
    # kappa * n taken exactly would give 2**53 + 1 cells, and the text kappa=1.0 gives 2**53
    params = EpidemicParams(n=2**53 + 1, alpha=6.0, kappa=1, tau=1)
    config = ScenarioConfig(params=params)
    rebuilt = parse_config(serialize_config(config))
    assert rebuilt == config
    assert params.num_cells == rebuilt.params.num_cells == 2**53
    assert params.max_attractiveness == rebuilt.params.max_attractiveness


def test_parse_config_comments_blanks_and_last_wins():
    text = """
    # population block
    n = 1000   # inline comment
    tau = 2

    tau = 5
    log_cells = yes
    out_dir = results/run1
    """
    config = parse_config(text)
    assert config.params.tau == 5
    assert config.log_cells is True
    assert config.out_dir == "results/run1"


def test_parse_config_triggers_in_order():
    text = "n=1000\ntrigger=time:5->tau=1\ntrigger=prevalence:0.1->alpha=6.0\n"
    config = parse_config(text)
    assert [type(t.condition) for t in config.schedule] == [TimeReached, PrevalenceReached]


def test_parse_config_errors_name_the_line():
    cases = [
        ("n=abc", "line 1: bad value"),
        ("n=100\nalpha=1.5", "line 2: alpha must exceed 2"),
        ("n=100\nbeta=2.0", "line 2: beta must lie in"),
        ("n=100\nfoo=1", "line 2: unknown key"),
        ("n=100\njust words", "line 2: expected key=value"),
        ("n=100\ntrigger=bogus", "line 2: trigger must look like"),
        ("n=100\nlog_cells=maybe", "line 2: bad boolean"),
        ("n=100\nseed=-3", "line 2: seed must lie in"),
        ("alpha=3.0", "n is required"),
    ]
    for text, fragment in cases:
        with pytest.raises(ConfigError, match=fragment):
            parse_config(text)


def test_config_round_trip_through_text():
    text = (
        "n=2000\nalpha=3.5\nkappa=2.0\ntau=4\nbeta=0.7\ninitial_infected=3\n"
        "max_steps=500\nseed=99\nreplications=6\nlog_cells=true\nout_dir=out/x\n"
        "trigger=time:10->tau=2\ntrigger=prevalence:0.05->alpha=6.0,beta=0.5\n"
    )
    config = parse_config(text)
    assert parse_config(serialize_config(config)) == config


_overlays = st.fixed_dictionaries(
    {},
    optional={
        "alpha": st.floats(2.0, 8.0, exclude_min=True),
        "kappa": st.floats(0.01, 64.0),
        "tau": st.integers(1, 50),
        "beta": st.floats(0.0, 1.0),
    },
).filter(bool).map(lambda kw: ParamOverlay(**kw))
# no '#', control characters or line separators, no edge whitespace, and not empty
_out_dirs = st.none() | st.text(
    st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp"), exclude_characters="#")
).map(str.strip).filter(bool)


@st.composite
def _configs(draw):
    n = draw(st.integers(1, 10**7))
    try:
        params = EpidemicParams(
            n=n,
            alpha=draw(st.floats(2.0, 8.0, exclude_min=True)),
            kappa=draw(st.floats(0.01, 64.0)),
            tau=draw(st.integers(1, 50)),
            beta=draw(st.floats(0.0, 1.0)),
            initial_infected=draw(st.integers(1, n)),
            max_steps=draw(st.integers(1, 10**6)),
        )
    except ConfigError:  # attractiveness support empty for this n, kappa, alpha
        assume(False)
    steps = draw(st.lists(st.integers(1, 10**6), max_size=3, unique=True))
    fracs = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), max_size=3, unique=True))
    triggers = [Trigger(TimeReached(s), draw(_overlays)) for s in sorted(steps)]
    # numpy floats too: a fraction is written as repr(float(f)), never np.float64(f)
    to_real = draw(st.sampled_from([float, np.float64]))
    triggers += [Trigger(PrevalenceReached(to_real(f)), draw(_overlays)) for f in sorted(fracs)]
    return ScenarioConfig(
        params=params,
        schedule=InterventionSchedule(tuple(triggers)),
        seed=draw(st.integers(0, 2**64 - 1)),
        replications=draw(st.integers(1, 1000)),
        out_dir=draw(_out_dirs),
        log_cells=draw(st.booleans()),
    )


@given(_configs())
def test_serialize_parse_round_trip(config):
    assert parse_config(serialize_config(config)) == config
    # an out_dir that the key=value text cannot carry is refused up front
    for bad in ["", "runs/#1", "a\nseed=7", "  x  ", "x\r", "a\x0cb", "a\u2028b", "a\0b"]:
        with pytest.raises(ConfigError, match="out_dir"):
            dataclasses.replace(config, out_dir=bad)


def test_serialize_config_golden_bytes():
    emerging = dataclasses.replace(
        preset_emerging(10_000),
        schedule=InterventionSchedule(
            (Trigger(PrevalenceReached(0.02), ParamOverlay(alpha=6.0, kappa=16.0, tau=2)),)
        ),
    )
    assert serialize_config(emerging) == (
        "n=10000\nalpha=2.8\nkappa=1.0\ntau=2\nbeta=1.0\ninitial_infected=9\n"
        "max_steps=10000\nseed=0\nreplications=1\nlog_cells=false\n"
        "trigger=prevalence:0.02->alpha=6.0,kappa=16.0,tau=2\n"
    )
    industrialized = dataclasses.replace(
        preset_industrialized(100_000),
        schedule=InterventionSchedule((Trigger(TimeReached(5), ParamOverlay(beta=0.5)),)),
    )
    assert serialize_config(industrialized) == (
        "n=100000\nalpha=6.0\nkappa=16.0\ntau=2\nbeta=1.0\ninitial_infected=12\n"
        "max_steps=10000\nseed=0\nreplications=1\nlog_cells=false\n"
        "trigger=time:5->beta=0.5\n"
    )


def test_apply_intervention_swaps_world_not_population():
    config = preset_emerging(10_000)
    params = config.params
    grid = build_grid(params, substream(7, 0, 0))
    state = init_population(params, substream(7, 0, 1))
    status_before = state.status.copy()
    infected_at_before = state.infected_at.copy()

    merged = ParamOverlay(alpha=6.0, kappa=16.0, tau=2).merge(params)
    new_grid = apply_intervention(state, merged, substream(7, 0, 0))

    assert merged.num_cells == 160_000
    assert new_grid.attractiveness.size == 160_000
    assert merged.tau == 2
    assert merged.initial_infected == params.initial_infected
    # dispersing the population makes any pair less likely to meet
    assert exact_meeting_probability(new_grid) < exact_meeting_probability(grid)
    np.testing.assert_array_equal(state.status, status_before)
    np.testing.assert_array_equal(state.infected_at, infected_at_before)


def test_apply_intervention_checks_population_size():
    config = preset_emerging(10_000)
    state = init_population(config.params, substream(7, 0, 1))
    other = EpidemicParams(n=500, alpha=2.8, kappa=1.0, tau=2)
    with pytest.raises(ValueError, match="population size"):
        apply_intervention(state, other, substream(7, 0, 0))
    counts = CountState(9_000, 900, {0: 60, 3: 40})
    with pytest.raises(ValueError, match="population size"):
        apply_intervention(counts, other, substream(7, 0, 0))
    grid = apply_intervention(counts, config.params, substream(7, 0, 0))
    assert grid.num_cells == config.params.num_cells and counts.counts() == (9_000, 100, 900)
