"""Replication runner: determinism, parallel equivalence, aggregation, files."""

import json
import math

import numpy as np
import pytest

import epimob
from epimob import (
    EpidemicParams,
    InterventionSchedule,
    ParamOverlay,
    PrevalenceReached,
    ReplicateSummary,
    ScenarioConfig,
    TimeReached,
    Trigger,
    aggregate_stats,
    derive_seed,
    engine_version,
    parse_config,
    preset_emerging,
    run_replicate,
    run_replications,
    serialize_config,
)
from epimob.harness import _group_width


def small_config(**kw):
    params = EpidemicParams(
        n=kw.pop("n", 500),
        alpha=kw.pop("alpha", 2.8),
        kappa=kw.pop("kappa", 1.0),
        tau=kw.pop("tau", 2),
        beta=kw.pop("beta", 1.0),
        initial_infected=kw.pop("initial_infected", 5),
        max_steps=kw.pop("max_steps", 200),
    )
    return ScenarioConfig(params=params, **kw)


def test_derive_seed_is_pure_and_spreads():
    seeds = [derive_seed(42, r) for r in range(50)]
    assert seeds == [derive_seed(42, r) for r in range(50)]
    assert len(set(seeds)) == 50
    assert all(0 <= s < 2**64 for s in seeds)
    assert derive_seed(43, 0) != derive_seed(42, 0)


def test_engine_version_is_a_version_string():
    assert engine_version() == epimob.__version__


def test_written_manifest_names_version_and_engine(tmp_path):
    for log_cells, engine in ((False, "count"), (True, "per-node")):
        out_dir = tmp_path / engine
        run_replications(small_config(seed=2, log_cells=log_cells, out_dir=str(out_dir)))
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["engine_version"] == epimob.__version__ == "0.2.0"
        assert manifest["engine"] == engine


def test_aggregate_stats_hand_computed():
    rows = [
        ReplicateSummary(0, 1, 4, 10, 90),
        ReplicateSummary(1, 2, None, 100, 0),
        ReplicateSummary(2, 3, 8, 20, 80),
    ]
    agg = aggregate_stats(rows, n=100)
    assert agg.replications == 3
    assert agg.extinct_count == 2
    assert agg.cap_count == 1
    # extinction stats come from the extinct runs only: sorted [4, 8]
    assert agg.extinction_time.mean == pytest.approx(6.0)
    assert agg.extinction_time.q10 == pytest.approx(4.4)
    assert agg.extinction_time.median == pytest.approx(6.0)
    assert agg.extinction_time.q90 == pytest.approx(7.6)
    assert agg.survivor_fraction.mean == pytest.approx((0.9 + 0.0 + 0.8) / 3)
    assert agg.ever_infected.mean == pytest.approx(130 / 3)


def test_aggregate_stats_with_no_extinctions():
    agg = aggregate_stats([ReplicateSummary(0, 1, None, 100, 0)], n=100)
    assert agg.extinct_count == 0 and agg.cap_count == 1
    assert math.isnan(agg.extinction_time.mean)


def test_group_width_covers_the_whole_overlay_chain():
    narrow = preset_emerging(10_000).params  # max attractiveness 26, band 4
    assert _group_width(narrow, InterventionSchedule()) == 4
    wide_later = InterventionSchedule(
        (Trigger(TimeReached(5), ParamOverlay(alpha=2.2)),)
    )
    # alpha 2.2 stretches the support far beyond 26
    assert _group_width(narrow, wide_later) > 4


def test_beta_zero_run_is_fully_predictable():
    config = small_config(n=200, beta=0.0, tau=3, initial_infected=5)
    summary, trace = run_replicate(config, 0)
    assert summary.extinction_step == 3
    assert summary.ever_infected == 5
    assert summary.survivors == 195
    np.testing.assert_array_equal(trace.infected, [5, 5, 5, 0])
    np.testing.assert_array_equal(trace.newly_recovered, [0, 0, 0, 5])
    assert trace.new_total.sum() == 0


def test_rerun_reproduces_every_byte_of_the_trace():
    config = small_config(seed=1234)
    s1, t1 = run_replicate(config, 0)
    s2, t2 = run_replicate(config, 0)
    assert s1 == s2
    np.testing.assert_array_equal(t1.infected, t2.infected)
    np.testing.assert_array_equal(t1.new_by_group, t2.new_by_group)
    np.testing.assert_array_equal(t1.newly_recovered, t2.newly_recovered)


def test_replicates_differ_from_each_other():
    config = small_config(seed=1234, replications=4)
    result = run_replications(config)
    fingerprints = {
        (s.extinction_step, s.ever_infected, tuple(t.infected.tolist()))
        for s, t in zip(result.summaries, result.traces)
    }
    assert len(fingerprints) > 1


def test_workers_do_not_change_any_output_byte(tmp_path):
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    base = small_config(seed=77)
    for out_dir, workers in ((serial_dir, 1), (parallel_dir, 4)):
        import dataclasses

        config = dataclasses.replace(base, replications=4, out_dir=str(out_dir))
        run_replications(config, workers=workers)
    names = sorted(p.name for p in serial_dir.iterdir())
    assert names == sorted(p.name for p in parallel_dir.iterdir())
    assert "summary.csv" in names and "manifest.json" in names
    assert "trace_0000.csv" in names and "trace_0003.csv" in names
    for name in names:
        a = (serial_dir / name).read_bytes()
        b = (parallel_dir / name).read_bytes()
        if name == "manifest.json":
            da, db = json.loads(a), json.loads(b)
            for d in (da, db):
                d.pop("started_at")
                d.pop("wall_seconds")
                # the two runs intentionally write to different directories
                d["config_text"] = "\n".join(
                    ln
                    for ln in d["config_text"].splitlines()
                    if not ln.startswith("out_dir=")
                )
            assert da == db
        else:
            assert a == b, name


def test_manifest_reproduces_the_config():
    config = small_config(
        seed=5,
        replications=2,
        schedule=InterventionSchedule(
            (Trigger(TimeReached(4), ParamOverlay(tau=1, beta=0.5)),)
        ),
    )
    result = run_replications(config)
    manifest = result.manifest
    assert manifest.master_seed == 5
    assert manifest.replications == 2
    assert manifest.derived_seeds == [derive_seed(5, 0), derive_seed(5, 1)]
    assert parse_config(manifest.config_text) == config
    assert manifest.config_text == serialize_config(config)
    parsed = json.loads(manifest.to_json())
    assert parsed["master_seed"] == 5


def test_time_trigger_fires_at_its_step():
    # beta 0 keeps the run inert, tau beyond the cap keeps it alive
    config = small_config(
        n=200,
        beta=0.0,
        tau=50,
        max_steps=20,
        initial_infected=5,
        schedule=InterventionSchedule((Trigger(TimeReached(5), ParamOverlay(beta=0.0)),)),
    )
    summary, trace = run_replicate(config, 0)
    assert summary.fired_steps == (5,)
    assert summary.extinction_step is None
    assert trace.cap_reached
    assert trace.last_step == 20


def test_prevalence_trigger_already_met_fires_at_step_zero():
    config = small_config(
        n=200,
        initial_infected=120,
        beta=0.0,
        tau=2,
        schedule=InterventionSchedule(
            (Trigger(PrevalenceReached(0.5), ParamOverlay(tau=1)),)
        ),
    )
    summary, _ = run_replicate(config, 0)
    assert summary.fired_steps == (0,)


def test_trigger_that_never_fires_reports_none():
    config = small_config(
        n=200,
        beta=0.0,
        tau=2,
        initial_infected=5,
        schedule=InterventionSchedule(
            (Trigger(PrevalenceReached(0.9), ParamOverlay(tau=1)),)
        ),
    )
    summary, _ = run_replicate(config, 0)
    assert summary.fired_steps == (None,)


def test_shortening_tau_retires_overdue_infections_next_step():
    # at step 5 the overlay drops tau from 50 to 1; the initial infections
    # (age 5 > 1) must all retire during step 6
    config = small_config(
        n=200,
        beta=0.0,
        tau=50,
        max_steps=30,
        initial_infected=5,
        schedule=InterventionSchedule((Trigger(TimeReached(5), ParamOverlay(tau=1)),)),
    )
    summary, trace = run_replicate(config, 0)
    assert summary.extinction_step == 6
    np.testing.assert_array_equal(trace.infected, [5, 5, 5, 5, 5, 5, 0])


def test_run_replications_aggregate_is_consistent():
    config = small_config(seed=9, replications=5)
    result = run_replications(config)
    agg = result.aggregate
    assert agg.replications == 5
    assert agg.extinct_count + agg.cap_count == 5
    fractions = [s.survivors / 500 for s in result.summaries]
    assert agg.survivor_fraction.mean == pytest.approx(float(np.mean(fractions)))
