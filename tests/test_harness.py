"""Replication runner: determinism, parallel equivalence, aggregation, files."""

import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epimob
from epimob import (
    EpidemicParams,
    InterventionSchedule,
    ParamOverlay,
    PrevalenceReached,
    ReplicateStreams,
    ReplicateSummary,
    ScenarioConfig,
    TimeReached,
    Trigger,
    aggregate_stats,
    derive_seed,
    parse_config,
    preset_emerging,
    run_replicate,
    run_replications,
    serialize_config,
)
from epimob import dynamics, harness
from epimob import rng as rng_module
from epimob.harness import _stat_summary
from epimob.rng import (
    ROLE_GRID,
    ROLE_INIT,
    ROLE_MOVEMENT,
    ROLE_SEED,
    ROLE_TRANSMISSION,
    substream,
)


# the real CPU count, before the fixture below lifts it
usable_cpus = harness._usable_cpus


@pytest.fixture(autouse=True)
def many_cpus(monkeypatch):
    """Lift the CPU cap on workers, so tests here start the processes they ask for on any host."""
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 8)


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


def test_lazy_streams_equal_eager_substreams():
    streams = ReplicateStreams.from_seed(42, 3)
    roles = {"grid": ROLE_GRID, "init": ROLE_INIT, "movement": ROLE_MOVEMENT,
             "transmission": ROLE_TRANSMISSION}
    for name, role in roles.items():
        np.testing.assert_array_equal(
            getattr(streams, name).random(8), substream(42, 3, role).random(8)
        )
    # a second access returns the same, already advanced stream
    assert streams.movement.random() == substream(42, 3, ROLE_MOVEMENT).random(9)[8]


@given(master_seed=st.integers(0, 2**64 - 1), replicate=st.integers(0, 2**64 - 1))
def test_streams_are_philox_jumped_by_replicate_and_role(master_seed, replicate):
    for role in range(4):
        gen = substream(master_seed, replicate, role)
        reference = np.random.Philox(key=master_seed).jumped(replicate + 2**64 * role)
        assert gen.bit_generator.state["state"]["counter"].tolist() == [0, 0, replicate, role]
        np.testing.assert_equal(gen.bit_generator.state, reference.state)
        reference = np.random.Generator(reference)
        assert gen.integers(2**63, size=3).tolist() == reference.integers(2**63, size=3).tolist()
    seeded = np.random.Philox(key=master_seed).jumped(replicate + 2**64 * ROLE_SEED)
    assert derive_seed(master_seed, replicate) == seeded.random_raw()


def test_stream_derivation_rejects_words_outside_64_bits():
    for word in (-1, 2**64):
        for args in ((word, 0, 0), (0, word, 0), (0, 0, word)):
            with pytest.raises(ValueError):
                substream(*args)
        for args in ((word, 0), (0, word)):
            with pytest.raises(ValueError):
                derive_seed(*args)


def test_substreams_pickle_and_do_not_spawn():
    gen = substream(7, 2, ROLE_MOVEMENT)
    gen.random(5)
    clone = pickle.loads(pickle.dumps(gen))
    assert clone.random(4).tolist() == gen.random(4).tolist()
    # the seed_seq stands in for a SeedSequence only to key the generator
    with pytest.raises(TypeError):
        gen.spawn(1)


def test_importing_epimob_leaves_numpy_random_unimported():
    # numpy.random is imported on the first stream; importing it with the
    # package would raise the memory of every process that only parses configs
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    code = "import sys, epimob; print('numpy.random' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_count_engine_replicate_never_builds_the_init_stream(monkeypatch):
    built = []

    def recording(master_seed, replicate, role):
        built.append(role)
        return substream(master_seed, replicate, role)

    monkeypatch.setattr(rng_module, "substream", recording)
    summary, _ = run_replicate(small_config(seed=4, beta=0.5), 0)
    assert summary.ever_infected > 5
    assert ROLE_INIT not in built
    assert sorted(built) == [ROLE_GRID, ROLE_MOVEMENT, ROLE_TRANSMISSION]


def test_written_manifest_names_version_and_engine(tmp_path):
    for log_cells, engine in ((False, "count"), (True, "per-node")):
        out_dir = tmp_path / engine
        result = run_replications(
            small_config(seed=2, replications=3, log_cells=log_cells, out_dir=str(out_dir))
        )
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["engine_version"] == epimob.__version__ == "0.8.0"
        assert manifest["engine"] == engine
        assert manifest["steps"] == result.manifest.steps == [t.last_step for t in result.traces]


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


@given(
    st.one_of(
        st.lists(st.integers(-(2**53), 2**53), max_size=300),
        st.integers(1, 10**12).flatmap(
            lambda n: st.lists(st.integers(0, n).map(lambda s: s / n), max_size=300)
        ),
    )
)
def test_stat_summary_is_numpy_bit_for_bit(values):
    stats = _stat_summary(values)
    if not values:
        assert all(math.isnan(x) for x in (stats.mean, stats.q10, stats.median, stats.q90))
        return
    assert [stats.q10, stats.median, stats.q90] == np.quantile(values, [0.1, 0.5, 0.9]).tolist()
    assert stats.mean == np.mean(values)


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


def _assert_workers_write_the_serial_bytes(tmp_path, replications: int, workers: int) -> None:
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    base = small_config(seed=77)
    for out_dir, w in ((serial_dir, 1), (parallel_dir, workers)):
        config = dataclasses.replace(base, replications=replications, out_dir=str(out_dir))
        run_replications(config, workers=w)
    names = sorted(p.name for p in serial_dir.iterdir())
    assert names == sorted(p.name for p in parallel_dir.iterdir())
    assert "summary.csv" in names and "manifest.json" in names
    assert "trace_0000.csv" in names and f"trace_{replications - 1:04d}.csv" in names
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


def test_workers_do_not_change_any_output_byte(tmp_path):
    _assert_workers_write_the_serial_bytes(tmp_path, 4, 4)


def test_uneven_and_capped_shares_do_not_change_any_output_byte(tmp_path):
    # 19 replicates on 2 processes: the caller runs 10, its helper 9
    _assert_workers_write_the_serial_bytes(tmp_path / "uneven", 19, 2)
    # 3 replicates at workers=8: capped at 3 processes, one replicate each
    _assert_workers_write_the_serial_bytes(tmp_path / "capped", 3, 8)


# sha256 of the files a default (count-engine) run writes, as engine_version
# 0.8.0 wrote them: a change in any count-engine draw or in the CSV formats fails
DEFAULT_RUN_DIGESTS = {
    "summary.csv": "a09afb2523ba0cd25910ae815c0cea3aafd368c729f6fbb9df26759d90616003",
    "trace_0000.csv": "ab62b305bbe073538df3642b78b7736cb749dea15d55701ce656c9c414ea6942",
    "trace_0001.csv": "583e5a695db42bd1be5c2631fd33363c22eca8450e50a36be355063a3ceb8289",
    "trace_0002.csv": "b13098f4f989a01f80068211517b0c0987d5bd3edf169f350bf07c40dcc30e56",
    "trace_0003.csv": "7a7e793cd3991b6f96a57bba82abe821ef8d54f2fa45df3349193fdf26c943a0",
}


def test_default_run_writes_pinned_bytes(tmp_path):
    aware = Trigger(PrevalenceReached(0.02), ParamOverlay(alpha=6.0, kappa=16.0, tau=2))
    config = dataclasses.replace(
        preset_emerging(20_000), seed=3, replications=4,
        schedule=InterventionSchedule((aware,)), out_dir=str(tmp_path),
    )
    run_replications(config, workers=2)
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")
    }
    assert digests == DEFAULT_RUN_DIGESTS


# sha256 of the files a default run writes at beta = 0.5 and tau = 3, as
# engine_version 0.8.0 wrote them: below beta = 1 both placement paths sum
# infection probabilities of hit counts, which the beta = 1 digests never reach
HALF_BETA_RUN_DIGESTS = {
    "summary.csv": "af78bfc2b0ad8056294b410f322f3b5b8e1f537eca0e54ad4c3d343f71392679",
    "trace_0000.csv": "1ff32f98c50afae0be45956f790497f739ffd4a159cd35a10c3b738266726ec0",
    "trace_0001.csv": "82ebaefa68694f1c8f7b255f29b23c47c8fb2080feca46509879c78137815ac3",
    "trace_0002.csv": "15a560abe1c55c6a5fdea12cf3a456d2be6dffd2e831383b71cef822664e67b4",
    "trace_0003.csv": "4147ecae851865b6fd51f80af8c5d114216e5b85cf107dc76b2b1e3c34770d3a",
}


def test_half_beta_run_writes_pinned_bytes(tmp_path, monkeypatch):
    base = preset_emerging(20_000)
    config = dataclasses.replace(
        base, params=dataclasses.replace(base.params, beta=0.5, tau=3),
        seed=3, replications=4, out_dir=str(tmp_path),
    )
    run_replications(config, workers=2)
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")
    }
    assert digests == HALF_BETA_RUN_DIGESTS
    # the helper's calls count nowhere the test sees, so spy on a serial rerun
    calls = {"_sorted_exposure": 0, "_piece_exposure": 0}
    for name in calls:
        real = getattr(dynamics, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(dynamics, name, counted)
    run_replications(dataclasses.replace(config, out_dir=None))
    assert all(calls.values()), calls


# sha256 of the files a per-node (log_cells) run writes, with and without the
# 2% awareness trigger, as engine_version 0.8.0 wrote them
LOGGED_RUN_DIGESTS = {
    "plain": {
        "summary.csv": "3ef51f0eaa46ca65ed06e7c0500c78c43351fd3d9113c3aa72285d3df6956e6d",
        "trace_0000.csv": "557c4fe255076877ac20cc23a542b4e87e351aac90765c55e041aaf63d3f88fc",
        "trace_0001.csv": "0df7bf83079aeb494ac39befbd3fed794668a87f5a598beed67d971e9d1f2275",
        "trace_0002.csv": "5a99859d0bd2f575734dd6365e427dcee9279ee9ab00b05ed60ffe7b1e205f1e",
    },
    "awareness": {
        "summary.csv": "f94d442aff85f908d028ee9c7d944d9a334a314575ea6e74c267b52a379f7922",
        "trace_0000.csv": "fd8f9a8e05082cc24ac6947beca4055fca2de811459e8a94c536e49069b4ffb3",
        "trace_0001.csv": "e98ebc01283ee6cc922fc60e35596e80be2eabb86620fdef0dcedffdb4410d3b",
        "trace_0002.csv": "38ca29a1ee053f36ffa1b700dae62d51f34a21f763dafddb8a0a34af309870de",
    },
}


@pytest.mark.parametrize("case", sorted(LOGGED_RUN_DIGESTS))
def test_logged_run_writes_pinned_bytes(tmp_path, case):
    aware = Trigger(PrevalenceReached(0.02), ParamOverlay(alpha=6.0, kappa=16.0, tau=2))
    schedule = InterventionSchedule((aware,) if case == "awareness" else ())
    config = dataclasses.replace(
        preset_emerging(5_000), seed=8, replications=3, log_cells=True,
        schedule=schedule, out_dir=str(tmp_path),
    )
    run_replications(config)
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")
    }
    assert digests == LOGGED_RUN_DIGESTS[case]


def test_logged_replicate_holds_its_cell_log_about_once():
    # 23 steps of 100 000 nodes: 18.4 MB of cells and 2.3 MB of masks.
    # Stacking the logs while every row was still held peaked at about
    # twice their bytes; copied row by row into growing tables, they peak
    # at their bytes, an eighth of slack and one step's temporaries
    config = dataclasses.replace(preset_emerging(100_000), seed=1, log_cells=True)
    tracemalloc.start()
    try:
        _, trace = run_replicate(config, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    logs = trace.cell_log.nbytes + trace.infectious_log.nbytes
    assert trace.cell_log.shape == (23, 100_000)
    assert peak < 1.3 * logs, peak / logs


@pytest.mark.parametrize("log_cells", [False, True])
def test_triggers_firing_out_of_list_order_widen_the_trace(tmp_path, log_cells):
    # the time trigger fires first, so the run reaches alpha 2.05 at kappa 3
    # (band 7), a grid the list-order chain (band 6 at most) never builds;
    # the config counts it from the start, so every trace of the run is 7
    # bands wide.  50 initial cases make the outbreak reach 5% prevalence
    config = parse_config(
        "n=10000\ntau=3\ninitial_infected=50\nreplications=2\n"
        "trigger=prevalence:0.05->alpha=2.05\n"
        "trigger=time:1->alpha=2.5,kappa=3\n"
    )
    assert config.band_width == 7
    config = dataclasses.replace(config, log_cells=log_cells, out_dir=str(tmp_path))
    result = run_replications(config)
    for summary, trace in zip(result.summaries, result.traces):
        prevalence_step, time_step = summary.fired_steps
        assert time_step == 1 and prevalence_step > time_step
        assert trace.new_by_group.shape == (trace.steps.size, 7)
        np.testing.assert_array_equal(trace.new_by_group.sum(axis=1), trace.new_total)
        # band 7 gets cases only once both overlays are in effect
        assert trace.new_by_group[: prevalence_step + 1, 6].sum() == 0
        assert trace.new_by_group[:, 6].sum() > 0
    headers = {p.read_text().splitlines()[0] for p in tmp_path.glob("trace_*.csv")}
    bands = ",".join(f"new_g{k}" for k in range(1, 8))
    assert headers == {f"step,I,U,R,new_total,{bands},recovered"}
    assert len(list(tmp_path.glob("trace_*.csv"))) == 2


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


def test_manifest_records_when_each_trigger_fired(tmp_path):
    aware = Trigger(PrevalenceReached(0.02), ParamOverlay(alpha=6.0, kappa=16.0, tau=2))
    late = Trigger(TimeReached(10**6), ParamOverlay(tau=1))
    config = dataclasses.replace(
        preset_emerging(2000), seed=4, replications=3,
        schedule=InterventionSchedule((aware, late)), out_dir=str(tmp_path),
    )
    result = run_replications(config)
    written = json.loads((tmp_path / "manifest.json").read_text())
    assert written["fired_steps"] == result.manifest.fired_steps
    assert written["fired_steps"] == [list(s.fired_steps) for s in result.summaries]
    assert all(isinstance(aware_step, int) for aware_step, _ in written["fired_steps"])
    assert [late_step for _, late_step in written["fired_steps"]] == [None] * 3


def test_a_run_only_looks_up_the_params_its_config_settled(monkeypatch):
    halve = Trigger(TimeReached(3), ParamOverlay(beta=0.5))
    aware = Trigger(PrevalenceReached(0.02), ParamOverlay(alpha=6.0, kappa=16.0, tau=2))
    config = dataclasses.replace(
        preset_emerging(2000), seed=4, replications=4,
        schedule=InterventionSchedule((halve, aware)),
    )
    used = []
    real = harness.apply_intervention

    def spy(state, params, rng):
        used.append(params)
        return real(state, params, rng)

    def merge(overlay, params):
        raise AssertionError("a run merged an overlay")

    monkeypatch.setattr(ParamOverlay, "merge", merge)
    monkeypatch.setattr(harness, "apply_intervention", spy)
    result = run_replications(config)
    fired = [step for s in result.summaries for step in s.fired_steps if step is not None]
    assert len(used) == len(fired) > 0
    assert all(any(p is q for q in config.param_sets[1:]) for p in used)


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
    # (age 5 > 1) must all retire during step 6.  Steps 1-5 lie before step
    # tau = 50, where the per-node engine skips its retire pass
    for log_cells in (False, True):
        config = small_config(
            n=200,
            beta=0.0,
            tau=50,
            max_steps=30,
            initial_infected=5,
            log_cells=log_cells,
            schedule=InterventionSchedule((Trigger(TimeReached(5), ParamOverlay(tau=1)),)),
        )
        summary, trace = run_replicate(config, 0)
        assert summary.extinction_step == 6, log_cells
        np.testing.assert_array_equal(trace.infected, [5, 5, 5, 5, 5, 5, 0])
        np.testing.assert_array_equal(trace.newly_recovered, [0, 0, 0, 0, 0, 0, 5])


def test_run_replications_aggregate_is_consistent():
    config = small_config(seed=9, replications=5)
    result = run_replications(config)
    agg = result.aggregate
    assert agg.replications == 5
    assert agg.extinct_count + agg.cap_count == 5
    fractions = [s.survivors / 500 for s in result.summaries]
    assert agg.survivor_fraction.mean == pytest.approx(float(np.mean(fractions)))


# only forked helpers inherit a monkeypatched spy
fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="only forked helpers inherit the spy",
)


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=fork_only)])
def test_each_replicate_derives_its_seed_once(tmp_path, monkeypatch, workers):
    # forked helpers inherit the spy and append to the same file
    calls = tmp_path / "calls"

    def spy(master_seed, replicate):
        with open(calls, "a", encoding="utf-8") as fh:
            fh.write(f"{replicate}\n")
        return derive_seed(master_seed, replicate)

    monkeypatch.setattr(harness, "derive_seed", spy)
    result = run_replications(small_config(seed=9, replications=3), workers=workers)
    assert sorted(calls.read_text().split()) == ["0", "1", "2"]
    seeds = [s.seed for s in result.summaries]
    assert result.manifest.derived_seeds == seeds == [derive_seed(9, r) for r in range(3)]


@fork_only
def test_each_trace_file_is_written_by_the_process_that_ran_it(tmp_path, monkeypatch):
    # forked helpers inherit the spy and append to the same file
    writers = tmp_path / "writers"

    def spy(trace, path):
        with open(writers, "a", encoding="utf-8") as fh:
            fh.write(f"{os.path.basename(path)} {os.getpid()}\n")
        write_trace_csv(trace, path)

    write_trace_csv = harness.write_trace_csv
    monkeypatch.setattr(harness, "write_trace_csv", spy)
    out = tmp_path / "out"
    run_replications(small_config(seed=9, replications=4, out_dir=str(out)), workers=2)
    pid = dict(line.split() for line in writers.read_text().splitlines())
    assert sorted(pid) == [f"trace_000{r}.csv" for r in range(4)]
    caller = str(os.getpid())
    assert pid["trace_0000.csv"] == pid["trace_0002.csv"] == caller
    assert pid["trace_0001.csv"] == pid["trace_0003.csv"] != caller
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "summary.csv", *sorted(pid)
    ]


# the trigger lists a batch draws from: a beta change, a tau change and the
# awareness overlay, interleaved time and prevalence triggers, and a
# prevalence trigger that fires at step 0 below n = 10 000, where 10 initial
# cases reach 0.1%, and at a different step in each replicate above
_BATCH_TRIGGERS = (
    (),
    ("time:2->beta=0.5",),
    ("time:3->tau=1", "prevalence:0.02->alpha=6,kappa=16,tau=2"),
    ("prevalence:0.001->beta=0.3", "time:4->alpha=2.5,kappa=2"),
    ("time:2->beta=0.5", "prevalence:0.1->alpha=6,kappa=16,tau=2"),
)


@given(
    n=st.sampled_from([300, 2_000, 50_000]),
    beta=st.sampled_from([1.0, 0.5]),
    triggers=st.sampled_from(_BATCH_TRIGGERS),
    max_steps=st.sampled_from([2, 10_000]),
    seed=st.integers(0, 2**64 - 1),
    replicates=st.lists(st.integers(0, 50), min_size=1, max_size=8, unique=True),
)
@settings(max_examples=40, deadline=None)
def test_a_replicate_does_not_depend_on_its_batch(n, beta, triggers, max_steps, seed, replicates):
    # one batch of replicates in any order, against each run alone: at
    # n = 50 000 outbreaks outgrow the sorted step and place nodes piece by
    # piece, and at max_steps = 2 every replicate hits the cap
    text = f"n={n}\nbeta={beta}\ntau=2\ninitial_infected=10\nmax_steps={max_steps}\nseed={seed}\n"
    config = parse_config(text + "replications=51\n" + "".join(f"trigger={t}\n" for t in triggers))
    together = harness.run_share(config, replicates)
    assert len(together) == len(replicates)
    for r, (summary, trace) in zip(replicates, together):
        alone, alone_trace = run_replicate(config, r)
        assert summary == alone and summary.fired_steps == alone.fired_steps
        for f in dataclasses.fields(trace):
            np.testing.assert_array_equal(getattr(trace, f.name), getattr(alone_trace, f.name), f.name)


def test_a_batch_stays_below_the_int64_bound():
    # at n = 10**13 a grid's cells times its largest weight is about 4.4e17,
    # so a batch holds 20 replicates; laid end to end, 24 would wrap int64
    base = preset_emerging(10**13)
    config = dataclasses.replace(
        base, params=dataclasses.replace(base.params, max_steps=3), seed=3, replications=24
    )
    size = harness._batch_size(config)
    assert size == (2**63 - 1) // (config.params.num_cells * config.params.max_attractiveness) == 20
    together = harness.run_share(config, range(24))
    for r, (summary, trace) in enumerate(together):
        alone, alone_trace = run_replicate(config, r)
        assert summary == alone
        np.testing.assert_array_equal(trace.new_by_group, alone_trace.new_by_group)


def _spy_in_helpers(monkeypatch, in_helper) -> None:
    """Rebind run_share so that forked helpers call in_helper instead."""
    caller = os.getpid()
    real = harness.run_share

    def spy(config, replicates):
        if os.getpid() == caller:
            return real(config, replicates)
        return in_helper(config, replicates)

    monkeypatch.setattr(harness, "run_share", spy)


def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cpus() == 1


@fork_only
@pytest.mark.parametrize("cpus", [1, 2])
def test_workers_are_capped_at_the_usable_cpus(tmp_path, monkeypatch, cpus):
    # forked helpers inherit the spy and append to the same file
    ran = tmp_path / "ran"
    real = harness.run_share

    def spy(config, replicates):
        with open(ran, "a", encoding="utf-8") as fh:
            fh.writelines(f"{r} {os.getpid()}\n" for r in replicates)
        return real(config, replicates)

    monkeypatch.setattr(harness, "run_share", spy)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    run_replications(small_config(seed=9, replications=4), workers=5000)
    pid = dict(line.split() for line in ran.read_text().splitlines())
    caller = str(os.getpid())
    assert pid["0"] == pid["2"] == caller
    # replicate r runs in process r mod cpus
    assert (pid["1"] == pid["3"] == caller) == (cpus == 1)
    assert len(set(pid.values())) == cpus


@fork_only
def test_a_helper_exception_is_raised_again(monkeypatch):
    def fail(config, replicates):
        raise ValueError(f"replicate {replicates[0]} failed")

    _spy_in_helpers(monkeypatch, fail)
    # helpers 1 and 2 both fail; the caller reports helper 1's exception
    with pytest.raises(ValueError, match="^replicate 1 failed$"):
        run_replications(small_config(seed=9, replications=6), workers=3)
    assert multiprocessing.active_children() == []


@fork_only
def test_the_callers_exception_stops_running_helpers(monkeypatch):
    caller = os.getpid()

    def fail_in_caller(config, replicates):
        if os.getpid() == caller:
            raise ValueError("the caller's replicate failed")
        time.sleep(60)

    monkeypatch.setattr(harness, "run_share", fail_in_caller)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="^the caller's replicate failed$"):
        run_replications(small_config(seed=9, replications=4), workers=2)
    # the sleeping helper is terminated, not waited for
    assert time.perf_counter() - t0 < 30
    assert multiprocessing.active_children() == []


@fork_only
def test_a_helper_that_dies_without_sending_raises(monkeypatch):
    _spy_in_helpers(monkeypatch, lambda config, replicates: os._exit(7))
    with pytest.raises(RuntimeError, match="helper 1 exited with code 7"):
        run_replications(small_config(seed=9, replications=4), workers=2)
    assert multiprocessing.active_children() == []


@fork_only
def test_a_helper_does_not_outlive_a_killed_caller():
    # the caller SIGKILLs itself; its helper's share (a cell log of about
    # 300 KB) overfills the pipe, so the helper ends only if its send fails
    script = """
import dataclasses, os, signal
from epimob import harness, preset_emerging
# two processes, whatever the host's CPU count
harness._usable_cpus = lambda: 2
real, caller = harness.run_share, os.getpid()
def die_in_caller(config, replicates):
    if os.getpid() == caller:
        os.kill(caller, signal.SIGKILL)
    return real(config, replicates)
harness.run_share = die_in_caller
config = dataclasses.replace(preset_emerging(2000), seed=1, replications=2, log_cells=True)
harness.run_replications(config, workers=2)
"""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    # output reaches EOF only when the helper, which shares the pipes, has exited too
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == -9
    assert "BrokenPipeError" in proc.stderr


def test_wall_seconds_covers_the_csv_files(tmp_path, monkeypatch):
    def slow_summary_csv(summaries, path):
        time.sleep(0.2)
        write_summary_csv(summaries, path)

    write_summary_csv = harness.write_summary_csv
    monkeypatch.setattr(harness, "write_summary_csv", slow_summary_csv)
    result = run_replications(small_config(seed=9, out_dir=str(tmp_path)))
    assert result.manifest.wall_seconds >= 0.2
    written = json.loads((tmp_path / "manifest.json").read_text())
    assert written["wall_seconds"] == result.manifest.wall_seconds
