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

import numpy as np
import pytest
from hypothesis import given
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
from epimob.rng import ROLE_GRID, ROLE_INIT, ROLE_MOVEMENT, ROLE_TRANSMISSION, substream


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


@given(
    master_seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(2**128, 2**200)),
    replicate=st.one_of(st.integers(0, 2**16), st.integers(2**32 - 2, 2**64)),
)
def test_streams_match_numpy_seed_sequence_bit_for_bit(master_seed, replicate):
    ref = np.random.SeedSequence(master_seed, spawn_key=(replicate,))
    assert derive_seed(master_seed, replicate) == int(ref.generate_state(1, np.uint64)[0])
    for role in range(4):
        ref = np.random.SeedSequence(master_seed, spawn_key=(replicate, role))
        gen = substream(master_seed, replicate, role)
        key = gen.bit_generator.state["state"]["key"]
        np.testing.assert_array_equal(key, ref.generate_state(2, np.uint64))
        np.testing.assert_array_equal(
            gen.bit_generator.seed_seq.generate_state(5), ref.generate_state(5)
        )
        reference = np.random.Generator(np.random.Philox(ref))
        assert gen.integers(2**63, size=3).tolist() == reference.integers(2**63, size=3).tolist()


def test_stream_derivation_rejects_negative_words():
    for args in ((-1, 0, 0), (0, -1, 0), (0, 0, -1)):
        with pytest.raises(ValueError):
            substream(*args)
    with pytest.raises(ValueError):
        derive_seed(-1, 0)


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
        run_replications(small_config(seed=2, log_cells=log_cells, out_dir=str(out_dir)))
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["engine_version"] == epimob.__version__ == "0.7.1"
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
# 0.7.0 wrote them: a change in any count-engine draw or in the CSV formats fails
DEFAULT_RUN_DIGESTS = {
    "summary.csv": "e17aea3f0f70cd8fe7eff60112ecf10ad4517d90453521315bde1d7d819c4cc8",
    "trace_0000.csv": "4be0199bd6a9905050c33b281eed3d76e7c614f481f471ef1bb1e88c82425add",
    "trace_0001.csv": "132f69cf857cbed011dfcfae1972bfc8776ad15ae8cc1a84f7e6586d1bf498e7",
    "trace_0002.csv": "10e03b4e85ade876eace6855fe4dc9f74bfa2032fd60f10e1e0d6e79eca02fcf",
    "trace_0003.csv": "9419ac846cd141294b0a12eec9ba69dfe756b5be56d3039619bd7b5005f99e48",
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
# engine_version 0.7.0 wrote them: below beta = 1 both placement paths sum
# infection probabilities of hit counts, which the beta = 1 digests never reach
HALF_BETA_RUN_DIGESTS = {
    "summary.csv": "fdcba9ed8d424c4d339f0878bf6e3b861789ce1661a096775ce242ae3a962b9b",
    "trace_0000.csv": "273a40b0adc26aacbd2472170ad667d2f421aeabb3e36e6b8272b5db904c17e4",
    "trace_0001.csv": "9e835147e61071dd9ddc9894c590e92ae70a8717aeb09c0524b1830468312332",
    "trace_0002.csv": "79fbc74a8e4da3afa6991e6411e625faf916bd6fefd3d42e0c6409700a8c729a",
    "trace_0003.csv": "eae5c78ef7649b38cac2b375eab26bc13d83028200b75bf76c7e5d880c155252",
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
# 2% awareness trigger, as engine_version 0.7.0 wrote them
LOGGED_RUN_DIGESTS = {
    "plain": {
        "summary.csv": "ffbc62619042d3487677e2d3174c2ebd74edab6039f6407c93d2e20b7a3cad49",
        "trace_0000.csv": "8172a301bb3c03d1c15463165965c6970f766f7fbb87d7520f48e4971ecf4001",
        "trace_0001.csv": "6ae195affb051b033f59fd282569b632ac66f783d7144acef0b8c97c1f6f1b96",
        "trace_0002.csv": "144b14611cfec53e4b0737c52820c1aab40bb06231d8c38f056697a6ea58692b",
    },
    "awareness": {
        "summary.csv": "c32041d323eb8bd1d0fb31a5d149db8a24a66cd9ea6c15ae716b3b40375a8a06",
        "trace_0000.csv": "4b6e929d408a00567478f034f750b43d033e734cb86503cf5f9639d41c06655c",
        "trace_0001.csv": "fd6fd9328bd515cd391c2e566ad0b4a5dc28eb86e9d2d021a9cb5c317ff3b21c",
        "trace_0002.csv": "894e0ac6431b9745d2cefe42b91711b2ff7bd36f2fe4621363f517bd81440c9b",
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


def _spy_in_helpers(monkeypatch, in_helper) -> None:
    """Rebind run_replicate so that forked helpers call in_helper instead."""
    caller = os.getpid()
    real = harness.run_replicate

    def spy(config, replicate):
        if os.getpid() == caller:
            return real(config, replicate)
        return in_helper(config, replicate)

    monkeypatch.setattr(harness, "run_replicate", spy)


@fork_only
def test_a_helper_exception_is_raised_again(monkeypatch):
    def fail(config, replicate):
        raise ValueError(f"replicate {replicate} failed")

    _spy_in_helpers(monkeypatch, fail)
    # helpers 1 and 2 both fail; the caller reports helper 1's exception
    with pytest.raises(ValueError, match="^replicate 1 failed$"):
        run_replications(small_config(seed=9, replications=6), workers=3)
    assert multiprocessing.active_children() == []


@fork_only
def test_the_callers_exception_stops_running_helpers(monkeypatch):
    caller = os.getpid()

    def fail_in_caller(config, replicate):
        if os.getpid() == caller:
            raise ValueError("the caller's replicate failed")
        time.sleep(60)

    monkeypatch.setattr(harness, "run_replicate", fail_in_caller)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="^the caller's replicate failed$"):
        run_replications(small_config(seed=9, replications=4), workers=2)
    # the sleeping helper is terminated, not waited for
    assert time.perf_counter() - t0 < 30
    assert multiprocessing.active_children() == []


@fork_only
def test_a_helper_that_dies_without_sending_raises(monkeypatch):
    _spy_in_helpers(monkeypatch, lambda config, replicate: os._exit(7))
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
real, caller = harness.run_replicate, os.getpid()
def die_in_caller(config, replicate):
    if os.getpid() == caller:
        os.kill(caller, signal.SIGKILL)
    return real(config, replicate)
harness.run_replicate = die_in_caller
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
