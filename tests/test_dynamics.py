"""Step semantics: movement, transmission, retirement, bookkeeping."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epimob import (
    INFECTED,
    NEVER_INFECTED,
    RECOVERED,
    UNINFECTED,
    CellGrid,
    ConfigError,
    EpidemicParams,
    PopulationState,
    ReplicateStreams,
    build_grid,
    init_population,
    step,
    substep_move,
    substep_recover,
    substep_transmit,
)
from epimob import dynamics
from epimob.dynamics import _infection_probability
from epimob.rng import substream

def small_params(n, **kw):
    """Valid params with 8 cells regardless of n (cutoff floor(8 ** 0.4) = 2)."""
    kw.setdefault("tau", 3)
    return EpidemicParams(n=n, alpha=2.5, kappa=8 / n, **kw)


def make_state(statuses, infected_at, cells, step_index):
    return PopulationState(
        np.array(statuses, dtype=np.int8),
        np.array(infected_at, dtype=np.int64),
        np.array(cells, dtype=np.int64),
        step=step_index,
    )


def fresh_state(n_infected, n_uninfected, n_recovered=0, cell=0, step_index=1):
    statuses = (
        [INFECTED] * n_infected + [UNINFECTED] * n_uninfected + [RECOVERED] * n_recovered
    )
    infected_at = [0] * n_infected + [NEVER_INFECTED] * n_uninfected + [0] * n_recovered
    return make_state(statuses, infected_at, [cell] * len(statuses), step_index)


def test_init_population_all_infected():
    params = small_params(5, tau=1, initial_infected=5)
    state = init_population(params, substream(0, 0, 1))
    assert state.counts() == (0, 5, 0)
    assert (state.infected_at == 0).all()
    assert state.step == 0


def test_init_population_rejects_zero_seeds():
    with pytest.raises(ConfigError):
        small_params(5, tau=1, initial_infected=0)


def test_init_population_deterministic_seed_choice():
    params = small_params(10_000, initial_infected=10)
    a = init_population(params, substream(3, 0, 1))
    b = init_population(params, substream(3, 0, 1))
    np.testing.assert_array_equal(
        np.flatnonzero(a.status == INFECTED), np.flatnonzero(b.status == INFECTED)
    )
    assert np.count_nonzero(a.status == INFECTED) == 10
    assert (a.infected_at[a.status == INFECTED] == 0).all()
    assert (a.infected_at[a.status == UNINFECTED] == NEVER_INFECTED).all()


def test_move_single_cell_colocates_everyone():
    params = small_params(50, initial_infected=1)
    state = init_population(params, substream(0, 0, 1))
    before = state.status.copy()
    substep_move(state, CellGrid.from_weights([6]), substream(0, 0, 2))
    assert (state.current_cell == 0).all()
    np.testing.assert_array_equal(state.status, before)


def test_move_is_deterministic():
    grid = CellGrid.from_weights([2, 3, 4, 5])
    a = fresh_state(1, 30)
    b = fresh_state(1, 30)
    substep_move(a, grid, substream(8, 0, 2))
    substep_move(b, grid, substream(8, 0, 2))
    np.testing.assert_array_equal(a.current_cell, b.current_cell)


def test_transmit_without_infectious_is_empty():
    params = small_params(4, tau=1)
    state = make_state(
        [UNINFECTED] * 4, [NEVER_INFECTED] * 4, [0, 0, 0, 0], step_index=1
    )
    newly = substep_transmit(state, CellGrid.from_weights([2]), params, substream(0, 0, 3))
    assert newly.size == 0


def test_transmit_certain_infection_in_shared_cell():
    params = small_params(8, tau=1)
    state = fresh_state(1, 7, step_index=4)
    newly = substep_transmit(state, CellGrid.from_weights([2]), params, substream(0, 0, 3))
    assert newly.tolist() == [1, 2, 3, 4, 5, 6, 7]
    assert (state.status[1:] == INFECTED).all()
    assert (state.infected_at[1:] == 4).all()


def test_transmit_recovered_are_inert():
    params = small_params(3, tau=1)
    state = make_state(
        [INFECTED, RECOVERED, UNINFECTED], [0, 0, NEVER_INFECTED], [0, 0, 0], 1
    )
    newly = substep_transmit(state, CellGrid.from_weights([2]), params, substream(0, 0, 3))
    assert newly.tolist() == [2]
    assert state.status[1] == RECOVERED


def test_transmit_multi_exposure_composition():
    # 2 infectious + 1000 uninfected in one cell, beta=0.3:
    # per-node infection probability 1 - 0.7 ** 2 = 0.51
    params = small_params(1002, tau=1, beta=0.3)
    state = fresh_state(2, 1000)
    newly = substep_transmit(state, CellGrid.from_weights([2]), params, substream(1, 0, 3))
    se = math.sqrt(1000 * 0.51 * 0.49)
    assert abs(newly.size - 510) <= 3 * se


def test_transmit_zero_beta_never_infects():
    params = small_params(10, tau=1, beta=0.0)
    state = fresh_state(3, 7)
    newly = substep_transmit(state, CellGrid.from_weights([2]), params, substream(2, 0, 3))
    assert newly.size == 0


def test_transmit_stream_untouched_when_beta_is_one():
    params = small_params(6, tau=1, beta=1.0)
    state = fresh_state(1, 5)
    rng = substream(4, 0, 3)
    twin = substream(4, 0, 3)
    substep_transmit(state, CellGrid.from_weights([2]), params, rng)
    # certain infection needs no draws, so the stream position is unchanged
    assert rng.random() == twin.random()


def test_same_step_transmission_off_by_default():
    # one infectious and two uninfected in a single cell, beta=0.5; a node
    # infected in this step does not expose the other: P(both) = 0.5 * 0.5
    params = small_params(3, tau=1, beta=0.5)
    grid = CellGrid.from_weights([2])
    rng = substream(17, 0, 3)
    trials = 20_000
    both = 0
    for _ in range(trials):
        both += substep_transmit(fresh_state(1, 2), grid, params, rng).size == 2
    se = math.sqrt(0.25 * 0.75 / trials)
    assert abs(both / trials - 0.25) <= 4 * se


@given(
    num_cells=st.integers(1, 200),
    cells=st.data(),
)
@settings(max_examples=60)
def test_exposure_counts_match_direct_count(num_cells, cells):
    # substep_transmit hands each exposed uninfected node's count of
    # infectious cellmates, in node order, to _infection_probability
    n = cells.draw(st.integers(1, 30))
    assignment = cells.draw(st.lists(st.integers(0, num_cells - 1), min_size=n, max_size=n))
    statuses = cells.draw(
        st.lists(st.sampled_from([INFECTED, UNINFECTED, RECOVERED]), min_size=n, max_size=n)
    )
    infected_at = [NEVER_INFECTED if s == UNINFECTED else 0 for s in statuses]
    state = make_state(statuses, infected_at, assignment, step_index=1)
    want = {
        t: sum(1 for i in range(n) if statuses[i] == INFECTED and assignment[i] == assignment[t])
        for t in range(n)
        if statuses[t] == UNINFECTED
    }
    exposed = [t for t, m in want.items() if m]
    seen = []

    def certain(hits, beta):
        seen.append(hits.tolist())
        return np.ones(hits.size)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_infection_probability", certain)
        newly = substep_transmit(
            state, CellGrid.from_weights([2] * num_cells), small_params(n, beta=0.5), substream(1, 0, 2)
        )
    assert newly.tolist() == exposed
    assert seen == ([[want[t] for t in exposed]] if exposed else [])
    assert state.status[exposed].tolist() == [INFECTED] * len(exposed)


def test_recover_timeline():
    # tau=3, infected at step 5: infectious through step 8, retired at its end
    params = small_params(1, tau=3)
    state = make_state([INFECTED], [5], [0], step_index=6)
    assert substep_recover(state, params) == 0
    state.step = 7
    assert substep_recover(state, params) == 0
    state.step = 8
    assert substep_recover(state, params) == 1
    assert state.status[0] == RECOVERED


@pytest.mark.parametrize("tau", [1, 2, 5])
def test_recover_retires_cohort_zero_at_step_tau_not_before(tau):
    # before step tau substep_recover returns without reading a node; cohort 0
    # must still be retired at step tau exactly, with or without a shared mask
    params = small_params(3, tau=tau)
    for shared in (False, True):
        state = make_state(
            [INFECTED, INFECTED, UNINFECTED], [0, 0, NEVER_INFECTED], [0, 0, 0], tau - 1
        )
        mask = state.status == INFECTED if shared else None
        assert substep_recover(state, params, mask) == 0
        assert state.status.tolist() == [INFECTED, INFECTED, UNINFECTED]
        state.step = tau
        assert substep_recover(state, params, mask) == 2
        assert state.status.tolist() == [RECOVERED, RECOVERED, UNINFECTED]


def test_recover_catches_up_after_tau_reduction():
    params = small_params(2, tau=1)
    # infected long ago; a shortened tau retires them at the next pass
    state = make_state([INFECTED, INFECTED], [1, 2], [0, 0], step_index=9)
    assert substep_recover(state, params) == 2


def test_no_recovery_when_tau_exceeds_run_length():
    params = EpidemicParams(
        n=40, alpha=2.5, kappa=0.2, tau=51, initial_infected=1, max_steps=50
    )
    grid = build_grid(params, substream(0, 0, 0))
    state = init_population(params, substream(0, 0, 1))
    rng = substream(0, 0, 2)
    for _ in range(50):
        step(state, grid, params, rng)
    assert state.counts().recovered == 0


def test_step_with_no_infection_is_movement_only():
    params = small_params(20, initial_infected=1)
    grid = build_grid(params, substream(1, 0, 0))
    state = make_state(
        [RECOVERED] + [UNINFECTED] * 19,
        [0] + [NEVER_INFECTED] * 19,
        [0] * 20,
        step_index=0,
    )
    report = step(state, grid, params, substream(1, 0, 2))
    assert report.new_infections_total == 0
    assert report.newly_recovered == 0
    assert state.current_cell.size == 20
    assert 0 <= state.current_cell.min() and state.current_cell.max() < grid.num_cells
    assert report.step == 1


def test_step_cap_guard():
    params = small_params(20, initial_infected=1, max_steps=1)
    grid = build_grid(params, substream(1, 0, 0))
    state = init_population(params, substream(1, 0, 1))
    step(state, grid, params, substream(1, 0, 2))
    with pytest.raises(ValueError):
        step(state, grid, params, substream(1, 0, 2))


def test_step_meeting_probability_three_equal_cells():
    # 1 infectious + 1 uninfected on three equal cells: P(new infection) = 1/3
    params = small_params(2, tau=9, beta=1.0)
    grid = CellGrid.from_weights([2, 2, 2])
    rng = substream(23, 0, 2)
    trials = 30_000
    hits = 0
    for _ in range(trials):
        state = fresh_state(1, 1, step_index=0)
        report = step(state, grid, params, rng)
        hits += report.new_infections_total
    p = 1 / 3
    se = math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) <= 3 * se


def _run_to_end(params, seed):
    streams = ReplicateStreams.from_seed(seed, 0)
    grid = build_grid(params, streams.grid)
    state = init_population(params, streams.init)
    reports = []
    while state.counts().infected > 0 and state.step < params.max_steps:
        reports.append(step(state, grid, params, streams))
    return state, reports


def test_full_run_bookkeeping_invariants():
    params = EpidemicParams(
        n=500, alpha=2.8, kappa=1.0, tau=2, initial_infected=5, max_steps=10_000
    )
    state, reports = _run_to_end(params, seed=99)
    assert state.counts().infected == 0
    prev = (5, 495, 0)  # (I, U, R) at step 0
    ever = 5
    for report in reports:
        new, rec = report.new_infections_total, report.newly_recovered
        i = prev[0] + new - rec
        u = prev[1] - new
        r = prev[2] + rec
        ever += new
        assert i >= 0 and u >= 0
        assert report.new_infections_by_group.sum() == new
        assert report.new_infections_by_group[0] == 0
        prev = (i, u, r)
    assert sum(prev) == 500
    assert state.current_cell.size == 500
    assert 0 <= state.current_cell.min() and state.current_cell.max() < params.num_cells
    final = state.counts()
    assert (final.infected, final.uninfected, final.recovered) == prev
    assert ever == 500 - final.uninfected


def test_statuses_move_one_way_only():
    params = EpidemicParams(
        n=300, alpha=2.8, kappa=1.0, tau=2, initial_infected=3, max_steps=10_000
    )
    streams = ReplicateStreams.from_seed(5, 0)
    grid = build_grid(params, streams.grid)
    state = init_population(params, streams.init)
    prev_status = state.status.copy()
    while state.counts().infected > 0 and state.step < params.max_steps:
        step(state, grid, params, streams)
        # legal transitions: stay, U->I, I->R
        changed = state.status != prev_status
        assert np.all(
            (prev_status[changed] == UNINFECTED) & (state.status[changed] == INFECTED)
            | (prev_status[changed] == INFECTED) & (state.status[changed] == RECOVERED)
        )
        prev_status = state.status.copy()


def test_beta_zero_infection_set_never_grows():
    params = EpidemicParams(
        n=200, alpha=2.8, kappa=1.0, tau=4, beta=0.0, initial_infected=6, max_steps=30
    )
    streams = ReplicateStreams.from_seed(2, 0)
    grid = build_grid(params, streams.grid)
    state = init_population(params, streams.init)
    for _ in range(30):
        report = step(state, grid, params, streams)
        assert report.new_infections_total == 0
    assert state.counts().uninfected == 194


def test_identical_runs_produce_identical_traces():
    params = EpidemicParams(
        n=400, alpha=2.8, kappa=1.0, tau=2, initial_infected=4, max_steps=10_000
    )
    state_a, reports_a = _run_to_end(params, seed=31)
    state_b, reports_b = _run_to_end(params, seed=31)
    assert len(reports_a) == len(reports_b)
    for ra, rb in zip(reports_a, reports_b):
        assert ra.new_infections_total == rb.new_infections_total
        assert ra.newly_recovered == rb.newly_recovered
        np.testing.assert_array_equal(
            ra.new_infections_by_group, rb.new_infections_by_group
        )
    np.testing.assert_array_equal(state_a.status, state_b.status)
    np.testing.assert_array_equal(state_a.infected_at, state_b.infected_at)


def test_step_accepts_bare_generator_and_stream_bundle():
    params = small_params(30, initial_infected=2)
    grid = build_grid(params, substream(6, 0, 0))

    state_a = init_population(params, substream(6, 0, 1))
    step(state_a, grid, params, ReplicateStreams.from_seed(6, 0))

    # the bundle's movement stream is role 2, so a bare role-2 generator
    # must reproduce the same placements when beta=1 consumes nothing else
    state_b = init_population(params, substream(6, 0, 1))
    step(state_b, grid, params, substream(6, 0, 2))
    np.testing.assert_array_equal(state_a.current_cell, state_b.current_cell)


def _digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


def _plain(value):
    """A bit_generator.state with its arrays as lists, comparable to a literal."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


def _state_digest(gen):
    return hashlib.sha256(repr(_plain(gen.bit_generator.state)).encode()).hexdigest()[:16]


def _reports(state, grid, params, rng, steps):
    return [
        (r.step, r.new_infections_total, r.new_infections_by_group.tolist(), r.newly_recovered)
        for r in (step(state, grid, params, rng) for _ in range(steps))
    ]


def _tiny_golden(beta):
    # unsorted weights, which the grid numbers in class order; at step 3 the
    # nodes infected at steps 0 and 1 retire
    grid = CellGrid.from_weights([5, 2, 8, 3, 3, 7])
    params = small_params(8, tau=2, beta=beta)
    state = make_state(
        [INFECTED] * 3 + [UNINFECTED] * 4 + [RECOVERED],
        [0, 1, 2] + [NEVER_INFECTED] * 4 + [0],
        [0] * 8,
        step_index=2,
    )
    rng = np.random.default_rng(7)
    reports = _reports(state, grid, params, rng, 3)
    return {
        "reports": reports,
        "status": state.status.tolist(),
        "infected_at": state.infected_at.tolist(),
        "current_cell": state.current_cell.tolist(),
        "rng": _plain(rng.bit_generator.state),
    }


def _streams_golden():
    params = EpidemicParams(n=2000, alpha=2.5, kappa=1.0, tau=2, beta=0.3, initial_infected=40)
    streams = ReplicateStreams.from_seed(20, 0)
    grid = build_grid(params, streams.grid)
    state = init_population(params, streams.init)
    reports = _reports(state, grid, params, streams, 5)
    return {
        "reports": reports,
        "status": _digest(state.status),
        "infected_at": _digest(state.infected_at),
        "current_cell": _digest(state.current_cell),
        "movement": _state_digest(streams.movement),
        "transmission": _state_digest(streams.transmission),
    }


# What the engine_version 0.5.0 step() draws and writes, as literals: a
# reordered, extra or missing draw, or any change in what a step writes, fails.
GOLDEN_TINY = {
    0.5: {
        "reports": [(3, 2, [0, 0, 0, 2], 2), (4, 1, [0, 0, 1, 0], 1), (5, 1, [0, 0, 1, 0], 2)],
        "status": [2, 2, 2, 2, 1, 2, 1, 2],
        "infected_at": [0, 1, 2, 3, 5, 3, 4, 0],
        "current_cell": [5, 3, 4, 4, 4, 4, 4, 5],
        "rng": {
            "bit_generator": "PCG64",
            "state": {
                "state": 142205542758926017296850103978187267774,
                "inc": 261136684632268670825940853076396136793,
            },
            "has_uint32": 0,
            "uinteger": 4275641160,
        },
    },
    1.0: {
        "reports": [(3, 4, [0, 0, 1, 3], 2), (4, 0, [0, 0, 0, 0], 1), (5, 0, [0, 0, 0, 0], 4)],
        "status": [2, 2, 2, 2, 2, 2, 2, 2],
        "infected_at": [0, 1, 2, 3, 3, 3, 3, 0],
        "current_cell": [1, 5, 1, 4, 5, 3, 3, 2],
        "rng": {
            "bit_generator": "PCG64",
            "state": {
                "state": 290790065184894171192522553462352922540,
                "inc": 261136684632268670825940853076396136793,
            },
            "has_uint32": 0,
            "uinteger": 1195828898,
        },
    },
}

# The same for a replicate's own streams, as engine_version 0.8.0 keys them.
GOLDEN_STREAMS = {
    "reports": [
        (1, 17, [0, 4, 9, 4, 0], 0),
        (2, 23, [0, 3, 11, 7, 2], 40),
        (3, 9, [0, 2, 5, 2, 0], 17),
        (4, 13, [0, 0, 3, 10, 0], 23),
        (5, 9, [0, 0, 5, 4, 0], 9),
    ],
    "status": "8918c4ff35fc49d4",
    "infected_at": "5c2ff612cea2844e",
    "current_cell": "6507c40ed8854500",
    "movement": "7e812cb7189c431a",
    "transmission": "1176120eb6d43e57",
}


@pytest.mark.parametrize("beta", [0.5, 1.0])
def test_step_draws_match_golden_bare_generator(beta):
    assert _tiny_golden(beta) == GOLDEN_TINY[beta]


def test_step_draws_match_golden_replicate_streams():
    assert _streams_golden() == GOLDEN_STREAMS


@pytest.mark.parametrize("beta", [0.0, 0.3, 0.5, 1 - 1e-12])
@pytest.mark.parametrize("hits", [
    np.array([1, 2]),
    np.arange(64) % 7,
    np.arange(300) % 13,
    np.array([0, 3, dynamics.TABLE_HITS - 1, dynamics.TABLE_HITS, 500]),
    np.arange(dynamics.TABLE_HITS + 40),
], ids=["two", "64-short", "300-long", "beyond-table", "long-beyond-table"])
def test_cached_infection_probability_is_the_uncached_formula_bit_for_bit(beta, hits):
    # the per-beta table (and its fallback past TABLE_HITS) must give the
    # float64 bits of the formula it replaced, on both the first and a cached call
    want = -np.expm1(np.log1p(-beta) * hits)
    for _ in range(2):
        got = _infection_probability(hits, beta)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("beta", [0.0, 0.3, 0.999])
def test_infection_probability_is_the_same_for_short_and_long_arrays(beta):
    # long arrays look the values up per distinct hit count, short ones compute
    # them per entry; both must give the same float64 bits
    hits = np.arange(300) % 13
    whole = _infection_probability(hits, beta)
    pieces = [_infection_probability(hits[i:i + 10], beta) for i in range(0, 300, 10)]
    np.testing.assert_array_equal(whole, np.concatenate(pieces))
    np.testing.assert_allclose(whole, 1 - (1 - beta) ** hits, rtol=1e-12, atol=1e-15)
