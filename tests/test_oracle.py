"""Exact oracles and their agreement with the stochastic engine."""

import itertools
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
    EpidemicParams,
    PopulationState,
    enumerate_step,
    exact_meeting_probability,
    expected_new_infections_bound,
    infection_probability_from_exposures,
    sparse_regime_check,
    step,
)
from epimob.rng import substream

weights_lists = st.lists(st.integers(2, 30), min_size=1, max_size=12)


def test_meeting_probability_uniform_grids():
    for m in range(1, 7):
        grid = CellGrid.from_weights([4] * m)
        assert exact_meeting_probability(grid) == pytest.approx(1 / m, abs=1e-15)


def test_meeting_probability_single_cell_is_one():
    assert exact_meeting_probability(CellGrid.from_weights([9])) == pytest.approx(1.0)


def test_meeting_probability_forced_arithmetic():
    grid = CellGrid.from_weights([2, 2, 4])
    assert exact_meeting_probability(grid) == pytest.approx(0.375, abs=1e-15)


@given(weights=weights_lists, seed=st.integers(0, 999))
def test_meeting_probability_permutation_invariant(weights, seed):
    base = exact_meeting_probability(CellGrid.from_weights(weights))
    shuffled = list(weights)
    np.random.default_rng(seed).shuffle(shuffled)
    assert exact_meeting_probability(CellGrid.from_weights(shuffled)) == pytest.approx(
        base, rel=1e-12
    )


@given(weights=weights_lists, extra=st.integers(2, 30))
def test_meeting_probability_strictly_decreases_with_extra_cell(weights, extra):
    before = exact_meeting_probability(CellGrid.from_weights(weights))
    after = exact_meeting_probability(CellGrid.from_weights(weights + [extra]))
    assert after < before


def test_expected_new_infections_bound_examples():
    grid = CellGrid.from_weights([2, 2, 4])
    assert expected_new_infections_bound(grid, 0, 5) == 0.0
    assert expected_new_infections_bound(grid, 2, 3) == pytest.approx(2.25, abs=1e-15)
    with pytest.raises(ValueError):
        expected_new_infections_bound(grid, -1, 3)


@given(beta=st.floats(0.0, 1.0), m=st.integers(0, 8))
def test_exposure_enumeration_matches_closed_form(beta, m):
    # the oracle sums 2**m outcome vectors; the engine uses 1-(1-beta)**m
    exact = infection_probability_from_exposures(beta, m)
    closed = 1.0 - (1.0 - beta) ** m
    assert exact == pytest.approx(closed, abs=1e-12)


def test_exposure_enumeration_rejects_bad_input():
    with pytest.raises(ValueError):
        infection_probability_from_exposures(1.5, 2)
    with pytest.raises(ValueError):
        infection_probability_from_exposures(0.5, -1)


def test_enumerate_three_equal_cells():
    grid = CellGrid.from_weights([2, 2, 2])
    pmf = enumerate_step(grid, [INFECTED, UNINFECTED], beta=1.0)
    np.testing.assert_allclose(pmf, [2 / 3, 1 / 3], atol=1e-12)


def test_enumerate_two_weighted_cells():
    # P(meet) = (1/3)**2 + (2/3)**2 = 5/9
    grid = CellGrid.from_weights([2, 4])
    pmf = enumerate_step(grid, [INFECTED, UNINFECTED], beta=1.0)
    np.testing.assert_allclose(pmf, [4 / 9, 5 / 9], atol=1e-12)


def test_enumerate_edge_populations():
    grid = CellGrid.from_weights([2, 3])
    np.testing.assert_allclose(enumerate_step(grid, [INFECTED, RECOVERED]), [1.0])
    np.testing.assert_allclose(
        enumerate_step(grid, [UNINFECTED, UNINFECTED]), [1.0, 0.0, 0.0]
    )


def test_enumerate_input_validation():
    grid = CellGrid.from_weights([2, 3])
    big_grid = CellGrid.from_weights([2] * 9)
    with pytest.raises(ValueError, match="too large"):
        enumerate_step(grid, [INFECTED] + [UNINFECTED] * 8)
    with pytest.raises(ValueError, match="too large"):
        enumerate_step(big_grid, [INFECTED, UNINFECTED])
    with pytest.raises(ValueError):
        enumerate_step(grid, [])
    with pytest.raises(ValueError):
        enumerate_step(grid, [INFECTED, 7])
    with pytest.raises(ValueError):
        enumerate_step(grid, [INFECTED, UNINFECTED], beta=1.5)


@settings(max_examples=30)
@given(
    weights=st.lists(st.integers(2, 9), min_size=1, max_size=5),
    statuses=st.lists(st.sampled_from([UNINFECTED, INFECTED, RECOVERED]), min_size=1, max_size=5),
    beta=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
)
def test_enumerate_pmf_is_a_distribution(weights, statuses, beta):
    pmf = enumerate_step(CellGrid.from_weights(weights), statuses, beta)
    assert abs(pmf.sum() - 1.0) < 1e-10
    assert (pmf >= -1e-12).all()
    assert pmf.size == statuses.count(UNINFECTED) + 1


def _single_target_infection_probability(grid, i_count, beta):
    """Independent recomputation: enumerate infectious placements times the
    target's own placement instead of the joint space enumerate_step uses."""
    probs = grid.choice_probabilities()
    k = probs.size
    total = 0.0
    for placement in itertools.product(range(k), repeat=i_count):
        w = math.prod(probs[c] for c in placement)
        for v in range(k):
            m = placement.count(v)
            total += w * probs[v] * infection_probability_from_exposures(beta, m)
    return total


@settings(max_examples=25)
@given(
    weights=st.lists(st.integers(2, 8), min_size=2, max_size=4),
    i_count=st.integers(1, 3),
    u_count=st.integers(1, 3),
    beta=st.sampled_from([0.25, 0.6, 1.0]),
)
def test_enumerate_mean_matches_per_node_probability(weights, i_count, u_count, beta):
    # E[new infections] must equal u_count * P(one target infected), by symmetry
    grid = CellGrid.from_weights(weights)
    statuses = [INFECTED] * i_count + [UNINFECTED] * u_count
    pmf = enumerate_step(grid, statuses, beta)
    mean = float(np.dot(np.arange(pmf.size), pmf))
    per_node = _single_target_infection_probability(grid, i_count, beta)
    assert mean == pytest.approx(u_count * per_node, abs=1e-10)


@settings(max_examples=25)
@given(
    weights=st.lists(st.integers(2, 8), min_size=2, max_size=4),
    i_count=st.integers(0, 3),
    u_count=st.integers(1, 3),
)
def test_enumerate_mean_respects_union_bound(weights, i_count, u_count):
    grid = CellGrid.from_weights(weights)
    statuses = [INFECTED] * i_count + [UNINFECTED] * u_count
    pmf = enumerate_step(grid, statuses, beta=1.0)
    mean = float(np.dot(np.arange(pmf.size), pmf))
    assert mean <= expected_new_infections_bound(grid, i_count, u_count) + 1e-10


def test_enumerate_marginalizes_recovered_nodes():
    grid = CellGrid.from_weights([2, 5, 3])
    with_r = enumerate_step(grid, [INFECTED, UNINFECTED, RECOVERED, RECOVERED], 0.7)
    without = enumerate_step(grid, [INFECTED, UNINFECTED], 0.7)
    np.testing.assert_allclose(with_r, without, atol=1e-12)


def _engine_single_step_pmf(grid, statuses, beta, trials, seed):
    statuses = np.asarray(statuses, dtype=np.int8)
    n = statuses.size
    params = EpidemicParams(
        n=n, alpha=2.5, kappa=8 / n, tau=10, beta=beta, initial_infected=1
    )
    infected_at0 = np.where(statuses == UNINFECTED, NEVER_INFECTED, 0).astype(np.int64)
    rng = substream(seed, 0, 2)
    counts = np.zeros(int(np.count_nonzero(statuses == UNINFECTED)) + 1, dtype=np.int64)
    for _ in range(trials):
        state = PopulationState(
            statuses.copy(), infected_at0.copy(), np.zeros(n, dtype=np.int64), step=0
        )
        report = step(state, grid, params, rng)
        counts[report.new_infections_total] += 1
    return counts / trials


def test_engine_matches_enumeration_with_partial_transmission():
    grid = CellGrid.from_weights([2, 2, 4])
    statuses = [INFECTED, INFECTED, UNINFECTED, UNINFECTED]
    exact = enumerate_step(grid, statuses, beta=0.5)
    trials = 40_000
    observed = _engine_single_step_pmf(grid, statuses, 0.5, trials, seed=77)
    for c, p in enumerate(exact):
        se = math.sqrt(max(p * (1 - p), 1e-12) / trials)
        assert abs(observed[c] - p) <= 4 * se + 1e-9


def test_engine_matches_enumeration_with_recovered_present():
    grid = CellGrid.from_weights([2, 3])
    statuses = [INFECTED, UNINFECTED, UNINFECTED, RECOVERED]
    exact = enumerate_step(grid, statuses, beta=1.0)
    trials = 40_000
    observed = _engine_single_step_pmf(grid, statuses, 1.0, trials, seed=78)
    for c, p in enumerate(exact):
        se = math.sqrt(max(p * (1 - p), 1e-12) / trials)
        assert abs(observed[c] - p) <= 4 * se + 1e-9


def test_regime_check_reports_high_zero_frequency_when_bound_is_small():
    grid = CellGrid.from_weights(list(range(2, 12)) * 40)  # 400 cells
    mu = expected_new_infections_bound(grid, 1, 2)
    assert mu < 0.01
    res = sparse_regime_check(
        grid, 1, 2, n=10_000, epsilon=0.25, trials=10_000, rng=substream(1, 0, 2), alpha=3.0
    )
    assert res.mu == pytest.approx(mu)
    assert res.zero_infection_frequency >= 0.98
    assert res.analytic_floor == pytest.approx(1 - mu)


def test_regime_check_trivial_cases():
    grid = CellGrid.from_weights([2, 3, 4])
    res = sparse_regime_check(
        grid, 0, 1, n=100, epsilon=0.2, trials=500, rng=substream(2, 0, 2), alpha=3.0
    )
    assert res.zero_infection_frequency == 1.0
    # one shared cell: the pair always meets
    one_cell = CellGrid.from_weights([2])
    res = sparse_regime_check(
        one_cell, 1, 1, n=100, epsilon=0.2, trials=500, rng=substream(3, 0, 2), alpha=3.0
    )
    assert res.zero_infection_frequency == 0.0


def test_regime_check_validates_inputs():
    grid = CellGrid.from_weights([2, 3, 4])
    with pytest.raises(ValueError, match="regime"):
        sparse_regime_check(
            grid, 50, 50, n=100, epsilon=0.2, trials=10, rng=substream(0, 0, 2), alpha=3.0
        )
    with pytest.raises(ValueError, match="epsilon"):
        sparse_regime_check(
            grid, 1, 1, n=100, epsilon=0.45, trials=10, rng=substream(0, 0, 2), alpha=3.0
        )
    with pytest.raises(ValueError):
        sparse_regime_check(
            grid, 1, 1, n=100, epsilon=0.2, trials=0, rng=substream(0, 0, 2), alpha=3.0
        )


def test_regime_check_agrees_with_enumeration():
    # P(zero new infections) from the exact PMF, on an instance with
    # recovered nodes present, validates the active-pair reduction
    grid = CellGrid.from_weights([2, 2, 4, 4])
    exact = enumerate_step(grid, [INFECTED, UNINFECTED, RECOVERED, RECOVERED], 1.0)[0]
    trials = 20_000
    res = sparse_regime_check(
        grid, 1, 1, n=16, epsilon=0.3, trials=trials, rng=substream(5, 0, 2), alpha=3.0
    )
    se = math.sqrt(exact * (1 - exact) / trials)
    assert abs(res.zero_infection_frequency - exact) <= 4 * se
