"""Count-level engine: exact in law against the oracles, bounded in n."""

import dataclasses
import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from epimob import (
    INFECTED,
    RECOVERED,
    UNINFECTED,
    CellGrid,
    CountState,
    EpidemicParams,
    ScenarioConfig,
    causality_violations,
    count_step,
    draw_class_counts,
    enumerate_step,
    power_law_pmf,
    run_replicate,
    run_replications,
)
from epimob import harness
from epimob.dynamics import _exposure_by_class
from epimob.rng import substream

# the benchmark's oracle rule: 5 standard errors plus 5 counts per outcome
Z = 5.0
SLACK = 5.0


def _agrees(counts: np.ndarray, exact: np.ndarray) -> bool:
    trials = counts.sum()
    spread = np.sqrt(trials * exact * (1.0 - exact))
    return bool(np.all(np.abs(counts - trials * exact) <= Z * spread + SLACK))


def _classes(weights):
    values, sizes = np.unique(np.asarray(weights, dtype=np.int64), return_counts=True)
    return values, sizes.astype(np.int64)


def _params(n_nodes: int, beta: float) -> EpidemicParams:
    return EpidemicParams(n=n_nodes, alpha=2.5, kappa=8 / n_nodes, tau=10, beta=beta)


@pytest.mark.parametrize("beta", [1.0, 0.5])
def test_count_step_matches_enumeration(beta):
    # criterion 2's instance shapes: <= 6 cells with weights in [2, 8], <= 6 nodes
    gen = np.random.default_rng(4101 if beta == 1.0 else 4102)
    trials = 10_000
    for idx in range(6):
        weights = [int(w) for w in gen.integers(2, 9, size=int(gen.integers(1, 7)))]
        n_nodes = int(gen.integers(2, 7))
        i_count = int(gen.integers(1, n_nodes))
        u_count = int(gen.integers(1, n_nodes - i_count + 1))
        r_count = n_nodes - i_count - u_count
        statuses = [INFECTED] * i_count + [UNINFECTED] * u_count + [RECOVERED] * r_count
        exact = enumerate_step(CellGrid.from_weights(weights), statuses, beta)
        classes = _classes(weights)
        params = _params(n_nodes, beta)
        rng = substream(4100, idx, 2)
        counts = np.zeros(exact.size, dtype=np.int64)
        for _ in range(trials):
            state = CountState(u_count, r_count, {0: i_count})
            counts[count_step(state, classes, params, rng).new_infections_total] += 1
        assert _agrees(counts, exact), (weights, statuses, counts.tolist(), exact.tolist())


def _exact_band_pmf(weights, i_count, u_count, beta):
    """P(n1 new in band 1, n2 new in band 2), enumerating the infectious placements."""
    weights = np.asarray(weights)
    p = weights / weights.sum()
    band = np.frexp(weights)[1] - 1
    pmf = np.zeros((u_count + 1, u_count + 1))
    outcomes = [(a, b) for a in range(u_count + 1) for b in range(u_count + 1 - a)]
    for placement in itertools.product(range(weights.size), repeat=i_count):
        hits = np.bincount(placement, minlength=weights.size)
        mass = p * (1.0 - (1.0 - beta) ** hits)
        q1, q2 = mass[band == 1].sum(), mass[band == 2].sum()
        weight = np.prod(p[list(placement)])
        for a, b in outcomes:
            pmf[a, b] += weight * scipy_stats.multinomial.pmf(
                [a, b, u_count - a - b], u_count, [q1, q2, 1.0 - q1 - q2]
            )
    return pmf


@pytest.mark.parametrize(
    "weights",
    [
        [2, 3, 3, 4, 6],  # 8 * |I| >= K: occupied cells found by a bincount
        [2, 2, 2, 3, 3, 3, 3, 4, 4, 5, 5, 5, 6, 7, 7, 7, 7],  # 8 * |I| < K: by sorting
    ],
)
def test_band_split_matches_exact_band_masses(weights):
    # bands 1 ([2, 4)) and 2 ([4, 8)), two infectious and three uninfected nodes
    beta = 0.6
    exact = _exact_band_pmf(weights, 2, 3, beta)
    assert exact.sum() == pytest.approx(1.0)
    classes = _classes(weights)
    params = _params(5, beta)
    rng = substream(4103, len(weights), 2)
    counts = np.zeros_like(exact, dtype=np.int64)
    trials = 20_000
    for _ in range(trials):
        report = count_step(CountState(3, 0, {0: 2}), classes, params, rng)
        by_group = report.new_infections_by_group
        assert by_group[0] == 0 and by_group.sum() == report.new_infections_total
        counts[by_group[1], by_group[2]] += 1
    assert _agrees(counts.ravel(), exact.ravel()), counts.tolist()


def test_count_step_retires_cohorts_with_the_per_node_rule():
    # tau shrinks from 5 to 1 after step 3: the overdue cohorts 0 and 2 retire in step 4
    params = _params(40, 0.0)
    state = CountState(30, 0, {0: 4, 2: 6})
    state.step = 3
    report = count_step(state, _classes([2, 3]), dataclasses.replace(params, tau=1), substream(1, 0, 2))
    assert report.newly_recovered == 10 and report.new_infections_total == 0
    assert state.counts() == (30, 0, 10) and state.step == 4


def test_draw_class_counts_is_a_multinomial_histogram():
    params = EpidemicParams(n=10_000, alpha=2.8, kappa=1.0, tau=2)
    values, sizes = draw_class_counts(params, substream(42, 0, 0))
    assert sizes.sum() == params.num_cells and np.all(sizes > 0)
    assert np.all(np.diff(values) > 0) and values[0] >= 2
    assert values[-1] <= params.max_attractiveness
    pmf = power_law_pmf(params.alpha, params.max_attractiveness)
    expected = params.num_cells * pmf[values - 2]
    assert np.all(np.abs(sizes - expected) <= Z * np.sqrt(expected * (1 - pmf[values - 2])) + SLACK)


def test_default_runs_use_the_count_engine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-node engine used without log_cells")

    monkeypatch.setattr(harness, "step", refuse)
    monkeypatch.setattr(harness, "build_grid", refuse)
    params = EpidemicParams(n=500, alpha=2.8, kappa=1.0, tau=2, initial_infected=5)
    result = run_replications(ScenarioConfig(params=params, seed=3, replications=2))
    assert result.manifest.engine == "count"
    assert all(s.extinction_step is not None for s in result.summaries)


def test_logged_runs_use_the_per_node_engine_and_pass_the_causality_audit():
    params = EpidemicParams(n=400, alpha=2.8, kappa=1.0, tau=3, initial_infected=10, max_steps=500)
    config = ScenarioConfig(params=params, seed=11, log_cells=True)
    summary, trace = run_replicate(config, 0)
    assert run_replications(config).manifest.engine == "per-node"
    assert summary.extinction_step is not None
    log = trace.infectious_log
    # a node infected at step s is first infectious in step s + 1, log row s
    ever = log.any(axis=0)
    infected_at = np.where(ever, log.argmax(axis=0), -1)
    assert np.count_nonzero(ever) == summary.ever_infected
    assert np.count_nonzero(infected_at >= 1) > 0  # the audit must not pass vacuously
    assert causality_violations(trace.cell_log, log, infected_at).size == 0


def test_count_engine_cost_is_bounded_in_n():
    # a billion nodes on a billion cells: only counts and an m-entry histogram exist
    params = EpidemicParams(n=10**9, alpha=2.8, kappa=1.0, tau=2, beta=0.0, initial_infected=5)
    t0 = time.perf_counter()
    summary, trace = run_replicate(ScenarioConfig(params=params, seed=7), 0)
    elapsed = time.perf_counter() - t0
    np.testing.assert_array_equal(trace.infected, [5, 5, 0])
    assert summary.survivors == 10**9 - 5
    assert elapsed < 0.5


@given(data=st.data(), beta=st.sampled_from([1.0, 0.5, 0.0]))
@settings(max_examples=80, deadline=None)
def test_exposure_sums_match_a_direct_count(data, beta):
    # up to 180 cells and 60 draws: both the sorting and the bincount collapse run
    sizes = np.array(data.draw(st.lists(st.integers(1, 30), min_size=1, max_size=6)), dtype=np.int64)
    num_cells = int(sizes.sum())
    cells = np.array(
        data.draw(st.lists(st.integers(0, num_cells - 1), min_size=1, max_size=60)), dtype=np.int64
    )
    hits = np.bincount(cells, minlength=num_cells)
    per_cell = 1.0 - (1.0 - beta) ** hits
    cell_class = np.repeat(np.arange(sizes.size), sizes)
    want = [per_cell[cell_class == c].sum() for c in range(sizes.size)]
    np.testing.assert_allclose(_exposure_by_class(cells, sizes, beta), want, rtol=1e-12, atol=1e-12)
