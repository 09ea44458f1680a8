"""Count-level engine: exact in law against the oracles, bounded in n."""

import dataclasses
import itertools
import time
import tracemalloc

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
    ReplicateStreams,
    ScenarioConfig,
    build_grid,
    causality_violations,
    choose_cells,
    count_step,
    draw_class_counts,
    enumerate_step,
    power_law_pmf,
    run_replicate,
    run_replications,
)
from epimob import attractiveness, dynamics, harness
from epimob.attractiveness import DIRECT_PER_CLASS
from epimob.dynamics import (
    ClassTables,
    _class_exposure,
    _infection_probability,
    _sorted_exposure,
    _sparse_is_cheaper,
)
from epimob.rng import substream
from epimob.scenario import preset_emerging, preset_industrialized

# the benchmark's oracle rule: 5 standard errors plus 5 counts per outcome
Z = 5.0
SLACK = 5.0


def _agrees(counts: np.ndarray, exact: np.ndarray) -> bool:
    trials = counts.sum()
    spread = np.sqrt(trials * exact * (1.0 - exact))
    return bool(np.all(np.abs(counts - trials * exact) <= Z * spread + SLACK))


def _force_pieces(mp: pytest.MonkeyPatch, block: int, chunk: int) -> dict:
    """Place every count step piece by piece, with small blocks and chunks.

    Returns the number of steps that took each path, so a test can assert
    that it really reached the pieces path.
    """
    mp.setattr(attractiveness, "BLOCK_CELLS", block)
    mp.setattr(dynamics, "CHUNK_PLACEMENTS", chunk)
    mp.setattr(dynamics, "SORT_NODES", 0)
    mp.setattr(dynamics, "SORT_CELLS_PER_NODE", float("inf"))  # K // inf == 0
    calls = {"sorted": 0, "pieces": 0}

    def spy(name, key):
        real = getattr(dynamics, name)

        def counted(*args):
            calls[key] += 1
            return real(*args)

        mp.setattr(dynamics, name, counted)

    spy("_sorted_exposure", "sorted")
    spy("_piece_exposure", "pieces")
    return calls


@pytest.fixture
def tiny_blocks(monkeypatch):
    # blocks of 2 cells placed 2 nodes at a time: grids of a few cells then
    # have several blocks, classes spanning blocks and several chunks a
    # block; a zero sort bound sends every step there
    return _force_pieces(monkeypatch, 2, 2)


def _only_pieces(calls: dict) -> bool:
    return calls["pieces"] > 0 and calls["sorted"] == 0


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
        grid = CellGrid.from_weights(weights)
        exact = enumerate_step(grid, statuses, beta)
        params = _params(n_nodes, beta)
        rng = substream(4100, idx, 2)
        counts = np.zeros(exact.size, dtype=np.int64)
        for _ in range(trials):
            state = CountState(u_count, r_count, {0: i_count})
            counts[count_step(state, grid, params, rng).new_infections_total] += 1
        assert _agrees(counts, exact), (weights, statuses, counts.tolist(), exact.tolist())


@pytest.mark.parametrize("beta", [1.0, 0.5])
def test_count_step_matches_enumeration_in_tiny_blocks(beta, tiny_blocks):
    test_count_step_matches_enumeration(beta)
    assert _only_pieces(tiny_blocks), tiny_blocks


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
        [2, 3, 3, 4, 6],
        [2, 2, 2, 3, 3, 3, 3, 4, 4, 5, 5, 5, 6, 7, 7, 7, 7],
    ],
)
def test_band_split_matches_exact_band_masses(weights):
    # bands 1 ([2, 4)) and 2 ([4, 8)), two infectious and three uninfected nodes
    beta = 0.6
    exact = _exact_band_pmf(weights, 2, 3, beta)
    assert exact.sum() == pytest.approx(1.0)
    grid = CellGrid.from_weights(weights)
    params = _params(5, beta)
    rng = substream(4103, len(weights), 2)
    counts = np.zeros_like(exact, dtype=np.int64)
    trials = 20_000
    for _ in range(trials):
        report = count_step(CountState(3, 0, {0: 2}), grid, params, rng)
        by_group = report.new_infections_by_group
        assert by_group[0] == 0 and by_group.sum() == report.new_infections_total
        counts[by_group[1], by_group[2]] += 1
    assert _agrees(counts.ravel(), exact.ravel()), counts.tolist()


# the same band masses when every step is placed piece by piece
@pytest.mark.parametrize("weights", [[2, 3, 3, 4, 6], [2, 2, 2, 3, 3, 3, 3, 4, 5, 5, 6, 7, 7, 7, 7]])
def test_band_split_matches_exact_band_masses_in_tiny_blocks(weights, tiny_blocks):
    test_band_split_matches_exact_band_masses(weights)
    assert _only_pieces(tiny_blocks), tiny_blocks


def test_count_step_retires_cohorts_with_the_per_node_rule():
    # tau shrinks from 5 to 1 after step 3: the overdue cohorts 0 and 2 retire in step 4
    params = _params(40, 0.0)
    state = CountState(30, 0, {0: 4, 2: 6})
    state.step = 3
    report = count_step(state, CellGrid.from_weights([2, 3]), dataclasses.replace(params, tau=1), substream(1, 0, 2))
    assert report.newly_recovered == 10 and report.new_infections_total == 0
    assert state.counts() == (30, 0, 10) and state.step == 4


def test_count_step_band_width_follows_the_largest_drawn_weight():
    # the report has one band column per band up to the grid's largest
    # weight (band 2), whatever the params' cutoff: padding the band
    # multinomial with empty categories would change the transmission draws
    # it consumes
    grid = CellGrid(np.array([2, 3, 5]), np.array([5, 4, 3]))
    assert grid.num_bands == 3
    params = EpidemicParams(n=60, alpha=2.8, kappa=0.2, tau=3, beta=0.7)
    streams = ReplicateStreams.from_seed(2, 0)
    report = count_step(CountState(50, 0, {0: 10}), grid, params, streams)
    # the outcome and next draw of engine_version 0.8.0 at this seed; this
    # step is sorted, drawing what choose_cells draws
    assert report.new_infections_by_group.tolist() == [0, 11, 8]
    assert streams.transmission.random() == 0.11642849041432535


def _collapse_by_unique(cells: np.ndarray, grid: CellGrid, beta: float) -> np.ndarray:
    """Per-class exposure of placed cells as engine_version 0.7.0 collapsed them."""
    occupied, hits = np.unique(cells, return_counts=True)
    cls = np.searchsorted(grid.start, occupied, side="right") - 1
    return np.bincount(cls, weights=_infection_probability(hits, beta), minlength=grid.values.size)


_SORTED_GRIDS = {
    # W <= 32 * m: choose_cells reads grid.cell_of
    "cell_of": (lambda: CellGrid.from_weights([2, 3, 3, 5, 8, 8, 8, 13] * 2), 500),
    # W > 32 * m, as on every grid below: choose_cells binary searches the
    # class of every draw, here of few draws and of many
    "searched": (lambda: build_grid(preset_industrialized(10**5).params, substream(6, 0, 0)), 30),
    "searched_1024": (lambda: build_grid(preset_industrialized(10**5).params, substream(6, 0, 0)), 2**10),
    "emerging_1e6": (lambda: build_grid(preset_emerging(10**6).params, substream(6, 0, 0)), 10_000),
    "emerging_1e8": (lambda: build_grid(preset_emerging(10**8).params, substream(6, 0, 0)), 100_000),
}


def test_sparse_step_places_nodes_with_choose_cells():
    # a sorted step consumes exactly the draws of choose_cells, the per-node
    # engine's exact sampler, and gives every class the very float that
    # collapsing those cells with np.unique gave.  At beta = 0.5 every
    # 1 - (1 - beta) ** h is a short binary fraction, so sums of them are
    # exact in any order; beta = 0.3 also checks the order of the sums
    for (case, (make, infectious)), beta in itertools.product(_SORTED_GRIDS.items(), [1.0, 0.5, 0.3, 0.0]):
        grid = make()
        assert _sparse_is_cheaper(grid, infectious), case
        assert (grid.total_weight <= DIRECT_PER_CLASS * grid.values.size) == (case == "cell_of"), case
        step_rng, direct_rng = substream(6, 1, 2), substream(6, 1, 2)
        got = _class_exposure(grid, infectious, beta, step_rng)
        want = _collapse_by_unique(choose_cells(make(), direct_rng, infectious), grid, beta)
        np.testing.assert_array_equal(got, want, err_msg=f"{case} beta={beta}")
        assert step_rng.random() == direct_rng.random(), (case, beta)


def _sorted_exposure_by_class_starts(
    grid: CellGrid, infectious: int, beta: float, rng: np.random.Generator
) -> np.ndarray:
    """_sorted_exposure as it first read the classes: a search of the class
    starts, the last class closed by |I|, and a fresh 0 .. m - 1 repeated."""
    x = rng.integers(0, grid.total_weight, infectious)
    x.sort()
    begin = x.searchsorted(grid.weight_bounds[:-1])
    held = np.empty_like(begin)
    np.subtract(begin[1:], begin[:-1], out=held[:-1])
    held[-1] = infectious - begin[-1]
    cls = np.arange(held.size).repeat(held)
    attractiveness.place(grid, x, cls)
    new = np.empty(infectious + 1, dtype=bool)
    new[0] = new[-1] = True
    np.not_equal(x[1:], x[:-1], out=new[1:-1])
    if beta >= 1.0:
        return np.bincount(cls[new[:-1]], minlength=held.size)
    first = new.nonzero()[0]
    return np.bincount(
        cls[first[:-1]], weights=_infection_probability(first[1:] - first[:-1], beta), minlength=held.size
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_grid(preset_industrialized(10**5).params, substream(8, 0, 0)),
        lambda: build_grid(preset_emerging(10**4).params, substream(8, 0, 0)),
        lambda: build_grid(preset_emerging(10**6).params, substream(8, 0, 0)),
        lambda: CellGrid.from_weights([2]),
        lambda: CellGrid.from_weights([3, 2, 3, 7]),
        lambda: CellGrid.from_weights([2, 2, 5, 9, 9, 9, 40]),
    ],
    ids=["industrialized_1e5", "emerging_1e4", "emerging_1e6", "one_cell", "three_classes", "four_classes"],
)
@pytest.mark.parametrize("beta", [1.0, 0.5])
def test_sorted_step_matches_the_class_start_search_bit_for_bit(make, beta):
    # |I| from 1 up to the last count that still sorts, on grids whose last
    # class may hold no node: the same sums, dtype and all, and the same draws
    grid = make()
    switch = next(i for i in itertools.count(1) if not _sparse_is_cheaper(grid, i))
    sizes = sorted({*range(1, 40), *np.geomspace(40, switch - 1, 12).astype(int).tolist(), switch - 1})
    rng, oracle_rng = substream(8, 1, 1), substream(8, 1, 1)
    for infectious in sizes:
        got = _sorted_exposure(ClassTables([grid]), [rng.integers(0, grid.total_weight, infectious)], beta)
        want = _sorted_exposure_by_class_starts(grid, infectious, beta, oracle_rng)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), infectious
    assert rng.random() == oracle_rng.random()


def _exact_q_moments(grid: CellGrid, infectious: int, beta: float) -> tuple[float, float]:
    """E[Q] and E[Q**2] for Q = sum_v p_v X_v, where X_v = 1 - (1 - beta) ** m_v.

    With a_v = (1 - beta p_v) ** |I|: E[X_v] = 1 - a_v, E[X_v X_w] =
    1 - a_v - a_w + (1 - beta p_v - beta p_w) ** |I| for v != w, and
    E[X_v**2] = 1 - 2 a_v + (1 - (2 beta - beta**2) p_v) ** |I|.  Summed per
    class: n_c n_d pairs of distinct cells across classes c != d, and
    n_c (n_c - 1) inside class c.
    """
    n = grid.sizes.astype(float)
    p = grid.values / grid.total_weight
    a = (1 - beta * p) ** infectious
    cross = 1 - a[:, None] - a + (1 - beta * p[:, None] - beta * p) ** infectious
    same = 1 - 2 * a + (1 - (2 * beta - beta**2) * p) ** infectious
    pairs = np.outer(n, n) - np.diag(n)
    second = np.outer(p, p) * (pairs * cross + np.diag(n * same))
    return float(np.sum(n * p * (1 - a))), float(second.sum())


def test_exact_q_moments_match_the_enumerated_factorial_moments():
    # given the infectious placement each of |U| nodes is infected with
    # probability Q, independently: E[new] = |U| E[Q] and
    # E[new (new - 1)] = |U| (|U| - 1) E[Q**2]
    gen = np.random.default_rng(4103)
    for _ in range(40):
        weights = [int(w) for w in gen.integers(2, 9, size=int(gen.integers(1, 7)))]
        i_count, u_count, r_count = (int(c) for c in gen.integers([1, 1, 0], [4, 4, 3]))
        beta = float(gen.choice([1.0, 0.5, 0.3]))
        grid = CellGrid.from_weights(weights)
        statuses = [INFECTED] * i_count + [UNINFECTED] * u_count + [RECOVERED] * r_count
        pmf = enumerate_step(grid, statuses, beta)
        new = np.arange(pmf.size)
        mean, second = _exact_q_moments(grid, i_count, beta)
        case = (weights, statuses, beta)
        np.testing.assert_allclose(pmf @ new, u_count * mean, rtol=1e-12, err_msg=str(case))
        np.testing.assert_allclose(
            pmf @ (new * (new - 1)), u_count * (u_count - 1) * second, rtol=1e-12, atol=1e-15,
            err_msg=str(case),
        )


@pytest.mark.parametrize("beta", [1.0, 0.5])
@pytest.mark.parametrize("infectious, sorted_path", [(2000, True), (50_000, False)])
def test_one_step_exposure_has_the_exact_mean_at_real_k(infectious, sorted_path, beta):
    # each of |I| nodes lands on a given cell of class c with probability
    # p_c = v_c / W and infects it with probability beta, independently, so
    # E[Q] = sum_c n_c p_c (1 - (1 - beta p_c) ** |I|): a check of law, not of
    # bytes, on both placement paths
    grid = build_grid(preset_emerging(10**6).params, substream(1, 0, 0))
    assert _sparse_is_cheaper(grid, infectious) == sorted_path
    p = grid.values / grid.total_weight
    exact = float(np.sum(grid.sizes * p * -np.expm1(infectious * np.log1p(-beta * p))))
    rng = substream(1, 0, 2)
    # Q as count_step weights each class's exposure
    q = [
        float((grid.values * _class_exposure(grid, infectious, beta, rng) / grid.total_weight).sum())
        for _ in range(400)
    ]
    z = (np.mean(q) - exact) / (np.std(q, ddof=1) / np.sqrt(len(q)))
    assert abs(z) <= 4.0, (exact, np.mean(q), z)
    # the same draws against the exact variance E[Q**2] - E[Q]**2
    ratio = np.var(q, ddof=1) / (_exact_q_moments(grid, infectious, beta)[1] - exact**2)
    assert 0.7 <= ratio <= 1.4, ratio


def test_segment_step_draws_are_pinned():
    # |I| = 8000 on a 1e4-cell grid is placed piece by piece: the outcome
    # and the next draw of each stream of engine_version 0.8.0 at this seed
    params = preset_emerging(10**4).params
    grid = build_grid(params, substream(3, 0, 0))
    assert not _sparse_is_cheaper(grid, 8000)
    streams = ReplicateStreams.from_seed(3, 0)
    report = count_step(CountState(2000, 0, {0: 8000}), grid, params, streams)
    assert report.new_infections_by_group.tolist() == [0, 447, 385, 256, 137]
    assert streams.movement.random() == 0.35736369601431195
    assert streams.transmission.random() == 0.7417545388313971


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
    monkeypatch.setattr(harness, "init_population", refuse)
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
    # the harness logs each step's cell array uncopied; rows that shared one
    # buffer would all hold the last step's cells and fail the audit
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


def _step_peak(n: int, infectious: int, beta: float = 1.0) -> tuple[int, CellGrid]:
    """tracemalloc peak of one count step with `infectious` nodes, and the grid it ran on."""
    params = dataclasses.replace(preset_emerging(n).params, beta=beta)
    grid = build_grid(params, substream(5, 0, 0))
    state = CountState(params.n - infectious, 0, {0: infectious})
    tracemalloc.start()
    try:
        report = count_step(state, grid, params, substream(5, 0, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.new_infections_total > 0
    return peak, grid


def _dense_step_peak(n: int, infectious: int) -> tuple[int, int]:
    """tracemalloc peak of one dense count step, and its bound.

    The bound is 64 bytes per block cell, chunk placement and piece: just
    over 8 MiB with the default 2**16-cell blocks and 2**16-placement chunks.
    """
    peak, grid = _step_peak(n, infectious)
    pieces = grid.pieces.pick.size  # built by the step, inside the traced peak
    return peak, 64 * (attractiveness.BLOCK_CELLS + dynamics.CHUNK_PLACEMENTS + pieces)


@pytest.mark.parametrize("beta", [1.0, 0.5])
def test_sorted_count_step_memory_per_node(beta):
    # |I| = 1e5 on a 1e8-cell grid sorts: it holds a few numbers a node and
    # nothing of length K.  engine_version 0.7.0, which placed these nodes
    # with choose_cells and collapsed them with np.unique, peaked at 41-43
    # bytes a node here
    infectious = 100_000
    peak, grid = _step_peak(10**8, infectious, beta)
    assert _sparse_is_cheaper(grid, infectious)
    assert peak <= 41 * infectious


def test_dense_count_step_memory_is_bounded():
    # |I| = 6e5 on a 1e6-cell grid: placements are drawn block by block
    # and chunk by chunk, so nothing of length |I| or K is held
    peak, bound = _dense_step_peak(10**6, 600_000)
    assert peak < bound


def test_count_step_memory_is_bounded_at_1e8_cells():
    # |I| = 1.2e7 on a 1e8-cell grid, where sorting the placed cells held
    # 708 MiB: the cost switch places these nodes block by block
    peak, bound = _dense_step_peak(10**8, 12_000_000)
    assert peak < bound


def test_cost_switch_sorts_small_outbreaks_and_segments_large_ones():
    # steps of up to |I| = 3200 on the 1.6e5-cell awareness grid (that
    # workload's own stay under 500) and every industrialized step stay
    # sorted; large outbreaks go by pieces.  The rule switches at |I| = 4322
    # on the awareness grid, 10 884 at K = 1e6 and 784 322 at K = 1e8
    aware = dataclasses.replace(preset_emerging(10**4).params, alpha=6.0, kappa=16.0, tau=2)
    assert _sparse_is_cheaper(build_grid(aware, substream(1, 0, 0)), 3200)
    assert _sparse_is_cheaper(build_grid(preset_industrialized(10**5).params, substream(1, 0, 0)), 1000)
    emerging = build_grid(preset_emerging(10**6).params, substream(1, 0, 0))
    assert _sparse_is_cheaper(emerging, 10_000) and not _sparse_is_cheaper(emerging, 100_000)
    assert not _sparse_is_cheaper(build_grid(preset_emerging(10**8).params, substream(1, 0, 0)), 2 * 10**6)


class _Recorder:
    """A Generator stand-in that records the draws _class_exposure makes."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.bit_generator = self
        self.counts = None
        self.words = []

    def multinomial(self, n, pvals):
        self.counts = self.rng.multinomial(n, pvals)
        return self.counts

    def random_raw(self, size):
        self.words.append(self.rng.bit_generator.random_raw(size))
        return self.words[-1]


@given(
    data=st.data(),
    beta=st.sampled_from([1.0, 0.5, 0.0]),
    block=st.integers(1, 40),
    chunk=st.integers(1, 70),
)
@settings(max_examples=80, deadline=None)
def test_exposure_sums_match_a_direct_count(data, beta, block, chunk):
    # up to 180 cells and 60 nodes, collapsed by sorting and placed piece
    # by piece, with blocks of 1 to 40 cells and chunks of 1 to 70 placements
    sizes = np.array(data.draw(st.lists(st.integers(1, 30), min_size=1, max_size=6)), dtype=np.int64)
    num_cells = int(sizes.sum())
    cell_class = np.repeat(np.arange(sizes.size), sizes)

    def direct(cells):
        per_cell = 1.0 - (1.0 - beta) ** np.bincount(cells, minlength=num_cells)
        return [per_cell[cell_class == c].sum() for c in range(sizes.size)]

    grid = CellGrid(np.arange(2, 2 + sizes.size), sizes)
    # the sorted step collapses the drawn integers of [0, W) as they come;
    # grid.cell_of is the cell of each integer, built without place()
    x = np.array(
        data.draw(st.lists(st.integers(0, grid.total_weight - 1), min_size=1, max_size=60)), dtype=np.int64
    )
    exposure = _sorted_exposure(ClassTables([grid]), [x.copy()], beta)
    np.testing.assert_allclose(exposure, direct(grid.cell_of[x]), rtol=1e-12, atol=1e-12)

    with pytest.MonkeyPatch.context() as mp:
        calls = _force_pieces(mp, block, chunk)
        grid = CellGrid(np.arange(2, 2 + sizes.size), sizes)
        pieces = grid.pieces
        rng = _Recorder(substream(4104, num_cells, 2))
        exposure = _class_exposure(grid, x.size, beta, rng)
        assert _only_pieces(calls), calls
    # pieces are powers of two that tile each class and never cross a block
    length = pieces.mask.astype(np.int64) + 1
    assert np.all(length & (length - 1) == 0)
    block_of = np.searchsorted(pieces.block_first, np.arange(length.size), side="right") - 1
    start = block_of * block + pieces.offset
    assert np.all(pieces.offset + length <= block)
    np.testing.assert_array_equal(start, np.cumsum(length) - length)
    np.testing.assert_array_equal(np.add.reduceat(length, pieces.class_first), sizes)
    assert length.size <= block.bit_length() * (num_cells // block + sizes.size)
    # block by block, each chunk of at most `chunk` nodes takes its own words,
    # four lanes a word from the low bits up, one lane a node
    words = iter(rng.words)
    placed = []
    for lo, hi in zip(pieces.block_first, np.append(pieces.block_first[1:], length.size)):
        nodes = np.repeat(np.arange(lo, hi), rng.counts[lo:hi])
        for first in range(0, nodes.size, chunk):
            piece = nodes[first:first + chunk]
            raw = next(words)
            assert raw.size == -(-piece.size // 4)
            lanes = np.array([int(w) >> 16 * j & 0xFFFF for w in raw for j in range(4)])
            placed.append(start[piece] + (lanes[:piece.size] & (length[piece] - 1)))
    assert next(words, None) is None
    placed = np.concatenate(placed)
    assert placed.size == x.size
    np.testing.assert_allclose(exposure, direct(placed), rtol=1e-12, atol=1e-12)


def _slots_exposure_matches_each_alone(grids: list, draws: list, betas: list) -> None:
    """Each slot's classes get, bit for bit, the sums its own draws give on its grid alone."""
    tables = ClassTables(grids)
    shifted = [x + shift for x, shift in zip(draws, tables.weight_offset)]
    beta = betas[0] if len(set(betas)) == 1 else np.repeat(betas, tables.classes)
    together = _sorted_exposure(tables, shifted, beta)
    alone = [_sorted_exposure(ClassTables([g]), [x.copy()], b) for g, x, b in zip(grids, draws, betas)]
    if all(b >= 1.0 for b in betas):
        assert together.dtype == alone[0].dtype
    np.testing.assert_array_equal(together, np.concatenate(alone).astype(together.dtype))


@pytest.mark.parametrize("beta", [1.0, 0.5])
def test_slots_laid_end_to_end_never_share_a_cell(beta):
    # slot 0's last occupied cell and slot 1's first carry the same number
    # on their own grids, 1; numbered per slot, their runs would merge into
    # one cell hit twice, and slot 1 would lose its exposure
    grid = CellGrid.from_weights([2, 2, 3])
    _slots_exposure_matches_each_alone(
        [grid, grid], [np.array([0, 2, 3]), np.array([2, 3, 5])], [beta, beta]
    )


@given(data=st.data(), slots=st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_slots_laid_end_to_end_sum_as_each_alone(data, slots):
    # up to four small grids with up to 30 nodes each, beta 1, 0.5 or 0 per
    # slot: a slot's sums do not depend on the slots it is placed with
    grids, draws, betas = [], [], []
    for _ in range(slots):
        sizes = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
        grids.append(CellGrid(np.arange(2, 2 + len(sizes)), sizes))
        top = grids[-1].total_weight - 1
        draws.append(np.array(data.draw(st.lists(st.integers(0, top), max_size=30)), dtype=np.int64))
        betas.append(data.draw(st.sampled_from([1.0, 0.5, 0.0])))
    _slots_exposure_matches_each_alone(grids, draws, betas)


def _reference_pieces(grid: CellGrid, block: int) -> attractiveness.Pieces:
    """Pieces segment by segment: the binary digits of each length, highest first."""
    starts = grid.start.tolist()
    cuts = sorted({*starts, *range(0, grid.num_cells, block), grid.num_cells})
    pick, offset, mask, class_first, block_first = [], [], [], [], []
    for lo, hi in zip(cuts, cuts[1:]):
        if lo in starts:
            class_first.append(len(pick))
        if lo % block == 0:
            block_first.append(len(pick))
        value = int(grid.values[np.searchsorted(grid.start, lo, side="right") - 1])
        for k in reversed(range((hi - lo).bit_length())):
            if (hi - lo) >> k & 1:
                pick.append(value * 2**k / grid.total_weight)
                offset.append(lo % block)
                mask.append(2**k - 1)
                lo += 2**k
    return attractiveness.Pieces(
        np.array(pick, dtype=np.float64),
        np.array(offset, dtype=np.uint16),
        np.array(mask, dtype=np.uint16),
        np.array(class_first, dtype=np.intp),
        np.array(block_first, dtype=np.intp),
    )


def _assert_same_pieces(pieces: attractiveness.Pieces, expected: attractiveness.Pieces) -> None:
    for name, got, want in zip(expected._fields, pieces, expected):
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)


@given(
    values=st.lists(st.integers(2, 50), min_size=1, max_size=6, unique=True),
    sizes=st.lists(st.integers(1, 100), min_size=6, max_size=6),
    block=st.integers(1, 40),
)
@settings(max_examples=100, deadline=None)
def test_pieces_are_each_segments_binary_digits_in_order(values, sizes, block):
    values = sorted(values)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(attractiveness, "BLOCK_CELLS", block)
        grid = CellGrid(values, sizes[:len(values)])
        _assert_same_pieces(grid.pieces, _reference_pieces(grid, block))


def test_pieces_of_an_emerging_grid_match_the_reference():
    grid = build_grid(preset_emerging(10**6).params, substream(1, 0, 0))
    pieces = grid.pieces
    assert pieces.pick.size == 517 and pieces.block_first.size == 16
    _assert_same_pieces(pieces, _reference_pieces(grid, attractiveness.BLOCK_CELLS))


def test_lanes_are_16_bit_slices_of_the_raw_words_from_the_low_end():
    # lane j of a word is (word >> 16 * j) & 0xFFFF on any host byte order
    words = substream(9, 0, 2).bit_generator.random_raw(3)
    lanes = dynamics._lanes(substream(9, 0, 2), 10)
    assert lanes.dtype == np.uint16 and lanes.size == 10
    assert lanes.tolist() == [int(w) >> 16 * j & 0xFFFF for w in words for j in range(4)][:10]
