"""Grid construction and exact cell choice, by table lookup or class search."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epimob import (
    CellGrid,
    ConfigError,
    EpidemicParams,
    attractiveness_cutoff,
    build_grid,
    choose_cells,
    power_law_pmf,
)
from epimob import harness
from epimob.attractiveness import DIRECT_PER_CLASS
from epimob.rng import substream
from epimob.scenario import ParamOverlay, preset_emerging, preset_industrialized


def test_pmf_single_point_support():
    np.testing.assert_allclose(power_law_pmf(2, 2), [1.0])


def test_pmf_two_point_support():
    # weights 1/4 and 1/9 normalize to 9/13 and 4/13
    np.testing.assert_allclose(power_law_pmf(2, 3), [9 / 13, 4 / 13])


def test_pmf_matches_direct_summation():
    # independent recomputation of the normalization by explicit fsum
    table = power_law_pmf(2.8, 26)
    norm = math.fsum(i**-2.8 for i in range(2, 27))
    for i, p in enumerate(table):
        assert p == pytest.approx((i + 2) ** -2.8 / norm, abs=1e-15)
    assert abs(table.sum() - 1.0) < 1e-12
    assert table[0] / table[1] == pytest.approx(1.5**2.8, rel=1e-12)


def test_pmf_rejects_degenerate_support():
    with pytest.raises(ValueError):
        power_law_pmf(2.8, 1)
    with pytest.raises(ValueError):
        power_law_pmf(2.8, -3)


def test_pmf_is_cached_and_read_only():
    table = power_law_pmf(2.8, 26)
    assert power_law_pmf(2.8, 26) is table
    with pytest.raises(ValueError):
        table[0] = 0.5


@given(alpha=st.floats(2.01, 8.0), max_attr=st.integers(2, 400))
def test_pmf_sums_to_one(alpha, max_attr):
    assert abs(power_law_pmf(alpha, max_attr).sum() - 1.0) < 1e-12


def test_cutoff_examples():
    assert attractiveness_cutoff(1024, 1, 2) == 32
    assert attractiveness_cutoff(100_000, 16, 6) == 10
    assert attractiveness_cutoff(10_000, 1, 2.8) == 26
    # exact integer power lands on the boundary, not one below
    assert attractiveness_cutoff(32_768, 1, 5) == 8


@given(n=st.integers(4, 10**7), alpha=st.floats(2.05, 8.0))
def test_cutoff_is_the_integer_floor(n, alpha):
    m = attractiveness_cutoff(n, 1.0, alpha)
    assert m >= 1
    assert m**alpha <= n * (1 + 1e-9)
    assert (m + 1) ** alpha > n * (1 - 1e-9)


def test_params_validation():
    good = dict(n=10_000, alpha=2.8, kappa=1.0, tau=2)
    EpidemicParams(**good)
    with pytest.raises(ConfigError, match="alpha must exceed 2"):
        EpidemicParams(**{**good, "alpha": 1.5})
    with pytest.raises(ConfigError, match="alpha must exceed 2"):
        EpidemicParams(**{**good, "alpha": 2.0})
    with pytest.raises(ConfigError):
        EpidemicParams(**{**good, "kappa": 0.0})
    with pytest.raises(ConfigError):
        EpidemicParams(**{**good, "tau": 0})
    with pytest.raises(ConfigError):
        EpidemicParams(**{**good, "beta": 1.5})
    with pytest.raises(ConfigError):
        EpidemicParams(**{**good, "initial_infected": 0})
    with pytest.raises(ConfigError):
        EpidemicParams(**{**good, "initial_infected": 10_001})
    with pytest.raises(ConfigError):
        EpidemicParams(**{**good, "max_steps": 0})
    with pytest.raises(ConfigError, match="n must be"):
        EpidemicParams(**{**good, "n": True})
    assert EpidemicParams(**{**good, "n": np.int64(10_000)}).num_cells == 10_000


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: EpidemicParams(n=100, kappa=10**400), "kappa must be positive"),
        (lambda: EpidemicParams(n=100, alpha=10**400), "alpha must exceed 2"),
        (lambda: ParamOverlay(kappa=10**400), "kappa must be positive"),
        (lambda: ParamOverlay(alpha=-(10**400)), "alpha must exceed 2"),
    ],
    ids=["params_kappa", "params_alpha", "overlay_kappa", "overlay_alpha"],
)
def test_an_int_too_large_for_a_float_fails_its_row(make, message):
    # math.isfinite raised OverflowError on these instead of the row's ConfigError
    with pytest.raises(ConfigError, match=f"^{message}$"):
        make()


@pytest.mark.parametrize(
    "n, kappa, alpha",
    [
        (100, 1e308, 2.8),  # round(kappa * n) overflowed int()
        (100, 1e200, 2.8),  # the cutoff walked down from m ~ 1.5e72 one step at a time
        (4 * 10**18, 1.0, 2.8),  # the int64 total weight wrapped negative
        (2**62, 1.0, 60.0),  # m = 2, so W could reach K * m = 2**63
    ],
)
def test_params_reject_grids_too_large_for_int64(n, kappa, alpha):
    with pytest.raises(ConfigError, match="grid too large"):
        EpidemicParams(n=n, alpha=alpha, kappa=kappa, tau=2)


def test_params_reject_a_population_of_2_to_the_63():
    with pytest.raises(ConfigError, match="n must be a positive integer below 2\\*\\*63"):
        EpidemicParams(n=2**63, alpha=2.8, kappa=1e-12, tau=2)


def test_largest_grid_weight_fits_int64():
    # K = 2**62 - 2**10 cells of weight 2: W = 2**63 - 2**11, just inside the bound
    params = EpidemicParams(n=2**62 - 2**10, alpha=60.0, kappa=1.0, tau=2)
    grid = build_grid(params, substream(0, 0, 0))
    assert grid.values.tolist() == [2]
    assert grid.total_weight == 2 * params.num_cells == 2**63 - 2**11


def test_params_rejects_empty_attractiveness_support():
    # floor(7 ** (1/3)) = 1 < 2: no admissible weight exists
    with pytest.raises(ConfigError, match="support"):
        EpidemicParams(n=7, alpha=3.0, kappa=1.0, tau=1)


def test_params_cell_count_rounding():
    assert EpidemicParams(n=1000, alpha=2.5, kappa=0.0805, tau=1).num_cells == 80
    assert EpidemicParams(n=10_000, alpha=2.8, kappa=1.0, tau=2).num_cells == 10_000


def test_build_grid_cutoff_value():
    params = EpidemicParams(n=1024, alpha=2.2, kappa=1.0, tau=1)
    grid = build_grid(params, substream(0, 0, 0))
    assert params.max_attractiveness == attractiveness_cutoff(1024, 1.0, 2.2)
    assert grid.values[-1] <= params.max_attractiveness
    assert grid.num_cells == 1024


def test_build_grid_deterministic():
    params = EpidemicParams(n=5000, alpha=2.8, kappa=1.0, tau=2)
    a = build_grid(params, substream(123, 0, 0))
    b = build_grid(params, substream(123, 0, 0))
    np.testing.assert_array_equal(a.attractiveness, b.attractiveness)
    c = build_grid(params, substream(124, 0, 0))
    assert not np.array_equal(a.attractiveness, c.attractiveness)


def test_build_grid_support_range():
    params = EpidemicParams(n=10_000, alpha=2.8, kappa=1.0, tau=2)
    grid = build_grid(params, substream(7, 0, 0))
    assert grid.attractiveness.min() >= 2
    assert grid.attractiveness.max() <= params.max_attractiveness == 26


def test_build_grid_lowest_weight_frequency():
    # the pmf itself supplies the expected fraction of weight-2 cells
    params = EpidemicParams(n=10_000, alpha=2.8, kappa=1.0, tau=2)
    grid = build_grid(params, substream(42, 0, 0))
    p2 = power_law_pmf(params.alpha, params.max_attractiveness)[0]
    observed = np.mean(grid.attractiveness == 2)
    se = math.sqrt(p2 * (1 - p2) / params.num_cells)
    assert abs(observed - p2) <= 3 * se


def test_cell_grid_validation():
    with pytest.raises(ValueError):
        CellGrid.from_weights([])
    with pytest.raises(ValueError):
        CellGrid.from_weights([1, 2])
    with pytest.raises(ValueError):
        CellGrid.from_weights([-1, 3])
    # non-integer weights are refused, not truncated or parsed
    with pytest.raises(ValueError, match="integers"):
        CellGrid.from_weights([2.7, 3.9])
    with pytest.raises(ValueError, match="integers"):
        CellGrid.from_weights(["2", "3"])
    with pytest.raises(ValueError):
        CellGrid(np.array([3, 2]), np.array([1, 1]))
    with pytest.raises(ValueError):
        CellGrid(np.array([2, 3]), np.array([1, 0]))


def test_cell_grid_rejects_grids_too_large_for_int64():
    # W = 2**63 would wrap to -2**63
    with pytest.raises(ValueError, match="grid too large"):
        CellGrid.from_weights([2**62, 2**62])
    # W fits, but place() would reach (x + base) of about 1001 * 10**16
    with pytest.raises(ValueError, match="grid too large"):
        CellGrid.from_weights([2] * 1000 + [10**16])
    # just inside the bound, K * (2**62 - 1) = 2**63 - 2: every x + base stays below it
    grid = CellGrid(np.array([2, 2**62 - 1]), np.array([1, 1]))
    assert grid.total_weight == 2**62 + 1
    assert (choose_cells(grid, np.random.default_rng(0), 1000) == 1).all()


_SHAPE = "values and sizes must be non-empty 1-d arrays of one length"
_VALUES = "values must increase from at least 2"
_SIZES = "every class must hold at least one cell"
_TOO_LARGE = "grid too large: num_cells * the largest weight must be below 2**63"


@pytest.mark.parametrize(
    "values, sizes, message",
    [
        ([], [], _SHAPE),
        ([2, 3], [1], _SHAPE),
        ([[2, 3]], [[1, 1]], _SHAPE),
        ([1, 3], [1, 1], _VALUES),
        ([2, 3, 3], [1, 1, 1], _VALUES),
        ([2, 5, 4], [1, 1, 1], _VALUES),
        # the values are checked before the sizes
        ([3, 2], [1, 0], _VALUES),
        ([2, 3], [1, 0], _SIZES),
        ([2, 3], [0, 1], _SIZES),
        ([2, 3], [5, -2], _SIZES),
        # a size below 1 is named even where the cell total also wraps
        ([2, 3, 4], [2**62, 2**62, -1], _SIZES),
        # K fits int64, but K * the largest weight reaches 2**63
        ([2, 10**16], [1000, 1], _TOO_LARGE),
        ([2, 2**62], [1, 1], _TOO_LARGE),
        # K wraps int64, to a negative total or back to a positive one
        ([2, 3], [2**62, 2**62], _TOO_LARGE),
        ([2, 3, 4], [2**63 - 1, 2**63 - 1, 3], _TOO_LARGE),
    ],
)
def test_cell_grid_rejects_each_invalid_input_with_its_message(values, sizes, message):
    with pytest.raises(ValueError) as exc:
        CellGrid(np.array(values, dtype=np.int64), np.array(sizes, dtype=np.int64))
    assert str(exc.value) == message


def test_band_is_the_exact_floor_log2_of_each_weight():
    # below 2**53 that is np.frexp's exponent less one, int32 included, so
    # no preset grid's bands moved
    for top in [3, 1023, 1024, 5000, 2**16 - 1, 2**16, 2**17 + 3, 2**40, 2**53 - 1]:
        values = np.unique(np.linspace(2, top, 60).astype(np.int64))
        grid = CellGrid(values, np.ones_like(values))
        want = np.frexp(values)[1] - 1
        assert grid.band.dtype == want.dtype, top
        np.testing.assert_array_equal(grid.band, want, err_msg=str(top))
        assert grid.num_bands == int(want[-1]) + 1
    # above, a double can round v up to a power of two; every band must still
    # have its column, so a count step reports each new case in a real band
    for top in [2**53 + 1, 2**60 - 1, 2**62 - 1]:
        grid = CellGrid(np.array([2, top]), np.array([1, 1]))
        assert grid.band.tolist() == [1, top.bit_length() - 1]
        assert grid.num_bands == top.bit_length()


def test_cell_grid_basic_fields():
    grid = CellGrid.from_weights(np.array([2, 3, 4, 4, 8], dtype=np.uint8))
    assert grid.total_weight == 21
    assert grid.num_cells == 5
    assert grid.values[-1] == 8
    assert grid.num_bands == 4
    np.testing.assert_array_equal(grid.weight_bounds, [0, 2, 5, 13, 21])
    probs = grid.choice_probabilities()
    assert abs(probs.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(probs, np.array([2, 3, 4, 4, 8]) / 21)
    np.testing.assert_array_equal(grid.cell_group, [1, 1, 2, 2, 3])


def _reference_tables(weights: np.ndarray) -> dict:
    """Class tables by counting distinct weights; cells in sorted order."""
    values, sizes = np.unique(weights, return_counts=True)
    ordered = np.sort(weights)
    total = int(weights.sum())
    return {
        "values": values,
        "sizes": sizes,
        "start": np.cumsum(sizes) - sizes,
        "weight_bounds": np.append(0, np.cumsum(values * sizes)),
        "total_weight": total,
        "band": np.floor(np.log2(values)).astype(int),
        "num_bands": int(np.floor(np.log2(values[-1]))) + 1,
        "attractiveness": ordered,
        "cell_group": np.floor(np.log2(ordered)).astype(np.int16),
    }


@settings(max_examples=60)
@given(
    weights=st.one_of(
        st.lists(st.integers(2, 9), min_size=1, max_size=300),
        # weights above 2**16
        st.lists(st.integers(2, 70_000), min_size=1, max_size=300),
        st.lists(st.integers(2, 70_000), min_size=1, max_size=300).map(sorted),
        st.tuples(st.integers(2, 70_000), st.integers(1, 300)).map(lambda t: [t[0]] * t[1]),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_grid_class_tables_match_unique_reference(weights, seed):
    w = np.array(weights, dtype=np.int64)
    grid = CellGrid.from_weights(w)
    ref = _reference_tables(w)
    for name, expected in ref.items():
        np.testing.assert_array_equal(getattr(grid, name), expected, err_msg=name)
    assert grid.start.dtype == grid.weight_bounds.dtype == np.int64
    assert grid.weight_bounds[-1] == grid.total_weight
    assert grid.cell_group.dtype == np.int16
    # a draw x in [0, W) lands on the first cell whose running weight exceeds x
    x = np.random.default_rng(seed).integers(0, ref["total_weight"], 200)
    cells = choose_cells(grid, np.random.default_rng(seed), 200)
    np.testing.assert_array_equal(cells, np.searchsorted(np.cumsum(ref["attractiveness"]), x, side="right"))


class _EveryInteger:
    """Stands in for a Generator: integers(0, W, size) calls yield 0, 1, ..., W - 1, 0, 1, ... in turn."""

    def __init__(self):
        self.next = 0

    def integers(self, low, high, size):
        assert low == 0
        self.next += size
        return np.arange(self.next - size, self.next) % high


def _weights_totalling(total):
    # one or two 3s and the rest 2s: two classes, so W = 64 is the largest
    # total that choose_cells reads from grid.cell_of
    threes = 1 if total % 2 else 2
    return [3] * threes + [2] * ((total - 3 * threes) // 2)


def _direct(grid):
    return grid.total_weight <= DIRECT_PER_CLASS * grid.values.size


def _cached_tables(grid):
    return {"cell_of"} & set(vars(grid))


@settings(max_examples=60)
@given(
    weights=st.one_of(
        st.lists(st.integers(2, 9), min_size=1, max_size=200),
        st.lists(st.integers(2, 2**17), min_size=1, max_size=12),
        st.tuples(st.integers(2, 2**17), st.integers(1, 12)).map(lambda t: [t[0]] * t[1]),
    ),
)
# W = 32 * m and W = 32 * m + 1, at one class and at two
@example(weights=[2] * 16)
@example(weights=[3] * 11)
@example(weights=_weights_totalling(64))
@example(weights=_weights_totalling(65))
def test_choose_cells_is_exact_in_law(weights):
    # every integer in [0, W) drawn once lands d_v times on each cell v; the
    # grid alone picks the path
    grid = CellGrid.from_weights(weights)
    np.testing.assert_array_equal(grid.attractiveness, np.sort(weights))
    cells = choose_cells(grid, _EveryInteger(), grid.total_weight)
    np.testing.assert_array_equal(np.bincount(cells, minlength=grid.num_cells), grid.attractiveness)
    if _direct(grid):
        assert _cached_tables(grid) == {"cell_of"} and grid.cell_of.size == grid.total_weight
    else:
        assert _cached_tables(grid) == set()


def _searched_cells(grid, x):
    c = grid.weight_bounds.searchsorted(x, side="right") - 1
    return grid.start[c] + (x - grid.weight_bounds[c]) // grid.values[c]


@pytest.mark.parametrize(
    "weights, direct",
    [
        pytest.param([2, 3, 3, 5, 7, 8], True, id="direct"),
        pytest.param([2] * 16, True, id="1-class-W=32"),
        pytest.param([3] * 11, False, id="1-class-W=33"),
        *(pytest.param(_weights_totalling(64 + d), d <= 0, id=f"2-classes-W=64{d:+d}") for d in (-1, 0, 1)),
        pytest.param([2, 3, 4, 5, 6, 7, 8] + [9] * 300, False, id="8-classes"),
        pytest.param([2] * 40 + [3] * 30 + [5] * 7 + [9] * 100 + [9000] * 3, False, id="5-classes"),
        pytest.param(list(range(2, 80)) * 30, False, id="78-classes"),
    ],
)
def test_choose_cells_matches_the_class_search(weights, direct):
    grid = CellGrid.from_weights(weights)
    m, total = grid.values.size, grid.total_weight
    assert _direct(grid) == direct
    for size in (0, 1, 2 * m, 3 * total + 5):
        x = np.random.default_rng(size).integers(0, total, size)
        cells = choose_cells(grid, np.random.default_rng(size), size)
        assert cells.dtype == np.int64
        np.testing.assert_array_equal(cells, _searched_cells(grid, x))
    assert _cached_tables(grid) == ({"cell_of"} if direct else set())


# sha256 of the cells that 10**6 draws at substream(7, 0, 2) pick on the
# preset_emerging(10**6) grid built at substream(1, 0, 0) (137 classes, so
# searched), as engine_version 0.8.0 draws them
EMERGING_1E6_CELLS = "99b4ee1af65eb527cb02fe53e01a360643282e4c0f3ae5b620648d4649e8a9a8"


def test_emerging_1e6_draws_are_pinned():
    grid = build_grid(preset_emerging(10**6).params, substream(1, 0, 0))
    cells = choose_cells(grid, substream(7, 0, 2), 10**6)
    assert hashlib.sha256(cells.astype("<i8").tobytes()).hexdigest() == EMERGING_1E6_CELLS


@pytest.mark.parametrize(
    "preset, n, beta, cached",
    [
        # sorted count steps only
        pytest.param(preset_industrialized, 10**5, 1.0, set(), id="industrialized_1e5"),
        # dense count steps too
        pytest.param(preset_emerging, 10**5, 1.0, {"pieces"}, id="emerging_1e5"),
        pytest.param(preset_emerging, 50_000, 0.5, {"pieces"}, id="emerging_5e4-beta-0.5"),
    ],
)
def test_count_replicates_cache_no_per_cell_view(monkeypatch, preset, n, beta, cached):
    # a count replicate reads the class tables, and the pieces when it takes
    # dense steps, but never a view of length K
    grids = []

    def keep(params, rng):
        grids.append(build_grid(params, rng))
        return grids[-1]

    monkeypatch.setattr(harness, "build_grid", keep)
    config = preset(n)
    harness.run_replicate(dataclasses.replace(config, params=dataclasses.replace(config.params, beta=beta)), 0)
    assert grids
    for grid in grids:
        assert set(vars(grid)) & {"attractiveness", "cell_group", "cell_of", "pieces"} == cached


def test_choose_single_cell_grid():
    grid = CellGrid.from_weights([5])
    rng = substream(1, 0, 2)
    assert choose_cells(grid, rng, 100).tolist() == [0] * 100


def test_choose_two_cell_proportions():
    # weights [2, 4] force probabilities [1/3, 2/3]
    grid = CellGrid.from_weights([2, 4])
    draws = choose_cells(grid, substream(5, 0, 2), 100_000)
    freq = np.mean(draws == 1)
    se = math.sqrt((2 / 3) * (1 / 3) / 100_000)
    assert abs(freq - 2 / 3) <= 3 * se


def test_choose_three_cell_proportions_large_sample():
    grid = CellGrid.from_weights([2, 2, 4])
    n_draws = 1_000_000
    draws = choose_cells(grid, substream(11, 0, 2), n_draws)
    counts = np.bincount(draws, minlength=3)
    for cell, p in enumerate([0.25, 0.25, 0.5]):
        se = math.sqrt(p * (1 - p) / n_draws)
        assert abs(counts[cell] / n_draws - p) <= 3 * se


def test_choice_aggregates_by_attractiveness_class():
    # P(landing in some weight-d cell) = (count of d-cells) * d / W
    grid = CellGrid.from_weights([2, 2, 3, 7, 7, 7])
    n_draws = 200_000
    draws = choose_cells(grid, substream(13, 0, 2), n_draws)
    node_counts = np.bincount(grid.attractiveness[draws])[grid.values]
    assert node_counts.sum() == n_draws
    for value, cells, nodes in zip(grid.values, grid.sizes, node_counts):
        p = cells * value / grid.total_weight
        se = math.sqrt(p * (1 - p) / n_draws)
        assert abs(nodes / n_draws - p) <= 4 * se


@settings(max_examples=25)
@given(
    weights=st.lists(st.integers(2, 9), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_choice_frequencies_track_weights(weights, seed):
    grid = CellGrid.from_weights(weights)
    n_draws = 20_000
    draws = choose_cells(grid, substream(seed, 0, 2), n_draws)
    freq = np.bincount(draws, minlength=grid.num_cells) / n_draws
    probs = grid.choice_probabilities()
    # 5 standard errors keeps the derandomized sweep stable
    bound = 5 * np.sqrt(probs * (1 - probs) / n_draws) + 1e-9
    assert np.all(np.abs(freq - probs) <= bound)

