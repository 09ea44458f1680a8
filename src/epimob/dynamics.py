"""Population state and the move / transmit / retire step loop.

Each step j runs three substeps in a fixed order:

1. move:     every node independently relocates to a cell drawn with
             probability proportional to the cell's attractiveness;
2. transmit: every uninfected node sharing a cell with at least one node
             that was already infected before this step becomes infected
             (with probability 1, or per exposure when beta < 1);
3. retire:   every node whose infection is tau steps old moves to the
             recovered pool and never transmits again.

A node infected during step j therefore transmits for the first time in
step j + 1 and is infectious through step j + tau, after which it retires.
Recovered nodes keep relocating but neither transmit nor get infected.

step() is the per-node reference engine: it places all n nodes every step,
in O(n + K).  It takes status == INFECTED once, before transmission, and
transmit and retire share that mask (substep_recover says why that is
exact).  count_step() is the count-level engine, equal in law to it.  It
places only the infectious nodes I.  Given their cells, each uninfected
node independently picks cell v with probability d_v / W and is infected
there with probability 1 - (1 - beta) ** m_v, m_v being the number of
infectious nodes in v.  So the step's new infections are Binomial(|U|, Q),
with Q = sum_v (d_v / W) * (1 - (1 - beta) ** m_v), and their split over
attractiveness bands is Multinomial(new, each band's share of Q).
Recovered nodes need no placing at all.  Its state is |U|, the recovered
count and the infection cohorts, keyed by infection step, so nothing it
holds grows with n or K.

A count step places its nodes one of two ways, chosen from |I| and K alone
(_sparse_is_cheaper).  A small step draws what choose_cells, the per-node
engine's exact sampler, draws: one integer of [0, W) a node.  It sorts
them, so their cells come out sorted and each occupied cell's nodes form
one run, in O(|I| log |I| + m) time and O(|I|) memory, m being the number
of classes.  A large one cuts the cells into power-of-two pieces (see
attractiveness.Pieces), draws how many nodes land on each piece with one
multinomial, and then walks the occupied blocks of BLOCK_CELLS cells, one
pass each: a node lands on cell offset + (lane & (length - 1)) of its
piece's block, a lane being 16 uniform bits of a raw 64-bit word, and the
cell is computed in the lane's own 16 bits.  Masking a uniform lane to a
power-of-two length is exactly uniform, so no draw is
rejected, divided or clamped.  At beta = 1 the hit cells are marked in one
block-sized buffer; below, they are counted per block.  It costs
O(|I| + K) time but holds at most BLOCK_CELLS marks or counts,
CHUNK_PLACEMENTS placements and a few numbers per piece.

Both engines take one CellGrid; only step() makes it build its per-cell views.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import attractiveness
from .attractiveness import CellGrid, EpidemicParams, choose_cells

UNINFECTED = 0
INFECTED = 1
RECOVERED = 2

# infected_at value for nodes that were never infected
NEVER_INFECTED = -1


class StatusCounts(NamedTuple):
    uninfected: int
    infected: int
    recovered: int


@dataclass
class PopulationState:
    """Mutable per-node state advanced in place by the step functions.

    status:       int8 code per node (UNINFECTED, INFECTED, RECOVERED)
    infected_at:  step index at which the node was infected, or
                  NEVER_INFECTED; initial cases carry 0
    current_cell: cell id per node, refreshed by every move substep
    step:         index of the most recently completed step (0 before any)
    """

    status: np.ndarray
    infected_at: np.ndarray
    current_cell: np.ndarray
    step: int = 0

    def counts(self) -> StatusCounts:
        c = np.bincount(self.status, minlength=3)
        return StatusCounts(int(c[UNINFECTED]), int(c[INFECTED]), int(c[RECOVERED]))


@dataclass
class StepReport:
    """What one completed step did, for trace accumulation and replay checks.

    new_infections_by_group[k] counts infections that happened in cells of
    attractiveness band [2**k, 2**(k+1)); index 0 stays zero because cell
    weights start at 2.  It has the grid's num_bands entries.
    """

    step: int
    new_infections_total: int
    new_infections_by_group: np.ndarray
    newly_recovered: int


def init_population(params: EpidemicParams, rng: np.random.Generator) -> PopulationState:
    """Fresh population with `initial_infected` distinct seed cases at step 0."""
    n = params.n
    status = np.zeros(n, dtype=np.int8)
    infected_at = np.full(n, NEVER_INFECTED, dtype=np.int64)
    seeds = rng.choice(n, size=params.initial_infected, replace=False)
    status[seeds] = INFECTED
    infected_at[seeds] = 0
    # placeholder placement; the first move substep overwrites it
    current_cell = np.zeros(n, dtype=np.int64)
    return PopulationState(status, infected_at, current_cell, step=0)


def substep_move(state: PopulationState, grid: CellGrid, rng: np.random.Generator) -> np.ndarray:
    """Relocate every node; returns the new per-node cell assignment."""
    state.current_cell = choose_cells(grid, rng, state.status.size)
    return state.current_cell


def substep_transmit(
    state: PopulationState,
    grid: CellGrid,
    params: EpidemicParams,
    rng: np.random.Generator,
    infected: np.ndarray | None = None,
) -> np.ndarray:
    """Infect exposed nodes; returns the sorted indices of new infections.

    Only nodes that entered the step already infected transmit: `infected`
    is status == INFECTED before the call (step() passes the mask it shares
    with substep_recover).  A node's exposure m counts the infectious nodes
    in its cell, by one bincount over the cells.  Below beta = 1 each exposed
    uninfected node draws one uniform, in node order.
    """
    status = state.status
    cells = state.current_cell
    if infected is None:
        infected = status == INFECTED
    m = np.bincount(cells[infected], minlength=grid.num_cells)[cells]
    # logical_not(status) is status == UNINFECTED, UNINFECTED being 0, and
    # skips comparing an int8 array with a Python int
    newly = np.logical_and(m, np.logical_not(status)).nonzero()[0]
    if params.beta < 1.0 and newly.size:
        newly = newly[rng.random(newly.size) < _infection_probability(m[newly], params.beta)]
    if newly.size:
        status[newly] = INFECTED
        state.infected_at[newly] = state.step
    return newly


def substep_recover(
    state: PopulationState, params: EpidemicParams, infected: np.ndarray | None = None
) -> int:
    """Retire nodes whose infection is at least tau steps old; returns the count.

    `infected` is as in substep_transmit.  The mask from before transmission
    retires the same nodes as a fresh one: a node infected in this step has
    infected_at == step, never tau >= 1 steps old.  The comparison is <=, not
    ==, so a mid-run reduction of tau retires overdue nodes at the next step.
    Every infected node has infected_at >= 0, so before step tau none is due
    and nothing is read.
    """
    if state.step < params.tau:
        return 0
    if infected is None:
        infected = state.status == INFECTED
    done = (infected & (state.infected_at <= state.step - params.tau)).nonzero()[0]
    if done.size:
        state.status[done] = RECOVERED
    return done.size


def _role_streams(rng) -> tuple[np.random.Generator, np.random.Generator]:
    # accept either a bare Generator or a ReplicateStreams-like bundle
    if isinstance(rng, np.random.Generator):
        return rng, rng
    return rng.movement, rng.transmission


def step(
    state: PopulationState,
    grid: CellGrid,
    params: EpidemicParams,
    rng,
) -> StepReport:
    """Advance the population by one full step and report what happened.

    `rng` is either a single Generator (used for both movement and
    transmission draws) or a bundle exposing .movement and .transmission.
    Stepping a run whose infection already died out is allowed and simply
    keeps relocating nodes.
    """
    if state.step >= params.max_steps:
        raise ValueError("run already reached max_steps")
    state.step += 1
    move_rng, transmit_rng = _role_streams(rng)
    substep_move(state, grid, move_rng)
    infected = state.status == INFECTED
    newly = substep_transmit(state, grid, params, transmit_rng, infected)
    retired = substep_recover(state, params, infected)
    if newly.size:
        by_group = np.bincount(grid.cell_group[state.current_cell[newly]], minlength=grid.num_bands)
    else:
        by_group = np.zeros(grid.num_bands, dtype=np.intp)
    return StepReport(
        step=state.step,
        new_infections_total=newly.size,
        new_infections_by_group=by_group,
        newly_recovered=retired,
    )


@dataclass
class CountState:
    """State of the count-level engine, advanced in place by count_step.

    uninfected, recovered: node counts
    cohorts:  infection step -> number of nodes infected at that step that
              have not retired yet; the initial cases are cohort 0
    step:     index of the most recently completed step (0 before any)
    """

    uninfected: int
    recovered: int
    cohorts: dict
    step: int = 0

    @classmethod
    def initial(cls, params: EpidemicParams) -> "CountState":
        """State at step 0: `initial_infected` cases, everyone else uninfected."""
        return cls(params.n - params.initial_infected, 0, {0: params.initial_infected})

    def counts(self) -> StatusCounts:
        return StatusCounts(self.uninfected, sum(self.cohorts.values()), self.recovered)


# A dense count step places at most CHUNK_PLACEMENTS nodes at a time into one
# block's marks or hit counts, so it holds O(BLOCK_CELLS + CHUNK_PLACEMENTS)
# numbers plus a few per piece (at most 16 (K // BLOCK_CELLS + m)), however
# large |I| is.
CHUNK_PLACEMENTS = 2**16

# _probability_table holds hit counts 0 .. TABLE_HITS - 1; a cell with more
# infectious nodes is rare, and such a call builds a table of its own
TABLE_HITS = 65


@lru_cache(maxsize=16)
def _probability_table(beta: float) -> tuple[np.floating, np.ndarray]:
    """log1p(-beta) and 1 - (1 - beta) ** h for h < TABLE_HITS, read-only as it is shared."""
    log_miss = np.log1p(-beta)
    table = -np.expm1(log_miss * np.arange(TABLE_HITS))
    table.flags.writeable = False
    return log_miss, table


def _infection_probability(hits: np.ndarray, beta: float) -> np.ndarray:
    """1 - (1 - beta) ** hits, elementwise; a bool array when beta is 1.

    Both engines call it.  Below 1 the values are -expm1(log1p(-beta) * h),
    looked up in _probability_table, or in a table built up to hits.max()
    when a count lies beyond it.  Each value is the same float64 either
    way, as the product log1p(-beta) * h is.
    """
    if beta >= 1.0:
        return hits > 0
    log_miss, table = _probability_table(beta)
    try:
        return table[hits]
    except IndexError:
        return -np.expm1(log_miss * np.arange(hits.max() + 1))[hits]


def _class_exposure(
    grid: CellGrid, infectious: int, beta: float, rng: np.random.Generator
) -> np.ndarray:
    """Place `infectious` nodes; per class, the sum over its cells of 1 - (1 - beta) ** m_v.

    Each node picks cell v with probability d_v / W.  A small step
    (_sparse_is_cheaper) is placed and collapsed by _sorted_exposure.
    Otherwise the nodes pick a piece (probability v_c * length / W, see
    attractiveness.Pieces) and _piece_exposure places them on its cells.
    Both are the per-node law.
    """
    if _sparse_is_cheaper(grid, infectious):
        return _sorted_exposure(grid, infectious, beta, rng)
    pieces = grid.pieces
    counts = rng.multinomial(infectious, pieces.pick)
    return np.add.reduceat(_piece_exposure(pieces, counts, beta, rng), pieces.class_first)


# A count step sorts while |I| < SORT_NODES + K // SORT_CELLS_PER_NODE and
# goes piece by piece above.  The rule switches at |I| = 10 884 on the
# 1e6-cell preset_emerging grid and 784 322 on the 1e8-cell one, at 3 150 on
# a 1e4-cell grid and at 4 322 on the 1.6e5-cell awareness grid.  Timed on a
# 2-vCPU x86-64 host at beta = 1, with the pieces built, both paths cost the
# same at about 15 000-20 000 nodes at K = 1e6 and 600 000-700 000 at
# K = 1e8; below beta = 1 sorting stays cheaper longer (about 60 000 at
# K = 1e6).  The rule stays where it is: moving it would move draws.
SORT_NODES = 3 * 2**10
SORT_CELLS_PER_NODE = 2**7


def _sparse_is_cheaper(grid: CellGrid, infectious: int) -> bool:
    """Whether sorting the placed cells beats placing piece by piece; reads only |I| and K."""
    return infectious < SORT_NODES + grid.num_cells // SORT_CELLS_PER_NODE


@lru_cache(maxsize=64)
def _class_index(classes: int) -> np.ndarray:
    """0, 1, ..., classes - 1, read-only as it is shared."""
    index = np.arange(classes)
    index.flags.writeable = False
    return index


def _sorted_exposure(
    grid: CellGrid, infectious: int, beta: float, rng: np.random.Generator
) -> np.ndarray:
    """Per class, the sum over its cells v of 1 - (1 - beta) ** m_v, for nodes placed by sorting.

    It draws what choose_cells draws, one integer x uniform on [0, W) a
    node, and sorts x.  A class's integers come before the next class's
    and each of its cells owns a run of them, so one search of sorted x
    for the class bounds gives every node's class, and the cells
    (attractiveness.place) come out sorted too.  A cell is new where it
    differs from the one before; at beta = 1 a class's sum is its number
    of new cells, and below, m_v is the gap from one new cell to the next.
    Each class adds its cells in increasing order, whatever order x was
    drawn in, so its float sum depends only on the cells.
    O(|I| log |I| + m) time, a few numbers a node, nothing of length K.
    """
    x = rng.integers(0, grid.total_weight, infectious)
    x.sort()
    # class c's nodes are bounds[c] up to bounds[c + 1]; every x is below W,
    # so the last bound is |I|
    bounds = x.searchsorted(grid.weight_bounds)
    held = bounds[1:] - bounds[:-1]
    cls = _class_index(held.size).repeat(held)
    attractiveness.place(grid, x, cls)
    # new[i]: node i is the first on its cell; new[|I|] closes the last run
    new = np.empty(infectious + 1, dtype=bool)
    new[0] = new[-1] = True
    np.not_equal(x[1:], x[:-1], out=new[1:-1])
    # each array is freed once used, so a step holds at most four a node
    del x
    if beta >= 1.0:
        return np.bincount(cls[new[:-1]], minlength=held.size)
    first = new.nonzero()[0]
    del new
    hits = first[1:] - first[:-1]
    cls = cls[first[:-1]]
    del first
    return np.bincount(cls, weights=_infection_probability(hits, beta), minlength=held.size)


def _piece_exposure(
    pieces: attractiveness.Pieces, counts: np.ndarray, beta: float, rng: np.random.Generator
) -> np.ndarray:
    """Per piece, the sum over its cells v of 1 - (1 - beta) ** m_v.

    counts[p] nodes land uniformly on the cells of piece p.  Block by block,
    at most CHUNK_PLACEMENTS at a time, a node of piece p lands on cell
    offset[p] + (lane & mask[p]) of its block, a lane being 16 uniform bits
    (_lanes): exactly uniform, since a piece has a power-of-two length.  At
    beta = 1 the cells hit are marked and a piece's sum is its marked cells;
    below, the block's hit counts are kept and looked up in a table of
    1 - (1 - beta) ** h.  Nothing held is longer than a block, a chunk or
    the piece table.
    """
    sums = np.zeros(counts.size)
    # one block-sized buffer a step: the cells hit at beta = 1, else each
    # cell's infection probability (a fresh one per block page-faults)
    marks = np.zeros(attractiveness.BLOCK_CELLS, dtype=bool) if beta >= 1.0 else None
    probs = np.empty(attractiveness.BLOCK_CELLS) if marks is None else None
    totals = np.add.reduceat(counts, pieces.block_first)
    first = pieces.block_first.tolist() + [counts.size]
    for b in totals.nonzero()[0].tolist():
        lo, hi = first[b], first[b + 1]
        offset, mask = pieces.offset[lo:hi], pieces.mask[lo:hi]
        size = int(offset[-1] + mask[-1]) + 1
        hits = None
        for take in _chunks(counts[lo:hi], int(totals[b]), CHUNK_PLACEMENTS):
            # below BLOCK_CELLS, so the cells fit the lanes' own 16 bits
            lanes = mask.repeat(take)
            lanes &= _lanes(rng, lanes.size)
            lanes += offset.repeat(take)
            cells = lanes.astype(np.intp)
            if marks is not None:
                marks[cells] = True
            elif hits is None:
                hits = np.bincount(cells, minlength=size)
            else:
                hits += np.bincount(cells, minlength=size)
        if marks is None:
            table = _infection_probability(np.arange(hits.max() + 1), beta)
            # "clip" writes straight into out ("raise" buffers it); no hit
            # count is out of range
            np.take(table, hits, out=probs[:size], mode="clip")
            sums[lo:hi] = np.add.reduceat(probs[:size], offset)
            continue
        # most blocks are one piece, and count_nonzero is several times faster
        # than a reduceat over the block
        if hi - lo == 1:
            sums[lo] = np.count_nonzero(marks[:size])
        else:
            sums[lo:hi] = np.add.reduceat(marks[:size].view(np.uint8), offset, dtype=np.int32)
        marks[:size] = False
    return sums


def _chunks(counts: np.ndarray, total: int, size: int):
    """Per-piece counts summing to `total`, cut in order into vectors of at most `size` nodes."""
    if total <= size:
        yield counts
        return
    ends = np.cumsum(counts)
    for first in range(0, total, size):
        yield np.clip(ends, first, first + size) - np.clip(ends - counts, first, first + size)


def _lanes(rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` uniform 16-bit lanes from the raw 64-bit words of rng's bit generator.

    Lane j of a word is (word >> 16 * j) & 0xFFFF, whatever the host's byte
    order; the lanes past `count` in the last word are dropped.
    """
    words = rng.bit_generator.random_raw(-(-count // 4))
    return words.astype("<u8", copy=False).view("<u2")[:count]


def count_step(
    state: CountState,
    grid: CellGrid,
    params: EpidemicParams,
    rng,
) -> StepReport:
    """Advance a CountState by one step and report what happened.

    Only grid's class tables are read.  `rng` is a Generator or a bundle exposing
    .movement (placing the infectious nodes) and .transmission (the
    binomial and the band split).  Transmission and retirement follow
    step() exactly, including the <= retire rule.
    """
    if state.step >= params.max_steps:
        raise ValueError("run already reached max_steps")
    state.step += 1
    move_rng, transmit_rng = _role_streams(rng)
    new = 0
    infectious = sum(state.cohorts.values())
    if infectious and state.uninfected:
        exposure = _class_exposure(grid, infectious, params.beta, move_rng)
        # class c's share of Q is (v_c / W) * exposure_c
        bands = np.bincount(
            grid.band, weights=grid.values * exposure / grid.total_weight, minlength=grid.num_bands
        )
        q = np.add.reduce(bands)
        new = int(transmit_rng.binomial(state.uninfected, min(q, 1.0)))
        if new:
            by_group = transmit_rng.multinomial(new, bands / q)
            state.cohorts[state.step] = new
            state.uninfected -= new
    if not new:
        by_group = np.zeros(grid.num_bands, dtype=np.int64)
    retired = 0
    for t in [t for t in state.cohorts if t <= state.step - params.tau]:
        retired += state.cohorts.pop(t)
    state.recovered += retired
    return StepReport(
        step=state.step,
        new_infections_total=new,
        new_infections_by_group=by_group,
        newly_recovered=retired,
    )
