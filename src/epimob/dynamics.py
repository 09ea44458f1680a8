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
in O(n + K).  count_step() is the count-level engine, equal in law to it and
O(|I| + m) per step, where I is the infectious set and m the largest
attractiveness.  It places only the infectious nodes.  Given their cells,
each uninfected node independently picks cell v with probability d_v / W
and is infected there with probability 1 - (1 - beta) ** m_v, m_v being the
number of infectious nodes in v.  So the step's new infections are
Binomial(|U|, Q), with Q = sum_v (d_v / W) * (1 - (1 - beta) ** m_v), and
their split over attractiveness bands is Multinomial(new, each band's share
of Q).  Recovered nodes need no placing at all.  Its state is |U|, the
recovered count and the infection cohorts, keyed by infection step, so
nothing it holds grows with n or K.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
    weights start at 2.
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


def _exposures(
    cells: np.ndarray,
    infectious_idx: np.ndarray,
    target_idx: np.ndarray,
    num_cells: int,
) -> np.ndarray:
    """Count infectious cellmates per target node.

    Uses a sort-and-search path when the active sets are small relative to
    the grid and a bincount over cells otherwise; both give identical counts.
    """
    if (infectious_idx.size + target_idx.size) * 8 < num_cells:
        ic = np.sort(cells[infectious_idx])
        tc = cells[target_idx]
        lo = np.searchsorted(ic, tc, side="left")
        hi = np.searchsorted(ic, tc, side="right")
        return hi - lo
    occupancy = np.bincount(cells[infectious_idx], minlength=num_cells)
    return occupancy[cells[target_idx]]


def substep_transmit(
    state: PopulationState,
    grid: CellGrid,
    params: EpidemicParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Infect exposed nodes; returns the sorted indices of new infections.

    Only nodes that entered the step already infected transmit.
    """
    status = state.status
    i_idx = np.flatnonzero(status == INFECTED)
    u_idx = np.flatnonzero(status == UNINFECTED)
    if i_idx.size == 0 or u_idx.size == 0:
        return np.empty(0, dtype=np.int64)

    cells = state.current_cell
    m = _exposures(cells, i_idx, u_idx, grid.num_cells)
    exposed = u_idx[m > 0]
    if params.beta >= 1.0:
        newly = exposed
    else:
        # P(infected | m exposures) = 1 - (1 - beta) ** m
        p = -np.expm1(np.log1p(-params.beta) * m[m > 0])
        newly = exposed[rng.random(exposed.size) < p]
    status[newly] = INFECTED
    state.infected_at[newly] = state.step
    # sorted already: masks of the ascending u_idx keep its order
    return newly


def substep_recover(state: PopulationState, params: EpidemicParams) -> int:
    """Retire nodes whose infection is at least tau steps old; returns the count.

    The comparison is <= rather than == so that a mid-run reduction of tau
    retires overdue nodes at the next step instead of stranding them.
    """
    done = (state.status == INFECTED) & (state.infected_at <= state.step - params.tau)
    state.status[done] = RECOVERED
    return int(np.count_nonzero(done))


def _role_streams(rng) -> tuple[np.random.Generator, np.random.Generator]:
    # accept either a bare Generator or a ReplicateStreams-like bundle
    if hasattr(rng, "movement") and hasattr(rng, "transmission"):
        return rng.movement, rng.transmission
    return rng, rng


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
    newly = substep_transmit(state, grid, params, transmit_rng)
    retired = substep_recover(state, params)
    by_group = np.bincount(
        grid.cell_group[state.current_cell[newly]], minlength=grid.max_group + 1
    ).astype(np.int64)
    return StepReport(
        step=state.step,
        new_infections_total=int(newly.size),
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


def _class_exposure(
    values: np.ndarray, sizes: np.ndarray, infectious: int, beta: float, rng: np.random.Generator
) -> np.ndarray:
    """Place `infectious` nodes and return _exposure_by_class of their cells.

    Each node picks class c with probability v_c * n_c / W and then a
    uniform member of the class, which is the per-node law d_v / W.
    """
    per_class = rng.multinomial(infectious, values * sizes / int(values @ sizes))
    cls = np.repeat(np.arange(values.size), per_class)
    size = sizes[cls]
    off = (rng.random(infectious) * size).astype(np.int64)
    np.minimum(off, size - 1, out=off)  # u < 1 but float round-up can hit size
    return _exposure_by_class(np.cumsum(sizes)[cls] - size + off, sizes, beta)


def _exposure_by_class(cells: np.ndarray, sizes: np.ndarray, beta: float) -> np.ndarray:
    """Per class, the sum over its cells v of 1 - (1 - beta) ** m_v.

    m_v counts the entries of `cells` equal to v; cells are numbered in
    class order, class c holding sizes[c] consecutive ids.  The entries
    collapse to occupied cells by sorting when they are few relative to
    the grid, else by a bincount over it; both give the same sums.
    """
    start = np.cumsum(sizes) - sizes
    num_cells = int(sizes.sum())

    def infection_probability(hits):
        return hits > 0 if beta >= 1.0 else -np.expm1(np.log1p(-beta) * hits)

    if cells.size * 8 < num_cells:
        occupied, hits = np.unique(cells, return_counts=True)
        cls = np.searchsorted(start, occupied, side="right") - 1
        return np.bincount(cls, weights=infection_probability(hits), minlength=sizes.size)
    hits = np.bincount(cells, minlength=num_cells)
    return np.add.reduceat(infection_probability(hits), start, dtype=np.float64)


def count_step(
    state: CountState,
    classes: tuple[np.ndarray, np.ndarray],
    params: EpidemicParams,
    rng,
) -> StepReport:
    """Advance a CountState by one step and report what happened.

    classes is the grid's class histogram (values, cell counts), as drawn
    by draw_class_counts.  `rng` is a Generator or a bundle exposing
    .movement (placing the infectious nodes) and .transmission (the
    binomial and the band split).  Transmission and retirement follow
    step() exactly, including the <= retire rule.
    """
    if state.step >= params.max_steps:
        raise ValueError("run already reached max_steps")
    state.step += 1
    move_rng, transmit_rng = _role_streams(rng)
    values, sizes = classes
    by_group = np.zeros(int(values[-1]).bit_length(), dtype=np.int64)
    infectious = sum(state.cohorts.values())
    if infectious and state.uninfected:
        exposure = _class_exposure(values, sizes, infectious, params.beta, move_rng)
        # class c's share of Q is (v_c / W) * exposure_c; bands are floor(log2(v_c))
        bands = np.bincount(
            np.frexp(values)[1] - 1,
            weights=values * exposure / int(values @ sizes),
            minlength=by_group.size,
        )
        q = bands.sum()
        new = int(transmit_rng.binomial(state.uninfected, min(q, 1.0)))
        if new:
            by_group = transmit_rng.multinomial(new, bands / q)
            state.cohorts[state.step] = new
            state.uninfected -= new
    retired = 0
    for t in [t for t in state.cohorts if t <= state.step - params.tau]:
        retired += state.cohorts.pop(t)
    state.recovered += retired
    return StepReport(
        step=state.step,
        new_infections_total=int(by_group.sum()),
        new_infections_by_group=by_group,
        newly_recovered=retired,
    )
