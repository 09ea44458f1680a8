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
