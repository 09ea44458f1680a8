"""Trace accumulation, outcome summaries, group statistics, and CSV export.

New infections are bucketed by the attractiveness band of the cell they
occurred in: band k collects cells with attractiveness in [2**k, 2**(k+1)).
Cell weights start at 2, so band indices start at 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass
class SimulationTrace:
    """Per-step history of one replicate, row 0 being the initial state.

    Arrays are indexed by step, so steps[j] == j.  new_by_group has one
    column per attractiveness band starting at band 1, as many as the
    highest band of any parameter set the run's config can reach
    (ScenarioConfig.band_width).  The last row alone says how the run ended:
    extinct at its step if no node is infected there, else capped.

    cell_log / infectious_log, set by per-node (log_cells) runs, hold one row per executed step
    (row j - 1 describes step j): the post-move cell of every node and
    whether the node was infectious while that step's transmission ran.
    """

    steps: np.ndarray
    infected: np.ndarray
    uninfected: np.ndarray
    recovered: np.ndarray
    new_total: np.ndarray
    new_by_group: np.ndarray
    newly_recovered: np.ndarray
    cell_log: Optional[np.ndarray] = None
    infectious_log: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return int(self.infected[0] + self.uninfected[0] + self.recovered[0])

    @property
    def survivors(self) -> int:
        return self.end_state[2]

    @property
    def ever_infected(self) -> int:
        return self.end_state[1]

    @property
    def last_step(self) -> int:
        return int(self.steps[-1])

    @property
    def cap_reached(self) -> bool:
        return self.extinction_step is None

    @property
    def extinction_step(self) -> Optional[int]:
        return self.end_state[0]

    @property
    def end_state(self) -> tuple:
        """(extinction_step, ever_infected, survivors), as Python ints."""
        return _end_state(self._row(0), self._row(-1))

    def _row(self, j: int) -> tuple:
        return tuple(int(col[j]) for col in (self.steps, self.infected, self.uninfected, self.recovered))


def _end_state(first: tuple, last: tuple) -> tuple:
    """(extinction_step, ever_infected, survivors) from a run's first and last (step, I, U, R) rows.

    The last row alone says how the run ended: extinct at its step if no
    node is infected there, else capped, and extinction_step is None.
    """
    _, i0, u0, r0 = first
    step, infected, survivors, _ = last
    return (None if infected else step), i0 + u0 + r0 - survivors, survivors


class TraceBuilder:
    """Accumulates per-step records during a run and freezes them at the end."""

    def __init__(self, initial_counts, num_groups: int) -> None:
        if num_groups < 1:
            raise ValueError("num_groups must be at least 1")
        u, i, r = initial_counts
        self._num_groups = num_groups
        # one flat row a step: step, I, U, R, new_total, the band columns,
        # recovered, in the trace CSV's column order
        self._rows = [(0, i, u, r, 0, *(0,) * num_groups, 0)]
        self._cell_rows: list[np.ndarray] = []
        self._infectious_rows: list[np.ndarray] = []

    def record(self, report, counts) -> None:
        """Append one completed step's report plus the resulting counts."""
        by_group = np.asarray(report.new_infections_by_group).tolist()
        width = self._num_groups
        # column 0 is band 0, unreachable for weights >= 2
        if by_group[0] != 0:
            raise ValueError("new infections reported in band 0")
        if any(by_group[width + 1 :]):
            raise ValueError("new infections beyond the trace's band width")
        bands = by_group[1 : width + 1]
        u, i, r = counts
        self._rows.append(
            (
                report.step,
                i,
                u,
                r,
                report.new_infections_total,
                *bands,
                *(0,) * (width - len(bands)),
                report.newly_recovered,
            )
        )

    def record_logs(self, cells: np.ndarray, infectious_mask: np.ndarray) -> None:
        """Append one step's post-move cells and pre-step infectious mask."""
        self._cell_rows.append(np.asarray(cells, dtype=np.int64))
        self._infectious_rows.append(np.asarray(infectious_mask, dtype=bool))

    def end_state(self) -> tuple:
        """(extinction_step, ever_infected, survivors) of the rows so far, as Python ints.

        The same rule as SimulationTrace.end_state, read without building the trace.
        """
        return _end_state(self._rows[0][:4], self._rows[-1][:4])

    def finalize(self) -> SimulationTrace:
        """Freeze the records into a SimulationTrace; the logs move into it, not copied twice."""
        # one table, whose columns are SimulationTrace's first seven fields
        table = np.array(self._rows, dtype=np.int64)
        return SimulationTrace(
            *table[:, :5].T,
            table[:, 5:-1],
            table[:, -1],
            cell_log=_stack(self._cell_rows),
            infectious_log=_stack(self._infectious_rows),
        )


def _stack(rows: list) -> Optional[np.ndarray]:
    """The rows as one table, or None if there are none; empties `rows`.

    Each row is copied in turn into a table that ndarray.resize grows by an
    eighth at a time, reallocating its buffer, and the list lets go of the
    row once copied.  So a log is never held twice: at most the rows not yet
    copied, the table, and the table's slack.  Nothing else refers to the
    table while it grows, so resize skips its reference check.
    """
    if not rows:
        return None
    shape, dtype = rows[0].shape, rows[0].dtype
    table = np.empty((0, *shape), dtype=dtype)
    for i in range(len(rows)):
        if i == len(table):
            table.resize((i + 1 + i // 8, *shape), refcheck=False)
        table[i] = rows[i]
        rows[i] = None
    table.resize((len(rows), *shape), refcheck=False)
    rows.clear()
    return table


@dataclass(frozen=True)
class ReplicateSummary:
    """One row of the cross-replicate summary.

    extinction_step is None when the run hit the step cap; fired_steps
    records when each scheduled intervention fired (None = never) and is
    not part of the CSV format.
    """

    replicate: int
    seed: int
    extinction_step: Optional[int]
    ever_infected: int
    survivors: int
    fired_steps: tuple = field(default=(), compare=False)


def write_trace_csv(trace: SimulationTrace, path) -> None:
    """Write the per-step trace; header step,I,U,R,new_total,new_g1,...,recovered.

    Band columns run from new_g1 up to the trace's band width.  Lines end
    with LF on every platform.
    """
    width = trace.new_by_group.shape[1]
    header = (
        "step,I,U,R,new_total,"
        + ",".join(f"new_g{k}" for k in range(1, width + 1))
        + ",recovered"
    )
    table = np.column_stack(
        (trace.steps, trace.infected, trace.uninfected, trace.recovered, trace.new_total,
         trace.new_by_group, trace.newly_recovered)
    )
    lines = [header, *(",".join(map(str, row)) for row in table.tolist())]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary_csv(summaries, path) -> None:
    """Write one row per replicate; a capped run's extinction_step is -1."""
    lines = ["replicate,seed,extinction_step,ever_infected,survivors"]
    for s in summaries:
        ext = -1 if s.extinction_step is None else s.extinction_step
        lines.append(f"{s.replicate},{s.seed},{ext},{s.ever_infected},{s.survivors}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def causality_violations(
    cell_log: np.ndarray, infectious_log: np.ndarray, infected_at: np.ndarray
) -> np.ndarray:
    """Nodes whose recorded infection had no infectious cellmate at that step.

    Log row j - 1 describes step j.  Returns an array of offending node
    ids; empty means every infection is explained by a co-located
    infectious node.
    """
    infected_at = np.asarray(infected_at)
    nodes = np.flatnonzero(infected_at >= 1)
    rows = infected_at[nodes] - 1
    explained = np.zeros(nodes.size, dtype=bool)
    # one pass per log row that records infections; later rows stay unexplained
    for row in np.unique(rows[rows < cell_log.shape[0]]).tolist():
        at = np.flatnonzero(rows == row)
        cells = cell_log[row]
        explained[at] = np.isin(cells[nodes[at]], cells[infectious_log[row]])
    return nodes[~explained].astype(np.int64)
