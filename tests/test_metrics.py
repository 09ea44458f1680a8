"""Trace bookkeeping, outcome statistics, CSV formats, and log audits."""

import numpy as np
import pytest

from epimob import (
    INFECTED,
    CellGrid,
    EpidemicParams,
    ReplicateStreams,
    ReplicateSummary,
    SimulationTrace,
    StepReport,
    TraceBuilder,
    build_grid,
    causality_violations,
    init_population,
    step,
    write_summary_csv,
    write_trace_csv,
)


def test_group_index_band_edges():
    # band k holds weights in [2**k, 2**(k+1))
    grid = CellGrid.from_weights([2, 3, 4, 7, 8, 31, 32])
    np.testing.assert_array_equal(grid.cell_group, [1, 1, 2, 2, 3, 4, 5])


def _trace(infected):
    m = len(infected)
    return SimulationTrace(
        steps=np.arange(m, dtype=np.int64),
        infected=np.asarray(infected, dtype=np.int64),
        uninfected=np.full(m, 5, dtype=np.int64),
        recovered=np.arange(m, dtype=np.int64),
        new_total=np.zeros(m, dtype=np.int64),
        new_by_group=np.zeros((m, 3), dtype=np.int64),
        newly_recovered=np.zeros(m, dtype=np.int64),
    )


def test_trace_properties():
    trace = _trace([5, 4, 3, 2, 1, 0])
    assert trace.n == 10
    assert trace.survivors == 5
    assert trace.ever_infected == 5
    assert trace.last_step == 5


def _report(s, total, by_group, recovered=0):
    return StepReport(
        step=s,
        new_infections_total=total,
        new_infections_by_group=np.asarray(by_group, dtype=np.int64),
        newly_recovered=recovered,
    )


def test_builder_initial_row_and_append():
    builder = TraceBuilder((8, 2, 0), num_groups=3)
    builder.record(_report(1, 2, [0, 1, 1]), (6, 4, 0))
    trace = builder.finalize()
    np.testing.assert_array_equal(trace.steps, [0, 1])
    np.testing.assert_array_equal(trace.infected, [2, 4])
    np.testing.assert_array_equal(trace.uninfected, [8, 6])
    np.testing.assert_array_equal(trace.recovered, [0, 0])
    np.testing.assert_array_equal(trace.new_total, [0, 2])
    np.testing.assert_array_equal(trace.new_by_group, [[0, 0, 0], [1, 1, 0]])
    assert trace.cap_reached
    assert trace.extinction_step is None
    assert trace.cell_log is None and trace.infectious_log is None


def test_the_last_row_says_how_the_run_ended():
    capped = TraceBuilder((8, 2, 0), num_groups=1)
    capped.record(_report(1, 2, [0, 2]), (6, 4, 0))
    trace = capped.finalize()
    assert trace.cap_reached
    assert trace.extinction_step is None
    assert capped.end_state() == trace.end_state == (None, 4, 6)
    extinct = TraceBuilder((8, 2, 0), num_groups=1)
    extinct.record(_report(1, 1, [0, 1]), (7, 3, 0))
    extinct.record(_report(2, 0, [0, 0], recovered=3), (7, 0, 3))
    trace = extinct.finalize()
    assert not trace.cap_reached
    assert trace.extinction_step == 2
    assert isinstance(trace.extinction_step, int)
    assert extinct.end_state() == trace.end_state == (2, 3, 7)
    assert all(type(v) is int for v in extinct.end_state() + trace.end_state)


def test_builder_rejects_band_zero_infections():
    builder = TraceBuilder((8, 2, 0), num_groups=2)
    with pytest.raises(ValueError, match="band 0"):
        builder.record(_report(1, 1, [1, 0]), (7, 3, 0))


def test_builder_rejects_overflowing_band():
    builder = TraceBuilder((8, 2, 0), num_groups=1)
    with pytest.raises(ValueError, match="band width"):
        builder.record(_report(1, 6, [0, 1, 0, 5]), (2, 8, 0))
    # zero columns beyond the width are tolerated and dropped
    builder.record(_report(1, 1, [0, 1, 0, 0]), (7, 3, 0))
    trace = builder.finalize()
    np.testing.assert_array_equal(trace.new_by_group, [[0], [1]])


@pytest.mark.parametrize("rows", [1, 2, 8, 9, 10, 17, 40])
def test_builder_stacks_each_log_row_in_order(rows):
    # the logs grow by an eighth at a time while the rows are copied: every
    # count of rows, on either side of a growth, gives the stacked rows
    gen = np.random.default_rng(rows)
    cells = [gen.integers(0, 50, 7) for _ in range(rows)]
    masks = [gen.random(7) < 0.5 for _ in range(rows)]
    builder = TraceBuilder((8, 2, 0), num_groups=1)
    for c, m in zip(cells, masks):
        builder.record_logs(c, m)
    trace = builder.finalize()
    assert trace.cell_log.dtype == np.int64 and trace.infectious_log.dtype == bool
    np.testing.assert_array_equal(trace.cell_log, np.array(cells))
    np.testing.assert_array_equal(trace.infectious_log, np.array(masks))
    assert TraceBuilder((8, 2, 0), num_groups=1).finalize().infectious_log is None


def test_builder_rejects_zero_groups():
    with pytest.raises(ValueError):
        TraceBuilder((8, 2, 0), num_groups=0)


def test_replicate_summary_ignores_fired_steps_in_equality():
    a = ReplicateSummary(0, 123, 5, 10, 90, fired_steps=(None,))
    b = ReplicateSummary(0, 123, 5, 10, 90, fired_steps=(3,))
    assert a == b


def test_trace_csv_format(tmp_path):
    builder = TraceBuilder((8, 2, 0), num_groups=3)
    builder.record(_report(1, 2, [0, 1, 1]), (6, 4, 0))
    builder.record(_report(2, 0, [0, 0, 0], recovered=4), (6, 0, 4))
    trace = builder.finalize()
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "step,I,U,R,new_total,new_g1,new_g2,new_g3,recovered"
    assert lines[1] == "0,2,8,0,0,0,0,0,0"
    assert lines[2] == "1,4,6,0,2,1,1,0,0"
    assert lines[3] == "2,0,6,4,0,0,0,0,4"
    assert len(lines) == 4
    assert raw.endswith(b"\n")


def test_summary_csv_format(tmp_path):
    rows = [
        ReplicateSummary(0, 111, 7, 40, 60),
        ReplicateSummary(1, 222, None, 100, 0),
    ]
    path = tmp_path / "summary.csv"
    write_summary_csv(rows, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "replicate,seed,extinction_step,ever_infected,survivors"
    assert lines[1] == "0,111,7,40,60"
    assert lines[2] == "1,222,-1,100,0"


def test_causality_violation_detection_on_tiny_logs():
    # node 1 infected at step 1 but shared no cell with an infectious node
    cell_log = np.array([[0, 1]])
    infectious_log = np.array([[True, False]])
    np.testing.assert_array_equal(
        causality_violations(cell_log, infectious_log, np.array([0, 1])), [1]
    )
    # same infection with a shared cell is explained
    assert causality_violations(
        np.array([[0, 0]]), infectious_log, np.array([0, 1])
    ).size == 0
    # infection time past the end of the log is flagged
    np.testing.assert_array_equal(
        causality_violations(cell_log, infectious_log, np.array([0, 5])), [1]
    )


def _logged_run(seed, n=400, tau=3, initial=10, max_steps=500):
    params = EpidemicParams(
        n=n, alpha=2.8, kappa=1.0, tau=tau, initial_infected=initial, max_steps=max_steps
    )
    streams = ReplicateStreams.from_seed(seed, 0)
    grid = build_grid(params, streams.grid)
    state = init_population(params, streams.init)
    cell_rows, infectious_rows = [], []
    while state.counts().infected > 0 and state.step < params.max_steps:
        was_infectious = state.status == INFECTED
        step(state, grid, params, streams)
        cell_rows.append(state.current_cell.copy())
        infectious_rows.append(was_infectious)
    return state, np.array(cell_rows), np.array(infectious_rows)


def test_engine_logs_pass_causality_audit():
    state, cell_log, infectious_log = _logged_run(seed=11)
    secondary = int(np.count_nonzero(state.infected_at >= 1))
    assert secondary > 0  # the audit must not pass vacuously
    assert causality_violations(cell_log, infectious_log, state.infected_at).size == 0


def test_engine_logs_show_exact_infectious_periods():
    state, _, infectious_log = _logged_run(seed=11, tau=3)
    lifetimes = infectious_log.sum(axis=0)
    ever = state.infected_at >= 0
    # the run went extinct, so every infection saw its full infectious period
    assert (lifetimes[ever] == 3).all()
    assert (lifetimes[~ever] == 0).all()
