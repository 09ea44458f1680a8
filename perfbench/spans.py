"""Span tracing of epimob's layers, installed from outside the package.

install() rebinds the module and class attributes that epimob resolves at
call time (harness.run_replicate looks up build_grid, step, ... in its own
module globals; dynamics.step looks up the substeps in dynamics), so every
call into a layer opens a span without any change to the package.  Spans
are kept in memory; worker processes of the harness pool append theirs to a
per-process file after each replicate, and the main process writes its own when
the traced pass ends.  read_spans() merges every file of a trace directory.
"""

from __future__ import annotations

import functools
import glob
import os
import pickle
import time
from array import array

import numpy as np

from epimob import attractiveness, dynamics, harness, metrics, oracle, rng, scenario

# Index in this tuple is the name code stored in span files.
NAMES = (
    "bench.unit",
    "harness.run_replications",
    "harness.run_replicate",
    "rng.ReplicateStreams.from_seed",
    "attractiveness.build_grid",
    "dynamics.init_population",
    "dynamics.PopulationState.counts",
    "dynamics.step",
    "dynamics.substep_move",
    "attractiveness.choose_cells",
    "dynamics.substep_transmit",
    "dynamics.substep_recover",
    "metrics.TraceBuilder.record",
    "metrics.TraceBuilder.finalize",
    "metrics.write_trace_csv",
    "metrics.write_summary_csv",
    "scenario.trigger_check",
    "scenario.apply_intervention",
    "oracle.enumerate_step",
)
CODE = {name: i for i, name in enumerate(NAMES)}

# a and b are per-layer counters, e.g. cells built, or (new infections, targets scanned)
SPAN_DTYPE = np.dtype(
    [
        ("name", "i8"), ("id", "i8"), ("parent", "i8"), ("batch", "i8"), ("unit", "i8"),
        ("pid", "i8"), ("start", "f8"), ("end", "f8"), ("self", "f8"), ("a", "f8"), ("b", "f8"),
    ]
)
_INTS = 6


class Tracer:
    """Records one SPAN_DTYPE row per span of the calling process.

    Spans of one replicate share its (batch, unit) pair: batch is the
    benchmark's unit counter, unit the replicate (or oracle instance) index.
    """

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.batch = -1
        self.unit = -1
        self._ints = array("q")
        self._floats = array("d")
        self._stack: list[list] = []  # [id, name code, start, child seconds]
        self._next_id = 0

    def open(self, code: int) -> list:
        frame = [self._next_id, code, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def close(self, frame: list, end: float, a: float = 0.0, b: float = 0.0, overhead: float = 0.0) -> None:
        """End a span at `end`; `overhead` seconds spent after it are kept out of every self time."""
        self._stack.pop()
        duration = end - frame[2]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration + overhead
        self._ints.extend(
            (frame[1], frame[0], parent[0] if parent else -1, self.batch, self.unit, self.pid)
        )
        self._floats.extend((frame[2], end, duration - frame[3], a, b))

    def enter_worker(self) -> None:
        """Drop state inherited from the main process when a forked pool worker starts tracing."""
        if os.getpid() != self.pid:
            self._reset()

    def flush(self) -> None:
        """Append this process's spans to its file in the trace directory."""
        rows = len(self._ints) // _INTS
        if not rows:
            return
        out = np.empty(rows, dtype=SPAN_DTYPE)
        ints = np.frombuffer(self._ints, dtype=np.int64).reshape(rows, _INTS)
        floats = np.frombuffer(self._floats, dtype=np.float64).reshape(rows, -1)
        for col, field in enumerate(SPAN_DTYPE.names[:_INTS]):
            out[field] = ints[:, col]
        for col, field in enumerate(SPAN_DTYPE.names[_INTS:]):
            out[field] = floats[:, col]
        with open(os.path.join(self.out_dir, f"spans-{self.pid}.bin"), "ab") as fh:
            fh.write(out.tobytes())
        self._ints = array("q")
        self._floats = array("d")


def read_spans(out_dir: str) -> np.ndarray:
    parts = [np.fromfile(p, dtype=SPAN_DTYPE) for p in sorted(glob.glob(os.path.join(out_dir, "spans-*.bin")))]
    return np.concatenate(parts) if parts else np.empty(0, dtype=SPAN_DTYPE)


def _traced(tracer: Tracer, name: str, fn, counters=None):
    """Wrap fn in a span; counters(args, kwargs, result) -> (a, b) runs outside every self time."""
    code = CODE[name]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.open(code)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(frame, time.perf_counter())
            raise
        end = time.perf_counter()
        if counters is None:
            tracer.close(frame, end)
        else:
            a, b = counters(args, kwargs, result)
            tracer.close(frame, end, a, b, overhead=time.perf_counter() - end)
        return result

    return wrapper


def install(tracer: Tracer):
    """Rebind epimob's layer entry points to traced wrappers; returns a restore callable."""
    saved = []

    def patch(owner, attr, name, counters=None):
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = staticmethod(_traced(tracer, name, getattr(owner, attr), counters))
        else:
            wrapped = _traced(tracer, name, raw, counters)
        saved.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def run_replications_counters(args, kwargs, result):
        config = args[0]
        workers = kwargs.get("workers", args[1] if len(args) > 1 else 1)
        used = min(workers, config.replications) if workers > 1 and config.replications > 1 else 1
        return float(used), 0.0

    def move_counters(args, kwargs, result):
        # (I + U) and n at call time; the substep does not change statuses
        status = args[0].status
        return float(status.size - np.count_nonzero(status == dynamics.RECOVERED)), float(status.size)

    def transmit_counters(args, kwargs, result):
        # targets scanned were the uninfected before the call: now uninfected plus the new
        scanned = np.count_nonzero(args[0].status == dynamics.UNINFECTED) + result.size
        return float(result.size), float(scanned)

    patch(harness, "run_replications", "harness.run_replications", run_replications_counters)
    def grid_counters(args, kwargs, result):
        return float(result.num_cells), 0.0

    # harness builds the first grid, scenario.apply_intervention the rebuilds
    patch(harness, "build_grid", "attractiveness.build_grid", grid_counters)
    patch(scenario, "build_grid", "attractiveness.build_grid", grid_counters)
    patch(rng.ReplicateStreams, "from_seed", "rng.ReplicateStreams.from_seed")
    patch(harness, "init_population", "dynamics.init_population")
    patch(dynamics.PopulationState, "counts", "dynamics.PopulationState.counts")
    patch(harness, "step", "dynamics.step")
    patch(dynamics, "step", "dynamics.step")
    patch(dynamics, "substep_move", "dynamics.substep_move", move_counters)
    patch(dynamics, "choose_cells", "attractiveness.choose_cells",
          lambda args, kwargs, result: (float(result.size), 0.0))
    patch(dynamics, "substep_transmit", "dynamics.substep_transmit", transmit_counters)
    patch(dynamics, "substep_recover", "dynamics.substep_recover")
    patch(metrics.TraceBuilder, "record", "metrics.TraceBuilder.record")
    patch(metrics.TraceBuilder, "finalize", "metrics.TraceBuilder.finalize")
    patch(harness, "write_trace_csv", "metrics.write_trace_csv",
          lambda args, kwargs, result: (float(os.path.getsize(args[1])), 0.0))
    patch(harness, "write_summary_csv", "metrics.write_summary_csv")
    patch(scenario.PrevalenceReached, "met", "scenario.trigger_check")
    patch(scenario.TimeReached, "met", "scenario.trigger_check")
    patch(harness, "apply_intervention", "scenario.apply_intervention")
    patch(oracle, "enumerate_step", "oracle.enumerate_step",
          lambda args, kwargs, result: (float(args[0].num_cells ** np.count_nonzero(
              np.asarray(args[1]) != dynamics.RECOVERED)), 0.0))

    # run_replicate is the entry point of pool workers: it tags the replicate's
    # spans with its index and, inside a worker, hands them to the span file.
    inner = _traced(tracer, "harness.run_replicate", harness.run_replicate,
                    lambda args, kwargs, result: (float(len(pickle.dumps(result))), 0.0))
    main_pid = os.getpid()

    @functools.wraps(harness.run_replicate)
    def run_replicate(config, replicate):
        tracer.enter_worker()
        tracer.unit = replicate
        try:
            return inner(config, replicate)
        finally:
            tracer.unit = -1
            if os.getpid() != main_pid:
                tracer.flush()

    saved.append((harness, "run_replicate", harness.run_replicate))
    harness.run_replicate = run_replicate

    def restore():
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)

    return restore


def layer_metrics(spans: np.ndarray, traced_wall: float) -> dict:
    """Per-layer numbers of one traced pass; share = self time / traced wall time."""
    out: dict = {}

    def layer(name: str, *fields: str) -> tuple[np.ndarray, float]:
        s = spans[spans["name"] == CODE[name]]
        self_s = float(s["self"].sum())
        values = {"calls": int(s.size), "self_s": self_s, "share": self_s / traced_wall}
        for f in fields:
            out[f"{name}.{f}"] = values[f]
        return s, self_s

    def ratio(num: float, den: float) -> float:
        return float(num) / float(den) if den else 0.0

    s, t = layer("attractiveness.build_grid", "calls", "self_s", "share")
    out["attractiveness.build_grid.cells_per_s"] = ratio(s["a"].sum(), t)
    s, t = layer("attractiveness.choose_cells", "calls", "self_s", "share")
    out["attractiveness.choose_cells.draws_per_s"] = ratio(s["a"].sum(), t)
    s, _ = layer("dynamics.substep_move")
    out["dynamics.substep_move.active_frac"] = ratio(s["a"].sum(), s["b"].sum())
    s, _ = layer("dynamics.substep_transmit", "calls", "self_s", "share")
    out["dynamics.substep_transmit.new_per_scanned"] = ratio(s["a"].sum(), s["b"].sum())
    layer("dynamics.substep_recover", "self_s", "share")
    layer("dynamics.PopulationState.counts", "calls", "self_s", "share")
    layer("dynamics.step", "calls", "self_s", "share")
    layer("dynamics.init_population", "self_s")
    layer("rng.ReplicateStreams.from_seed", "calls", "self_s")
    layer("metrics.TraceBuilder.record", "calls", "self_s", "share")
    layer("metrics.TraceBuilder.finalize", "self_s")
    s, _ = layer("metrics.write_trace_csv", "calls", "self_s", "share")
    out["metrics.write_trace_csv.bytes"] = int(s["a"].sum())
    layer("metrics.write_summary_csv", "self_s")
    layer("scenario.trigger_check", "calls", "self_s")
    layer("scenario.apply_intervention", "calls", "self_s", "share")
    s, _ = layer("oracle.enumerate_step", "calls", "self_s", "share")
    out["oracle.enumerate_step.placements"] = int(s["a"].sum())
    reps, _ = layer("harness.run_replicate", "calls", "self_s", "share")
    runs, _ = layer("harness.run_replications", "self_s")
    out["harness.result_bytes"] = ratio(reps["a"].sum(), reps.size)
    # busy seconds across workers / (workers x wall) of each run_replications call
    busy = (reps["end"] - reps["start"]).sum()
    out["harness.parallel_efficiency"] = ratio(busy, (runs["a"] * (runs["end"] - runs["start"])).sum())
    layer("bench.unit", "share")
    return out
