"""epimob benchmark: one workload per invocation, from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: emerging_1e6, industrialized_1e5, tiny_oracle, awareness_1e4_files
(see perfbench/README.md).  With --trace 0 the run times units for S seconds
with tracing off and reports the end-to-end metrics; with --trace 1 it runs
an untraced pass for S/2 seconds, reruns the same units with every epimob
layer traced, writes the spans under perfbench/out/trace/, and reports the
per-layer metrics.  Human-readable lines go first; the last stdout line is
one JSON object with the keys correct, attempted, failed and metrics.
Metric names and units come from BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5

if not os.path.isfile(os.path.join(SRC, "epimob", "__init__.py")):
    sys.exit(f"perfbench: no epimob sources under {SRC}; run from the root of a full checkout")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "epimob")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "epimob_src_sha256": digest.hexdigest()[:16],
    }


# This host's speed drifts by up to 1.7x within tens of seconds (other tenants),
# far more than the changes the benchmark must resolve.  A fixed reference
# kernel, owned by the benchmark and never calling epimob, therefore runs
# before the first timed unit and after each one, and throughputs are scaled
# to the speed at which its median run takes REFERENCE_SECONDS.  Raw rates are
# printed alongside.
REFERENCE_SECONDS = 0.015
_REF_DATA = np.random.default_rng(0).random(200_000)
_REF_CELLS = np.random.default_rng(0).integers(0, 1_000_000, 500_000)
_REF_SMALL = np.arange(6)


def reference_seconds() -> float:
    """Time of a fixed kernel that mixes interpreter-bound and memory-bound work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i
    for _ in range(200):
        np.bincount(_REF_SMALL, minlength=8)
    np.sort(_REF_DATA)
    np.random.Generator(np.random.Philox(1)).random(500_000)
    np.bincount(_REF_CELLS, minlength=1_000_000)
    return time.perf_counter() - t0


class Pass:
    """One pass over a workload: setup, then timed units until `seconds` or `units` run out.

    With calibrate=True the reference kernel runs around every unit and
    rate() reports speed-corrected throughput; traced passes skip it so that
    their spans cover the whole pass.
    """

    def __init__(self, workload, seed: int, *, seconds=None, units=None, tracer=None, calibrate=False):
        t0 = time.perf_counter()
        workload.setup(seed)
        loop_start = time.perf_counter()
        self.done = []
        self.references = [reference_seconds()] if calibrate else []
        b = 0
        while (b < units) if units is not None else (b == 0 or time.perf_counter() - loop_start < seconds):
            if tracer is not None:
                tracer.batch = b
                frame = tracer.open(spans.CODE["bench.unit"])
            result = workload.unit(b, tracer)
            if tracer is not None:
                tracer.close(frame, time.perf_counter())
            if result is not None:
                self.done.append(result)
            if calibrate:
                self.references.append(reference_seconds())
            b += 1
        self.units = b
        self.wall = time.perf_counter() - t0
        self.workload = workload

    def rate(self, field: str, corrected: bool = True) -> float:
        """Work over wall time summed across completed units, scaled by the
        machine's median slowdown during the pass when `corrected`."""
        wall = sum(d.wall for d in self.done)
        if wall <= 0:
            return 0.0
        slowdown = statistics.median(self.references) / REFERENCE_SECONDS if corrected else 1.0
        return sum(getattr(d, field) for d in self.done) / wall * slowdown


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children are the harness pool workers
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


def measure_setup(args) -> float:
    """Median seconds from process start to ready-to-time, over fresh processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0"] + (["--small"] if args.small else [])
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def emit(spec_metrics: list, values: dict, ok: list) -> dict:
    names = [m["name"] for m in spec_metrics]
    if sorted(names) != sorted(values):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    return {
        "correct": bool(ok) and all(ok),
        "attempted": max(len(ok), 1),
        "failed": sum(1 for x in ok if not x) if ok else 1,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics},
    }


def run_untraced(args, spec, make) -> dict:
    p = Pass(make(), args.seed, seconds=args.seconds, calibrate=True)
    peak = peak_rss_mb()
    ok, _ = p.workload.finish()
    values = {
        "setup_s": measure_setup(args),
        "steps_per_s": p.rate("steps"),
        "replicates_per_s": p.rate("replicates"),
        "peak_rss_mb": peak,
    }
    print(f"units={p.units} completed={len(p.done)} wall={p.wall:.3f}s "
          f"error_rate={ok.count(False) / max(len(ok), 1):.4f} "
          f"raw steps_per_s={p.rate('steps', False):.6g} replicates_per_s={p.rate('replicates', False):.6g}")
    if isinstance(p.workload, workloads.TinyOracle):
        print(f"oracle worst |z| = {p.workload.worst_z():.2f} over {len(ok)} instances")
    return emit(spec["end_to_end"], values, ok)


def run_traced(args, spec, make) -> dict:
    untraced = Pass(make(), args.seed, seconds=args.seconds / 2)
    ok_u, seen_u = untraced.workload.finish()

    trace_dir = os.path.join(OUT, "trace", f"{args.workload}-seed{args.seed}")
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    tracer = spans.Tracer(trace_dir)
    restore = spans.install(tracer)
    try:
        traced = Pass(make(), args.seed, units=untraced.units, tracer=tracer)
    finally:
        restore()
    tracer.flush()
    ok_t, seen_t = traced.workload.finish()
    # the traced pass must reproduce the untraced outcomes unit for unit
    ok = [a and b and x == y for a, b, x, y in zip(ok_u, ok_t, seen_u, seen_t)]
    if len(ok_u) != len(ok_t):
        ok.append(False)

    span_rows = spans.read_spans(trace_dir)
    values = spans.layer_metrics(span_rows, traced.wall)
    values["trace_overhead_frac"] = traced.wall / untraced.wall - 1.0
    main_top = span_rows[(span_rows["pid"] == os.getpid()) & (span_rows["parent"] == -1)]
    covered = float((main_top["end"] - main_top["start"]).sum()) / traced.wall
    summary = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "untraced_wall_s": untraced.wall,
        "traced_wall_s": traced.wall,
        "units": traced.units,
        "top_level_coverage": covered,
        "metrics": values,
    }
    with open(os.path.join(trace_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    print(f"units={traced.units} traced_wall={traced.wall:.3f}s untraced_wall={untraced.wall:.3f}s "
          f"top-level coverage={covered:.4f} spans={span_rows.size} -> {trace_dir}")
    for name in sorted(k for k in values if k.endswith(".share")):
        print(f"  {name:45s} {values[name]:8.4f}")
    return emit(spec["per_layer"], values, ok)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="shrink every size (self-tests)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    tmp_root = os.path.join(OUT, "tmp")
    os.makedirs(tmp_root, exist_ok=True)

    def make():
        return workloads.make(args.workload, args.small, tmp_root)

    if args.setup_probe:
        make().setup(args.seed)
        print("ready", flush=True)
        return 0
    spec = load_spec()
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    result = (run_traced if args.trace else run_untraced)(args, spec, make)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
