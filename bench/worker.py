"""One benchmark process: set up a workload, then time it or trace it.

Run by run.py, never directly. Prints one JSON line as its last line of
standard output. The process reports `ready`, the CLOCK_MONOTONIC time at
which set-up ended, so the parent can time set-up from process start, and
`speed_scale`, the host speed measured right after set-up.

Host speed. The benchmark's hosts share their cores with other tenants,
and their speed drifts by up to 2x over minutes: a longer run does not
average that away. Every timed operation is therefore bracketed by a
fixed reference loop of interpreter and numpy work that does not touch
peakonlaws, and its latency is scaled by REF_LOOP_S / (the loop's mean
duration around it). Reported times are times at the reference speed,
the speed at which the loop takes REF_LOOP_S; the wall times are printed
beside them.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MAX_LOOP_S = 150.0  # hard stop of the timed loop, well inside the 180 s limit
REF_LOOP_S = 1.6e-3  # about the loop's median duration on the baseline host
REF_ARRAY = np.linspace(0.0, 1.0, 256)
SETUP_REF_LOOPS = 15


def _args(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    ap.add_argument("--tiny", action="store_true")
    return ap.parse_args(argv)


def run_ops(ops, tally: Counter) -> tuple[list, list]:
    """Run each op once; return (latencies in s, failure messages)."""
    latencies, failures = [], []
    for op in ops:
        start = time.perf_counter()
        out = op()
        latencies.append(time.perf_counter() - start)
        failures += out.failures
        tally["failed"] += bool(out.failures)
        tally["steps"] += out.steps
        tally["currents_built"] += out.currents_built
        tally["indeterminate"] += out.indeterminate
        tally["bytes_written"] += out.bytes_written
    return latencies, failures


def ref_loop_s() -> float:
    """Duration of one pass of the fixed reference loop.

    The garbage collector is held off during the loop, so that a
    collection of the program's garbage is charged to the program.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        for i in range(8000):
            acc += i * i % 7
        v = REF_ARRAY
        for _ in range(120):
            v = np.sin(v) + 0.5 * v
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_scale() -> float:
    """REF_LOOP_S over the median of a few reference loops."""
    return REF_LOOP_S / statistics.median(ref_loop_s() for _ in range(SETUP_REF_LOOPS))


def _latency_metrics(latencies: list, work: int) -> dict:
    p = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "throughput_per_s": work / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": p[8] * 1e3,
    }


def timed_loop(ops, seconds: float, min_ops: int) -> dict:
    """Closed loop over `ops` for at least `seconds` and `min_ops` operations."""
    tally = Counter()
    latencies, scaled, failures = [], [], []
    start = time.perf_counter()
    for i, op in enumerate(itertools.cycle(ops)):
        elapsed = time.perf_counter() - start
        if (i >= min_ops and elapsed >= seconds) or elapsed >= MAX_LOOP_S:
            break
        before = ref_loop_s()
        lat, fail = run_ops([op], tally)
        after = ref_loop_s()
        latencies += lat
        scaled.append(lat[0] * 2.0 * REF_LOOP_S / (before + after))
        failures += fail
    # throughput counts RK4 steps where the workload steps a solver,
    # equations otherwise; it divides by the summed operation latencies
    work = tally["steps"] or len(latencies)
    metrics = _latency_metrics(scaled, work)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "attempted": len(latencies),
        "failed": tally["failed"],
        "failures": failures[:10],
        "metrics": metrics,
        "wall": _latency_metrics(latencies, work),
        "host_speed": statistics.median(s / l for s, l in zip(scaled, latencies)),
    }


def _per_call_us(fn, calls: int = 200, repeats: int = 7) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return statistics.median(times) * 1e6


def micro_timings() -> dict:
    """Direct timings of single solver calls, outside any workload."""
    from peakonlaws import conslaw, pde

    ch = conslaw.EquationSpec.from_strings("ux", "u")
    out = {}
    for n in (512, 1024):
        cfg = pde.SimConfig(40.0, n, 1e-3, 1.0, ch, {"kind": "gaussian", "params": {}})
        grid = cfg.grid
        state = pde.GridState.from_m(grid, pde.initial_data(cfg))
        out[f"pde.rhs_us.n{n}"] = _per_call_us(lambda: pde.rhs(grid, state, ch))
        if n == 1024:
            out["pde.helmholtz_u_us.n1024"] = _per_call_us(lambda: pde.helmholtz_u(grid, state.m))
    return out


def traced_run(args, workdir: Path) -> dict:
    """Untraced then traced pass over the same fixed op list (inputs included)."""
    import tracing
    import workloads

    micro = micro_timings()
    untraced = Counter()
    start = time.perf_counter()
    inputs = workloads.build(args.workload, args.seed, args.tiny, workdir)
    _, failures = run_ops(inputs.trace_ops, untraced)
    untraced_s = time.perf_counter() - start
    inputs.cleanup()

    tracer = tracing.Tracer()
    tally = Counter()
    tracer.install()
    try:
        start = time.perf_counter()
        inputs = workloads.build(args.workload, args.seed, args.tiny, workdir)
        for op in inputs.trace_ops:
            with tracer.span("bench.op"):
                _, fail = run_ops([op], tally)
            failures += fail
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
        inputs.cleanup()
    workdir.parent.mkdir(exist_ok=True)
    tracer.dump(workdir.parent / f"trace-{args.workload}-seed{args.seed}.json")

    metrics = tracing.layer_metrics(tracer, tally["steps"], tally)
    metrics.update(micro)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return {
        "attempted": 2 * len(inputs.trace_ops),
        "failed": untraced["failed"] + tally["failed"],
        "failures": failures[:10],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = _args(argv)
    import peakonlaws

    if Path(peakonlaws.__file__).resolve().parent != ROOT / "src" / "peakonlaws":
        print(f"error: imported peakonlaws from {peakonlaws.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import scipy
    import workloads

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    if args.mode == "trace":
        result = traced_run(args, workdir)
    else:
        inputs = workloads.build(args.workload, args.seed, args.tiny, workdir)
        ready = time.monotonic()
        scale = speed_scale()
        try:
            if args.mode == "setup":
                result = {}
            else:
                # a tiny run only checks that the workload works; quantiles need two ops
                result = timed_loop(inputs.ops, args.seconds, 2 if args.tiny else inputs.min_ops)
        finally:
            inputs.cleanup()
        result["ready"] = ready
        result["speed_scale"] = scale
    result["versions"] = {"numpy": np.__version__, "scipy": scipy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
