"""Benchmark of peakonlaws: verdict latency and solver step throughput.

    python3 bench/run.py --workload verdicts --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35

Run from the repository root. Each workload runs in a fresh worker
process (bench/worker.py) that imports peakonlaws from ./src. With
--trace 0 the worker times a closed loop of operations and the result
holds the end-to-end metrics; with --trace 1 it runs a fixed list of
operations untraced and then traced, and the result holds the per-layer
metrics. set-up time is the median over several fresh processes, from
process start to the end of building the inputs. End-to-end times are
scaled to a reference host speed (see worker.py); the wall times are
printed beside them.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The lines before it print the
same metrics with their units, the failure fraction and the environment.
The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("verdicts", "drift_512", "transport_1024")
SETUP_PROBES = 4  # extra set-up-only processes; the timed worker is one more sample
WORKER_TIMEOUT_S = 170.0
# BLAS calls inside the verdicts (numpy.linalg.svd) stay on one thread; the
# hash seed fixes set iteration order, so counts repeat across processes
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _worker(workload: str, seed: int, seconds: float, mode: str, tiny: bool) -> tuple[dict, float]:
    """Run one worker to completion; return its result and its start time."""
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(BENCH), str(ROOT / "src")])
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    if tiny:
        cmd.append("--tiny")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{workload}: worker exceeded {WORKER_TIMEOUT_S:g} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited {proc.returncode}\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1]), started


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    if trace:
        res, _ = _worker(workload, seed, seconds, "trace", tiny)
    else:
        walls, setups = [], []
        for _ in range(SETUP_PROBES):
            probe, started = _worker(workload, seed, seconds, "setup", tiny)
            walls.append(probe["ready"] - started)
            setups.append(walls[-1] * probe["speed_scale"])
        res, started = _worker(workload, seed, seconds, "time", tiny)
        walls.append(res["ready"] - started)
        setups.append(walls[-1] * res["speed_scale"])
        res["metrics"]["setup_s"] = statistics.median(setups)
        res["wall"]["setup_s"] = statistics.median(walls)
    res["correct"] = res["failed"] == 0
    return res


def report(workload: str, seed: int, trace: bool, res: dict, spec: dict) -> dict:
    """Print the human-readable block; return the result line."""
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: (m["unit"], m["better"]) for m in spec[kind]}
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"python {platform.python_version()}  numpy {res['versions']['numpy']}  "
          f"scipy {res['versions']['scipy']}  nproc {os.cpu_count()}  "
          f"pinned {' '.join(f'{k}={v}' for k, v in PINNED_ENV.items())}")
    metrics = {}
    for name, (unit, better) in units.items():
        value = res["metrics"][name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:40s} {value:16.6g} {unit:6s} ({better} is better)")
    if "wall" in res:
        print(f"  wall times, host speed {res['host_speed']:.3f} of the reference: "
              + ", ".join(f"{k} {v:.6g}" for k, v in res["wall"].items()))
    print(f"  {'failed_frac':40s} {res['failed'] / res['attempted']:16.6g} ratio  "
          f"({res['failed']} of {res['attempted']} ops failed)")
    for message in res.get("failures", []):
        print(f"  FAILED: {message}")
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "peakonlaws" / "__init__.py").is_file():
        print(f"error: no peakonlaws sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = _benchmark_spec()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for workload in names:
            res = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.tiny)
            lines[workload] = report(workload, args.seed, bool(args.trace), res, spec)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(lines[args.workload] if args.workload != "all" else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
