"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from peakonlaws import conslaw, expr, pde  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_workload_runs_tiny(trace, kind):
    proc = _run("--workload", "all", "--seed", "3", "--seconds", "0.2", "--tiny", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    names = {m["name"] for m in _spec()[kind]}
    assert set(results) == {w["name"] for w in _spec()["workloads"]}
    for res in results.values():
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
        assert set(res["metrics"]) == names


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "verdicts", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_scaled_times_follow_the_program():
    # scaling divides out the host's speed, not the program's: an operation
    # doing twice the work reads about twice as long
    def op_of(loops):
        def op():
            for _ in range(loops):
                worker.ref_loop_s()
            return workloads.Outcome()
        return op

    one = worker.timed_loop([op_of(10)], 0.0, 20)
    two = worker.timed_loop([op_of(20)], 0.0, 20)
    assert 1.6 < two["metrics"]["op_p50_ms"] / one["metrics"]["op_p50_ms"] < 2.5
    assert one["metrics"]["op_p50_ms"] == pytest.approx(10 * worker.REF_LOOP_S * 1e3, rel=0.3)


def _case(name):
    return next(c for c in workloads.reference_cases() if c.name == name)


def _spec_of(case):
    return conslaw.EquationSpec.from_strings(case.f, case.g)


def test_reference_verdict_passes():
    case = _case("camassa_holm")
    out = workloads.verdict_op(_spec_of(case), case)
    assert out.failures == [] and out.currents_built >= 1


def test_corrupted_current_is_a_failure():
    # Phi + u, as in demos/characteristic_check_demo.py
    case = _case("camassa_holm")
    out = workloads.verdict_op(_spec_of(case), case, corrupt=True)
    assert out.failures
    assert all("characteristic check" in f for f in out.failures)


def test_wrong_expected_verdict_is_a_failure():
    case = _case("camassa_holm")
    wrong = workloads.VerdictCase(case.name, case.f, case.g, dict(case.expected, momentum=False))
    out = workloads.verdict_op(_spec_of(wrong), wrong)
    assert out.failures == ["camassa_holm: momentum is True, expected False"]


def test_early_stop_is_a_failure():
    ch = conslaw.EquationSpec.from_strings("ux", "u")
    cfg = pde.SimConfig(40.0, 512, 1e-3, 0.01, ch, {"kind": "gaussian", "params": {}},
                        series_dt=0.25, blowup_threshold=0.1)
    out = workloads.drift_op((("camassa_holm", cfg),))
    assert len(out.failures) == 1 and "wave-breaking" in out.failures[0]


def test_family_mix_is_the_same_for_every_seed():
    def mix(seed):
        return Counter((c.g, "u/(u^2-ux^2)" in c.f, c.f.count("^"), c.expected["momentum"])
                       for c in workloads.family_cases(seed))

    assert mix(1) == mix(2)
    assert workloads.family_cases(1) == workloads.family_cases(1)
    assert workloads.family_cases(1) != workloads.family_cases(2)


def _plain_counts(monkeypatch, ops):
    """Run ops untraced, counting FFTs and euler_u calls with bare counters."""
    counts = Counter()

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counting("fft", getattr(np.fft, name)))
    euler = counting("euler_u", expr.euler_u)
    monkeypatch.setattr(expr, "euler_u", euler)
    monkeypatch.setattr(conslaw, "euler_u", euler)
    tally = Counter()
    for op in ops:
        tally["steps"] += op().steps
    monkeypatch.undo()
    return counts, tally["steps"]


@pytest.mark.parametrize("workload", ["verdicts", "drift_512"])
def test_traced_and_untraced_counts_agree(monkeypatch, tmp_path, workload):
    ops = workloads.build(workload, 5, True, tmp_path).trace_ops
    plain, steps = _plain_counts(monkeypatch, ops)

    originals = (np.fft.rfft, np.fft.irfft, expr.euler_u)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op in ops:
            with tracer.span("bench.op"):
                op()
    finally:
        tracer.uninstall()
    assert (np.fft.rfft, np.fft.irfft, expr.euler_u) == originals
    assert conslaw.euler_u is expr.euler_u
    metrics = tracing.layer_metrics(tracer, steps, Counter())
    assert metrics["expr.euler_u.calls"] == plain["euler_u"]
    assert tracer.counts["pde.fft.calls"] == plain["fft"]
    if workload == "verdicts":
        assert metrics["expr.euler_u.calls_per_classify"] == 8  # ROADMAP baseline
    else:
        assert steps > 0 and metrics["pde.fft_calls_per_step"] == pytest.approx(31, rel=0.1)
    assert all(s[3] is None for s in tracer.spans if s[0] == "bench.op")
