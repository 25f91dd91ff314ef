"""Seeded inputs and operations of the benchmark workloads.

Each workload builds its inputs from the seed (`build`) and returns a list
of operations. An operation is one closed-loop call into the program; it
returns an `Outcome` listing every failed check, so the timing loop never
trusts the code it measures. Operations reach the program through module
attributes (`conslaw.classify`, `pde.run`, ...) so that the tracer's
wrappers are the functions they call.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import os
import shutil
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from peakonlaws import cli, conslaw, expr, pde

import expected

G_FORMS = ("u", "u^2", "u^2-ux^2", "1/u^2", "exp(u)", "sqrt(u^2+1)")
# the sampling policy of the reference verdicts (SamplingPolicy(seed=42))
VERDICT_POLICY = expr.SamplingPolicy(seed=42)


@dataclass
class Outcome:
    failures: list = field(default_factory=list)
    steps: int = 0  # RK4 steps completed
    currents_built: int = 0
    indeterminate: int = 0
    bytes_written: int = 0


MIN_OPS = 100  # so that at least 10 latencies lie beyond p90


@dataclass
class Inputs:
    ops: list  # the timed loop cycles through these
    trace_ops: list  # the fixed list of the traced run
    min_ops: int = MIN_OPS  # the timed loop runs at least this many
    cleanup: Callable[[], None] = lambda: None


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class VerdictCase:
    name: str
    f: str
    g: str
    expected: dict


def family_cases(seed: int) -> list[VerdictCase]:
    """108 members f = ux*f1(u^2-ux^2) [+ u/(u^2-ux^2)] [+ 0.001*u].

    Three blocks, each holding every combination of g form (6), pole term
    (2) and f1 degree (3) once, in a seeded order; a third of each block
    is perturbed, and each combination is perturbed in one block. Every
    run thus sees the same mix, also in the part of a second pass that a
    fast commit reaches; the seed draws the order and the coefficients.
    """
    rng = np.random.default_rng(seed)
    combos = list(itertools.product(range(len(G_FORMS)), (0, 1), (0, 1, 2)))
    cases = []
    for block in range(3):
        for i in rng.permutation(len(combos)):
            gi, pole, degree = combos[i]
            perturbed = (gi + pole + degree + block) % 3 == 0
            coeffs = rng.uniform(-2.0, 2.0, degree + 1)
            f = "ux*(" + "+".join(f"({c:.12f})*(u^2-ux^2)^{k}" for k, c in enumerate(coeffs)) + ")"
            if pole:
                f += "+u/(u^2-ux^2)"
            if perturbed:
                f += "+" + expected.FAMILY_PERTURBATION
            cases.append(VerdictCase(f"family_{len(cases)}", f, G_FORMS[gi], {"momentum": not perturbed}))
    return cases


def reference_cases() -> list[VerdictCase]:
    return [VerdictCase(name, f, g, exp) for name, (f, g, exp) in expected.REFERENCE_EQUATIONS.items()]


def verdict_op(eq, case: VerdictCase, corrupt: bool = False) -> Outcome:
    """classify, then characteristic_check on every current it returns.

    `corrupt` adds u to every flux before the check (a self-test of the
    gate: such a current must fail).
    """
    out = Outcome()
    try:
        report = conslaw.classify(eq, VERDICT_POLICY)
        verdicts = {
            "momentum": report.momentum.conserved,
            "h1": report.h1.conserved,
            "l2m": report.l2m.conserved,
            "weighted_h2": report.weighted_h2.conserved,
            "grad_energy": report.grad_energy.kind,
        }
        out.indeterminate = sum(v is None or v == "indeterminate" for v in verdicts.values())
        if out.indeterminate:
            out.failures.append(f"{case.name}: indeterminate verdicts {verdicts}")
        for key, want in case.expected.items():
            if verdicts[key] != want:
                out.failures.append(f"{case.name}: {key} is {verdicts[key]}, expected {want}")
        for cur in report.fluxes:
            out.currents_built += 1
            if corrupt:
                cur = conslaw.ConservedCurrent(cur.name, cur.T, cur.Phi + expr.var("u"), cur.Q)
            if conslaw.characteristic_check(cur, eq, VERDICT_POLICY).conserved is not True:
                out.failures.append(f"{case.name}: current {cur.name} fails the characteristic check")
    except expr.SingularSamplingError as err:
        out.failures.append(f"{case.name}: SingularSamplingError: {err}")
    return out


def build_verdicts(seed: int, tiny: bool, workdir: Path) -> Inputs:
    cases = reference_cases() + family_cases(seed)
    if tiny:
        cases = cases[:2] + cases[7:9]
    ops = []
    for case in cases:
        eq = conslaw.EquationSpec.from_strings(case.f, case.g)
        ops.append(lambda eq=eq, case=case: verdict_op(eq, case))
    # timed runs process every equation; the traced run the reference
    # equations and the first 29 family members
    return Inputs(ops, ops[:36], min_ops=max(len(ops), MIN_OPS))


# ---------------------------------------------------------------------------
# drift_512

# tests/test_acceptance.py criterion 6: L=40, N=512, dt=1e-3, series_dt=0.25;
# only t_final is shortened (10.0 there), to 50..200 steps
DRIFT_STEPS = (50, 200)
DRIFT_POOL = 256  # operations before the loop repeats, more than a run reaches
TINY_STEPS = 10


def run_lengths(rng, low: int, high: int, count: int) -> np.ndarray:
    """Run lengths in [low, high], evenly spread over every prefix of the list.

    A golden-ratio sequence from a seeded start. Distinct lengths spread
    operation latencies continuously: the machine the baseline was measured
    on switches between two speeds every few seconds, and the median latency
    of a few repeated lengths jumps between discrete levels from run to run.
    Even prefixes keep the mix of a run the same, however far it gets.
    """
    frac = (rng.random() + np.arange(count) * 0.6180339887498949) % 1.0
    return np.rint(low + (high - low) * frac).astype(int)


def drift_op(runs) -> Outcome:
    out = Outcome()
    for name, cfg in runs:
        res = pde.run(cfg)
        out.steps += int(round(res.final.t / cfg.dt))
        if res.status != expected.RUN_STATUS:
            out.failures.append(f"{name}: status {res.status!r} ({res.message})")
            continue
        for key in expected.DRIFT_512_CONSERVED[name]:
            drift = pde.ConservedSeries.relative_drift(getattr(res.series, key))
            if not drift <= expected.DRIFT_512_BOUND:
                out.failures.append(f"{name}: {key} drifts {drift:.3e} > {expected.DRIFT_512_BOUND:g}")
    return out


def build_drift(seed: int, tiny: bool, workdir: Path) -> Inputs:
    rng = np.random.default_rng(seed)
    ch = conslaw.EquationSpec.from_strings("ux", "u")
    singular = conslaw.EquationSpec.from_strings("ux/u^3", "1/u^2")
    length, dt = 40.0, 1e-3
    ops = []
    for steps in run_lengths(rng, *DRIFT_STEPS, DRIFT_POOL):
        t_final = (TINY_STEPS if tiny else steps) * dt
        center = rng.uniform(length / 4.0, 3.0 * length / 4.0)
        runs = (
            ("camassa_holm", pde.SimConfig(
                length, 512, dt, t_final, ch,
                {"kind": "gaussian", "params": {"center": center}}, series_dt=0.25)),
            ("singular", pde.SimConfig(
                length, 512, dt, t_final, singular,
                {"kind": "cosine_offset", "params": {"offset": 2.0, "amplitude": 0.5}},
                series_dt=0.25)),
        )
        ops.append(lambda runs=runs: drift_op(runs))
    return Inputs(ops, ops[:4])


# ---------------------------------------------------------------------------
# transport_1024

# tests/test_twave.py::test_solitary_wave_transport_in_simulator (L=20,
# N=1024, dt=4e-5, series_dt=1.0, 11 snapshots) and tests/test_acceptance.py
# criterion 9 (L=4, N=1024, dt=1e-4, series_dt=0.5, 21 snapshots,
# min_u_floor=1e-3). t_final is shortened from 5.0 to 20..80 steps, so that
# a run holds >= 100 operations, and 3 snapshots are spread over each run.
SOLITARY = {"L": 20.0, "N": 1024, "dt": 4e-5, "series_dt": 1.0}
PEAKON = {"L": 4.0, "N": 1024, "dt": 1e-4, "series_dt": 0.5}
TRANSPORT_STEPS = (20, 80)
TRANSPORT_POOL = 128
SNAPSHOTS = 3


def _simulate_config(spec: dict, steps: int, initial: dict, **extra) -> dict:
    t_final = steps * spec["dt"]
    return {
        "L": spec["L"], "N": spec["N"], "dt": spec["dt"], "t_final": t_final,
        "equation": {"f": "ux/u^3", "g": "1/u^2", "params": {}},
        "initial": initial,
        "series_dt": spec["series_dt"],
        "output": {
            "series_path": "series.csv",
            "snapshot_path": "snapshots.csv",
            "snapshot_times": [float(t) for t in np.linspace(0.0, t_final, SNAPSHOTS)],
        },
        **extra,
    }


def _read_series(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: [float(r[key]) for r in rows] for key in rows[0]}


def transport_op(runs) -> Outcome:
    out = Outcome()
    for name, cfg_path, out_dir, dt in runs:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = cli.main(["simulate", str(cfg_path), "--out", str(out_dir)])
        out.bytes_written += sum(p.stat().st_size for p in out_dir.iterdir())
        if code != 0:
            out.failures.append(f"{name}: simulate exited {code}")
            continue
        series = _read_series(out_dir / "series.csv")
        out.steps += int(round(series["t"][-1] / dt))
        if name != "solitary":
            continue
        for key in expected.TRANSPORT_SOLITARY_CONSERVED:
            drift = pde.ConservedSeries.relative_drift(series[key])
            if not drift < expected.TRANSPORT_SOLITARY_BOUND:
                out.failures.append(f"{name}: {key} drifts {drift:.3e} >= {expected.TRANSPORT_SOLITARY_BOUND:g}")
    return out


def build_transport(seed: int, tiny: bool, workdir: Path) -> Inputs:
    rng = np.random.default_rng(seed)
    out_dirs = {name: workdir / name for name in ("solitary", "peakon")}
    for out_dir in out_dirs.values():
        out_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for i, steps in enumerate(run_lengths(rng, *TRANSPORT_STEPS, TRANSPORT_POOL)):
        steps = TINY_STEPS if tiny else int(steps)
        sol_center = rng.uniform(SOLITARY["L"] / 4.0, 3.0 * SOLITARY["L"] / 4.0)
        peak_center = rng.uniform(PEAKON["L"] / 4.0, 3.0 * PEAKON["L"] / 4.0)
        configs = (
            ("solitary", SOLITARY["dt"], _simulate_config(
                SOLITARY, steps, {"kind": "solitary_wave", "params": {"b": 0.5, "c": 1.0, "center": sol_center}})),
            ("peakon", PEAKON["dt"], _simulate_config(
                PEAKON, steps, {"kind": "mollified_peakon", "params": {"amplitude": 1.0, "center": peak_center}},
                min_u_floor=1e-3)),
        )
        runs = []
        for name, dt, doc in configs:
            cfg_path = workdir / f"{name}_{i}.json"
            cfg_path.write_text(json.dumps(doc))
            runs.append((name, cfg_path, out_dirs[name], dt))
        ops.append(lambda runs=tuple(runs): transport_op(runs))
    return Inputs(ops, ops[:4], cleanup=lambda: shutil.rmtree(workdir, ignore_errors=True))


BUILDERS = {"verdicts": build_verdicts, "drift_512": build_drift, "transport_1024": build_transport}


def build(workload: str, seed: int, tiny: bool, workdir: Path) -> Inputs:
    warnings.simplefilter("ignore")  # CFL sanity warnings of the reference runs
    return BUILDERS[workload](seed, tiny, workdir)
