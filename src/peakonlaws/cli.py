"""Command-line driver: classify / simulate / twave / verify.

Every invocation that writes files also writes a run_manifest.json with
the resolved configuration, seed, tool version and output paths; with a
fixed seed and thread count a re-run reproduces the data files
bit-identically.  All numbers are printed with 17 significant digits; the
CSV files of simulate and twave are written by pde's vectorized writer,
whose bytes equal Python's "%.17g" % v (with a per-value fallback).

Exit codes: 0 success (determinate / zero residual), 1 bad input,
2 indeterminate verdict or nonzero residual, 3 wave-breaking termination,
4 singularity guard.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import pde, twave
from .conslaw import (
    ConservedCurrent,
    EquationSpec,
    characteristic_check,
    classify,
)
from .expr import ExprError, ParseError, SamplingPolicy, SingularSamplingError, bind_params, parse

__all__ = ["main"]


def _parse_params(items) -> dict:
    out = {}
    for item in items or ():
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ValueError(f"expected name=value, got {item!r}")
        if name in out:
            raise ValueError(f"parameter {name!r} is given more than once")
        try:
            out[name] = float(value)
        except ValueError:
            raise ValueError(f"parameter {name!r} must be a number, got {value!r}") from None
        if not math.isfinite(out[name]):
            raise ValueError(f"parameter {name!r} must be finite, got {value!r}")
    return out


def _finite(text: str) -> float:
    """A number of a JSON document; NaN, Infinity and overflow to inf raise ValueError."""
    if not math.isfinite(value := float(text)):
        raise ValueError(f"invalid simulation config: {text} is not a finite number")
    return value


def _write_manifest(out_dir: Path, command: str, config: dict, seed: int, outputs: list):
    manifest = {
        "subcommand": command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": [str(p) for p in outputs],
    }
    path = out_dir / "run_manifest.json"
    path.write_text(json.dumps(manifest, indent=2, allow_nan=False) + "\n")
    return path


def _policy(args) -> SamplingPolicy:
    return SamplingPolicy(seed=args.seed)


def cmd_classify(args) -> int:
    try:
        params = _parse_params(args.param)
        eq = EquationSpec.from_strings(args.f, args.g, params)
        policy = _policy(args)
    except (ParseError, ExprError, ValueError) as err:
        _report_parse_error(err, {"f": args.f, "g": args.g})
        return 1
    try:
        report = classify(eq, policy)
        text = json.dumps(report.to_json(), indent=2, allow_nan=False)
    except (SingularSamplingError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.out:
        out_dir = Path(args.out)
        report_path = out_dir / "classify_report.json"
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            report_path.write_text(text + "\n")
            _write_manifest(
                out_dir, "classify",
                {"f": args.f, "g": args.g, "params": params},
                args.seed, [report_path],
            )
        except OSError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
    print(text)
    return 0 if report.determinate else 2


def cmd_simulate(args) -> int:
    cfg_path = Path(args.config)
    out_dir = Path(args.out) if args.out else cfg_path.parent
    try:
        raw = json.loads(cfg_path.read_text(), parse_float=_finite, parse_constant=_finite)
        config = pde.read_config(raw)
        out_dir.mkdir(parents=True, exist_ok=True)
        out_spec = raw.get("output", {})
        series_path = out_dir / out_spec.get("series_path", "series.csv")
        snapshot_path = out_dir / out_spec.get("snapshot_path", "snapshots.csv")
        # an output file that cannot be written stops the command before the run
        for path in (series_path, snapshot_path) if config.snapshot_times else (series_path,):
            if path.is_dir() or not path.parent.is_dir():
                raise OSError(f"cannot write {path}: it is a directory, or its directory is missing")
    except (OSError, ValueError, ParseError, ExprError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    result = pde.run(config)
    try:
        pde.write_series_csv(series_path, result.series)
        outputs = [series_path]
        if result.snapshots:
            pde.write_snapshots_csv(snapshot_path, config.grid, result.snapshots)
            outputs.append(snapshot_path)
        _write_manifest(out_dir, "simulate", raw, args.seed, outputs)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    print(f"status: {result.status}")
    if result.message:
        print(result.message)
    print(f"series: {series_path}")
    if result.status == pde.STATUS_WAVE_BREAKING:
        return 3
    if result.status == pde.STATUS_SINGULAR:
        return 4
    return 0


def cmd_twave(args) -> int:
    try:
        if not 0.0 < args.xi_max <= sys.float_info.max / 2.0:
            raise ValueError(f"--xi-max must be positive with 2*xi_max finite, got {args.xi_max}")
        if args.n_points < 1:
            raise ValueError(f"--n-points must be at least 1, got {args.n_points}")
        xi = np.linspace(-args.xi_max, args.xi_max, args.n_points)
        if args.mode == "solitary":
            profile = twave.solitary_profile(args.b, args.c, xi)
            res = twave.solitary_ode_residual(profile)
            sidecar = {
                "b": args.b,
                "c": args.c,
                "peak_height": profile.peak_height,
                "c1": res.c1,
                "c2": res.c2,
                "residual_max_ode1": res.first_order_max,
                "residual_rms_ode3": res.third_order_rms,
            }
        else:
            profile = twave.peakon(args.a, xi)
            sidecar = {
                "a": args.a,
                "c": profile.c,
                "peak_height": profile.peak_height,
            }
        text = json.dumps(sidecar, indent=2, allow_nan=False)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    out_dir = Path(args.out) if args.out else Path(".")
    csv_path = out_dir / f"twave_{args.mode}.csv"
    json_path = out_dir / f"twave_{args.mode}.json"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(csv_path, "w") as fh:
            fh.write("xi,U,Uprime\n")
            fh.write(pde._table_text([profile.xi, profile.U, profile.Uprime], "\n"))
        json_path.write_text(text + "\n")
        _write_manifest(out_dir, f"twave {args.mode}", vars(args) | {"func": None},
                        args.seed, [csv_path, json_path])
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(text)
    return 0


def cmd_verify(args) -> int:
    try:
        params = _parse_params(args.param)
        eq = EquationSpec.from_strings(args.f, args.g, params)
        cur = ConservedCurrent("cli", *(bind_params(parse(src, params), params) for src in (args.T, args.Phi, args.Q)))
        policy = _policy(args)
    except (ParseError, ExprError, ValueError) as err:
        _report_parse_error(err, {"T": args.T, "Phi": args.Phi, "Q": args.Q})
        return 1
    try:
        verdict = characteristic_check(cur, eq, policy)
    except SingularSamplingError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    out = {
        "zero": verdict.conserved,
        "residual_max": verdict.residual_max,
        "witness": verdict.witness,
    }
    print(json.dumps(out, indent=2))
    return 0 if verdict.conserved else 2


def _report_parse_error(err: Exception, sources: dict):
    print(f"error: {err}", file=sys.stderr)
    if isinstance(err, ParseError):
        # caret display against each candidate source
        for name, src in sources.items():
            if 0 <= err.position <= len(src):
                print(f"  {name}: {src}", file=sys.stderr)
                print(f"     {' ' * (len(name) + err.position)}^", file=sys.stderr)
                break


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="peakonlaws",
        description="conservation-law verification and simulation for "
                    "m_t + f(u,ux)*m + (g(u,ux)*m)_x = 0",
    )
    ap.add_argument("--seed", type=int, default=42, help="sampling seed (default 42)")
    ap.add_argument("--out", type=str, default=None, help="output directory")
    # the global flags are also accepted after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out", type=str, default=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common],
                       help="conservation-law verdicts for one equation")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("simulate", parents=[common], help="run a simulation from a JSON config")
    p.add_argument("config")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("twave", help="travelling-wave profiles")
    tsub = p.add_subparsers(dest="mode", required=True)
    ps = tsub.add_parser("solitary", parents=[common])
    ps.add_argument("--b", type=float, required=True)
    ps.add_argument("--c", type=float, required=True)
    ps.add_argument("--xi-max", type=float, default=15.0)
    ps.add_argument("--n-points", type=int, default=3001)
    ps.set_defaults(func=cmd_twave)
    pp = tsub.add_parser("peakon", parents=[common])
    pp.add_argument("--a", type=float, required=True)
    pp.add_argument("--xi-max", type=float, default=15.0)
    pp.add_argument("--n-points", type=int, default=3001)
    pp.set_defaults(func=cmd_twave)

    p = sub.add_parser("verify", parents=[common], help="off-shell characteristic-equation check")
    for flag in ("--T", "--Phi", "--Q", "--f", "--g"):
        p.add_argument(flag, required=True)
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    p.set_defaults(func=cmd_verify)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process (about 2 ms); parse_args keeps no state on it
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    code = args.func(args)
    if argv is None:  # invoked as a console script
        sys.exit(code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
