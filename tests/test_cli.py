import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from peakonlaws import cli, twave
from peakonlaws.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_camassa_holm(capsys):
    code, out, _ = run_cli(capsys, "classify", "--f", "ux", "--g", "u")
    assert code == 0
    doc = json.loads(out)
    assert doc["momentum"]["conserved"] is True
    assert doc["h1"]["conserved"] is True
    assert doc["l2m"]["conserved"] is False
    assert doc["weighted_h2"]["conserved"] is False


def test_classify_with_parameter(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--f", "a*ux/u^3", "--g", "a/u^2", "--param", "a=1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["grad_energy"]["kind"] == "line"
    assert doc["grad_energy"]["nu"] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("command", ["classify", "verify"])
@pytest.mark.parametrize("params, message", [
    (("a=1", "a=-1"), "error: parameter 'a' is given more than once"),
    (("a=nan",), "error: parameter 'a' must be finite, got 'nan'"),
    (("a=-inf",), "error: parameter 'a' must be finite, got '-inf'"),
    (("a=one",), "error: parameter 'a' must be a number, got 'one'"),
    (("a",), "error: expected name=value, got 'a'"),
    (("=1",), "error: expected name=value, got '=1'"),
])
def test_bad_parameter_is_named(capsys, command, params, message):
    # a repeated name is refused, not overwritten by its last value, a
    # value that is no finite number is refused with the parameter's name,
    # and an item without a name or an "=" is refused as it was given
    args = ["--T", "u", "--Phi", "a*u*m", "--Q", "1"] if command == "verify" else []
    for p in params:
        args += ["--param", p]
    code, out, err = run_cli(capsys, command, "--f", "a*ux", "--g", "u", *args)
    assert code == 1 and out == ""
    assert err.strip() == message


def test_classify_rejects_degenerate_equation(capsys):
    code, _, err = run_cli(capsys, "classify", "--f", "0", "--g", "0")
    assert code == 1
    assert "degenerate" in err


def test_bad_seed_is_an_error(capsys):
    for command in (["classify", "--f", "ux", "--g", "u"],
                    ["verify", "--T", "u", "--Phi", "u*m", "--Q", "1", "--f", "ux", "--g", "u"]):
        code, out, err = run_cli(capsys, "--seed", "-1", *command)
        assert code == 1 and out == ""
        assert err.startswith("error: seed must be an integer >= 0"), err


def test_main_parses_each_call_afresh(tmp_path, capsys, monkeypatch):
    # main builds its parser once per process; a flag of one call, given
    # before or after the subcommand, must not carry over to the next
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    seeds = []
    for i, argv in enumerate((["classify", "--f", "ux", "--g", "u", "--seed", "7"],
                              ["classify", "--f", "ux", "--g", "u"],
                              ["--seed", "9", "classify", "--f", "ux", "--g", "u"],
                              ["classify", "--f", "ux", "--g", "u"])):
        out = tmp_path / str(i)
        assert main([*argv, "--out", str(out)]) == 0
        seeds.append(json.loads((out / "run_manifest.json").read_text())["seed"])
    capsys.readouterr()
    assert seeds == [7, 42, 9, 42]
    assert built == [1]


def test_classify_parse_error_with_caret(capsys):
    code, _, err = run_cli(capsys, "classify", "--f", "ux +* u", "--g", "u")
    assert code == 1
    assert "^" in err


def test_classify_writes_report_and_manifest(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "--out", str(tmp_path), "classify", "--f", "ux", "--g", "u"
    )
    assert code == 0
    report = json.loads((tmp_path / "classify_report.json").read_text())
    assert report == json.loads(out)
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["subcommand"] == "classify"
    assert manifest["seed"] == 42
    assert manifest["outputs"]


def test_classify_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "classify", "--f", "u*ux", "--g", "u^2")
    _, out2, _ = run_cli(capsys, "classify", "--f", "u*ux", "--g", "u^2")
    assert out1 == out2


def test_twave_solitary(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "--out", str(tmp_path), "twave", "solitary", "--b", "0.5", "--c", "1",
        "--n-points", "201",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["peak_height"] == pytest.approx(0.6614378277661477, abs=1e-12)
    assert doc["c2"] == pytest.approx(1.75, abs=1e-8)
    assert doc["c1"] == pytest.approx(1.75**2 / 4.0, abs=1e-8)
    csv_lines = (tmp_path / "twave_solitary.csv").read_text().splitlines()
    assert csv_lines[0] == "xi,U,Uprime"
    assert len(csv_lines) == 202
    # each number as f"{v:.17g}" writes it, rows ended by "\n"
    profile = twave.solitary_profile(0.5, 1.0, np.linspace(-15.0, 15.0, 201))
    rows = zip(profile.xi.tolist(), profile.U.tolist(), profile.Uprime.tolist())
    expected = "xi,U,Uprime\n" + "".join([",".join([f"{v:.17g}" for v in row]) + "\n" for row in rows])
    assert (tmp_path / "twave_solitary.csv").read_text() == expected


def test_twave_solitary_range_error(capsys):
    code, _, err = run_cli(capsys, "twave", "solitary", "--b", "1.5", "--c", "1")
    assert code == 1
    assert "b" in err


@pytest.mark.parametrize("mode_args", [("solitary", "--b", "0.5", "--c", "1"), ("peakon", "--a", "2")])
@pytest.mark.parametrize("bad", [("--xi-max", "nan"), ("--xi-max", "inf"), ("--xi-max", "0"),
                                 ("--xi-max", "-3"), ("--n-points", "0")])
def test_twave_rejects_bad_grid(tmp_path, capsys, mode_args, bad):
    code, _, err = run_cli(capsys, "--out", str(tmp_path), "twave", *mode_args, *bad)
    assert code == 1
    assert bad[0] in err
    assert not list(tmp_path.iterdir())


def test_twave_peakon(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "--out", str(tmp_path), "twave", "peakon", "--a", "2", "--n-points", "101"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["c"] == 0.25
    assert doc["peak_height"] == 2.0


def test_twave_peakon_zero_amplitude(tmp_path, capsys):
    # and a non-finite one, which would write a NaN profile, and those
    # whose speed 1/a^2 is not a positive finite float
    for a in ("0", "nan", "inf", "-inf", "1e-200", "1e-160", "1e200"):
        code, _, err = run_cli(capsys, "--out", str(tmp_path), "twave", "peakon", f"--a={a}")
        assert code == 1
        assert "amplitude" in err
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("extreme", [("--c", "1e-300"), ("--c", "1e300"), ("--c", "1", "--xi-max", "1e308")])
def test_twave_solitary_extreme_scales(tmp_path, capsys, extreme):
    # U^3 overflows, U underflows, or the grid's span 2*xi_max overflows:
    # one error line, no warning and no file, never a NaN in the JSON
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "--out", str(tmp_path), "twave", "solitary", "--b", "0.5", *extreme)
    assert code == 1 and not out
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert not list(tmp_path.iterdir())


def test_verify_spatial_example(capsys):
    code, out, _ = run_cli(
        capsys, "verify",
        "--T=0",
        "--Phi=(u^3-u*ux^2-(u^2-3*ux^2)*m+utx)^2-(u^2*ux-ux^3+ut)^2",
        "--Q=2*u*(ux^2-u^2)+2*(u^2-3*ux^2)*m-2*utx",
        "--f=-2*u*ux",
        "--g=u^2-3*ux^2",
    )
    assert code == 0
    assert json.loads(out)["zero"] is True


def test_verify_detects_corruption(capsys):
    code, out, _ = run_cli(
        capsys, "verify",
        "--T", "u", "--Phi", "u*m - utx + 0.5*(u^2-ux^2) + u", "--Q", "1",
        "--f", "ux", "--g", "u",
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["zero"] is False and doc["witness"]
    # the characteristic check samples the whole residual, m included
    assert {"m", "u", "ux", "value", "scale"} <= set(doc["witness"]) and "monomial" not in doc["witness"]


def test_classify_witness_names_its_monomial(capsys):
    # Novikov breaks momentum, Degasperis-Procesi the H1 norm; each failed
    # verdict names the m-monomial whose (u, ux) coefficient is not zero
    for f, field in (("u*ux", "momentum"), ("2*ux", "h1")):
        code, out, _ = run_cli(capsys, "classify", "--f", f, "--g", "u" if f == "2*ux" else "u^2")
        assert code == 0
        doc = json.loads(out)
        assert doc[field]["conserved"] is False
        witness = doc[field]["witness"]
        assert set(witness) == {"u", "ux", "value", "scale", "monomial"}
        assert witness["monomial"] in ("1", "m")
        assert doc["l2m"]["witness"]["monomial"]


@pytest.mark.parametrize("a, Phi, code", [
    ("2", "a*(u*m + 0.5*(u^2-ux^2)) - utx", 0),
    ("2", "2*(u*m + 0.5*(u^2-ux^2)) - utx", 0),
    ("3", "2*(u*m + 0.5*(u^2-ux^2)) - utx", 2),
])
def test_verify_binds_its_parameters(capsys, a, Phi, code):
    # T = u is conserved by f = a*ux, g = a*u with flux Phi = a*(u*m +
    # (u^2-ux^2)/2) - u_tx: a is bound in the current as in the equation
    got, out, _ = run_cli(capsys, "verify", "--T", "u", "--Phi", Phi, "--Q", "1",
                          "--f", "a*ux", "--g", "a*u", "--param", f"a={a}")
    assert got == code
    assert json.loads(out)["zero"] is (code == 0)


@pytest.mark.parametrize("command", ["classify", "verify"])
def test_no_admissible_sample_point_is_an_error(capsys, command):
    # ln(-u^2) is finite nowhere: sampling gives up, and the CLI reports it
    args = ["--T", "u", "--Phi", "0", "--Q", "1"] if command == "verify" else []
    code, out, err = run_cli(capsys, command, "--f", "ln(-u^2)", "--g", "u", *args)
    assert code == 1 and out == ""
    assert err.startswith("error: could not find admissible sample points")


def test_verify_parse_error(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--T", "u", "--Phi", "u +", "--Q", "1",
        "--f", "ux", "--g", "u",
    )
    assert code == 1


def _sim_config(tmp_path, **overrides):
    doc = {
        "L": 40.0, "N": 64, "dt": 1e-3, "t_final": 0.2, "dealias": True,
        "equation": {"f": "ux", "g": "u", "params": {}},
        "initial": {"kind": "gaussian", "params": {}},
        "series_dt": 0.05,
        "output": {"series_path": "series.csv", "snapshot_times": [0.0, 0.1], "snapshot_path": "snaps.csv"},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("number", ["NaN", "-Infinity", "1e400"])
def test_simulate_rejects_a_number_json_cannot_write_back(tmp_path, capsys, number):
    # the manifest repeats the config, so a NaN, an infinity or a number
    # that overflows to inf is bad input even in a key the solver does not read
    path = _sim_config(tmp_path)
    path.write_text(path.read_text()[:-1] + f', "note": {number}}}')
    code, _, err = run_cli(capsys, "--out", str(tmp_path / "out"), "simulate", str(path))
    assert code == 1
    assert err.startswith("error: invalid simulation config") and number in err
    assert not (tmp_path / "out").exists()


def test_simulate_normal_run(tmp_path, capsys):
    path = _sim_config(tmp_path)
    code, out, _ = run_cli(capsys, "--out", str(tmp_path), "simulate", str(path))
    assert code == 0
    series = (tmp_path / "series.csv").read_text().splitlines()
    assert series[0] == "t,M,H1sq,L2msq,E,sup_u,sup_ux,min_u"
    assert len(series) > 3
    snaps = (tmp_path / "snaps.csv").read_text().splitlines()
    assert snaps[0] == "t,x,u,m"
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"


def test_simulate_reproducible_bytes(tmp_path, capsys):
    path = _sim_config(tmp_path)
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert run_cli(capsys, "--out", str(out1), "simulate", str(path))[0] == 0
    assert run_cli(capsys, "--out", str(out2), "simulate", str(path))[0] == 0
    assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()
    assert (out1 / "snaps.csv").read_bytes() == (out2 / "snaps.csv").read_bytes()


def test_simulate_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"L": 40.0}))
    code, _, err = run_cli(capsys, "simulate", str(path))
    assert code == 1
    assert "config" in err
    for text in ("[1, 2]", "{not json"):
        path.write_text(text)
        code, _, err = run_cli(capsys, "simulate", str(path))
        assert code == 1
        assert err.startswith("error:")
    for initial in ({"kind": "sawtooth", "params": {}},
                    {"kind": "solitary_wave", "params": {"c": 1.0}},
                    {"kind": "solitary_wave", "params": {"b": 1.5, "c": 1.0}},
                    {"kind": "solitary_wave", "params": {"b": 0.5, "c": math.nan}},
                    {"kind": "solitary_wave", "params": {"b": 0.5, "c": 1.0, "center": "mid"}},
                    {"kind": "gaussian", "params": {"amplitude": "x"}}):
        path = _sim_config(tmp_path, initial=initial)
        code, _, err = run_cli(capsys, "simulate", str(path))
        assert code == 1
        assert err.startswith("error: invalid simulation config")
    # non-finite numbers: not a traceback, a NaN run or a run that cannot
    # detect wave breaking
    for key, value in (("dt", math.nan), ("t_final", math.inf), ("L", math.nan),
                       ("blowup_threshold", math.nan), ("min_u_floor", -math.inf),
                       ("energy_mu", math.inf), ("energy_nu", math.nan)):
        path = _sim_config(tmp_path, **{key: value})
        code, _, err = run_cli(capsys, "simulate", str(path))
        assert code == 1
        assert err.startswith("error: invalid simulation config"), (key, err)
    # a grid the solver cannot use, a dealias flag that is not a boolean,
    # and sizes that are not JSON numbers
    for key, value in (("N", 100), ("L", 0.0), ("L", -40.0), ("dealias", "false"),
                       ("N", 256.7), ("N", "256"), ("L", "40"), ("dt", "0.001"),
                       ("energy_mu", "2"), ("output", {"series_path": 5})):
        path = _sim_config(tmp_path, **{key: value})
        code, _, err = run_cli(capsys, "simulate", str(path))
        assert code == 1
        assert err.startswith("error: invalid simulation config"), (key, err)


@pytest.mark.parametrize("command", [("classify", "--f", "ux", "--g", "u"),
                                     ("twave", "peakon", "--a", "2", "--n-points", "11"),
                                     ("simulate",)])
def test_out_that_is_a_file_is_an_error(tmp_path, capsys, command):
    # an --out that names an existing file is bad input, not a traceback
    taken = tmp_path / "taken"
    taken.write_text("")
    if command == ("simulate",):
        command += (str(_sim_config(tmp_path)),)
    code, out, err = run_cli(capsys, "--out", str(taken), *command)
    assert code == 1
    assert err.startswith("error:") and "taken" in err
    assert out == "" and taken.read_text() == ""


@pytest.mark.parametrize("output", [
    {"series_path": ""},  # the output directory itself
    {"snapshot_times": [0.0], "snapshot_path": "missing/snaps.csv"},
])
def test_simulate_output_that_cannot_be_written_is_an_error(tmp_path, capsys, monkeypatch, output):
    # the path is checked before the run, which never starts; the failed
    # check is bad input, not a traceback
    def no_run(config):
        raise AssertionError("the solver ran before the output paths were checked")

    monkeypatch.setattr(cli.pde, "run", no_run)
    path = _sim_config(tmp_path, output=output)
    code, out, err = run_cli(capsys, "--out", str(tmp_path), "simulate", str(path))
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert "status:" not in out


def test_simulate_wave_breaking_exit(tmp_path, capsys):
    path = _sim_config(tmp_path, t_final=5.0, blowup_threshold=1.0, N=256)
    code, out, _ = run_cli(capsys, "--out", str(tmp_path), "simulate", str(path))
    assert code == 3
    assert (tmp_path / "series.csv").exists()  # partial outputs retained


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_simulate_singularity_exit(tmp_path, capsys):
    path = _sim_config(
        tmp_path,
        equation={"f": "ux/u^3", "g": "1/u^2", "params": {}},
        initial={"kind": "cosine_offset", "params": {"offset": 0.0005, "amplitude": 0.5}},
        N=256,
    )
    code, _, _ = run_cli(capsys, "--out", str(tmp_path), "simulate", str(path))
    assert code == 4


COLD_START = textwrap.dedent("""
    import json, sys
    from pathlib import Path
    from peakonlaws import cli, twave

    out = Path(sys.argv[1])
    assert cli.main(["classify", "--f", "ux", "--g", "u"]) == 0
    assert cli.main(["classify", "--f", "ux/u^3", "--g", "1/u^2"]) == 0
    # the momentum current of a power-family member fits a power law by a
    # median, which np.median would take with an import of numpy.ma
    assert cli.main(["classify", "--f", "ux*(u^2-ux^2)^(1/2)", "--g", "u"]) == 0
    assert "numpy.ma" not in sys.modules
    # the solver loads numpy.fft on its first transform
    assert "numpy.fft" not in sys.modules
    assert cli.main(["--out", str(out), "twave", "solitary", "--b", "0.5", "--c", "1"]) == 0
    config = out / "solitary.json"
    config.write_text(json.dumps({
        "L": 20.0, "N": 256, "dt": 4e-5, "t_final": 2e-4,
        "equation": {"f": "ux/u^3", "g": "1/u^2", "params": {}},
        "initial": {"kind": "solitary_wave", "params": {"b": 0.5, "c": 1.0}},
        "series_dt": 4e-5,
        "output": {"series_path": "series.csv"},
    }))
    assert cli.main(["--out", str(out), "simulate", str(config)]) == 0
    assert len((out / "series.csv").read_text().splitlines()) == 7
    assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
    # the one use of scipy loads it on its first call
    assert twave.quadrature_crosscheck(0.5, 1.0) <= 1e-6
    assert "scipy.integrate" in sys.modules
""")


def test_cold_start_loads_no_scipy(tmp_path):
    # classify, twave and simulate run without scipy, and classify without
    # numpy.fft or numpy.ma; only twave.quadrature_crosscheck imports scipy
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
