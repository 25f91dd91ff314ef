import json
import math

import pytest

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


def test_classify_rejects_degenerate_equation(capsys):
    code, _, err = run_cli(capsys, "classify", "--f", "0", "--g", "0")
    assert code == 1
    assert "degenerate" in err


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
    # and a non-finite one, which would write a NaN profile
    for a in ("0", "nan", "inf", "-inf"):
        code, _, err = run_cli(capsys, "--out", str(tmp_path), "twave", "peakon", f"--a={a}")
        assert code == 1
        assert "amplitude" in err
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
                       ("energy_mu", "2")):
        path = _sim_config(tmp_path, **{key: value})
        code, _, err = run_cli(capsys, "simulate", str(path))
        assert code == 1
        assert err.startswith("error: invalid simulation config"), (key, err)


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
