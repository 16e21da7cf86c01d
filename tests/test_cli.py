import json

from bchwaves import CoefficientInconsistency, cli
from bchwaves.cli import main

REF = ["--b", "2", "--a", "0.1", "--E", "0.09", "--c", "1"]


def test_profile_command(tmp_path, capsys):
    rc = main(["profile", *REF, "--N", "256", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "profile.csv").read_text().strip().splitlines()
    assert lines[0] == "x,phi,dphi,d2phi,mu,dmu"
    assert len(lines) == 257
    header = json.loads((tmp_path / "profile.json").read_text())
    assert header["N"] == 256
    assert header["params"]["b"] == 2.0
    assert 5.5 < header["T"] < 5.6
    assert "T=" in capsys.readouterr().out


def test_profile_existence_gate(tmp_path, capsys):
    rc = main(["profile", "--b", "2", "--a", "0.2", "--E", "0.09", "--c", "1",
               "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "a outside" in err


def test_profile_missing_parameter(tmp_path, capsys):
    rc = main(["profile", "--b", "2", "--a", "0.1", "--c", "1",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "missing required" in capsys.readouterr().err


def test_classify_command(tmp_path, capsys):
    rc = main(["classify", *REF, "--N", "256", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "classify.json").read_text())
    assert payload["classification"] == "StableCriteriaMet"
    assert payload["jacobians"]["J_T_omega1"] > 0
    assert "theta" in payload["jacobians"]
    assert payload["config"]["N"] == 256
    assert "StableCriteriaMet" in capsys.readouterr().out


def test_spectrum_command(tmp_path):
    rc = main(["spectrum", *REF, "--N", "256", "--out", str(tmp_path),
               "--format", "csv"])
    assert rc == 0
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload["spectrum"]["n_neg"] == 1
    assert payload["spectrum"]["n_zero"] == 1
    assert payload["identities"]["psi_identity_residual"] < 1e-3
    lines = (tmp_path / "eigenvalues.csv").read_text().strip().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == payload["spectrum"]["M"] + 1


def test_spectrum_unconverged_exit_code(tmp_path, capsys):
    rc = main(["spectrum", *REF, "--N", "256", "--modes", "8",
               "--out", str(tmp_path)])
    assert rc == 3
    assert "numerical error" in capsys.readouterr().err


def test_spectrum_rejects_nonpositive_modes(tmp_path, capsys):
    rc = main(["spectrum", *REF, "--N", "256", "--modes", "0",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "mode count" in capsys.readouterr().err


def _raise_coefficient_inconsistency(*args, **kwargs):
    raise CoefficientInconsistency("coefficient check failed")


def test_spectrum_coefficient_inconsistency_exit_code(tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.setattr(cli, "assemble_operator",
                        _raise_coefficient_inconsistency)
    rc = main(["spectrum", *REF, "--N", "256", "--out", str(tmp_path)])
    assert rc == 3
    assert "numerical error" in capsys.readouterr().err


def test_sweep_coefficient_inconsistency_row(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "assemble_operator",
                        _raise_coefficient_inconsistency)
    out = tmp_path / "s"
    rc = main(["sweep", "--b", "2", "--c", "1", "--a-range", "0.1:0.1:1",
               "--E-range", "0.09:0.09:1", "--N", "256", "--modes", "64",
               "--jobs", "1", "--out", str(out)])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    assert ",CoefficientInconsistency: coefficient check failed," in lines[1]


def test_evolve_command(tmp_path):
    rc = main(["evolve", *REF, "--N", "128", "--eps", "1e-3",
               "--horizon-periods", "0.5", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "evolve.csv").read_text().strip().splitlines()
    assert lines[0] == "t,E_drift,F1_drift,F2_drift,rho"
    assert len(lines) > 3
    summary = json.loads((tmp_path / "evolve.json").read_text())
    assert summary["outcome"] == "completed"
    assert summary["eps"] == 1e-3
    assert summary["ratio"] > 0
    assert summary["run_config"]["cfl_max"] > 0


def test_sweep_and_determinism(tmp_path):
    args = ["sweep", "--b", "2", "--c", "1", "--a-range", "0.06:0.12:2",
            "--E-frac-range", "0.3:0.6:2", "--N", "256", "--modes", "64",
            "--jobs", "1"]
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    data1 = (out1 / "sweep.csv").read_bytes()
    assert data1 == (out2 / "sweep.csv").read_bytes()
    lines = data1.decode().strip().splitlines()
    assert len(lines) == 5  # header + 4 grid points
    assert lines[0].startswith("index,b,a,E,c,status")
    assert all(",ok," in line for line in lines[1:])


def test_sweep_skips_outside_points(tmp_path):
    out = tmp_path / "s"
    rc = main(["sweep", "--b", "2", "--c", "1", "--a-range", "0.1:0.2:2",
               "--E-range", "0.09:0.09:1", "--N", "256", "--modes", "64",
               "--jobs", "1", "--out", str(out)])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    assert ",ok," in lines[1]
    assert "NotInExistenceSet" in lines[2]  # a = 0.2 exceeds a_max


_RESUME_ARGS = ["sweep", "--b", "2", "--c", "1", "--a-range", "0.06:0.12:2",
                "--E-frac-range", "0.3:0.6:2", "--N", "256", "--modes", "64",
                "--jobs", "1"]


def _interrupt(out, csv_rows, rows_done):
    """Leave a finished sweep as if stopped with csv_rows rows written and
    rows_done of them counted in the manifest."""
    lines = (out / "sweep.csv").read_bytes().splitlines(keepends=True)
    (out / "sweep.csv").write_bytes(b"".join(lines[:csv_rows + 1]))
    manifest = json.loads((out / "sweep.manifest.json").read_text())
    manifest["rows_done"] = rows_done
    manifest["csv_bytes"] = len(b"".join(lines[:rows_done + 1]))
    (out / "sweep.manifest.json").write_text(json.dumps(manifest))


def test_sweep_resume(tmp_path):
    full = tmp_path / "full"
    assert main([*_RESUME_ARGS, "--out", str(full)]) == 0
    reference = (full / "sweep.csv").read_bytes()

    # stopped after two counted rows, and with one more row written than
    # counted: the uncounted row is dropped, not repeated
    for csv_rows in (2, 3):
        part = tmp_path / f"part{csv_rows}"
        assert main([*_RESUME_ARGS, "--out", str(part)]) == 0
        _interrupt(part, csv_rows, rows_done=2)
        assert main([*_RESUME_ARGS, "--out", str(part)]) == 0
        assert (part / "sweep.csv").read_bytes() == reference


def test_sweep_resume_needs_same_config(tmp_path):
    out = tmp_path / "s"
    assert main([*_RESUME_ARGS, "--out", str(out)]) == 0
    _interrupt(out, 2, rows_done=2)
    (out / "sweep.csv").write_bytes(
        (out / "sweep.csv").read_bytes().replace(b",ok,", b",stale,"))
    args = [*_RESUME_ARGS, "--fd-step", "2e-5"]
    assert main([*args, "--out", str(out)]) == 0
    fresh = tmp_path / "fresh"
    assert main([*args, "--out", str(fresh)]) == 0
    assert (out / "sweep.csv").read_bytes() == (fresh / "sweep.csv").read_bytes()
    assert b"stale" not in (out / "sweep.csv").read_bytes()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"b": 2.0, "a": 0.1, "E": 0.09, "c": 1.0,
                               "N": 128}))
    rc = main(["profile", "--config", str(cfg), "--N", "256",
               "--out", str(tmp_path)])
    assert rc == 0
    header = json.loads((tmp_path / "profile.json").read_text())
    assert header["N"] == 256  # flag wins over config file


def test_config_file_equals_form_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"N": 128}))
    rc = main(["profile", *REF, "--config", str(cfg), "--N=256",
               "--out", str(tmp_path)])
    assert rc == 0
    assert json.loads((tmp_path / "profile.json").read_text())["N"] == 256


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"N": 128, "bogus_key": 1}))
    rc = main(["profile", *REF, "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "bogus_key" in capsys.readouterr().err
    assert not (tmp_path / "profile.json").exists()
    # an option of another subcommand is unknown here too
    cfg.write_text(json.dumps({"b_range": "2:3:2"}))
    assert main(["profile", *REF, "--config", str(cfg),
                 "--out", str(tmp_path)]) == 2


def test_parallel_sweep_matches_serial(tmp_path):
    args = ["sweep", "--b", "2", "--c", "1", "--a-range", "0.06:0.12:2",
            "--E-frac-range", "0.3:0.6:2", "--N", "256", "--modes", "64"]
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert main([*args, "--jobs", "1", "--out", str(serial)]) == 0
    assert main([*args, "--jobs", "2", "--out", str(parallel)]) == 0
    assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()
