import csv
import json

import numpy as np
import pytest

from bchwaves import (BchWavesError, CoefficientInconsistency, WaveParameters,
                      a_max, cli, critical_points)
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
    # the echo holds only what classify reads
    assert set(payload["config"]) == {"b", "a", "E", "c", "N", "out",
                                      "command"}
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


def test_spectrum_rejects_too_few_modes(tmp_path, capsys):
    rc = main(["spectrum", *REF, "--N", "256", "--modes", "2",
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


def _error_classes(base=BchWavesError):
    """The package's error classes, the base and every subclass."""
    yield base
    for sub in base.__subclasses__():
        yield from _error_classes(sub)


@pytest.mark.parametrize("error", list(_error_classes()),
                         ids=lambda cls: cls.__name__)
def test_every_package_error_is_a_named_refusal(error, tmp_path, capsys,
                                                monkeypatch):
    """A sweep row records any package error with its class name; a
    command exits with the class's exit code and its prefix."""
    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(cli, "parameter_jacobians", fail)
    monkeypatch.setattr(cli, "classify_stability", fail)
    row = cli._sweep_row({"index": 0, "b": 2.0, "a": 0.1, "e_mode": "abs",
                          "e_val": 0.09, "c": 1.0}, N=256, modes=64)
    assert row["status"] == f"{error.__name__}: injected"
    assert main(["classify", *REF, "--out", str(tmp_path)]) == error.exit_code
    prefix = {2: "domain error", 3: "numerical error"}.get(error.exit_code,
                                                           "error")
    assert capsys.readouterr().err == f"{prefix}: injected\n"


def test_random_sweep_rows_refuse_by_name():
    """60 seeded rows with b - 1 log-uniform in (1e-3, 100], c in
    [0.01, 10], a log-uniform in [1e-40, 1) a_max and E-fractions in
    (0.001, 0.999): every status is ok or names a package error, never a
    bare ValueError."""
    names = {cls.__name__ for cls in _error_classes()}
    rng = np.random.default_rng(21)
    for i in range(60):
        b = 1.0 + 10.0 ** rng.uniform(-3.0, 2.0)
        c = float(rng.uniform(0.01, 10.0))
        a = 10.0 ** rng.uniform(-40.0, 0.0) * a_max(b, c)
        point = {"index": i, "b": b, "a": a, "e_mode": "frac",
                 "e_val": float(rng.uniform(0.001, 0.999)), "c": c}
        status = cli._sweep_row(point, N=256, modes=64)["status"]
        assert status == "ok" or status.split(":")[0] in names, status


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sweep_rejects_jobs_below_one(jobs, tmp_path, capsys):
    rc = main(["sweep", "--b", "2", "--a", "0.1", "--c", "1",
               "--E-frac-range", "0.5:0.5:1", "--jobs", jobs,
               "--out", str(tmp_path / "s")])
    assert rc == 2
    assert "--jobs must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_large_b_sweep_of_plain_floats(tmp_path):
    """At b = 30, (c - phi)^(b-1) underflows at the crest bracket end, and
    every grid value is a Python float, whose division by 0.0 raises."""
    out = tmp_path / "s"
    rc = main(["sweep", "--b", "30", "--a", "0.001", "--c", "1",
               "--E-frac-range", "0.3:0.6:2", "--jobs", "1", "--out", str(out)])
    assert rc == 0
    with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
        assert [r["status"] for r in csv.DictReader(fh)] == ["ok", "ok"]


@pytest.mark.parametrize("b, a, c", [
    *(pytest.param(b, 0.5 * a_max(b, 1.0), 1.0, id=repr(b))
      for b in (30.0, 50.0, 100.0)),
    *(pytest.param(b, 1e-3, 2.0, id=f"{b!r}-c2") for b in (50.0, 100.0))])
def test_classify_large_b(b, a, c, tmp_path):
    """Mid-well waves at large b classify, with the period of the shooting
    oracle; at c = 2, phi1 ~ a / c^b lies below 1e-14 c (8.9e-19 at
    b = 50, 7.9e-34 at b = 100)."""
    from quadrature_oracle import period_by_shooting

    scan = critical_points(WaveParameters(b=b, a=a, E=0.0, c=c))
    E = 0.5 * (scan.V_phi1 + scan.V_phi2)
    assert main(["classify", "--b", repr(b), "--a", repr(a), f"--E={E!r}",
                 "--c", repr(c), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "classify.json").read_text())
    assert report["classification"] == "StableCriteriaMet"
    T = report["jacobians"]["invariants"]["T"]
    assert T == pytest.approx(period_by_shooting(WaveParameters(b, a, E, c)),
                              rel=1e-12)


def test_classify_past_the_potential_overflow(tmp_path, capsys):
    """b = 1020, a = 0.001, c = 2, mid-well: (b - 1) (c - phi)^(b-1)
    exceeds the double range near phi1, where V's a-term does not.  At
    N = 512 the steep profile is refused by name (its F2 routes disagree,
    exit 3); at N = 1024 it classifies, with the period of the shooting
    oracle.  Warnings are errors here, so neither run overflows."""
    from quadrature_oracle import period_by_shooting

    b, a, c = 1020.0, 1e-3, 2.0
    scan = critical_points(WaveParameters(b=b, a=a, E=0.0, c=c))
    E = 0.5 * (scan.V_phi1 + scan.V_phi2)
    args = ["classify", "--b", repr(b), "--a", repr(a), f"--E={E!r}",
            "--c", repr(c), "--out", str(tmp_path)]
    assert main(args) == 3
    assert "F2 routes disagree" in capsys.readouterr().err
    assert main([*args, "--N", "1024"]) == 0
    report = json.loads((tmp_path / "classify.json").read_text())
    assert report["classification"] == "StableCriteriaMet"
    T = report["jacobians"]["invariants"]["T"]
    assert T == pytest.approx(period_by_shooting(WaveParameters(b, a, E, c)),
                              rel=1e-12)


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


def test_evolve_rejects_zero_dt_safety(tmp_path, capsys):
    rc = main(["evolve", *REF, "--N", "128", "--dt-safety", "0",
               "--horizon-periods", "0.5", "--out", str(tmp_path)])
    assert rc == 2
    assert "dt_safety" in capsys.readouterr().err
    assert not (tmp_path / "evolve.json").exists()


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
    # a = 0.2 exceeds a_max; grid values are plain floats in the reason
    assert lines[2].endswith('"NotInExistenceSet: a outside '
                             '(0, 0.14814814814814814): got 0.2",,,,,,,,,,,,')


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
    args = [*_RESUME_ARGS, "--N", "128"]
    assert main([*args, "--out", str(out)]) == 0
    fresh = tmp_path / "fresh"
    assert main([*args, "--out", str(fresh)]) == 0
    assert (out / "sweep.csv").read_bytes() == (fresh / "sweep.csv").read_bytes()
    assert b"stale" not in (out / "sweep.csv").read_bytes()


def test_sweep_resume_needs_same_version(tmp_path, monkeypatch):
    """A manifest written by another version is not resumed: a sweep begun
    under 0.1.0, whose sweep fixed M = 64 where no --modes was given,
    starts again from the first row."""
    args = [a for a in _RESUME_ARGS if a not in ("--modes", "64")]
    out = tmp_path / "s"
    monkeypatch.setattr(cli, "__version__", "0.1.0")
    assert main([*args, "--out", str(out)]) == 0
    _interrupt(out, 2, rows_done=2)
    (out / "sweep.csv").write_bytes(
        (out / "sweep.csv").read_bytes().replace(b",ok,", b",stale,"))
    monkeypatch.undo()
    assert main([*args, "--out", str(out)]) == 0
    fresh = tmp_path / "fresh"
    assert main([*args, "--out", str(fresh)]) == 0
    assert (out / "sweep.csv").read_bytes() == (fresh / "sweep.csv").read_bytes()
    assert b"stale" not in (out / "sweep.csv").read_bytes()


def test_sweep_refuses_modes_beyond_the_grid(tmp_path, capsys):
    """--modes 200 on a 256-point grid: spectrum exits with code 2, and a
    sweep records the same refusal, by name, in every row."""
    rc = main(["spectrum", *REF, "--N", "256", "--modes", "200",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "mode count exceeds the coefficient grid" in capsys.readouterr().err
    out = tmp_path / "s"
    assert main(["sweep", "--b", "2", "--c", "1", "--a-range", "0.06:0.12:2",
                 "--E-frac-range", "0.3:0.6:2", "--N", "256", "--modes",
                 "200", "--jobs", "1", "--out", str(out)]) == 0
    with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert all(r["status"] == "ValueError: mode count exceeds the "
               "coefficient grid" for r in rows)


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
    capsys.readouterr()
    cfg.write_text(json.dumps({"eps": 1e-3}))
    assert main(["classify", *REF, "--config", str(cfg),
                 "--out", str(tmp_path)]) == 2
    assert "eps" in capsys.readouterr().err
    assert not (tmp_path / "classify.json").exists()


_COMMON = {"b", "a", "E", "c", "N", "out", "config"}
_COMMAND_OPTIONS = {
    "profile": _COMMON,
    "classify": _COMMON,
    "spectrum": _COMMON | {"modes", "format"},
    "evolve": _COMMON | {"dt-safety", "frame", "eps", "horizon-periods",
                         "perturbation", "seed"},
    "sweep": _COMMON | {"modes", "jobs", "seed", "b-range", "a-range",
                        "E-range", "E-frac-range", "c-range"},
}
_ALL_OPTIONS = set().union(*_COMMAND_OPTIONS.values())


@pytest.mark.parametrize("command", sorted(_COMMAND_OPTIONS))
def test_subcommand_takes_only_its_options(command, capsys):
    """Each subcommand defines exactly the options it reads and refuses
    every other option with exit code 2."""
    options = _COMMAND_OPTIONS[command]
    args = vars(cli.build_parser().parse_args([command]))
    assert set(args) - {"func", "command"} == {o.replace("-", "_")
                                               for o in options}
    for option in sorted(_ALL_OPTIONS - options):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([command, f"--{option}", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    # through main the refusal shows the subcommand's own usage line
    with pytest.raises(SystemExit) as exc:
        main([command, *REF, f"--{min(_ALL_OPTIONS - options)}", "1"])
    assert exc.value.code == 2
    assert f"usage: bchwaves {command} " in capsys.readouterr().err


def test_benchmark_sweep_argv_parses(tmp_path):
    """The sweep workload of benchmarks/run.py calls main with this argv
    (SWEEP_ARGS, then --out and --seed); copied here, because importing
    run.py pins the BLAS threads."""
    sweep_args = ["sweep", "--b", "2", "--c", "1", "--a-range", "0.02:0.13:8",
                  "--E-frac-range", "0.1:0.9:9", "--jobs", "1"]
    args = cli.build_parser().parse_args(
        sweep_args + ["--out", str(tmp_path), "--seed", "3"])
    assert args.func is cli.cmd_sweep
    assert (args.jobs, args.seed, args.out) == (1, 3, str(tmp_path))
    assert len(cli._sweep_grid(args)) == 72


def test_parallel_sweep_matches_serial(tmp_path):
    args = ["sweep", "--b", "2", "--c", "1", "--a-range", "0.06:0.12:2",
            "--E-frac-range", "0.3:0.6:2", "--N", "256", "--modes", "64"]
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert main([*args, "--jobs", "1", "--out", str(serial)]) == 0
    assert main([*args, "--jobs", "2", "--out", str(parallel)]) == 0
    assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()


_SERIAL_SWEEP = """
import sys

import bchwaves.cli

code = bchwaves.cli.main(["sweep", "--b", "2", "--c", "1", "--a-range",
                          "0.06:0.12:2", "--E-frac-range", "0.5:0.5:1",
                          "--N", "256", "--jobs", "1", "--out", sys.argv[1]])
assert code == 0, code
print("multiprocessing" in sys.modules)
"""


def test_serial_sweep_loads_no_process_pool(tmp_path):
    """Importing the CLI and running a --jobs 1 sweep in a fresh process
    loads no multiprocessing: only a sweep that uses a pool imports it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import bchwaves

    env = dict(os.environ, PYTHONPATH=str(Path(bchwaves.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _SERIAL_SWEEP, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300,
                          check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False"


# the README-grid rows of the benchmark reference that M = 64 Hill modes
# against 32 leave unconverged at N = 512
SWEEP_UNCONVERGED = (2, 3, 4, 5, 6, 7, 8, 12, 13, 14, 15, 16, 17, 23, 24, 25,
                     26, 33, 34, 35, 44)
# those that the mode ladder leaves unconverged at its top rung, M = 128
# against 64
SWEEP_UNCONVERGED_LADDER = (5, 6, 7, 8, 16, 17)


def _assert_sweep_failure_set(reference_points, modes, unconverged):
    """Every benchmark sweep row through the sweep's row function: exactly
    the given rows fail, all with DiscretizationNotConverged, and every
    other row has one negative direction and a simple kernel."""
    rows = [cli._sweep_row({"index": i, "b": p["b"], "a": p["a"],
                            "e_mode": "abs", "e_val": p["E"], "c": p["c"]},
                           N=512, modes=modes)
            for i, p in enumerate(reference_points["sweep"])]
    failed = tuple(r["index"] for r in rows if r["status"] != "ok")
    assert failed == unconverged
    for r in rows:
        if r["status"] == "ok":
            assert (r["n_neg"], r["n_zero"]) == (1, 1)
        else:
            assert r["status"].startswith("DiscretizationNotConverged")


def test_sweep_failure_set(reference_points):
    """At a pinned M = 64, the rows of SWEEP_UNCONVERGED fail."""
    _assert_sweep_failure_set(reference_points, 64, SWEEP_UNCONVERGED)


def test_sweep_failure_set_ladder(reference_points):
    """With no mode count the ladder decides M, and only the rows of
    SWEEP_UNCONVERGED_LADDER fail."""
    _assert_sweep_failure_set(reference_points, None,
                              SWEEP_UNCONVERGED_LADDER)


_NUMPY_ONLY = """
import sys

import bchwaves
import bchwaves.cli
from bchwaves import fourier

out = sys.argv[1]
ref = ["--b", "2", "--a", "0.1", "--E", "0.09", "--c", "1", "--N", "256",
       "--out", out]
codes = [
    bchwaves.cli.main(["classify", *ref]),
    bchwaves.cli.main(["spectrum", *ref]),
    bchwaves.cli.main(["sweep", "--b", "2", "--c", "1", "--a-range",
                       "0.1:0.1:1", "--E-frac-range", "0.5:0.5:1", "--N",
                       "256", "--jobs", "1", "--out", out]),
    bchwaves.cli.main(["evolve", *ref, "--horizon-periods", "0.05"]),
]
assert codes == [0, 0, 0, 0], codes
fourier.resample(fourier.random_smooth(64, __import__("numpy").random
                                       .default_rng(0), 1, 16)[0], 128)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_runs_on_numpy_alone(tmp_path):
    """A fresh process imports the package and the CLI, runs classify,
    spectrum, a one-row sweep, a short evolution and a resampling, and
    has imported no scipy module, also not lazily.  (This process has:
    the test oracles import it.)"""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import bchwaves

    env = dict(os.environ, PYTHONPATH=str(Path(bchwaves.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_ONLY, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300,
                          check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
