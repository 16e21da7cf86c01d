import csv
import json
import re

import numpy as np
import pytest

from bchwaves import (BchWavesError, CoefficientInconsistency, WaveParameters,
                      __version__, a_max, cli, critical_points, spectral)
from bchwaves.cli import main

from edge_points import EDGE_POINTS, mid_well

REF = ["--b", "2", "--a", "0.1", "--E", "0.09", "--c", "1"]
# the README sweep, the argv of the benchmark's sweep workload
_README_SWEEP = ["sweep", "--b", "2", "--c", "1", "--a-range", "0.02:0.13:8",
                 "--E-frac-range", "0.1:0.9:9", "--jobs", "1"]


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
    """classify decides from the quadrature alone: it synthesizes no grid
    profile, builds no grid Hill block and takes no --N."""
    from bchwaves.profile import _synthesized
    from bchwaves.spectral import _parity_blocks

    rc = main(["classify", *REF, "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "classify.json").read_text())
    assert set(payload) == {"classification", "jacobians", "config",
                            "version"}
    assert payload["classification"] == "StableCriteriaMet"
    assert payload["jacobians"]["J_T_omega1"] > 0
    assert "theta" in payload["jacobians"]
    assert {"T", "F1", "F2", "grad_T"} <= set(payload["jacobians"]["invariants"])
    # the echo holds only what classify reads
    assert set(payload["config"]) == {"b", "a", "E", "c", "out", "command"}
    assert "StableCriteriaMet" in capsys.readouterr().out
    assert _synthesized.cache_info().misses == 0
    assert _parity_blocks.cache_info().misses == 0

    out = tmp_path / "n"
    with pytest.raises(SystemExit) as exc:
        main(["classify", *REF, "--N", "256", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --N 256" in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_command(tmp_path):
    rc = main(["spectrum", *REF, "--out", str(tmp_path), "--format", "csv"])
    assert rc == 0
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload["N"] == 512
    assert payload["spectrum"]["n_neg"] == 1
    assert payload["spectrum"]["n_zero"] == 1
    assert payload["identities"]["psi_identity_residual"] < 1e-3
    lines = (tmp_path / "eigenvalues.csv").read_text().strip().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == payload["spectrum"]["M"] + 1


def _assert_modes_unrecognized(modes, tmp_path, capsys):
    """spectrum has no --modes (the theta route picks its own mode count):
    argparse refuses it (exit 2) before anything is written."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", *REF, "--modes", modes, "--out", str(out)])
    assert exc.value.code == 2
    assert (f"unrecognized arguments: --modes {modes}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_spectrum_unconverged_exit_code(tmp_path, capsys):
    _assert_modes_unrecognized("8", tmp_path, capsys)


def test_spectrum_rejects_nonpositive_modes(tmp_path, capsys):
    _assert_modes_unrecognized("0", tmp_path, capsys)


def test_spectrum_rejects_too_few_modes(tmp_path, capsys):
    _assert_modes_unrecognized("2", tmp_path, capsys)


def test_spectrum_theta_refusal_writes_nothing(tmp_path, capsys, monkeypatch):
    """A point the theta route refuses (here, by a ladder capped at K = 8)
    exits 3 before it is synthesized, and no spectrum.json is written."""
    from bchwaves.profile import _synthesized

    monkeypatch.setattr(spectral, "_THETA_LADDER", (4, 8))
    rc = main(["spectrum", *REF, "--out", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().err.startswith(
        "numerical error: lowest theta eigenvalues moved by ")
    assert _synthesized.cache_info().misses == 0
    assert not (tmp_path / "spectrum.json").exists()


def test_spectrum_agrees_with_sweep(tmp_path):
    """At the 72 README sweep rows (six of which the grid route refuses at
    N = 512), spectrum exits 0.  It reads the proof identities on the
    N = 512 grid, except at row 8 (a = 0.02, E-fraction 0.9), where that
    grid leaves them above their bounds and N = 1024 resolves them; its
    spectrum.json records that N.  Its spectrum.json holds the eigenvalues,
    n_neg, n_zero and M of theta_spectrum bit for bit, and its inertia is
    the sweep row's.  classify exits 0 there too, with the sweep row's
    classification, J_T_omega1, J_T_F1 and J3 bit for bit."""
    out = tmp_path / "s"
    assert main([*_README_SWEEP, "--out", str(out)]) == 0
    with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 72
    for row in rows:
        wave = [f"--{k}={row[k]}" for k in ("b", "a", "E", "c")]
        assert main(["spectrum", *wave, "--out", str(out)]) == 0, row["index"]
        payload = json.loads((out / "spectrum.json").read_text())
        assert payload["N"] == (1024 if row["index"] == "8" else 512)
        for name, bound in spectral.IDENTITY_BOUNDS.items():
            assert payload["identities"][name] <= bound, (row["index"], name)
        got = payload["spectrum"]
        want = spectral.theta_spectrum(WaveParameters(
            b=float(row["b"]), a=float(row["a"]), E=float(row["E"]),
            c=float(row["c"])))
        assert got["eigenvalues"] == want.eigenvalues.tolist()
        assert ((got["n_neg"], got["n_zero"], got["M"])
                == (want.n_neg, want.n_zero, want.M))
        assert (got["n_neg"], got["n_zero"]) == (int(row["n_neg"]),
                                                 int(row["n_zero"]))
        assert main(["classify", *wave, "--out", str(out)]) == 0, row["index"]
        got = json.loads((out / "classify.json").read_text())
        assert got["classification"] == row["classification"]
        for key in ("J_T_omega1", "J_T_F1", "J3"):
            assert got["jacobians"][key] == float(row[key]), (row["index"], key)


def test_spectrum_refuses_identities_past_its_last_grid(tmp_path, capsys,
                                                       monkeypatch):
    """A proof identity that no grid up to N = 4096 brings within its bound
    (here, a muE bound below rounding) is refused with RouteMismatch
    (exit 3), naming the residual, its bound and N, and nothing is
    written."""
    monkeypatch.setitem(spectral.IDENTITY_BOUNDS, "muE_residual", 1e-300)
    out = tmp_path / "out"
    assert main(["spectrum", *REF, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert re.search(r"^numerical error: grid proof identity muE_residual "
                     r"\S+ exceeds 1e-300 at N = 4096$", err, re.M), err
    assert not out.exists()


def _raise_coefficient_inconsistency(*args, **kwargs):
    raise CoefficientInconsistency("coefficient check failed")


def test_spectrum_coefficient_inconsistency_exit_code(tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.setattr(cli, "assemble_operator",
                        _raise_coefficient_inconsistency)
    rc = main(["spectrum", *REF, "--out", str(tmp_path)])
    assert rc == 3
    assert "numerical error" in capsys.readouterr().err


def test_sweep_route_mismatch_row(tmp_path, monkeypatch):
    """Period derivatives off by 1e-3 relative in the kernel solution's
    input (spectral._map_derivatives) move its slope at the trough 1e-3
    off the closed form: the slope check refuses the row by name, and the
    sweep goes on."""
    map_derivatives = spectral._map_derivatives

    def scaled(params):
        A_p, A_left, T_p = map_derivatives(params)
        return A_p, A_left, T_p * (1.0 + 1e-3)

    monkeypatch.setattr(spectral, "_map_derivatives", scaled)
    out = tmp_path / "s"
    rc = main(["sweep", "--b", "2", "--c", "1", "--a-range", "0.1:0.1:1",
               "--E-range", "0.09:0.09:1", "--jobs", "1", "--out", str(out)])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    assert ",RouteMismatch: trough slope of the kernel solution " in lines[1]


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
    row = cli._sweep_row({"index": 0, "b": 2.0, "a": 0.1, "e_mode": "abs",
                          "e_val": 0.09, "c": 1.0})
    assert row["status"] == f"{error.__name__}: injected"
    assert main(["classify", *REF, "--out", str(tmp_path)]) == error.exit_code
    prefix = {2: "domain error", 3: "numerical error"}.get(error.exit_code,
                                                           "error")
    assert capsys.readouterr().err == f"{prefix}: injected\n"


def test_random_sweep_rows_refuse_by_name():
    """60 seeded rows with b - 1 log-uniform in (1e-3, 100], c in
    [0.01, 10], a log-uniform in [1e-40, 1) a_max and E-fractions in
    (0.001, 0.999): every status is ok or names a package error, never a
    bare ValueError, and every ok row has the inertia {T, omega1} calls
    for: (1, 1) where it is positive, (2, 1) where it is negative."""
    names = {cls.__name__ for cls in _error_classes()}
    rng = np.random.default_rng(21)
    for i in range(60):
        b = 1.0 + 10.0 ** rng.uniform(-3.0, 2.0)
        c = float(rng.uniform(0.01, 10.0))
        a = 10.0 ** rng.uniform(-40.0, 0.0) * a_max(b, c)
        point = {"index": i, "b": b, "a": a, "e_mode": "frac",
                 "e_val": float(rng.uniform(0.001, 0.999)), "c": c}
        row = cli._sweep_row(point)
        status = row["status"]
        assert status == "ok" or status.split(":")[0] in names, status
        if status == "ok":
            inertia = (1, 1) if row["J_T_omega1"] > 0.0 else (2, 1)
            assert (row["n_neg"], row["n_zero"]) == inertia, point


def test_sweep_row_builds_no_grid_profile(monkeypatch):
    """A sweep row counts its inertia from the kernel solution: it
    synthesizes no uniform-grid profile, builds no grid Hill block, and
    calls neither theta_spectrum nor an eigensolver."""
    from bchwaves.profile import _synthesized
    from bchwaves.spectral import _parity_blocks

    def not_called(*args, **kwargs):
        raise AssertionError("a sweep row called an eigensolve")

    monkeypatch.setattr(cli, "theta_spectrum", not_called)
    monkeypatch.setattr(spectral, "theta_spectrum", not_called)
    monkeypatch.setattr(np.linalg, "eigvalsh", not_called)
    row = cli._sweep_row({"index": 0, "b": 2.0, "a": 0.1, "e_mode": "abs",
                          "e_val": 0.09, "c": 1.0})
    assert row["status"] == "ok"
    assert (row["n_neg"], row["n_zero"]) == (1, 1)
    assert _synthesized.cache_info().misses == 0
    assert _parity_blocks.cache_info().misses == 0


@pytest.mark.parametrize("point", EDGE_POINTS.values(), ids=EDGE_POINTS.keys())
def test_sweep_rows_at_the_edge_points(point, tmp_path):
    """At the 7 edge points, which Hill's method in theta refuses, a sweep
    row is ok, with inertia (1, 1) and classify's classification and
    Jacobians."""
    b, a, c, frac = point
    row = cli._sweep_row({"index": 0, "b": b, "a": a, "e_mode": "frac",
                          "e_val": frac, "c": c})
    assert row["status"] == "ok"
    assert (row["n_neg"], row["n_zero"]) == (1, 1)
    assert row["E"] == mid_well(*point).E
    wave = [f"--{k}={row[k]!r}" for k in ("b", "a", "E", "c")]
    assert main(["classify", *wave, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "classify.json").read_text())
    assert report["classification"] == row["classification"]
    for key in ("J_T_omega1", "J_T_F1", "J3"):
        assert report["jacobians"][key] == row[key]


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


def test_classify_past_the_potential_overflow(tmp_path):
    """b = 1020, a = 0.001, c = 2, mid-well: (b - 1) (c - phi)^(b-1)
    exceeds the double range near phi1, where V's a-term does not.
    classify reads the quadrature alone and classifies it, with the
    period of the shooting oracle.  The grid cross-check of
    classify_stability refuses the steep profile by name at N = 512 (its
    F2 routes disagree) and classifies it at N = 1024.  Warnings are
    errors here, so no run overflows."""
    from bchwaves import RouteMismatch
    from bchwaves.invariants import classify_stability
    from quadrature_oracle import period_by_shooting

    b, a, c = 1020.0, 1e-3, 2.0
    scan = critical_points(WaveParameters(b=b, a=a, E=0.0, c=c))
    E = 0.5 * (scan.V_phi1 + scan.V_phi2)
    params = WaveParameters(b, a, E, c)
    assert main(["classify", "--b", repr(b), "--a", repr(a), f"--E={E!r}",
                 "--c", repr(c), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "classify.json").read_text())
    assert report["classification"] == "StableCriteriaMet"
    T = report["jacobians"]["invariants"]["T"]
    assert T == pytest.approx(period_by_shooting(params), rel=1e-12)
    with pytest.raises(RouteMismatch, match="^F2 routes disagree"):
        classify_stability(params, N=512)
    assert classify_stability(params, N=1024).classification == "StableCriteriaMet"


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
    # the profile is synthesized at --N and evolved on that grid
    assert summary["run_config"]["N"] == 128 == summary["config"]["N"]


def test_evolve_rejects_zero_dt_safety(tmp_path, capsys):
    rc = main(["evolve", *REF, "--N", "128", "--dt-safety", "0",
               "--horizon-periods", "0.5", "--out", str(tmp_path)])
    assert rc == 2
    assert "dt_safety" in capsys.readouterr().err
    assert not (tmp_path / "evolve.json").exists()


def test_sweep_and_determinism(tmp_path):
    args = ["sweep", "--b", "2", "--c", "1", "--a-range", "0.06:0.12:2",
            "--E-frac-range", "0.3:0.6:2", "--jobs", "1"]
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
               "--E-range", "0.09:0.09:1", "--jobs", "1", "--out", str(out)])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    assert ",ok," in lines[1]
    # a = 0.2 exceeds a_max; grid values are plain floats in the reason
    assert lines[2].endswith('"NotInExistenceSet: a outside '
                             '(0, 0.14814814814814814): got 0.2",,,,,,,,,,,,')


_RESUME_ARGS = ["sweep", "--b", "2", "--c", "1", "--a-range", "0.06:0.12:2",
                "--E-frac-range", "0.3:0.6:2", "--jobs", "1"]


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
    """The manifest echoes every option but --out and --jobs, and the
    version; a sweep whose options differ in any (here --seed, which no
    row reads) starts again from the first row."""
    out = tmp_path / "s"
    assert main([*_RESUME_ARGS, "--out", str(out)]) == 0
    manifest = json.loads((out / "sweep.manifest.json").read_text())
    assert manifest["config"] == {
        "command": "sweep", "b": 2.0, "a": None, "E": None, "c": 1.0,
        "seed": 0, "b_range": None, "a_range": "0.06:0.12:2",
        "E_range": None, "E_frac_range": "0.3:0.6:2", "c_range": None,
        "version": __version__}
    assert "config_hash" not in manifest
    _interrupt(out, 2, rows_done=2)
    (out / "sweep.csv").write_bytes(
        (out / "sweep.csv").read_bytes().replace(b",ok,", b",stale,"))
    args = [*_RESUME_ARGS, "--seed", "1"]
    assert main([*args, "--out", str(out)]) == 0
    fresh = tmp_path / "fresh"
    assert main([*args, "--out", str(fresh)]) == 0
    assert (out / "sweep.csv").read_bytes() == (fresh / "sweep.csv").read_bytes()
    assert b"stale" not in (out / "sweep.csv").read_bytes()
    manifest = json.loads((out / "sweep.manifest.json").read_text())
    assert manifest["config"]["seed"] == 1


def test_sweep_does_not_resume_a_hashed_manifest(tmp_path):
    """A 0.2.0 manifest holds a hash of the config, not the config: it is
    not resumed."""
    out = tmp_path / "s"
    assert main([*_RESUME_ARGS, "--out", str(out)]) == 0
    _interrupt(out, 2, rows_done=2)
    (out / "sweep.csv").write_bytes(
        (out / "sweep.csv").read_bytes().replace(b",ok,", b",stale,"))
    manifest = json.loads((out / "sweep.manifest.json").read_text())
    manifest["config_hash"] = "0" * 64
    del manifest["config"]
    (out / "sweep.manifest.json").write_text(json.dumps(manifest))
    assert main([*_RESUME_ARGS, "--out", str(out)]) == 0
    assert b"stale" not in (out / "sweep.csv").read_bytes()
    assert json.loads((out / "sweep.manifest.json").read_text())["rows_done"] == 4


def test_sweep_resume_needs_same_version(tmp_path, monkeypatch):
    """A manifest written by another version is not resumed: a sweep begun
    under 0.2.0, whose rows read the grid spectrum, starts again from the
    first row."""
    args = _RESUME_ARGS
    out = tmp_path / "s"
    monkeypatch.setattr(cli, "__version__", "0.2.0")
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
    """spectrum and sweep solve in theta and take no --modes, and a sweep
    has no grid either: each refuses --modes (and the sweep --N) as an
    option it does not take (exit 2), before writing anything."""
    _assert_modes_unrecognized("200", tmp_path, capsys)
    out = tmp_path / "s"
    for extra in (["--modes", "200"], ["--N", "256"]):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--b", "2", "--c", "1", "--a-range", "0.06:0.12:2",
                  "--E-frac-range", "0.3:0.6:2", *extra, "--jobs", "1",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert (f"unrecognized arguments: {' '.join(extra)}"
                in capsys.readouterr().err)
    assert not out.exists()


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


@pytest.mark.parametrize("command,config,named", [
    # spectrum takes no --N either: a key it does not define
    pytest.param("spectrum", {"N": 512.5}, "spectrum has no option N",
                 id="spectrum-config0---N"),
    ("spectrum", {"modes": 64.0}, "modes"),
    ("spectrum", {"format": "xml"}, "--format"),
    ("evolve", {"seed": 1.5}, "--seed"),
    # classify takes no --N: the key is refused as one it does not define
    pytest.param("classify", {"N": 256}, "classify has no option N",
                 id="classify-config4---N"),
    ("sweep", {"a_range": 5}, "MIN:MAX:COUNT"), ("sweep", {"jobs": 1.5}, "--jobs")])
def test_config_file_values_are_checked(tmp_path, capsys, command, config,
                                        named):
    """A file value is checked as its flag would be, and refused (exit 2)
    before the command writes anything; so is a key the command does not
    define (spectrum's former --modes and --N, classify's former --N)."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    try:
        rc = main([command, *REF, "--config", str(cfg), "--out", str(out)])
    except SystemExit as exc:  # argparse's refusal
        rc = exc.code
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content", [None, "{bad", "[1]", "5"],
                         ids=["missing", "bad-json", "list", "number"])
def test_config_file_unreadable_is_refused(tmp_path, capsys, content):
    """A --config file that is missing, is not JSON or holds no JSON
    object is refused with exit code 2, naming the file, before the
    command runs."""
    cfg = tmp_path / "run.json"
    if content is not None:
        cfg.write_text(content)
    out = tmp_path / "out"
    rc = main(["classify", *REF, "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(cfg) in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("option", ["b-range", "a-range", "E-range",
                                    "E-frac-range", "c-range"])
@pytest.mark.parametrize("value", ["5", "1:2", "1:2:0", "1:2:x", "a:2:3",
                                   "1:2:1"])
def test_sweep_range_is_checked_by_argparse(tmp_path, capsys, option, value):
    """A malformed MIN:MAX:COUNT, as a flag or from --config, is refused by
    argparse with the option's name (exit 2), not as a domain error; so is
    a one-value range whose ends differ, which would sweep MIN alone while
    the manifest records both ends."""
    out = tmp_path / "out"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({option.replace("-", "_"): value}))
    for extra in ([f"--{option}", value], ["--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--b", "2", "--a", "0.1", "--E", "0.09", "--c",
                  "1", *extra, "--jobs", "1", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --{option}: range must be MIN:MAX:COUNT" in err
        assert "domain error" not in err
    assert not out.exists()


# a value of each sweep option that sets a parameter
_SWEEP_VALUES = {"b": "2", "a": "0.1", "E": "0.09", "c": "1",
                 "b-range": "2:3:2", "a-range": "0.05:0.06:2",
                 "E-range": "0.05:0.09:2", "E-frac-range": "0.5:0.5:1",
                 "c-range": "1:1.5:2"}


@pytest.mark.parametrize("first, second", [
    ("b", "b-range"), ("a", "a-range"), ("c", "c-range"), ("E", "E-range"),
    ("E", "E-frac-range"), ("E-range", "E-frac-range")])
def test_sweep_refuses_two_values_of_one_parameter(tmp_path, capsys, first,
                                                   second):
    """Two options that set the same parameter (a scalar and its range, or
    the two energy ranges) would leave one of them silently unused while
    the manifest records both: the sweep refuses them (exit 2), naming
    both, before it writes anything, also when the first comes from
    --config."""
    out = tmp_path / "out"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({first.replace("-", "_"): _SWEEP_VALUES[first]}))
    # one value for each parameter the pair does not set
    others = [arg for k in ("b", "a", "E", "c")
              if k not in (first.split("-")[0], second.split("-")[0])
              for arg in (f"--{k}", _SWEEP_VALUES[k])]
    for given in ([f"--{first}", _SWEEP_VALUES[first]], ["--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", *others, *given, f"--{second}",
                  _SWEEP_VALUES[second], "--jobs", "1", "--out", str(out)])
        assert exc.value.code == 2
        named = re.search(r"argument (\S+): not allowed with argument (\S+)",
                          capsys.readouterr().err)
        assert named and set(named.groups()) == {f"--{first}", f"--{second}"}
    assert not out.exists()


_COMMON = {"b", "a", "E", "c", "N", "out", "config"}
_COMMAND_OPTIONS = {
    "profile": _COMMON,
    "classify": _COMMON - {"N"},
    "spectrum": _COMMON - {"N"} | {"format"},
    "evolve": _COMMON | {"dt-safety", "frame", "eps", "horizon-periods",
                         "perturbation", "seed"},
    "sweep": _COMMON - {"N"} | {"jobs", "seed", "b-range", "a-range",
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
            "--E-frac-range", "0.3:0.6:2"]
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert main([*args, "--jobs", "1", "--out", str(serial)]) == 0
    assert main([*args, "--jobs", "2", "--out", str(parallel)]) == 0
    assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()


def test_sweep_pool_has_no_more_workers_than_rows(tmp_path, monkeypatch):
    """The fork start method forks every worker of a ProcessPoolExecutor at
    its first submit, so the pool is capped at the rows left to run: a
    2-row grid at --jobs 64 asks for 2 workers.  A stand-in executor
    records max_workers and maps serially, so no process starts; the CSV
    is the serial one."""
    import concurrent.futures

    workers = []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    args = ["sweep", "--b", "2", "--c", "1", "--a-range", "0.06:0.12:2",
            "--E-frac-range", "0.5:0.5:1"]
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert main([*args, "--jobs", "1", "--out", str(serial)]) == 0
    assert workers == []
    assert main([*args, "--jobs", "64", "--out", str(pooled)]) == 0
    assert workers == [2]
    assert ((serial / "sweep.csv").read_bytes()
            == (pooled / "sweep.csv").read_bytes())


_SERIAL_SWEEP = """
import sys

import bchwaves.cli

code = bchwaves.cli.main(["sweep", "--b", "2", "--c", "1", "--a-range",
                          "0.06:0.12:2", "--E-frac-range", "0.5:0.5:1",
                          "--jobs", "1", "--out", sys.argv[1]])
assert code == 0, code
print("hashlib" in sys.modules, "multiprocessing" in sys.modules)
"""


def test_serial_sweep_loads_no_process_pool(tmp_path):
    """Importing the CLI and running a --jobs 1 sweep in a fresh process
    loads no multiprocessing: only a sweep that uses a pool imports it.
    Nor does it load hashlib (and the OpenSSL it maps): the manifest
    stores the sweep's config, not a hash of it."""
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
    assert proc.stdout.strip().splitlines()[-1] == "False False"


def test_sweep_failure_set(tmp_path):
    """The README sweep (the argv of the benchmark's sweep workload) fails
    no row: all 72 are ok, and each agrees with the high-precision
    reference as the benchmark's own check_sweep holds it, in T, F1, F2,
    omega1, both signs, the classification and the inertia that
    {T, omega1} calls for.  (On the grid route six of them fail; see
    test_spectral.py::test_grid_failure_set_at_128_modes.)"""
    import importlib.util
    from pathlib import Path

    benchmarks = Path(__file__).resolve().parents[1] / "benchmarks"
    spec = importlib.util.spec_from_file_location("checks",
                                                  benchmarks / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    grid = json.loads((benchmarks / "reference.json").read_text())["sweep"]

    out = tmp_path / "s"
    assert main([*_README_SWEEP, "--out", str(out)]) == 0
    with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    done = json.loads((out / "sweep.manifest.json").read_text())["rows_done"]
    assert [r["status"] for r in rows] == ["ok"] * 72
    assert checks.check_sweep(rows, grid, done) == ([], 0)


_NUMPY_ONLY = """
import sys

import bchwaves
import bchwaves.cli

out = sys.argv[1]
wave = ["--b", "2", "--a", "0.1", "--E", "0.09", "--c", "1", "--out", out]
ref = [*wave, "--N", "256"]
codes = [
    bchwaves.cli.main(["classify", *wave]),
    bchwaves.cli.main(["spectrum", *wave]),
    bchwaves.cli.main(["sweep", "--b", "2", "--c", "1", "--a-range",
                       "0.1:0.1:1", "--E-frac-range", "0.5:0.5:1", "--jobs",
                       "1", "--out", out]),
    bchwaves.cli.main(["evolve", *ref, "--horizon-periods", "0.05"]),
]
assert codes == [0, 0, 0, 0], codes
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_runs_on_numpy_alone(tmp_path):
    """A fresh process imports the package and the CLI, runs classify,
    spectrum, a one-row sweep and a short evolution, and has imported no
    scipy module, also not lazily.  (This process has:
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
