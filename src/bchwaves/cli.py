"""Command-line interface: profile, classify, spectrum, evolve, sweep.

Exit codes: 0 success, 2 domain rejection (outside the admissible set),
3 numerical non-convergence, 1 internal error.  All reports embed the
numeric configuration; floats are written with 17 significant digits so
repeated runs diff byte-identically.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (BchWavesError, CoefficientInconsistency,
                     ConvergenceFailure, DiscretizationNotConverged,
                     FDUnreliable, MarginTooSmall, NotInExistenceSet,
                     PositivityLost, QuadratureFailure, RouteMismatch)
from .evolution import run_experiment
from .invariants import (CLASS_OUT_OF_SCOPE, classify_stability,
                         conserved_quantities, multipliers,
                         parameter_jacobians)
from .potential import WaveParameters, critical_points, existence_check
from .profile import profile_header, synthesize_profile, write_profile_csv
from .spectral import assemble_operator, periodic_spectrum, proof_identities

_DOMAIN_ERRORS = (NotInExistenceSet, MarginTooSmall, ValueError)
_NUMERICAL_ERRORS = (QuadratureFailure, ConvergenceFailure, RouteMismatch,
                     FDUnreliable, DiscretizationNotConverged, PositivityLost,
                     CoefficientInconsistency)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write_json(path: Path, payload: dict) -> None:
    """Write via a temporary file renamed into place: never half-written."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _config_echo(args: argparse.Namespace) -> dict:
    skip = {"func", "config"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _params_from(args: argparse.Namespace) -> WaveParameters:
    missing = [n for n in ("b", "a", "E", "c") if getattr(args, n) is None]
    if missing:
        raise ValueError(f"missing required parameters: {', '.join(missing)}")
    return WaveParameters(b=args.b, a=args.a, E=args.E, c=args.c)


def _outdir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_profile(args: argparse.Namespace) -> int:
    params = _params_from(args)
    prof = synthesize_profile(params, args.N)
    out = _outdir(args)
    write_profile_csv(prof, out / "profile.csv")
    header = profile_header(prof)
    header["config"] = _config_echo(args)
    header["version"] = __version__
    _write_json(out / "profile.json", header)
    print(f"profile: T={_fmt(prof.T)} N={prof.N} -> {out / 'profile.csv'}")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    params = _params_from(args)
    report = classify_stability(params, N=args.N, rel_step=args.fd_step)
    out = _outdir(args)
    payload = _jsonable(report)
    payload["config"] = _config_echo(args)
    payload["version"] = __version__
    _write_json(out / "classify.json", payload)
    jac = report.jacobians
    print(f"classification: {report.classification} "
          f"(J_T_omega1={_fmt(jac.J_T_omega1)}, J_T_F1={_fmt(jac.J_T_F1)}, "
          f"J3={_fmt(jac.J3)}, theta={_fmt(jac.theta)})")
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    params = _params_from(args)
    prof = synthesize_profile(params, args.N)
    coeffs = assemble_operator(prof)
    spec = periodic_spectrum(coeffs, M=args.modes)
    ids = proof_identities(prof, coeffs=coeffs)
    out = _outdir(args)
    payload = {
        "spectrum": _jsonable(spec),
        "identities": _jsonable(ids),
        "config": _config_echo(args),
        "version": __version__,
    }
    _write_json(out / "spectrum.json", payload)
    if args.format == "csv":
        with open(out / "eigenvalues.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "eigenvalue"])
            for i, ev in enumerate(spec.eigenvalues):
                writer.writerow([i, _fmt(ev)])
    print(f"spectrum: inertia=({spec.n_neg},{spec.n_zero}) "
          f"kernel_residual={spec.kernel_residual:.3e}")
    return 0


def cmd_evolve(args: argparse.Namespace) -> int:
    params = _params_from(args)
    prof = synthesize_profile(params, args.N)
    diag = run_experiment(prof, eps=args.eps,
                          horizon_periods=args.horizon_periods, N=args.N,
                          dt_safety=args.dt_safety, mode=args.perturbation,
                          frame=args.frame, seed=args.seed)
    out = _outdir(args)
    with open(out / "evolve.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "E_drift", "F1_drift", "F2_drift", "rho"])
        for i in range(diag.times.size):
            writer.writerow([_fmt(diag.times[i]), _fmt(diag.E_drift[i]),
                             _fmt(diag.F1_drift[i]), _fmt(diag.F2_drift[i]),
                             _fmt(diag.rho[i])])
    summary = {
        "max_rho": diag.max_rho, "eps": diag.eps, "ratio": diag.ratio,
        "outcome": diag.outcome, "run_config": diag.config,
        "config": _config_echo(args), "version": __version__,
    }
    _write_json(out / "evolve.json", summary)
    print(f"evolve: outcome={diag.outcome} max_rho={diag.max_rho:.6e} "
          f"ratio={diag.ratio:.4g}")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_SWEEP_COLUMNS = ["index", "b", "a", "E", "c", "status", "T", "F1", "F2",
                  "omega1", "omega2", "J_T_omega1", "J_T_F1", "J3", "theta",
                  "n_neg", "n_zero", "classification"]


def _parse_range(text: str | None, fallback: float | None) -> list[float]:
    if text is None:
        if fallback is None:
            raise ValueError("sweep needs either a range or a scalar for "
                             "each of b, a, E (or E-frac), c")
        return [fallback]
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be MIN:MAX:COUNT, got {text!r}")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise ValueError("range count must be positive")
    return [lo] if count == 1 else list(np.linspace(lo, hi, count))


def _sweep_grid(args: argparse.Namespace) -> list[dict]:
    b_vals = _parse_range(args.b_range, args.b)
    a_vals = _parse_range(args.a_range, args.a)
    c_vals = _parse_range(args.c_range, args.c)
    if args.E_frac_range is not None:
        e_mode, e_vals = "frac", _parse_range(args.E_frac_range, None)
    else:
        e_mode, e_vals = "abs", _parse_range(args.E_range, args.E)
    points = []
    idx = 0
    for b in b_vals:
        for a in a_vals:
            for ev in e_vals:
                for c in c_vals:
                    points.append({"index": idx, "b": b, "a": a,
                                   "e_mode": e_mode, "e_val": ev, "c": c})
                    idx += 1
    return points


def _sweep_row(point: dict, N: int, modes: int, rel_step: float = 1e-5) -> dict:
    row = {k: "" for k in _SWEEP_COLUMNS}
    row["index"] = point["index"]
    row["b"], row["a"], row["c"] = point["b"], point["a"], point["c"]
    try:
        params_probe = WaveParameters(b=point["b"], a=point["a"], E=0.0,
                                      c=point["c"])
    except ValueError as exc:
        row["status"] = f"{CLASS_OUT_OF_SCOPE}: {exc}"
        row["E"] = point["e_val"]
        return row
    try:
        if point["e_mode"] == "frac":
            scan = critical_points(params_probe)
            E = scan.V_phi2 + point["e_val"] * (scan.V_phi1 - scan.V_phi2)
        else:
            E = point["e_val"]
        row["E"] = E
        params = WaveParameters(b=point["b"], a=point["a"], E=E, c=point["c"])
        check = existence_check(params)
        if not check.ok:
            row["status"] = f"NotInExistenceSet: {check.reason}"
            return row
        jac = parameter_jacobians(params, rel_step=rel_step)
        prof = synthesize_profile(params, N)
        F1, F2 = conserved_quantities(prof, jac.invariants)
        mults = multipliers(params)
        spec = periodic_spectrum(assemble_operator(prof, mults),
                                 M=min(modes, N // 4))
        row.update({"status": "ok", "T": prof.T, "F1": F1, "F2": F2,
                    "omega1": mults.omega1, "omega2": mults.omega2,
                    "J_T_omega1": jac.J_T_omega1, "J_T_F1": jac.J_T_F1,
                    "J3": jac.J3, "theta": jac.theta, "n_neg": spec.n_neg,
                    "n_zero": spec.n_zero,
                    "classification": jac.classification})
    except _DOMAIN_ERRORS + _NUMERICAL_ERRORS as exc:
        row["status"] = f"{type(exc).__name__}: {exc}"
    return row


def _row_to_csv(row: dict) -> list[str]:
    out = []
    for col in _SWEEP_COLUMNS:
        v = row[col]
        out.append(_fmt(v) if isinstance(v, float) else str(v))
    return out


def _sweep_config_hash(args: argparse.Namespace) -> str:
    """Hash of every setting that shapes the rows, and of the version."""
    config = {k: v for k, v in _config_echo(args).items()
              if k not in ("out", "jobs")}
    config["version"] = __version__
    payload = json.dumps(config, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def cmd_sweep(args: argparse.Namespace) -> int:
    points = _sweep_grid(args)
    out = _outdir(args)
    csv_path = out / "sweep.csv"
    manifest_path = out / "sweep.manifest.json"
    cfg_hash = _sweep_config_hash(args)

    done = 0
    if manifest_path.exists() and csv_path.exists():
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        # a run can stop after writing a row but before counting it, so the
        # CSV is cut back to the header and the rows counted
        size = manifest.get("csv_bytes", 0)
        if (manifest.get("config_hash") == cfg_hash
                and 0 < size <= csv_path.stat().st_size):
            done = int(manifest.get("rows_done", 0))
            os.truncate(csv_path, size)
    pending = points[done:]
    # _sweep_row is looked up when the sweep runs, so a wrapper installed
    # on the module (e.g. a timing harness) sees every row
    row_of = functools.partial(_sweep_row, N=args.N, modes=args.modes or 64,
                               rel_step=args.fd_step)
    jobs = args.jobs or os.cpu_count() or 1

    with open(csv_path, "a" if done else "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if not done:
            writer.writerow(_SWEEP_COLUMNS)
            fh.flush()
        with (ProcessPoolExecutor(max_workers=jobs)
              if jobs > 1 and len(pending) > 1
              else contextlib.nullcontext()) as pool:
            rows = pool.map(row_of, pending) if pool else map(row_of, pending)
            for row in rows:
                writer.writerow(_row_to_csv(row))
                fh.flush()
                done += 1
                _write_json(manifest_path,
                            {"config_hash": cfg_hash, "rows_done": done,
                             "rows_total": len(points), "csv_bytes": fh.tell()})
    print(f"sweep: {done}/{len(points)} rows -> {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--b", type=float, default=None, help="family exponent (> 1)")
    sub.add_argument("--a", type=float, default=None, help="integration constant")
    sub.add_argument("--E", type=float, default=None, help="quadrature energy")
    sub.add_argument("--c", type=float, default=None, help="wave speed")
    sub.add_argument("--N", type=int, default=512, help="grid size (power of two)")
    sub.add_argument("--modes", type=int, default=None, help="Hill mode count")
    sub.add_argument("--dt-safety", dest="dt_safety", type=float, default=0.5)
    sub.add_argument("--fd-step", dest="fd_step", type=float, default=1e-5,
                     help="relative finite-difference step scale")
    sub.add_argument("--out", type=str, default=".")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--frame", choices=("traveling", "lab"), default="traveling")
    sub.add_argument("--eps", type=float, default=1e-3)
    sub.add_argument("--horizon-periods", dest="horizon_periods", type=float,
                     default=50.0)
    sub.add_argument("--perturbation", choices=("raw", "constrained"),
                     default="raw")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--config", type=str, default=None,
                     help="JSON file of option defaults (flags override; "
                          "unknown keys are refused)")
    sub.add_argument("--jobs", type=int, default=None)


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """The parser; defaults (from --config) override every subcommand's."""
    parser = argparse.ArgumentParser(
        prog="bchwaves",
        description="Periodic traveling waves of the b-family Camassa-Holm "
                    "equation: construction, stability criteria, spectra, "
                    "and time evolution.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("profile", help="synthesize a wave profile")
    _add_common(sp)
    sp.set_defaults(func=cmd_profile)

    sc = subs.add_parser("classify", help="stability classification report")
    _add_common(sc)
    sc.set_defaults(func=cmd_classify)

    ss = subs.add_parser("spectrum", help="periodic spectrum and identities")
    _add_common(ss)
    ss.set_defaults(func=cmd_spectrum)

    se = subs.add_parser("evolve", help="time-evolve a perturbed wave")
    _add_common(se)
    se.set_defaults(func=cmd_evolve)

    sw = subs.add_parser("sweep", help="classify over a parameter grid")
    _add_common(sw)
    sw.add_argument("--b-range", dest="b_range", type=str, default=None,
                    help="MIN:MAX:COUNT")
    sw.add_argument("--a-range", dest="a_range", type=str, default=None)
    sw.add_argument("--E-range", dest="E_range", type=str, default=None)
    sw.add_argument("--E-frac-range", dest="E_frac_range", type=str,
                    default=None,
                    help="energies as fractions of the well (V(phi2), V(phi1))")
    sw.add_argument("--c-range", dest="c_range", type=str, default=None)
    sw.set_defaults(func=cmd_sweep)
    for sub in (sp, sc, ss, se, sw):
        sub.set_defaults(**(defaults or {}))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
        known = set(vars(args)) - {"func", "config", "command"}
        unknown = sorted(set(config) - known)
        if unknown:
            print(f"config error: {args.command} has no option "
                  f"{', '.join(unknown)} (in {args.config})", file=sys.stderr)
            return 2
        # parse again with the file as defaults: flags beat the file
        args = build_parser(config).parse_args(argv)
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except BchWavesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
