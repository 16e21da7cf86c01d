"""Command-line interface: profile, classify, spectrum, evolve, sweep.

Exit codes: 0 success, 2 domain rejection (outside the admissible set) or
bad input, 3 numerical non-convergence, 1 internal error; a package error
carries its own code (errors.py).  All reports embed the numeric
configuration; floats are written with 17 significant digits so repeated
runs diff byte-identically.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import itertools
import json
import os
import sys
from array import array
from pathlib import Path

import numpy as np

from . import __version__
from .errors import BchWavesError, RouteMismatch
from .evolution import run_experiment
from .invariants import CLASS_OUT_OF_SCOPE, parameter_jacobians
from .potential import WaveParameters, critical_points
from .profile import profile_header, synthesize_profile, write_profile_csv
from .spectral import (IDENTITY_BOUNDS, assemble_operator, kernel_inertia,
                       proof_identities, theta_spectrum)

# what a command refuses: a package error, or bad input (exit code 2)
_REFUSALS = (BchWavesError, ValueError)
_PREFIXES = {2: "domain error", 3: "numerical error"}


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _json_default(obj):
    """What json cannot write itself: report dataclasses and numpy values."""
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    return obj.tolist()


def _write_json(path: Path, payload: dict) -> None:
    """Write via a temporary file renamed into place: never half-written."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True,
                  default=_json_default)
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
    jac = parameter_jacobians(_params_from(args))
    out = _outdir(args)
    _write_json(out / "classify.json",
                {"classification": jac.classification, "jacobians": jac,
                 "config": _config_echo(args), "version": __version__})
    print(f"classification: {jac.classification} "
          f"(J_T_omega1={_fmt(jac.J_T_omega1)}, J_T_F1={_fmt(jac.J_T_F1)}, "
          f"J3={_fmt(jac.J3)}, theta={_fmt(jac.theta)})")
    return 0


# the grids spectrum reads the proof identities on until all are in bounds
_IDENTITY_GRIDS = (512, 1024, 2048, 4096)


def cmd_spectrum(args: argparse.Namespace) -> int:
    params = _params_from(args)
    # theta first: a point it refuses is never synthesized
    spec = theta_spectrum(params)
    for N in _IDENTITY_GRIDS:
        prof = synthesize_profile(params, N)
        ids = proof_identities(prof, coeffs=assemble_operator(prof))
        over = [name for name, bound in IDENTITY_BOUNDS.items()
                if not getattr(ids, name) <= bound]
        if not over:
            break
    else:
        name = over[0]
        raise RouteMismatch(f"grid proof identity {name} {getattr(ids, name)!r} "
                            f"exceeds {IDENTITY_BOUNDS[name]!r} at N = {N}")
    out = _outdir(args)
    payload = {
        "spectrum": spec,
        "identities": ids,
        "N": N,
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
                          horizon_periods=args.horizon_periods,
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


def _range_values(text: str) -> list[float]:
    """The COUNT values of a MIN:MAX:COUNT range; ValueError if malformed,
    or if COUNT is 1 and MIN differs from MAX, since only MIN would run."""
    lo, hi, count = text.split(":")
    if int(count) < 1:
        raise ValueError("range count must be positive")
    if int(count) == 1 and float(lo) != float(hi):
        raise ValueError("a one-value range needs MIN = MAX")
    return np.linspace(float(lo), float(hi), int(count)).tolist()


def _range_option(text: str) -> str:
    """argparse type of the range options: the text, once _range_values
    takes it, so a malformed range is refused with its option's name."""
    try:
        _range_values(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"range must be MIN:MAX:COUNT with COUNT >= 1 (MIN = MAX if "
            f"COUNT is 1), got {text!r}") from None
    return text


def _parse_range(text: str | None, fallback: float | None) -> list[float]:
    if text is None:
        if fallback is None:
            raise ValueError("sweep needs either a range or a scalar for "
                             "each of b, a, E (or E-frac), c")
        return [fallback]
    return _range_values(text)


def _sweep_grid(args: argparse.Namespace) -> list[dict]:
    b_vals = _parse_range(args.b_range, args.b)
    a_vals = _parse_range(args.a_range, args.a)
    c_vals = _parse_range(args.c_range, args.c)
    if args.E_frac_range is not None:
        e_mode, e_vals = "frac", _parse_range(args.E_frac_range, None)
    else:
        e_mode, e_vals = "abs", _parse_range(args.E_range, args.E)
    grid = itertools.product(b_vals, a_vals, e_vals, c_vals)
    return [{"index": i, "b": b, "a": a, "e_mode": e_mode, "e_val": ev, "c": c}
            for i, (b, a, ev, c) in enumerate(grid)]


# the columns a row has exactly when its status is ok
_RESULTS = ("T", "F1", "F2", "omega1", "omega2", "J_T_omega1", "J_T_F1", "J3",
            "theta")
_RESULT_INDEX = {column: i for i, column in enumerate(_RESULTS)}


class _SweepRow:
    """One row of sweep.csv, read as row[column], with "" in the columns
    its point did not reach.  The other columns sit in slots, and the
    results of an ok row in one array of doubles: ~0.3 KB a row, against
    ~0.8 KB as a dict of floats, for a caller that keeps every row, as
    the benchmark's timing harness (benchmarks/run.py) does."""

    __slots__ = (*(c for c in _SWEEP_COLUMNS if c not in _RESULT_INDEX),
                 "_results")

    def __init__(self, values: dict):
        for column in self.__slots__[:-1]:
            setattr(self, column, values.get(column, ""))
        self._results = (array("d", [values[c] for c in _RESULTS])
                         if values["status"] == "ok" else None)

    def __getitem__(self, column: str):
        i = _RESULT_INDEX.get(column)
        if i is None:
            return getattr(self, column)
        return "" if self._results is None else self._results[i]


def _sweep_row(point: dict) -> _SweepRow:
    """One grid point's row: the Jacobians, as classify reads them, and
    the inertia of the second variation counted from the zeros of the
    even kernel solution (kernel_inertia), which reads the Jacobians'
    complex-step table: no eigensolve and no uniform-grid profile.  A
    point that either refuses fails, with the error's name as its
    status."""
    row = {"index": point["index"], "b": point["b"], "a": point["a"],
           "c": point["c"]}
    try:
        params_probe = WaveParameters(b=point["b"], a=point["a"], E=0.0,
                                      c=point["c"])
    except ValueError as exc:
        row["status"] = f"{CLASS_OUT_OF_SCOPE}: {exc}"
        row["E"] = point["e_val"]
        return _SweepRow(row)
    try:
        if point["e_mode"] == "frac":
            scan = critical_points(params_probe)
            E = scan.V_phi2 + point["e_val"] * (scan.V_phi1 - scan.V_phi2)
        else:
            E = point["e_val"]
        row["E"] = E
        params = WaveParameters(b=point["b"], a=point["a"], E=E, c=point["c"])
        jac = parameter_jacobians(params)
        spec = kernel_inertia(params)
        inv = jac.invariants
        row.update({"status": "ok", "T": inv.T, "F1": inv.F1, "F2": inv.F2,
                    "omega1": inv.omega1, "omega2": inv.omega2,
                    "J_T_omega1": jac.J_T_omega1, "J_T_F1": jac.J_T_F1,
                    "J3": jac.J3, "theta": jac.theta, "n_neg": spec.n_neg,
                    "n_zero": spec.n_zero,
                    "classification": jac.classification})
    except _REFUSALS as exc:
        row["status"] = f"{type(exc).__name__}: {exc}"
    return _SweepRow(row)


def _row_to_csv(row: _SweepRow) -> list[str]:
    out = []
    for col in _SWEEP_COLUMNS:
        v = row[col]
        out.append(_fmt(v) if isinstance(v, float) else str(v))
    return out


def _sweep_config(args: argparse.Namespace) -> dict:
    """Every option of the sweep except --out and --jobs, and the version:
    the manifest stores it, and a sweep resumes only under the same one."""
    config = {k: v for k, v in _config_echo(args).items()
              if k not in ("out", "jobs")}
    config["version"] = __version__
    return config


def cmd_sweep(args: argparse.Namespace) -> int:
    jobs = (os.cpu_count() or 1) if args.jobs is None else args.jobs
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    points = _sweep_grid(args)
    out = _outdir(args)
    csv_path = out / "sweep.csv"
    manifest_path = out / "sweep.manifest.json"
    config = _sweep_config(args)

    done = 0
    if manifest_path.exists() and csv_path.exists():
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        # a run can stop after writing a row but before counting it, so the
        # CSV is cut back to the header and the rows counted
        size = manifest.get("csv_bytes", 0)
        if (manifest.get("config") == config
                and 0 < size <= csv_path.stat().st_size):
            done = int(manifest.get("rows_done", 0))
            os.truncate(csv_path, size)
    pending = points[done:]

    with open(csv_path, "a" if done else "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if not done:
            writer.writerow(_SWEEP_COLUMNS)
            fh.flush()
        executor = contextlib.nullcontext()
        if jobs > 1 and len(pending) > 1:
            # imported here: it loads multiprocessing, which would cost
            # every other command set-up time and memory
            from concurrent.futures import ProcessPoolExecutor
            # the fork start method forks every worker at the first submit
            executor = ProcessPoolExecutor(max_workers=min(jobs, len(pending)))
        with executor as pool:
            # _sweep_row is looked up when the sweep runs, so a wrapper
            # installed on the module (e.g. a timing harness) sees every row
            rows = (pool.map(_sweep_row, pending) if pool
                    else map(_sweep_row, pending))
            for row in rows:
                writer.writerow(_row_to_csv(row))
                fh.flush()
                done += 1
                _write_json(manifest_path,
                            {"config": config, "rows_done": done,
                             "rows_total": len(points), "csv_bytes": fh.tell()})
    print(f"sweep: {done}/{len(points)} rows -> {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------

# every option once: flag name (its dest has "_" for "-") -> argparse keywords
_OPTIONS = {
    "b": dict(type=float, help="family exponent (> 1)"),
    "a": dict(type=float, help="integration constant"),
    "E": dict(type=float, help="quadrature energy"),
    "c": dict(type=float, help="wave speed"),
    "N": dict(type=int, default=512, help="grid size (power of two)"),
    "out": dict(default="."),
    "config": dict(help="JSON file of option defaults (flags override; "
                        "unknown keys are refused)"),
    "format": dict(choices=("csv", "json"), default="csv"),
    "dt-safety": dict(type=float, default=0.5),
    "frame": dict(choices=("traveling", "lab"), default="traveling"),
    "eps": dict(type=float, default=1e-3),
    "horizon-periods": dict(type=float, default=50.0),
    "perturbation": dict(choices=("raw", "constrained"), default="raw"),
    "seed": dict(type=int, default=0),
    "jobs": dict(type=int),
    "b-range": dict(type=_range_option, metavar="MIN:MAX:COUNT"),
    "a-range": dict(type=_range_option, metavar="MIN:MAX:COUNT"),
    "E-range": dict(type=_range_option, metavar="MIN:MAX:COUNT"),
    "E-frac-range": dict(type=_range_option, metavar="MIN:MAX:COUNT",
                         help="energies as fractions of the well "
                              "(V(phi2), V(phi1))"),
    "c-range": dict(type=_range_option, metavar="MIN:MAX:COUNT"),
}

_POINT = ("b", "a", "E", "c", "out", "config")
_COMMON = _POINT + ("N",)

# each subcommand: its function, its help and the options it reads
_COMMANDS = {
    "profile": (cmd_profile, "synthesize a wave profile", _COMMON),
    "classify": (cmd_classify, "stability classification report", _POINT),
    "spectrum": (cmd_spectrum, "periodic spectrum and identities",
                 _POINT + ("format",)),
    "evolve": (cmd_evolve, "time-evolve a perturbed wave",
               _COMMON + ("dt-safety", "frame", "eps", "horizon-periods",
                          "perturbation", "seed")),
    "sweep": (cmd_sweep, "classify over a parameter grid",
              _POINT + ("jobs", "seed", "b-range", "a-range", "E-range",
                        "E-frac-range", "c-range")),
}

# options that set one parameter: a command that takes a whole group accepts
# at most one of it, from the command line and --config together
_EXCLUSIVE = (("b", "b-range"), ("a", "a-range"), ("c", "c-range"),
              ("E", "E-range", "E-frac-range"))


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser.  argparse hands the options a subparser does
    not know back to the top parser, whose usage line lists none of the
    subcommand's; this one refuses them itself, with its own usage."""

    def parse_known_args(self, args=None, namespace=None):
        args, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return args, extra


def build_parser() -> argparse.ArgumentParser:
    """The top parser, with one subparser per command in _COMMANDS."""
    parser = argparse.ArgumentParser(
        prog="bchwaves",
        description="Periodic traveling waves of the b-family Camassa-Holm "
                    "equation: construction, stability criteria, spectra, "
                    "and time evolution.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_CommandParser)
    for name, (func, help_text, options) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        container = {}
        for group in (g for g in _EXCLUSIVE if set(g) <= set(options)):
            container |= dict.fromkeys(group,
                                       sub.add_mutually_exclusive_group())
        for option in options:
            container.get(option, sub).add_argument(f"--{option}",
                                                    **_OPTIONS[option])
        sub.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
            print(f"config error: cannot read {args.config}: {exc}",
                  file=sys.stderr)
            return 2
        if not isinstance(config, dict):
            print(f"config error: {args.config} does not hold a JSON "
                  f"object of option values", file=sys.stderr)
            return 2
        known = set(vars(args)) - {"func", "config", "command"}
        unknown = sorted(set(config) - known)
        if unknown:
            print(f"config error: {args.command} has no option "
                  f"{', '.join(unknown)} (in {args.config})", file=sys.stderr)
            return 2
        # parse again with the file's values as flags, so that argparse
        # checks them as it checks the command line; they go before the
        # command line's own flags, so a flag still beats the file
        flags = [f"--{key.replace('_', '-')}="
                 + (value if isinstance(value, str) else json.dumps(value))
                 for key, value in config.items()]
        at = argv.index(args.command) + 1
        args = build_parser().parse_args(argv[:at] + flags + argv[at:])
    try:
        return args.func(args)
    except _REFUSALS as exc:
        code = exc.exit_code if isinstance(exc, BchWavesError) else 2
        print(f"{_PREFIXES.get(code, 'error')}: {exc}", file=sys.stderr)
        return code
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
