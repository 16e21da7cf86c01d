"""bchwaves benchmark: certify a point, sweep a grid, evolve a perturbed wave.

    python3 benchmarks/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory.  One process runs one workload, single-threaded (BLAS and
OpenMP pinned to one thread), as a closed loop with one client: each
operation starts when the previous one has returned.  Every run covers
whole passes of its panel, grid or ladder and keeps going until
--seconds have passed.  Outputs are checked after the timed region.  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under --trace 0 and the per-layer metrics of
a traced run under --trace 1.  See README.md in this directory.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

N_GRID = 512
HILL_MODES = 128
PROBE_TRIALS = 1000
SWEEP_ARGS = ["sweep", "--b", "2", "--c", "1", "--a-range", "0.02:0.13:8",
              "--E-frac-range", "0.1:0.9:9", "--jobs", "1"]
EVOLVE_WAVE = (2.0, 0.1, 0.09, 1.0)   # b, a, E, c: the criterion-9 wave
EVOLVE_LADDER = (1e-3, 5e-4, 2.5e-4, 0.0)
EVOLVE_SEED = 11
EVOLVE_PERIODS = 1.0
EVOLVE_SAMPLES = 100
SETUP_PROBES = 2          # extra cold set-ups in fresh processes
WORKLOADS = ("certify", "sweep", "evolve")


def fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not (SRC / "bchwaves" / "__init__.py").is_file():
        fail(f"no bchwaves sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bchwaves
    if not Path(bchwaves.__file__).resolve().is_relative_to(SRC):
        fail(f"bchwaves imported from {bchwaves.__file__}, not {SRC}")
    from bchwaves import (cli, evolution, invariants, potential, profile,
                          spectral)
    return {"cli": cli, "evolution": evolution, "invariants": invariants,
            "potential": potential, "profile": profile, "spectral": spectral}


# ---------------------------------------------------------------------------
# workloads: set-up, one pass of operations, and the record kept for checks
# ---------------------------------------------------------------------------

class Workload:
    """Set up in __init__; one_pass(i) yields (operation, context) pairs;
    record(output) keeps what check() needs; close() removes its files."""

    def latencies(self, ops) -> tuple[list[float], int, int]:
        """Latencies of the operations that completed; attempted; failed."""
        return [dt for dt, _, _ in ops], len(ops), 0

    def close(self) -> None:
        pass


class Certify(Workload):
    """The full certificate of one panel point per operation."""

    def __init__(self, bw, seed: int, ref: dict):
        self.bw, self.seed = bw, seed
        Wave = bw["potential"].WaveParameters
        self.points = [(Wave(b=p["b"], a=p["a"], E=p["E"], c=p["c"]), p)
                       for p in ref["panel"]]
        self.certify(Wave(*EVOLVE_WAVE))  # warm-up

    def certify(self, params) -> dict:
        inv, prof_mod, spec_mod = (self.bw["invariants"], self.bw["profile"],
                                   self.bw["spectral"])
        report = inv.classify_stability(params, N=N_GRID)
        prof = prof_mod.synthesize_profile(params, N_GRID)
        coeffs = spec_mod.assemble_operator(prof)
        spec = spec_mod.periodic_spectrum(coeffs, M=HILL_MODES)
        ids = spec_mod.proof_identities(prof, coeffs=coeffs)
        probe = spec_mod.coercivity_probe(coeffs, prof, trials=PROBE_TRIALS,
                                          seed=self.seed)
        return {"report": report, "T_profile": prof.T, "spec": spec,
                "ids": ids, "probe": probe}

    def one_pass(self, index: int):
        order = list(range(len(self.points)))
        random.Random(f"certify:{self.seed}:{index}").shuffle(order)
        for i in order:
            params, ref = self.points[i]
            yield (lambda p=params: self.certify(p)), ref

    @staticmethod
    def record(out: dict) -> dict:
        jac = out["report"].jacobians
        return {"classification": out["report"].classification,
                "T": jac.invariants.T, "F1": out["report"].F1,
                "F2": out["report"].F2, "omega1": jac.invariants.omega1,
                "J_T_omega1": jac.J_T_omega1, "J_T_F1": jac.J_T_F1,
                "J3": jac.J3, "T_profile": out["T_profile"],
                "n_neg": out["spec"].n_neg, "n_zero": out["spec"].n_zero,
                "psi_quadform": out["ids"].psi_quadform,
                "probe_min": out["probe"].min_quotient,
                "probe_negative": out["probe"].n_negative}

    def check(self, outputs) -> list[str]:
        problems = []
        for rec, ref in outputs:
            problems += checks.check_certificate(rec, ref)
        return problems


class Sweep(Workload):
    """The README sweep, in process; one operation is one grid row."""

    def __init__(self, bw, seed: int, ref: dict):
        self.bw, self.seed, self.grid = bw, seed, ref["sweep"]
        self.dir = OUT / f"sweep-{os.getpid()}"
        self.row_times: list[tuple[float, dict]] = []
        cli = bw["cli"]
        sweep_row = cli._sweep_row

        def timed_row(*args, **kwargs):
            t0 = time.perf_counter()
            row = sweep_row(*args, **kwargs)
            self.row_times.append((time.perf_counter() - t0, row))
            return row

        cli._sweep_row = timed_row
        self.sweep(["--a-range", "0.02:0.02:1", "--E-frac-range", "0.5:0.5:1"])
        self.row_times.clear()

    def sweep(self, extra=()) -> dict:
        for name in ("sweep.csv", "sweep.manifest.json"):
            (self.dir / name).unlink(missing_ok=True)
        argv = SWEEP_ARGS + ["--out", str(self.dir), "--seed", str(self.seed),
                             *extra]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.bw["cli"].main(argv)
        return {"exit": code}

    def one_pass(self, index: int):
        yield self.sweep, None

    def record(self, out: dict) -> dict:
        with open(self.dir / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        with open(self.dir / "sweep.manifest.json", encoding="utf-8") as fh:
            done = json.load(fh)["rows_done"]
        return {"exit": out["exit"], "rows": rows, "rows_done": done}

    def latencies(self, ops) -> tuple[list[float], int, int]:
        lat = [dt for dt, row in self.row_times if row["status"] == "ok"]
        return lat, len(self.row_times), len(self.row_times) - len(lat)

    def check(self, outputs) -> list[str]:
        problems, failed = [], 0
        for rec, _ in outputs:
            if rec["exit"] != 0:
                problems.append(f"sweep exited with {rec['exit']}")
            found, n_failed = checks.check_sweep(rec["rows"], self.grid,
                                                 rec["rows_done"])
            problems += found
            failed += n_failed
        timed_failed = sum(row["status"] != "ok" for _, row in self.row_times)
        if failed != timed_failed:
            problems.append(f"{timed_failed} rows failed, the CSVs show "
                            f"{failed}")
        return problems

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


class Evolve(Workload):
    """One criterion-9 ladder per operation on the reference wave."""

    def __init__(self, bw, seed: int, ref: dict):
        self.bw, self.seed = bw, seed
        params = bw["potential"].WaveParameters(*EVOLVE_WAVE)
        self.profile = bw["profile"].synthesize_profile(params, N_GRID)
        bw["evolution"].run_experiment(self.profile, eps=EVOLVE_LADDER[0],
                                       horizon_periods=0.05, N=N_GRID,
                                       seed=EVOLVE_SEED)  # warm-up

    def ladder(self, order) -> list:
        run = self.bw["evolution"].run_experiment
        return [run(self.profile, eps=eps, horizon_periods=EVOLVE_PERIODS,
                    N=N_GRID, frame="traveling", seed=EVOLVE_SEED,
                    n_samples=EVOLVE_SAMPLES) for eps in order]

    def one_pass(self, index: int):
        order = list(EVOLVE_LADDER)
        random.Random(f"evolve:{self.seed}:{index}").shuffle(order)
        yield (lambda: self.ladder(order)), None

    @staticmethod
    def record(out: list) -> list[dict]:
        return [{"eps": d.eps, "outcome": d.outcome, "max_rho": d.max_rho,
                 "max_drift": float(max(d.E_drift.max(), d.F1_drift.max(),
                                        d.F2_drift.max())),
                 "steps": d.config["n_steps"]} for d in out]

    def check(self, outputs) -> list[str]:
        problems = []
        for rec, _ in outputs:
            problems += checks.check_ladder(rec)
        return problems


# ---------------------------------------------------------------------------
# set-up, timed loop, metrics
# ---------------------------------------------------------------------------

def set_up(workload: str, seed: int):
    """Import the package, build the inputs and warm up; (workload, s)."""
    t0 = time.perf_counter()
    bw = import_package()
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    cls = {"certify": Certify, "sweep": Sweep, "evolve": Evolve}[workload]
    wl = cls(bw, seed, ref)
    return wl, time.perf_counter() - t0


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process running the same set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        fail(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def timed_loop(wl, seconds: float):
    """Whole passes until `seconds` have elapsed.  Returns the per-operation
    (latency, record, context) triples and the summed operation time; the
    records for the checks are taken between operations, untimed."""
    ops = []
    t_begin = time.perf_counter()
    index = 0
    while True:
        for op, ctx in wl.one_pass(index):
            t0 = time.perf_counter()
            out = op()
            dt = time.perf_counter() - t0
            ops.append((dt, wl.record(out), ctx))
        index += 1
        if time.perf_counter() - t_begin >= seconds:
            break
    return ops, sum(dt for dt, _, _ in ops)


# per operation: "<layer>.calls", "<layer>.ms" (inclusive), "<layer>.self_ms"
# (minus child spans); per call: "evolution.step.us"; per RK4 step:
# "evolution.fft_calls_per_step"; per sweep row: "cli.self_ms", the sweep
# time spent outside every library span
LAYER_METRICS = (
    "profile.synthesize_profile.calls", "profile.synthesize_profile.ms",
    "profile.turning_point_data.calls", "profile.wave_integral.calls",
    "profile.wave_integral.ms", "potential.critical_points.calls",
    "invariants.restricted_invariants.ms", "invariants.crest_identities.ms",
    "invariants.conserved_quantities.ms", "invariants.family_derivatives.ms",
    "fourier.trig_interpolate.calls", "fourier.trig_interpolate.ms",
    "spectral.coercivity_probe.ms", "spectral.proof_identities.self_ms",
    "fourier.spectral_derivative.calls", "spectral.hill_matrix.calls",
    "spectral.periodic_spectrum.ms", "evolution.step.calls",
    "evolution.step.us", "evolution.fft_calls_per_step",
    "evolution.reconstruct_velocity.calls",
    "evolution.orbital_distance.calls", "evolution.orbital_distance.ms",
    "cli.self_ms",
)
UNITS = {"calls": "count", "ms": "ms", "self_ms": "ms", "us": "us",
         "fft_calls_per_step": "count"}


def layer_metrics(tracer, workload: str, wall_s: float, attempted: int
                  ) -> dict:
    """The per-layer metrics of a traced run."""
    summary = tracer.summary()
    total = lambda layer, key: summary.get(layer, {}).get(key, 0)
    steps = total("evolution.step", "calls")
    out = {}
    for metric in LAYER_METRICS:
        layer, _, kind = metric.rpartition(".")
        if metric == "cli.self_ms":
            value = ((wall_s * 1e9 - tracer.top_level_ns()) / 1e6 / attempted
                     if workload == "sweep" else 0.0)
        elif metric == "evolution.fft_calls_per_step":
            value = total("evolution.step", "ffts") / steps if steps else 0.0
        elif kind == "us":
            value = total(layer, "ns") / steps / 1e3 if steps else 0.0
        else:
            key = {"calls": "calls", "ms": "ns", "self_ms": "self_ns"}[kind]
            value = total(layer, key) / attempted
            if kind != "calls":
                value /= 1e6
        out[metric] = {"value": value, "unit": UNITS[kind]}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (HERE / "reference.json").is_file():
        fail("reference.json is missing")

    if args.setup_probe:
        wl, setup_s = set_up(args.workload, args.seed)
        wl.close()
        print(json.dumps({"setup_s": setup_s}))
        return

    setups = [] if args.trace else [probe_setup(args.workload, args.seed)
                                    for _ in range(SETUP_PROBES)]
    wl, setup_s = set_up(args.workload, args.seed)
    setups.append(setup_s)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(count_fft=args.workload == "evolve")
    ops, wall_s = timed_loop(wl, args.seconds)
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    lat, attempted, failed = wl.latencies(ops)
    problems = wl.check([(rec, ctx) for _, rec, ctx in ops])
    wl.close()
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)

    ops_per_s = len(lat) / wall_s
    op_p50_ms = statistics.median(lat) * 1e3 if lat else float("nan")
    print(f"{args.workload}: {len(ops)} operations in "
          f"{wall_s:.2f} s, {attempted} attempted, {failed} failed, "
          f"ops_per_s {ops_per_s:.4g}, op_p50_ms {op_p50_ms:.4g}",
          file=sys.stderr)
    if tracer is not None:
        metrics = layer_metrics(tracer, args.workload, wall_s, attempted)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                  "wall_s": wall_s, "attempted": attempted,
                                  "ops_per_s": ops_per_s,
                                  "op_p50_ms": op_p50_ms})
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": op_p50_ms, "unit": "ms"},
        }
    print(json.dumps({"correct": not problems and bool(lat),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
