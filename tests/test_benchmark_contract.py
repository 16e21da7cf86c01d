"""What the benchmark under benchmarks/ reads from the package: the layers
its tracer wraps, the calls its workloads make and the sweep's command
line.  A name removed or a keyword renamed fails here, in the tier-1
suite, and not only when the workloads run."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from bchwaves import cli

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
RUN = ast.parse((BENCHMARKS / "run.py").read_text(encoding="utf-8"))
MODULES = [importlib.import_module(f"bchwaves.{name}") for name in
           ("potential", "profile", "invariants", "spectral", "evolution", "cli")]


def _package_function(name):
    """The function of that name a bchwaves module defines, or None."""
    for module in MODULES:
        fn = getattr(module, name, None)
        if callable(fn) and getattr(fn, "__module__", None) == module.__name__:
            return fn
    return None


def test_traced_layers_resolve():
    spec = importlib.util.spec_from_file_location("tracing",
                                                  BENCHMARKS / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for layer in tracing.LAYERS:
        module, name = layer.split(".")
        if not callable(getattr(importlib.import_module(f"bchwaves.{module}"),
                                name, None)):
            missing.append(layer)
    assert missing == []


def test_workload_calls_bind():
    """Every call in run.py of a package function, also through a local
    alias such as run = ...run_experiment, binds to its signature; calls
    that unpack their arguments are skipped."""
    alias = {node.targets[0].id: node.value.attr for node in ast.walk(RUN)
             if isinstance(node, ast.Assign)
             and isinstance(node.targets[0], ast.Name)
             and isinstance(node.value, ast.Attribute)}
    bound = set()
    for node in ast.walk(RUN):
        if not isinstance(node, ast.Call) or any(
                isinstance(arg, ast.Starred) for arg in node.args) or any(
                kw.arg is None for kw in node.keywords):
            continue
        func = node.func
        name = (func.attr if isinstance(func, ast.Attribute)
                else alias.get(getattr(func, "id", None)))
        fn = _package_function(name) if name else None
        if fn is not None:
            inspect.signature(fn).bind(*node.args,
                                       **{kw.arg: None for kw in node.keywords})
            bound.add(name)
    assert {"classify_stability", "synthesize_profile", "assemble_operator",
            "periodic_spectrum", "proof_identities", "coercivity_probe",
            "run_experiment", "main"} <= bound


def test_sweep_command_line_parses():
    (sweep_args,) = [ast.literal_eval(node.value) for node in RUN.body
                     if isinstance(node, ast.Assign)
                     and getattr(node.targets[0], "id", None) == "SWEEP_ARGS"]
    args = cli.build_parser().parse_args(
        sweep_args + ["--out", "out", "--seed", "1"])
    assert args.func is cli.cmd_sweep and args.seed == 1
