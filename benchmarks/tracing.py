"""Span tracing around the calls into the bchwaves layers.

The tracer replaces each traced public function with a wrapper in every
bchwaves module that binds it (for example both
``bchwaves.profile.synthesize_profile`` and
``bchwaves.invariants.synthesize_profile``), so calls made inside the
package are seen too.  A span is (name, start, end, parent); spans stay
in memory until the run ends.  numpy.fft entry points can be wrapped as
plain counters: a span records how many FFT calls it covered.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

import numpy as np

MODULES = ("potential", "profile", "invariants", "spectral", "evolution",
           "fourier", "cli")
LAYERS = (
    "potential.critical_points", "potential.existence_check",
    "profile.turning_point_data", "profile.wave_integral",
    "profile.synthesize_profile", "profile.profile_residuals",
    "invariants.multipliers", "invariants.restricted_invariants",
    "invariants.parameter_jacobians", "invariants.crest_identities",
    "invariants.conserved_quantities", "invariants.classify_stability",
    "invariants.family_derivatives",
    "fourier.spectral_derivative", "fourier.trig_interpolate",
    "spectral.assemble_operator", "spectral.hill_matrix",
    "spectral.periodic_spectrum", "spectral.proof_identities",
    "spectral.coercivity_probe",
    "evolution.run_experiment", "evolution.step",
    "evolution.reconstruct_velocity", "evolution.orbital_distance",
)
FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.ffts: list[int] = []
        self.fft_calls = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, name, fn):
        names, start, end, parent, ffts = (self.names, self.start, self.end,
                                           self.parent, self.ffts)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            ffts.append(self.fft_calls)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
                ffts[i] = self.fft_calls - ffts[i]

        return traced

    def _counter(self, fn):
        def counted(*args, **kwargs):
            self.fft_calls += 1
            return fn(*args, **kwargs)

        return counted

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, count_fft: bool = False) -> None:
        """Wrap every traced layer wherever a bchwaves module binds it."""
        modules = [importlib.import_module(f"bchwaves.{m}") for m in MODULES]
        modules.append(importlib.import_module("bchwaves"))
        for layer in LAYERS:
            mod_name, attr = layer.split(".")
            original = getattr(importlib.import_module(f"bchwaves.{mod_name}"),
                               attr)
            wrapper = self._span(layer, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._replace(mod, attr, wrapper)
        if count_fft:
            for attr in FFT_FUNCTIONS:
                self._replace(np.fft, attr, self._counter(getattr(np.fft, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, inclusive ns, self ns (minus child spans) and
        FFT calls covered."""
        child_ns = [0] * len(self.names)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ns": 0, "self_ns": 0, "ffts": 0})
        for i, name in enumerate(self.names):
            rec = out[name]
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["ns"] += dur
            rec["self_ns"] += dur - child_ns[i]
            rec["ffts"] += self.ffts[i]
        return out

    def top_level_ns(self) -> int:
        """Time inside spans that no other span encloses."""
        return sum(self.end[i] - self.start[i]
                   for i, p in enumerate(self.parent) if p < 0)

    def write(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta) + "\n")
            for row in zip(self.names, self.start, self.end, self.parent):
                fh.write(json.dumps(row) + "\n")
