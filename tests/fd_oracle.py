"""Central differences with Richardson extrapolation: the independent
route that the complex-step derivatives of the package are checked
against."""

from __future__ import annotations

from typing import Callable

import numpy as np

from bchwaves import WaveParameters
from bchwaves.profile import turning_point_data


def fd_steps_for(params: WaveParameters, rel_step: float = 1e-5) -> np.ndarray:
    """Per-parameter central-difference steps: rel_step times the natural
    scale of each parameter, capped by margin/20 so all stencil points stay
    inside the admissible region."""
    scan = turning_point_data(params).scan
    margin = scan.margin
    scale_E = scan.V_phi1 - scan.V_phi2
    assert margin >= 1e-5 * scale_E, "too close to the boundary for a stencil"
    return np.array([
        min(rel_step * params.a, margin / 20.0),
        min(rel_step * scale_E, margin / 20.0),
        min(rel_step * params.c, margin / 20.0),
    ])


def perturbed(params: WaveParameters, index: int, delta: float) -> WaveParameters:
    vals = [params.a, params.E, params.c]
    vals[index] += delta
    return WaveParameters(b=params.b, a=vals[0], E=vals[1], c=vals[2])


def richardson_gradient(f: Callable[[WaveParameters], np.ndarray],
                        params: WaveParameters,
                        steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central differences at steps h and h/2, Richardson-combined.

    Returns (gradient, error_estimate) with shape (len(f), 3)."""
    grads, errs = [], []
    for i in range(3):
        h = steps[i]
        d_h = (f(perturbed(params, i, h)) - f(perturbed(params, i, -h))) / (2.0 * h)
        d_h2 = (f(perturbed(params, i, h / 2)) - f(perturbed(params, i, -h / 2))) / h
        grads.append((4.0 * d_h2 - d_h) / 3.0)
        errs.append(np.abs(d_h2 - d_h) / 3.0)
    return np.stack(grads, axis=-1), np.stack(errs, axis=-1)
