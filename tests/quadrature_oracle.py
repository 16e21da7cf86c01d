"""Independent routes for the package's period and invariant integrals:
Gauss-Legendre node doubling of the same desingularized integrand, and
the period by shooting the profile equation."""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import roots_legendre

from bchwaves import WaveParameters
from bchwaves.profile import _relative_change, _samples, turning_point_data


def gauss_integrals(params, integrands: tuple = (None,), tp=None,
                    rel_tol: float = 1e-11, n_max: int = 4096) -> np.ndarray:
    """2 sqrt(2) * Integral[ f(phi, P) * W^(-1/2), {theta, 0, pi/2} ] for
    each f in integrands (None: f = 1) by Gauss-Legendre, doubling the
    nodes from 64 until no real or imaginary entry changes by more than
    rel_tol of its row's largest entry; shape (len(integrands), complex
    steps)."""
    if tp is None:
        tp = turning_point_data(params)
    previous = None
    n = 64
    while n <= n_max:
        x, w = roots_legendre(n)
        phi, P, G = _samples(0.25 * np.pi * (x + 1.0), params, tp)
        rows = [G if f is None else G * f(phi, P) for f in integrands]
        sums = 0.5 * np.pi * np.reshape(rows, (len(integrands), -1, n)) @ w
        if previous is not None and _relative_change(sums, previous) <= rel_tol:
            return sums
        previous = sums
        n *= 2
    raise AssertionError(f"Gauss-Legendre did not reach {rel_tol} by n={n_max}")


def period_by_shooting(params: WaveParameters, rtol: float = 1e-12,
                       atol: float = 1e-14) -> float:
    """Integrate phi'' = phi - a/(c - phi)^b from (phi_max, 0) until phi'
    vanishes again; T is twice that length."""
    a, b, c = params.a, params.b, params.c
    tp = turning_point_data(params)

    def rhs(x, y):
        return (y[1], y[0] - a / (c - y[0]) ** b)

    def event(x, y):
        return y[1]

    event.terminal = True
    event.direction = 1.0
    sol = solve_ivp(rhs, (0.0, 1e6), (tp.phi_max, 0.0), events=event,
                    rtol=rtol, atol=atol, method="DOP853")
    assert sol.t_events[0].size, "shooting never returned to phi' = 0"
    return 2.0 * float(sol.t_events[0][0])
