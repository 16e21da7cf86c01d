"""Prufer oscillation count of the cosine block on the half period: the
independent oracle of spectral.kernel_inertia.

In theta the cosine block is the Neumann problem

    -(P v_theta)_theta + G r v = lambda G v  on (0, pi/2),   P = p / G

(spectral module docstring), with r the symmetric_r of the operator.
With v = rho sin(w) and P v_theta = rho cos(w), its Prufer angle at
lambda = 0 obeys

    w' = cos(w)^2 / P - G r sin(w)^2,   w(0) = pi/2

(Neumann at the trough, theta = 0), and by Sturm oscillation the block has
#{k >= 0 : w(pi/2) > pi/2 + k pi} eigenvalues below 0 (Magnus & Winkler,
Hill's Equation, 1966).  p, r and G are the closed forms of
spectral._theta_samples, evaluated wherever scipy's DOP853 asks.  The
angle is integrated, where kernel_inertia reads the zeros of a closed-form
solution, so the two routes share no solution.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from bchwaves import WaveParameters
from bchwaves.spectral import _theta_samples


def prufer_count(params: WaveParameters,
                 rtol: float = 1e-8) -> tuple[int, float]:
    """The cosine block's count below 0, and the distance of w(pi/2) from
    the nearest pi/2 + k pi in units of pi: the margin by which the
    count holds.  The tolerance is relative only (atol = 1e-300), since
    at large b the angle sits within 1e-7 of 0 over most of the half
    period, where an absolute tolerance lets it cross 0 backwards."""
    def rhs(theta, w):
        p, r, G, _, _ = _theta_samples(params, np.array([theta]))
        cos, sin = np.cos(w[0]), np.sin(w[0])
        return [cos * cos * G[0] / p[0] - G[0] * r[0] * sin * sin]

    sol = solve_ivp(rhs, (0.0, 0.5 * np.pi), [0.5 * np.pi], method="DOP853",
                    rtol=rtol, atol=1e-300)
    if not sol.success:
        raise RuntimeError(f"Prufer integration failed: {sol.message}")
    turns = sol.y[0, -1] / np.pi - 0.5
    return max(int(np.floor(turns)) + 1, 0), float(abs(turns - round(turns)))
