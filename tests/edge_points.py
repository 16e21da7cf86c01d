"""The 7 edge points: waves whose Jacobians classify them, from the
quadrature alone, but which Hill's method in theta refuses.

All have E at the energy fraction frac of the well (V(phi2), V(phi1)):
- the large-b points b = 50, 100 and 1020 at a = 1e-3, c = 2, frac 0.5;
- the small-a point b = 2, a = 1e-4 a_max, c = 1, frac 0.5;
- the steep points at a = 0.05 a_max, c = 1: b = 1.2 at frac 0.5 and 0.9,
  and b = 1.01 at frac 0.1.
"""

from __future__ import annotations

from bchwaves import WaveParameters, a_max, critical_points

# id -> (b, a, c, frac)
EDGE_POINTS = {
    "b50": (50.0, 1e-3, 2.0, 0.5),
    "b100": (100.0, 1e-3, 2.0, 0.5),
    "b1020": (1020.0, 1e-3, 2.0, 0.5),
    "small-a": (2.0, 1e-4 * a_max(2.0, 1.0), 1.0, 0.5),
    "b1.2-frac0.5": (1.2, 0.05 * a_max(1.2, 1.0), 1.0, 0.5),
    "b1.2-frac0.9": (1.2, 0.05 * a_max(1.2, 1.0), 1.0, 0.9),
    "b1.01-frac0.1": (1.01, 0.05 * a_max(1.01, 1.0), 1.0, 0.1),
}


def mid_well(b: float, a: float, c: float, frac: float = 0.5) -> WaveParameters:
    """The wave at energy fraction frac of the well, as a sweep row's
    --E-frac-range places it."""
    scan = critical_points(WaveParameters(b=b, a=a, E=0.0, c=c))
    return WaveParameters(b=b, a=a, c=c,
                          E=scan.V_phi2 + frac * (scan.V_phi1 - scan.V_phi2))
