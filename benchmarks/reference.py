"""High-precision reference for the certify panel and the sweep grid.

Everything here follows from the definitions in the package README, with
mpmath at two working precisions, and without importing bchwaves:

    V(phi) = -phi^2/2 + a / ((b-1) (c-phi)^(b-1)),
    well:   roots phi1 < c/(b+1) < phi2 of phi (c-phi)^b = a,
    orbit:  turning points phi_min in (phi1, phi2), phi_max in (phi2, c)
            of E = V(phi),
    T  = sqrt(2) Int dphi / sqrt(E - V),
    F1 = Int m^(1/b) dx,   F2 = Int (m_x^2/(b^2 m^2) + 1) m^(-1/b) dx,
    m  = a / (c - phi)^b   along the wave,

each integral desingularized by phi = phi_min + A sin^2(theta) and
evaluated by Gauss-Legendre in theta (whose nodes stay clear of the
turning points, where E - V cancels).  omega1 and omega2 solve the
stationarity equation 1 = omega1 dF1/dm + omega2 dF2/dm at the crest and
the trough, where m_x = 0.  The Jacobians

    {T, omega1}_{E,c},  {T, F1}_{E,c},  {T, F1, F2}_{a,E,c}

come from central differences with a step of 10^(-dps/3) of each
parameter's scale.  Each figure is computed at 30 and at 45 digits and
stored with only the significant digits on which the two agree.

Regenerate (under a minute on one core):

    python3 benchmarks/reference.py --panel-seed 2309
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import mpmath
import numpy as np
from mpmath.calculus.quadrature import GaussLegendre

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

PRECISIONS = (30, 45)
PANEL_B = (1.2, 1.5, 2.0, 2.5, 3.0, 4.0)
PANEL_PER_B = 2
# keep c - phi_max >= 0.15 c, so that one period resolves at N = 512
STEEPNESS_GUARD = 0.15
# the README sweep: --b 2 --c 1 --a-range 0.02:0.13:8 --E-frac-range 0.1:0.9:9
SWEEP_B, SWEEP_C = 2.0, 1.0
SWEEP_A = [float(v) for v in np.linspace(0.02, 0.13, 8)]
SWEEP_E_FRAC = [float(v) for v in np.linspace(0.1, 0.9, 9)]
# a point where {T,F1}*{T,F1,F2} < 0: a = 0.15 a_max(1.2, 1), E at 5% of the well
PRODUCT_FAIL_POINT = (1.2, 0.15, 0.05, 1.0)
MAX_DIGITS = 20
# mpmath Gauss-Legendre degree d has 3 * 2^(d-1) nodes
MIN_DEGREE, MAX_DEGREE = 5, 9
FIGURES = ("T", "F1", "F2", "omega1", "J_T_omega1", "J_T_F1", "J3", "product")


def a_max(b: float, c: float) -> float:
    return b**b * c ** (b + 1.0) / (b + 1.0) ** (b + 1.0)


def potential(b, a, c, phi):
    return -phi**2 / 2 + a / ((b - 1) * (c - phi) ** (b - 1))


class Wave:
    """One parameter point evaluated at the current mpmath precision."""

    def __init__(self, b, a, E, c):
        mp = mpmath.mp
        self.b, self.a, self.E, self.c = (mp.mpf(b), mp.mpf(a), mp.mpf(E),
                                          mp.mpf(c))
        self.phi1, self.phi2 = well(self.b, self.a, self.c)
        self.phi_min, self.phi_max = self.turning_points()

    def V(self, phi):
        return potential(self.b, self.a, self.c, phi)

    def dV(self, phi):
        return -phi + self.a / (self.c - phi) ** self.b

    def turning_points(self):
        P = lambda phi: self.E - self.V(phi)
        if not (P(self.phi2) > 0 and P(self.phi1) < 0):
            raise ValueError("E is outside the well")
        hi = self.phi2 + (self.c - self.phi2) / 2
        while P(hi) > 0:
            hi = self.c - (self.c - hi) / 2
        roots = []
        for lo_, hi_ in ((self.phi1, self.phi2), (self.phi2, hi)):
            r = mpmath.findroot(P, (lo_, hi_), solver="anderson")
            for _ in range(3):
                r = r + P(r) / self.dV(r)
            roots.append(r)
        return roots[0], roots[1]

    def integrals(self):
        """(T, F1, F2) by Gauss-Legendre, doubling the nodes until two
        rules agree to 10^(6-dps): beyond that the rules only crowd nodes
        towards the turning points, where E - V cancels."""
        mp = mpmath.mp
        tol = mp.mpf(10) ** (6 - mp.dps)
        prev = self._integrals_at(MIN_DEGREE)
        for degree in range(MIN_DEGREE + 1, MAX_DEGREE + 1):
            cur = self._integrals_at(degree)
            if all(abs(x - y) <= tol * abs(x) for x, y in zip(cur, prev)):
                return cur
            prev = cur
        raise RuntimeError("reference quadrature did not converge")

    def _integrals_at(self, degree):
        mp = mpmath.mp
        b, a, c, E = self.b, self.a, self.c, self.E
        A = self.phi_max - self.phi_min
        a1b = a ** (1 / b)
        sums = [mp.mpf(0)] * 3
        for s2, c2, w in _nodes(degree):
            phi = self.phi_min + A * s2
            P = E - self.V(phi)
            core = w / mp.sqrt(P / (A**2 * s2 * c2))
            u = c - phi
            sums[0] += core
            sums[1] += core * a1b / u
            sums[2] += core * (2 * P / u + u) / a1b
        k = 2 * mp.sqrt(2)
        return tuple(k * v for v in sums)

    def multipliers(self):
        """omega1, omega2 from 1 = w1 dF1/dm + w2 dF2/dm at phi_max, phi_min."""
        b, a, c = self.b, self.a, self.c
        rows = []
        for phi in (self.phi_max, self.phi_min):
            m = a / (c - phi) ** b
            m_xx = b * (phi - m) * m / (c - phi)  # phi'' = phi - m, phi' = 0
            dF1 = m ** (1 / b - 1) / b
            dF2 = m ** (-1 / b - 1) / b * (-2 * m_xx / (b * m) - 1)
            rows.append((dF1, dF2))
        (p, q), (r, s) = rows
        det = p * s - q * r
        return (s - q) / det, (p - r) / det


_NODE_CACHE: dict = {}


def _nodes(degree):
    """(sin^2 theta, cos^2 theta, weight) of the Gauss-Legendre rule of the
    given mpmath degree on [0, pi/2], at the current precision."""
    mp = mpmath.mp
    key = (mp.prec, degree)
    if key not in _NODE_CACHE:
        rule = GaussLegendre(mp)
        _NODE_CACHE[key] = [(mp.sin(t) ** 2, mp.cos(t) ** 2, w) for t, w in
                            rule.get_nodes(mp.zero, mp.pi / 2, degree, mp.prec)]
    return _NODE_CACHE[key]


def well(b, a, c):
    g = lambda phi: phi * (c - phi) ** b - a
    mid = c / (b + 1)
    tiny = c * mpmath.mpf(10) ** (-mpmath.mp.dps // 2)
    phi1 = mpmath.findroot(g, (tiny, mid), solver="anderson")
    phi2 = mpmath.findroot(g, (mid, c - tiny), solver="anderson")
    return phi1, phi2


def _figures_at(b, a, E, c, dps):
    """All reference figures at one working precision."""
    mp = mpmath.mp
    mp.dps = dps
    base = Wave(b, a, E, c)
    h = mp.mpf(10) ** (-(dps // 3))
    scales = (base.a, base.V(base.phi1) - base.V(base.phi2), base.c)

    def observables(vals):
        w = Wave(b, vals[0], vals[1], vals[2])
        T, F1, F2 = w.integrals()
        return [T, F1, F2, w.multipliers()[0]]

    center = [base.a, base.E, base.c]
    grad = []  # grad[i][k] = d(observable k)/d(parameter i)
    for i in range(3):
        step = h * scales[i]
        up, down = list(center), list(center)
        up[i] += step
        down[i] -= step
        fu, fd = observables(up), observables(down)
        grad.append([(x - y) / (2 * step) for x, y in zip(fu, fd)])
    T, F1, F2, w1 = observables(center)
    d = lambda k, i: grad[i][k]
    J1 = d(0, 1) * d(3, 2) - d(0, 2) * d(3, 1)
    J2 = d(0, 1) * d(1, 2) - d(0, 2) * d(1, 1)
    J3 = mpmath.det(mpmath.matrix([[d(k, i) for i in range(3)]
                                   for k in range(3)]))
    return {"T": T, "F1": F1, "F2": F2, "omega1": w1, "J_T_omega1": J1,
            "J_T_F1": J2, "J3": J3, "product": J2 * J3,
            "phi_max": base.phi_max}


def _agreed(lo, hi) -> str:
    """hi with only the significant digits on which lo agrees."""
    mp = mpmath.mp
    mp.dps = max(PRECISIONS)
    if hi == 0:
        return "0"
    rel = abs(hi - lo) / abs(hi)
    digits = MAX_DIGITS if rel == 0 else int(mpmath.floor(-mpmath.log10(rel)))
    digits = max(0, min(digits, MAX_DIGITS))
    return mpmath.nstr(hi, digits) if digits else "unresolved"


def reference_point(b, a, E, c) -> dict:
    lo = _figures_at(b, a, E, c, PRECISIONS[0])
    hi = _figures_at(b, a, E, c, PRECISIONS[1])
    out = {"b": b, "a": a, "E": E, "c": c}
    out.update({k: _agreed(lo[k], hi[k]) for k in FIGURES})
    out["steepness"] = float((mpmath.mpf(c) - hi["phi_max"]) / c)
    return out


def _well_energy(b, a, c, frac) -> float:
    mpmath.mp.dps = max(PRECISIONS)
    b, a, c = mpmath.mpf(b), mpmath.mpf(a), mpmath.mpf(c)
    V1, V2 = (potential(b, a, c, phi) for phi in well(b, a, c))
    return float(V2 + frac * (V1 - V2))


def make_panel(panel_seed: int) -> list[tuple[float, float, float, float]]:
    """Seeded interior admissible points, PANEL_PER_B for each b in PANEL_B,
    plus PRODUCT_FAIL_POINT."""
    rng = np.random.default_rng(panel_seed)
    points = []
    for b in PANEL_B:
        drawn = 0
        while drawn < PANEL_PER_B:
            c = float(rng.uniform(0.5, 2.0))
            a = float(rng.uniform(0.15, 0.85)) * a_max(b, c)
            frac = float(rng.uniform(0.1, 0.8))
            E = _well_energy(b, a, c, frac)
            mpmath.mp.dps = PRECISIONS[0]
            w = Wave(b, a, E, c)
            if (c - w.phi_max) < STEEPNESS_GUARD * c:
                continue
            points.append((b, a, E, c))
            drawn += 1
    b, frac_a, frac, c = PRODUCT_FAIL_POINT
    a = frac_a * a_max(b, c)
    points.append((b, a, _well_energy(b, a, c, frac), c))
    return points


def sweep_grid() -> list[tuple[float, float, float, float]]:
    """The README sweep grid in the CLI's row order (a outer, E inner)."""
    return [(SWEEP_B, a, _well_energy(SWEEP_B, a, SWEEP_C, frac), SWEEP_C)
            for a in SWEEP_A for frac in SWEEP_E_FRAC]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--panel-seed", type=int, default=2309)
    parser.add_argument("--out", type=Path, default=REFERENCE_PATH)
    args = parser.parse_args()
    panel = [reference_point(*p) for p in make_panel(args.panel_seed)]
    sweep = [reference_point(*p) for p in sweep_grid()]
    payload = {"panel_seed": args.panel_seed, "precisions": list(PRECISIONS),
               "panel": panel, "sweep": sweep}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
