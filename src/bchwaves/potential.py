"""Effective potential, root function, and the existence region.

Smooth periodic waves phi(x - c t) with phi < c exist exactly when the
effective potential

    V(phi; a, c) = -phi^2/2 + a / ((b-1) (c-phi)^(b-1))

has a potential well, i.e. when the root function

    g(phi) = phi (c-phi)^b - a

has two roots 0 < phi1 < c/(b+1) < phi2 < c (local max / local min of V)
and the quadrature energy E lies strictly inside (V(phi2), V(phi1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from .errors import NotInExistenceSet

# relative bracket offset for root finding on (0, c)
_BRACKET_EPS = 1e-14


@dataclass(frozen=True)
class WaveParameters:
    """Wave family parameters (b, a, E, c).

    b > 1 is required on construction; admissibility of (a, E, c) is the
    job of :func:`existence_check`, so out-of-range values are allowed
    here and simply fail that check.
    """

    b: float
    a: float
    E: float
    c: float

    def __post_init__(self):
        for name in ("b", "a", "E", "c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"parameter {name} must be finite")
        if self.b <= 1.0:
            raise ValueError(f"b must exceed 1, got {self.b}")


@dataclass(frozen=True)
class PotentialScan:
    """Critical-point data of V for fixed (b, a, c) plus the E-margin."""

    phi1: float
    phi2: float
    a_max: float
    V_phi1: float
    V_phi2: float
    margin: float


@dataclass(frozen=True)
class ExistenceResult:
    ok: bool
    reason: str | None
    scan: PotentialScan | None


def a_max(b: float, c: float) -> float:
    """Largest integration constant admitting critical points of V."""
    return b**b * c ** (b + 1.0) / (b + 1.0) ** (b + 1.0)


def _cpow(base, expo):
    """(base)**expo for base > 0 via exp/log, valid for real expo (and for
    a base with a tiny imaginary part, as under a complex step)."""
    return np.exp(expo * np.log(base))


def _potential(phi, params):
    """V(phi; a, c) without checks or casts: analytic in phi, a and c, so
    it also takes the complex parameters of a complex step."""
    return -0.5 * phi**2 + params.a / ((params.b - 1.0) * _cpow(params.c - phi, params.b - 1.0))


def eval_potential(phi, params: WaveParameters):
    """Effective potential V(phi; a, c); requires phi < c strictly."""
    phi = np.asarray(phi, dtype=float)
    if np.any(phi >= params.c):
        raise ValueError("potential is only defined for phi < c")
    val = _potential(phi, params)
    return float(val) if val.ndim == 0 else val


def eval_g(phi, params: WaveParameters):
    """Root function g(phi) = phi (c-phi)^b - a; sign(V_phi) = -sign(g)."""
    phi = np.asarray(phi, dtype=float)
    if np.any(phi >= params.c):
        raise ValueError("g is only defined for phi < c")
    val = phi * _cpow(params.c - phi, params.b) - params.a
    return float(val) if val.ndim == 0 else val


def _dg(phi: float, params: WaveParameters) -> float:
    b, c = params.b, params.c
    return float(_cpow(c - phi, b - 1.0) * (c - (b + 1.0) * phi))


def _newton_polish(f, df, x0: float, steps: int = 2) -> float:
    x = x0
    for _ in range(steps):
        d = df(x)
        if d == 0.0:
            break
        x = x - f(x) / d
    return x


@lru_cache(maxsize=1)
def _critical_values(b: float, a: float, c: float) -> tuple:
    """phi1, phi2, a_max, V(phi1), V(phi2) for one (b, a, c), by bracketed
    root finding on g and a Newton polish.  They do not depend on E, so a
    sweep row's repeated existence checks share one scan."""
    if not (c > 0.0):
        raise NotInExistenceSet(f"c must be positive, got {c}")
    amax = a_max(b, c)
    if not (0.0 < a < amax):
        raise NotInExistenceSet(f"a outside (0, {amax!r}): got {a!r}")

    params = WaveParameters(b=b, a=a, E=0.0, c=c)
    g = lambda phi: eval_g(phi, params)
    lo, mid, hi = _BRACKET_EPS * c, c / (b + 1.0), c * (1.0 - _BRACKET_EPS)
    phi1 = brentq(g, lo, mid, xtol=1e-15, rtol=9e-16)
    phi2 = brentq(g, mid, hi, xtol=1e-15, rtol=9e-16)
    phi1 = _newton_polish(g, lambda p: _dg(p, params), phi1)
    phi2 = _newton_polish(g, lambda p: _dg(p, params), phi2)
    return (float(phi1), float(phi2), amax, eval_potential(phi1, params),
            eval_potential(phi2, params))


def critical_points(params: WaveParameters) -> PotentialScan:
    """Locate phi1 (local max of V) and phi2 (local min), report their V
    values and the distance of (a, E) to the boundary of the existence
    region."""
    phi1, phi2, amax, V1, V2 = _critical_values(params.b, params.a, params.c)
    margin = min(params.a, amax - params.a, params.E - V2, V1 - params.E)
    return PotentialScan(phi1=phi1, phi2=phi2, a_max=amax,
                         V_phi1=V1, V_phi2=V2, margin=margin)


def existence_check(params: WaveParameters) -> ExistenceResult:
    """Decide membership of (a, E, c) in the existence region.

    Returns the scan whenever the critical points exist, so callers can
    inspect the well geometry even for rejected energies.  Boundary
    values are excluded (open region).
    """
    try:
        scan = critical_points(params)
    except NotInExistenceSet as exc:
        return ExistenceResult(False, exc.reason, None)
    if not (scan.V_phi2 < params.E < scan.V_phi1):
        return ExistenceResult(
            False,
            f"E outside ({scan.V_phi2!r}, {scan.V_phi1!r}): got {params.E!r}",
            scan,
        )
    return ExistenceResult(True, None, scan)


def require_existence(params: WaveParameters) -> PotentialScan:
    """existence_check that raises NotInExistenceSet on failure."""
    result = existence_check(params)
    if not result.ok:
        raise NotInExistenceSet(result.reason or "not in existence set")
    assert result.scan is not None
    return result.scan
