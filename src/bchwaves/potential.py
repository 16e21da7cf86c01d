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

from .errors import ConvergenceFailure, NotInExistenceSet

# relative bracket offset for root finding on (0, c)
_BRACKET_EPS = 1e-14
# _bracketed_root: absolute and relative width of the final bracket, and
# the most steps it takes
_ROOT_XTOL = 1e-15
_ROOT_RTOL = 9e-16
_ROOT_MAXITER = 100


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
    """Largest integration constant admitting critical points of V,
    b^b c^(b+1) / (b+1)^(b+1), with b^b / (b+1)^b taken as one power so that
    neither overflows at large b; inf where c^(b+1) exceeds the double
    range (c > 1 at large b)."""
    try:
        return (b / (b + 1.0)) ** b * c ** (b + 1.0) / (b + 1.0)
    except OverflowError:
        return math.inf


def _cpow(base, expo):
    """(base)**expo for base > 0 via exp/log, valid for real expo (and for
    a base with a tiny imaginary part, as under a complex step)."""
    return np.exp(expo * np.log(base))


def _potential(phi, params):
    """V(phi; a, c) without checks or casts: analytic in phi, a and c, so
    it also takes the complex parameters of a complex step.  The a-term is
    one exp of logs, since (b - 1) (c - phi)^(b-1) overflows at large b
    where its reciprocal times a does not."""
    b = params.b
    return -0.5 * phi**2 + params.a * np.exp(
        -np.log(b - 1.0) - (b - 1.0) * np.log(params.c - phi))


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


def _fpow(base: float, expo: float) -> float:
    """_cpow on Python floats."""
    return math.exp(expo * math.log(base))


def _float_potential(b: float, a: float, c: float):
    """V(phi; a, c) as a function of one Python float phi < c, by math: a
    root search evaluates it one point at a time, where numpy's per-call
    cost would exceed the arithmetic.  The a-term is formed as in
    _potential; it is +inf where its exp overflows (near c at large b),
    so a bracket end there keeps its sign."""
    log_b1 = math.log(b - 1.0)

    def V(phi):
        try:
            term = math.exp(-log_b1 - (b - 1.0) * math.log(c - phi))
        except OverflowError:
            return math.inf
        return -0.5 * phi**2 + a * term

    return V


def _bracketed_root(f, lo: float, hi: float) -> float:
    """A root of f in [lo, hi], where f(lo) and f(hi) differ in sign, by
    Brent's method (inverse quadratic interpolation safeguarded by
    bisection; Brent, Algorithms for Minimization without Derivatives,
    1973, ch. 4), to a bracket of width _ROOT_XTOL + _ROOT_RTOL |root|.
    The steps are those of scipy.optimize.brentq.

    Raises ValueError when f has the same sign at both ends, and
    ConvergenceFailure when _ROOT_MAXITER steps do not close the bracket.
    """
    x_pre, x_cur = lo, hi
    f_pre, f_cur = f(x_pre), f(x_cur)
    if f_pre == 0.0:
        return x_pre
    if f_cur == 0.0:
        return x_cur
    if math.copysign(1.0, f_pre) == math.copysign(1.0, f_cur):
        raise ValueError(f"f has the same sign at both ends of [{lo!r}, {hi!r}]")
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(_ROOT_MAXITER):
        if f_pre != 0.0 and f_cur != 0.0 and (
                math.copysign(1.0, f_pre) != math.copysign(1.0, f_cur)):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            # keep at x_cur the end of the bracket where |f| is smaller
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = 0.5 * (_ROOT_XTOL + _ROOT_RTOL * abs(x_cur))
        s_bis = 0.5 * (x_blk - x_cur)
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:  # secant
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:  # inverse quadratic interpolation
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                den = d_blk * d_pre * (f_blk - f_pre)
                # a product that underflows to 0 bisects, as brentq's inf does
                s_try = (-f_cur * (f_blk * d_blk - f_pre * d_pre) / den
                         if den else math.inf)
            if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
                s_pre, s_cur = s_cur, s_try
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else math.copysign(delta, s_bis)
        f_cur = f(x_cur)
    raise ConvergenceFailure(
        f"bracketed root not found in {_ROOT_MAXITER} steps on [{lo!r}, {hi!r}]")


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
    # g = phi (c - phi)^b - a peaks at a_max - a, so its powers overflow
    # where a_max does
    if amax == math.inf:
        raise ConvergenceFailure(
            f"a_max = b^b c^(b+1) / (b+1)^(b+1) overflows double precision "
            f"at b={b!r}, c={c!r}: the root scan cannot evaluate g")

    # Brent's steps on math floats; the polish and V through numpy, like
    # every later evaluation of the well, so the polished roots are roots
    # of the g the rest of the package evaluates
    params = WaveParameters(b=b, a=a, E=0.0, c=c)
    g = lambda phi: eval_g(phi, params)
    dg = lambda phi: _dg(phi, params)
    g_float = lambda phi: phi * _fpow(c - phi, b) - a
    lo, mid, hi = _BRACKET_EPS * c, c / (b + 1.0), c * (1.0 - _BRACKET_EPS)
    # phi1 ~ a / c^b when small, and g < 0 at a / (2 c^b): at large b and
    # c > 1 that point lies below lo.  It is found by its log, because c^b
    # can leave the double range where a / (2 c^b) does not
    log_end = math.log(a) - math.log(2.0) - b * math.log(c)
    if log_end < math.log(lo):
        lo = math.exp(log_end)  # 0.0 where phi1 is below the double range
    if not (lo > 0.0 and g_float(lo) < 0.0):
        raise ConvergenceFailure(
            f"phi1 lies below {max(lo, math.ulp(0.0))!r}, the lower end of "
            f"the root scan's bracket")
    if not g_float(hi) < 0.0:
        raise ConvergenceFailure(
            f"phi2 lies above {hi!r}, the upper end of the root scan's bracket")
    phi1 = _newton_polish(g, dg, _bracketed_root(g_float, lo, mid))
    phi2 = _newton_polish(g, dg, _bracketed_root(g_float, mid, hi))
    return (phi1, phi2, amax, eval_potential(phi1, params),
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
