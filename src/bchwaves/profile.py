"""Turning points, the period integral, and full wave-profile synthesis.

The orbit lives in the potential well around phi2: for admissible
parameters the equation E = V(phi) has a pair of simple roots
phi1 < phi_min < phi2 < phi_max < c bracketing the well, and

    T = sqrt(2) * Integral[ dphi / sqrt(E - V(phi)) , {phi_min, phi_max} ].

Both endpoint singularities are square roots, so the substitution
phi = phi_min + A sin^2(theta) (A = phi_max - phi_min) removes them:

    T = 2 sqrt(2) * Integral[ W(theta)^(-1/2), {theta, 0, pi/2} ],
    W = (E - V(phi)) / ((phi - phi_min)(phi_max - phi)).

W extends smoothly to the endpoints, where it equals -V'(phi_min)/A and
+V'(phi_max)/A.  Near the turning points E - V(phi) is evaluated in an
anchored form (exact factor differences, expm1/log1p for the power term)
to avoid catastrophic cancellation.

Profile synthesis builds the half-period map x(theta) as a Chebyshev
antiderivative of the desingularized integrand and inverts it by Newton
iteration in theta, where the map has a strictly positive derivative.
Grid derivatives are analytic: phi'' = phi - a/(c-phi)^b from the profile
equation, phi' = -sqrt(2 (E - V)) on the decreasing half, and the
momentum density mu = a/(c-phi)^b with

    mu_x = b phi' mu / (c - phi),
    mu_xx = b phi'' mu / (c - phi) + b (b+1) (phi')^2 mu / (c - phi)^2.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from scipy.fft import dct
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from . import fourier
from .errors import ConvergenceFailure, NotInExistenceSet, QuadratureFailure
from .potential import (PotentialScan, WaveParameters, _cpow, critical_points,
                        eval_potential, require_existence)

# refuse synthesis when E is this close to the boundary of the well
_E_MARGIN_FLOOR = 1e-12
# intervals of the Chebyshev-Lobatto table behind the inversion's first guess
_INVERSION_TABLE = 2048


class TurningPointData(NamedTuple):
    phi_min: float
    phi_max: float
    amplitude: float
    p_res_min: float  # E - V at the computed left root (roundoff residual)
    p_res_max: float
    scan: PotentialScan


@dataclass(frozen=True)
class WaveProfile:
    """One period of a synthesized wave, sampled on a uniform grid.

    Even symmetry is exact by construction: the maximum sits at x = 0 and
    the minimum at x = T/2; samples for x > T/2 mirror the first half.
    Arrays are read-only; derive modified copies with dataclasses.replace.
    """

    params: WaveParameters
    T: float
    N: int
    x: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    d2phi: np.ndarray
    mu: np.ndarray
    dmu: np.ndarray
    d2mu: np.ndarray
    phi_min: float
    phi_max: float


@dataclass(frozen=True)
class ProfileResiduals:
    """Sup-norm residuals of the defining relations, with all derivatives
    recomputed spectrally (independently of the analytic ones stored in
    the profile)."""

    energy_relation: float
    first_integral: float
    mu_relation: float
    profile_ode: float

    def as_dict(self) -> dict:
        return {
            "energy_relation": self.energy_relation,
            "first_integral": self.first_integral,
            "mu_relation": self.mu_relation,
            "profile_ode": self.profile_ode,
        }


def _dV(phi, params: WaveParameters):
    return -phi + params.a / _cpow(params.c - phi, params.b)


def _V_derivs(phi: float, params: WaveParameters) -> tuple[float, float, float, float]:
    """(V', V'', V''', V'''') at phi, closed forms."""
    a, b, c = params.a, params.b, params.c
    u = c - phi
    d1 = -phi + a * _cpow(u, -b)
    d2 = -1.0 + a * b * _cpow(u, -b - 1.0)
    d3 = a * b * (b + 1.0) * _cpow(u, -b - 2.0)
    d4 = a * b * (b + 1.0) * (b + 2.0) * _cpow(u, -b - 3.0)
    return float(d1), float(d2), float(d3), float(d4)


def turning_point_data(params: WaveParameters) -> TurningPointData:
    scan = require_existence(params)
    E, c = params.E, params.c

    def P(phi):
        return E - eval_potential(phi, params)

    lo = brentq(P, scan.phi1, scan.phi2, xtol=1e-15, rtol=9e-16)
    hi = brentq(P, scan.phi2, c * (1.0 - 1e-12), xtol=1e-15, rtol=9e-16)
    # Newton polish towards machine-precision roots
    for _ in range(2):
        lo = lo + P(lo) / _dV(lo, params)
        hi = hi + P(hi) / _dV(hi, params)
    return TurningPointData(
        phi_min=float(lo),
        phi_max=float(hi),
        amplitude=float(hi - lo),
        p_res_min=float(P(lo)),
        p_res_max=float(P(hi)),
        scan=scan,
    )


def turning_points(params: WaveParameters) -> tuple[float, float]:
    """The orbit's turning points: the roots of E - V bracketing phi2."""
    tp = turning_point_data(params)
    return tp.phi_min, tp.phi_max


_TAYLOR_ZONE = 1e-3  # fraction of the amplitude near each turning point


def _stable_P(theta: np.ndarray, params: WaveParameters, tp: TurningPointData) -> np.ndarray:
    """E - V(phi(theta)) without cancellation near the turning points.

    Mid-orbit the difference is anchored at the nearer turning point with
    expm1/log1p handling the (c - phi)^(1-b) increment.  Within a small
    relative distance of a turning point even the anchored form sits at
    the double-precision noise floor, so a fourth-order Taylor expansion
    of V about the (machine-accurate) root takes over there.
    """
    a, b, c = params.a, params.b, params.c
    A = tp.amplitude
    s2 = np.sin(theta) ** 2
    c2 = np.cos(theta) ** 2
    out = np.empty_like(s2)

    left = (s2 <= 0.5) & (s2 > _TAYLOR_ZONE)
    d = A * s2[left]  # phi - phi_min, exact in theta
    u0 = c - tp.phi_min
    pow_inc = _cpow(u0, 1.0 - b) * np.expm1((1.0 - b) * np.log1p(-d / u0))
    out[left] = tp.p_res_min + d * (d + 2.0 * tp.phi_min) / 2.0 - (a / (b - 1.0)) * pow_inc

    right = (s2 > 0.5) & (c2 > _TAYLOR_ZONE)
    dp = A * c2[right]  # phi_max - phi
    u1 = c - tp.phi_max
    pow_inc = _cpow(u1, 1.0 - b) * np.expm1((1.0 - b) * np.log1p(dp / u1))
    out[right] = tp.p_res_max - dp * (2.0 * tp.phi_max - dp) / 2.0 - (a / (b - 1.0)) * pow_inc

    tl = s2 <= _TAYLOR_ZONE
    if np.any(tl):
        d = A * s2[tl]
        v1, v2, v3, v4 = _V_derivs(tp.phi_min, params)
        out[tl] = d * (-v1 - d * (v2 / 2.0 + d * (v3 / 6.0 + d * v4 / 24.0)))

    tr = c2 <= _TAYLOR_ZONE
    if np.any(tr):
        dp = A * c2[tr]
        v1, v2, v3, v4 = _V_derivs(tp.phi_max, params)
        out[tr] = dp * (v1 - dp * (v2 / 2.0 - dp * (v3 / 6.0 - dp * v4 / 24.0)))
    return out


def _W(theta: np.ndarray, params: WaveParameters, tp: TurningPointData) -> np.ndarray:
    """Desingularized integrand core W(theta), positive on [0, pi/2]."""
    theta = np.asarray(theta, dtype=float)
    A = tp.amplitude
    w = np.empty_like(theta)
    interior = (theta > 0.0) & (theta < 0.5 * np.pi)
    th = theta[interior]
    w[interior] = _stable_P(th, params, tp) / (A**2 * np.sin(th) ** 2 * np.cos(th) ** 2)
    w[theta <= 0.0] = -_dV(tp.phi_min, params) / A
    w[theta >= 0.5 * np.pi] = _dV(tp.phi_max, params) / A
    return w


@lru_cache(maxsize=16)
def _gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    xi, w = np.polynomial.legendre.leggauss(n)
    return 0.25 * np.pi * (xi + 1.0), 0.25 * np.pi * w


def _wave_integral_impl(params: WaveParameters,
                        integrand: Callable[[np.ndarray, np.ndarray], np.ndarray] | None,
                        tp: TurningPointData | None,
                        rel_tol: float,
                        n_start: int,
                        n_max: int) -> tuple[float, float]:
    """Evaluate 2 sqrt(2) * Integral[ f(phi, P) * W^(-1/2), {theta, 0, pi/2} ]
    by Gauss-Legendre with node doubling until the relative change drops
    below rel_tol.

    With f = 1 this is the period; restricted conserved quantities use
    their own densities f(phi, E - V(phi)).

    Node doubling stops at the convergence plateau: beyond it, nodes
    crowd into an O(1e-8)-wide endpoint layer where the anchored
    evaluation of E - V carries an irreducible double-precision offset,
    and further refinement degrades the estimate.
    """
    if tp is None:
        tp = turning_point_data(params)
    phi_min, A = tp.phi_min, tp.amplitude

    def evaluate(n: int) -> float:
        theta, wts = _gauss_nodes(n)
        P = _stable_P(theta, params, tp)
        W = P / (A**2 * np.sin(theta) ** 2 * np.cos(theta) ** 2)
        if not np.all(np.isfinite(W)) or np.any(W <= 0.0):
            raise QuadratureFailure("desingularized integrand is not finite and positive")
        vals = 1.0 / np.sqrt(W)
        if integrand is not None:
            phi = phi_min + A * np.sin(theta) ** 2
            vals = vals * integrand(phi, P)
        return 2.0 * math.sqrt(2.0) * float(np.sum(wts * vals))

    n = n_start
    values = [evaluate(n)]
    changes: list[float] = []
    while n < n_max:
        n *= 2
        values.append(evaluate(n))
        change = abs(values[-1] - values[-2]) / max(abs(values[-1]), 1e-300)
        changes.append(change)
        if change <= rel_tol:
            return values[-1], change
        if len(changes) >= 2 and change > changes[-2] and changes[-2] <= 1e-9:
            # refinement now degrades the estimate; the previous value is best
            return values[-2], changes[-2]
    best = int(np.argmin(changes))
    if changes[best] <= 1e-7:
        return values[best + 1], changes[best]
    raise QuadratureFailure(
        f"Gauss-Legendre stalled at relative change {min(changes):.3e} by n={n_max}")


def wave_integral(params: WaveParameters,
                  integrand: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
                  tp: TurningPointData | None = None,
                  rel_tol: float = 1e-11,
                  n_start: int = 64,
                  n_max: int = 16384) -> float:
    value, _ = _wave_integral_impl(params, integrand, tp, rel_tol, n_start, n_max)
    return value


def period(params: WaveParameters) -> float:
    """Spatial period T(a, E, c) by desingularized quadrature."""
    return wave_integral(params)


def period_by_shooting(params: WaveParameters, rtol: float = 1e-12,
                       atol: float = 1e-14) -> float:
    """Independent period oracle: integrate phi'' = phi - a/(c - phi)^b
    from (phi_max, 0) until phi' vanishes again; T is twice that length."""
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
    if sol.t_events[0].size == 0:
        raise ConvergenceFailure("shooting never returned to phi' = 0")
    return 2.0 * float(sol.t_events[0][0])


# ---------------------------------------------------------------------------
# Chebyshev machinery for the half-period map x(theta)
# ---------------------------------------------------------------------------

def _cheb_fit(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients interpolating values at t_j = cos(pi j / n)."""
    n = values.shape[0] - 1
    a = dct(values, type=1) / n
    a[0] *= 0.5
    a[-1] *= 0.5
    return a


class _HalfPeriodMap(NamedTuple):
    """xi(theta) = sqrt(2) Integral[W^(-1/2), {0, theta}], as a Chebyshev
    series in t = 4 theta / pi - 1, together with its derivative series."""

    coeff_integrand: np.ndarray  # G(theta) = sqrt(2) / sqrt(W)
    coeff_antideriv: np.ndarray  # antiderivative in t, zeroed at t = -1
    half_period: float


def _build_half_period_map(params: WaveParameters, tp: TurningPointData,
                           period_ref: float, period_tol: float,
                           n_start: int = 256, n_max: int = 4096) -> _HalfPeriodMap:
    """Chebyshev fit of the desingularized integrand, accepted when its
    integral reproduces the independently computed period.

    Coefficient tails bottom out well above machine precision (endpoint
    noise of the anchored E - V), so agreement of the integrated map with
    the Gauss period is the convergence criterion, not tail decay.
    """
    tol = max(1e-10, 3.0 * period_tol) * period_ref
    n = n_start
    while True:
        t = np.cos(np.pi * np.arange(n + 1) / n)  # Lobatto points, t[0] = 1
        theta = 0.25 * np.pi * (t + 1.0)
        G = math.sqrt(2.0) / np.sqrt(_W(theta, params, tp))
        a = _cheb_fit(G)
        A = _cheb.chebint(a, lbnd=-1.0)
        half = 0.25 * np.pi * float(_cheb.chebval(1.0, A) - _cheb.chebval(-1.0, A))
        if abs(2.0 * half - period_ref) <= tol:
            break
        if n >= n_max:
            raise QuadratureFailure(
                "Chebyshev half-period map disagrees with the Gauss period "
                f"({2.0 * half!r} vs {period_ref!r})")
        n *= 2
    return _HalfPeriodMap(coeff_integrand=a, coeff_antideriv=A, half_period=half)


def _invert_half_period(map_: _HalfPeriodMap, x_targets: np.ndarray) -> np.ndarray:
    """Solve xi(theta) = map_.half_period - x for each target x.

    The initial guess interpolates a table of xi at Chebyshev-Lobatto
    points, built by one DCT-I of the zero-padded antiderivative series.
    Newton evaluates xi and its derivative together from a two-column
    series and stops once no iterate moves by more than 1e-15.
    """
    A = map_.coeff_antideriv
    A_left = float(_cheb.chebval(-1.0, A))
    targets = map_.half_period - x_targets

    m = max(_INVERSION_TABLE, A.size - 1)
    padded = np.zeros(m + 1)
    padded[:A.size] = A
    padded[1:-1] *= 0.5  # DCT-I doubles the interior terms
    xi_table = 0.25 * np.pi * (dct(padded, type=1) - A_left)
    theta_table = 0.25 * np.pi * (np.cos(np.pi * np.arange(m + 1) / m) + 1.0)
    theta = np.interp(targets, xi_table[::-1], theta_table[::-1])

    both = np.zeros((A.size, 2))
    both[:, 0] = A
    both[:map_.coeff_integrand.size, 1] = map_.coeff_integrand
    for _ in range(6):
        xi_raw, dxi = _cheb.chebval(4.0 * theta / np.pi - 1.0, both)
        res = 0.25 * np.pi * (xi_raw - A_left) - targets
        new = np.clip(theta - res / dxi, 0.0, 0.5 * np.pi)
        done = float(np.max(np.abs(new - theta))) <= 1e-15
        theta = new
        if done:
            break
    res = np.abs(0.25 * np.pi * (_cheb.chebval(4.0 * theta / np.pi - 1.0, A)
                                 - A_left) - targets)
    if float(np.max(res)) > 1e-11 * max(map_.half_period, 1.0):
        raise ConvergenceFailure("inversion of the half-period map failed")
    return theta


def synthesize_profile(params: WaveParameters, N: int = 512) -> WaveProfile:
    """Sample phi, its derivatives, and the momentum density on N uniform
    grid points over one period, with the maximum phase-locked at x = 0."""
    if N < 64 or (N & (N - 1)) != 0:
        raise ValueError("N must be a power of two with N >= 64")
    tp = turning_point_data(params)
    if min(params.E - tp.scan.V_phi2, tp.scan.V_phi1 - params.E) < _E_MARGIN_FLOOR:
        raise NotInExistenceSet(
            f"E within {_E_MARGIN_FLOOR} of the boundary of the existence set")

    a, b, c = params.a, params.b, params.c
    A = tp.amplitude
    T_gauss, T_change = _wave_integral_impl(params, None, tp, 1e-11, 64, 16384)
    hp_map = _build_half_period_map(params, tp, period_ref=T_gauss,
                                    period_tol=T_change)
    T = 2.0 * hp_map.half_period

    half = N // 2
    x_half = np.arange(half + 1) * (T / N)
    theta = _invert_half_period(hp_map, x_half)
    theta[0] = 0.5 * np.pi  # x = 0 is the maximum
    theta[half] = 0.0       # x = T/2 is the minimum

    phi_half = tp.phi_min + A * np.sin(theta) ** 2
    phi_half[0] = tp.phi_max
    phi_half[half] = tp.phi_min
    phi = np.concatenate([phi_half, phi_half[-2:0:-1]])
    x = np.arange(N) * (T / N)

    # The inversion leaves ~1e-13 pointwise noise which derivative checks
    # amplify by powers of k; the true spectrum decays below that level,
    # so keep only the contiguous low-k band above the noise floor
    # (isolated high-k noise spikes must go too).
    ch = np.fft.rfft(phi)
    mag = np.abs(ch)
    cutoff = 1e-13 * mag.max()
    win = 8
    k_cut = mag.size
    for k in range(1, mag.size - win):
        if np.all(mag[k:k + win] < cutoff):
            k_cut = k
            break
    ch[k_cut:] = 0.0
    phi = np.fft.irfft(ch, n=N)

    # derivatives: analytic in phi, with the energy relation fixing |phi'|
    P_grid = np.maximum(params.E - eval_potential(phi, params), 0.0)
    dphi = -np.sqrt(2.0 * P_grid)
    dphi[half + 1:] *= -1.0
    dphi[0] = 0.0
    dphi[half] = 0.0

    d2phi = phi - a / _cpow(c - phi, b)
    mu = a / _cpow(c - phi, b)
    dmu = b * dphi * mu / (c - phi)
    d2mu = b * d2phi * mu / (c - phi) + b * (b + 1.0) * dphi**2 * mu / (c - phi) ** 2

    for arr in (x, phi, dphi, d2phi, mu, dmu, d2mu):
        arr.setflags(write=False)
    return WaveProfile(params=params, T=T, N=N, x=x, phi=phi, dphi=dphi,
                       d2phi=d2phi, mu=mu, dmu=dmu, d2mu=d2mu,
                       phi_min=tp.phi_min, phi_max=tp.phi_max)


def equilibrium_profile(b: float, a: float, c: float, N: int = 256,
                        T: float | None = None) -> WaveProfile:
    """Constant solution at the well bottom phi2 (E = V(phi2)).

    The default period is the harmonic one, 2 pi / sqrt(V''(phi2)).
    Useful as an exactly-known reference state.
    """
    params_probe = WaveParameters(b=b, a=a, E=0.0, c=c)
    scan = critical_points(params_probe)
    phi2 = scan.phi2
    E = scan.V_phi2
    params = WaveParameters(b=b, a=a, E=E, c=c)
    if T is None:
        Vpp = -1.0 + a * b / _cpow(c - phi2, b + 1.0)
        T = 2.0 * np.pi / math.sqrt(Vpp)
    x = np.arange(N) * (T / N)
    ones = np.ones(N)
    zeros = np.zeros(N)
    mu0 = a / _cpow(c - phi2, b)
    arrays = dict(x=x, phi=phi2 * ones, dphi=zeros.copy(), d2phi=zeros.copy(),
                  mu=mu0 * ones, dmu=zeros.copy(), d2mu=zeros.copy())
    for arr in arrays.values():
        arr.setflags(write=False)
    return WaveProfile(params=params, T=float(T), N=N, phi_min=phi2,
                       phi_max=phi2, **arrays)


def profile_residuals(profile: WaveProfile) -> ProfileResiduals:
    """Check the grid samples against the defining relations using
    spectral differentiation of phi (an independent route from the
    analytic derivatives stored in the profile)."""
    p = profile.params
    a, b, c, E = p.a, p.b, p.c, p.E
    phi, T = profile.phi, profile.T
    dphi_s = fourier.spectral_derivative(phi, T, 1)
    d2phi_s = fourier.spectral_derivative(phi, T, 2)
    m = phi - d2phi_s

    energy = 0.5 * dphi_s**2 + eval_potential(phi, p) - E
    first_int = (c - phi) * m + 0.5 * (b - 1.0) * (dphi_s**2 - phi**2) - (b - 1.0) * E
    mu_rel = profile.mu - m
    ode = (phi - c) * fourier.spectral_derivative(m, T, 1) + b * dphi_s * m

    sup = lambda v: float(np.max(np.abs(v)))
    return ProfileResiduals(energy_relation=sup(energy),
                            first_integral=sup(first_int),
                            mu_relation=sup(mu_rel),
                            profile_ode=sup(ode))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def profile_header(profile: WaveProfile) -> dict:
    res = profile_residuals(profile)
    p = profile.params
    return {
        "params": {"b": p.b, "a": p.a, "E": p.E, "c": p.c},
        "T": profile.T,
        "N": profile.N,
        "phi_min": profile.phi_min,
        "phi_max": profile.phi_max,
        "residuals": res.as_dict(),
    }


def write_profile_csv(profile: WaveProfile, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "phi", "dphi", "d2phi", "mu", "dmu"])
        for j in range(profile.N):
            writer.writerow([f"{v:.17g}" for v in
                             (profile.x[j], profile.phi[j], profile.dphi[j],
                              profile.d2phi[j], profile.mu[j], profile.dmu[j])])
