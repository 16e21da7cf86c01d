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
+V'(phi_max)/A.  E - V(phi) is evaluated as V(root) - V(phi) anchored at
the nearer turning point (exact factor differences, expm1/log1p for the
power term) to avoid catastrophic cancellation.  The double-precision
roots are taken as exact: adding back their residual E - V(root), which
is rounding noise, would give W a spurious 1/sin^2 or 1/cos^2 term at the
ends.

One quadrature rule serves T, the restricted invariants and the profile:
Clenshaw-Curtis on nested Chebyshev-Lobatto levels in t = 4 theta/pi - 1.
Each doubling of the level samples the integrand at the new nodes only,
one DCT-I gives its Chebyshev coefficients a_k, and the integral is the
sum of 2 a_k / (1 - k^2) over even k (Trefethen, SIAM Rev. 50, 2008).  The
doubling stops when the integrals change by at most _REL_TOL between
levels, and refuses the point past _LEVEL_MAX.

Every step from (a, E, c) to these integrals and to x(theta) is analytic,
so parameter derivatives are taken by complex step: one evaluation at
a + ih, E + ih or c + ih with h = 1e-30 gives the derivative as the
imaginary part over h, with no subtractive cancellation (Squire & Trapp,
SIAM Rev. 40, 1998; Martins, Sturdza & Alonso, ACM TOMS 29, 2003).  The
three steps travel together as one _Params column, since WaveParameters
is real.

Profile synthesis takes the half-period map x(theta) as the Chebyshev
antiderivative of the accepted level's fit of the integrand, the fit that
gives T, and inverts it in theta, where the map has a strictly positive
derivative.  Values of a Chebyshev series at Chebyshev-Lobatto points
come from one DCT-I, and its values at t = +-1 are plain and alternating
coefficient sums (T_k(+-1) = (+-1)^k; Trefethen, Approximation Theory and
Approximation Practice, SIAM 2013, ch. 3).  So the map, its derivative
and its second derivative are tabulated at Lobatto points, and each grid
sample is found by Newton iteration on the quintic Hermite interpolant of
the table interval that holds it; one evaluation of the exact series then
checks the residual.
Grid derivatives are analytic: phi' = -sqrt(2 (E - V)) on the decreasing
half, and phi'' and the momentum density mu = a/(c-phi)^b with its
derivatives come from _momentum, the one closed form of mu, mu_x, mu_xx.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import fourier
from .errors import ConvergenceFailure, NotInExistenceSet, QuadratureFailure
from .potential import (PotentialScan, WaveParameters, _bracketed_root, _cpow,
                        _float_potential, _potential, eval_potential,
                        existence_check)

# refuse a point whose E is this close to the boundary of the well: its
# turning points are not resolved (near phi1, where V' vanishes, the root
# scan can stop at phi1 itself)
_E_MARGIN_FLOOR = 1e-12
# the crest is searched on (phi2, c (1 - _CREST_GAP)); a wave whose crest
# lies closer to c is refused as near-peakon
_CREST_GAP = 1e-12
# least number of intervals of the Chebyshev-Lobatto table on which the
# half-period map is inverted (more when the map's degree is higher)
_INVERSION_TABLE = 2048
# imaginary parameter step of the complex-step derivatives; any h far below
# the double-precision resolution of the parameters gives the same result
_COMPLEX_STEP = 1e-30
# relative change between Lobatto levels at which the node doubling stops,
# the level it starts from, and the level past which it refuses the point
_REL_TOL = 1e-11
_LEVEL_START = 64
_LEVEL_MAX = 8192


class TurningPointData(NamedTuple):
    phi_min: float
    phi_max: float
    amplitude: float
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
    # how synthesis placed the samples: theta[j] solves x(theta) = j T / N
    # for j = 0..N/2 (None for a state not built by synthesis)
    theta: np.ndarray | None = None


@dataclass(frozen=True)
class ProfileResiduals:
    """Sup-norm residuals of the defining relations, with all derivatives
    recomputed spectrally (independently of the analytic ones stored in
    the profile)."""

    energy_relation: float
    first_integral: float
    mu_relation: float
    profile_ode: float


class _Params(NamedTuple):
    """Wave parameters whose a, E, c may be complex arrays: the carrier of
    a complex step, which the real WaveParameters cannot hold."""

    b: float
    a: np.ndarray
    E: np.ndarray
    c: np.ndarray


def _complex_steps(params: WaveParameters) -> _Params:
    """The three complex steps a + ih, E + ih and c + ih as one column of
    shape (3, 1), which broadcasts against a row of sample points."""
    step = 1j * _COMPLEX_STEP * np.eye(3)[:, :, None]
    return _Params(b=params.b, a=params.a + step[0], E=params.E + step[1],
                   c=params.c + step[2])


def _dV(phi, params: WaveParameters):
    return -phi + params.a / _cpow(params.c - phi, params.b)


def _log1p(z):
    """log1p that keeps the real part accurate under a complex step.

    numpy's complex log1p takes the real part as log|1 + z|, which loses
    the small-argument accuracy the anchored E - V relies on; with Im z
    of order h, log1p(z) = log1p(Re z) + i Im z / (1 + Re z) + O(h^2)."""
    if np.iscomplexobj(z):
        return np.log1p(z.real) + 1j * (z.imag / (1.0 + z.real))
    return np.log1p(z)


def _polish_turning_points(params: WaveParameters | _Params, lo, hi) -> tuple:
    """Two Newton steps on E - V = 0 from each of lo and hi, through numpy
    like every later evaluation of V (see potential._critical_values).
    params may carry a complex step (_Params); the imaginary parts of the
    polished roots then carry their parameter derivatives."""
    for _ in range(2):
        lo = lo + (params.E - _potential(lo, params)) / _dV(lo, params)
        hi = hi + (params.E - _potential(hi, params)) / _dV(hi, params)
    return lo, hi


# one entry: the stages of one point share its roots, and no reuse
# crosses points
@lru_cache(maxsize=1)
def turning_point_data(params: WaveParameters) -> TurningPointData:
    scan = existence_check(params)
    E, c = params.E, params.c
    if min(E - scan.V_phi2, scan.V_phi1 - E) < _E_MARGIN_FLOOR:
        raise NotInExistenceSet(
            f"E within {_E_MARGIN_FLOOR} of the boundary of the existence set")
    V_float = _float_potential(params.b, params.a, c)
    P_float = lambda phi: E - V_float(phi)

    lo = _bracketed_root(P_float, scan.phi1, scan.phi2)
    crest_end = c * (1.0 - _CREST_GAP)
    if P_float(crest_end) > 0.0:
        raise NotInExistenceSet(
            f"crest lies within {_CREST_GAP}*c of c: E - V > 0 at phi = "
            f"{crest_end!r} (near-peakon)")
    hi = _bracketed_root(P_float, scan.phi2, crest_end)
    lo, hi = _polish_turning_points(params, lo, hi)
    return TurningPointData(
        phi_min=float(lo),
        phi_max=float(hi),
        amplitude=float(hi - lo),
        scan=scan,
    )


def _complex_turning_points(params: _Params, tp: TurningPointData) -> TurningPointData:
    """Turning points under a complex step: Newton polish of the real
    roots tp for the complex parameters, whose imaginary parts then carry
    the roots' parameter derivatives."""
    lo, hi = _polish_turning_points(params, tp.phi_min + 0j, tp.phi_max + 0j)
    return TurningPointData(phi_min=lo, phi_max=hi, amplitude=hi - lo,
                            scan=tp.scan)


def _potential_drop(d, root, params: WaveParameters):
    """V(root) - V(root + d) without cancellation: exact factor differences
    and expm1/log1p for the (c - phi)^(1-b) increment."""
    a, b, u = params.a, params.b, params.c - root
    return (d * (d + 2.0 * root) / 2.0
            - (a / (b - 1.0)) * _cpow(u, 1.0 - b) * np.expm1((1.0 - b) * _log1p(-d / u)))


def _stable_P(s2: np.ndarray, c2: np.ndarray, params: WaveParameters,
              tp: TurningPointData) -> np.ndarray:
    """E - V(phi(theta)) without cancellation, from s2 = sin^2(theta) and
    c2 = cos^2(theta), anchored at the nearer turning point.

    Each anchored form treats its root as exact, so P vanishes at both
    ends and W stays smooth there.  In floating point V(phi_min) and
    V(phi_max) differ by rounding, delta; the left form is corrected by
    -delta s2 and the right by +delta c2, which agree at every theta, so
    the integrand has no jump where the anchor changes.

    Under a complex step (params from _complex_steps, tp from
    _complex_turning_points) the result has one row per step.
    """
    A, lo, hi = tp.amplitude, tp.phi_min, tp.phi_max
    delta = _potential_drop(0.5 * A, lo, params) - _potential_drop(-0.5 * A, hi, params)
    out = np.empty(np.broadcast_shapes(np.shape(A), s2.shape), np.result_type(A, s2))
    left = s2 <= 0.5
    out[..., left] = _potential_drop(A * s2[left], lo, params) - delta * s2[left]
    right = ~left
    out[..., right] = _potential_drop(-A * c2[right], hi, params) + delta * c2[right]
    return out


def _samples(theta: np.ndarray, params: WaveParameters,
             tp: TurningPointData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi(theta), E - V(phi) and the desingularized integrand
    G = sqrt(2) W^(-1/2) at theta in [0, pi/2], where W takes its limit
    values at the ends; one row per complex step."""
    theta = np.asarray(theta, dtype=float)
    s2, c2 = np.sin(theta) ** 2, np.cos(theta) ** 2
    A = tp.amplitude
    P = _stable_P(s2, c2, params, tp)
    W = np.empty_like(P)
    interior = (theta > 0.0) & (theta < 0.5 * np.pi)
    W[..., interior] = P[..., interior] / (A**2 * s2[interior] * c2[interior])
    W[..., theta <= 0.0] = -_dV(tp.phi_min, params) / A
    W[..., theta >= 0.5 * np.pi] = _dV(tp.phi_max, params) / A
    if not np.all(np.isfinite(W)) or np.any(W.real <= 0.0):
        raise QuadratureFailure("desingularized integrand is not finite and positive")
    return tp.phi_min + A * s2, P, math.sqrt(2.0) / np.sqrt(W)


def _integrand_samples(theta: np.ndarray, params: WaveParameters,
                       tp: TurningPointData, integrands: tuple) -> np.ndarray:
    """f(phi, P) G at theta, shape (len(integrands), complex steps, theta)."""
    phi, P, G = _samples(theta, params, tp)
    rows = [G if f is None else G * f(phi, P) for f in integrands]
    return np.reshape(rows, (len(integrands), -1, theta.size))


def _relative_change(new: np.ndarray, old: np.ndarray) -> float:
    """Largest entry change against the largest entry of its row, for the
    real and the imaginary parts apart."""
    worst = 0.0
    for part in (np.real, np.imag):
        scale = np.max(np.abs(part(new)), axis=-1, keepdims=True)
        change = np.abs(part(new) - part(old)) / np.maximum(scale, 1e-300)
        worst = max(worst, float(np.max(change)))
    return worst


class WaveQuadrature(NamedTuple):
    """2 Integral[f(phi, P) G, {theta, 0, pi/2}] for each integrand f at
    the accepted Lobatto level and at the level before it, shape
    (len(integrands), complex steps), and the Chebyshev coefficients of
    f G at the accepted level, shape (len(integrands), complex steps,
    level + 1)."""

    values: np.ndarray
    previous: np.ndarray
    coeffs: np.ndarray


def _clenshaw_curtis(coeffs: np.ndarray) -> np.ndarray:
    """2 Integral[., {theta, 0, pi/2}] of Chebyshev series in
    t = 4 theta / pi - 1: (pi / 2) sum of 2 a_k / (1 - k^2) over even k."""
    k = np.arange(0, coeffs.shape[-1], 2)
    return 0.5 * np.pi * (coeffs[..., ::2] @ (2.0 / (1.0 - k**2)))


def wave_integral(params: WaveParameters, integrands: tuple = (None,),
                  tp: TurningPointData | None = None) -> WaveQuadrature:
    """2 sqrt(2) * Integral[ f(phi, P) * W^(-1/2), {theta, 0, pi/2} ] for
    each f in integrands, by Clenshaw-Curtis on nested Lobatto levels.

    f = None (f = 1) gives the period; restricted conserved quantities use
    their own densities f(phi, E - V(phi)).  Each doubling samples the
    integrands at the new (odd) nodes only and interleaves them with the
    previous level.  Under a complex step the real parts (the integrals)
    and the imaginary parts (h times their derivatives) must both
    converge, each against its own row's largest entry, so that a
    near-zero entry cannot stall the doubling.  Past level _LEVEL_MAX the
    point is refused with QuadratureFailure.
    """
    if tp is None:
        tp = turning_point_data(params)
    n = _LEVEL_START
    samples = _integrand_samples(_lobatto_theta(n), params, tp, integrands)
    values = _clenshaw_curtis(_cheb_fit(samples))
    while True:
        n *= 2
        nested = np.empty(samples.shape[:-1] + (n + 1,), samples.dtype)
        nested[..., 0::2] = samples
        nested[..., 1::2] = _integrand_samples(_lobatto_theta(n)[1::2], params, tp,
                                               integrands)
        samples = nested
        coeffs = _cheb_fit(samples)
        previous, values = values, _clenshaw_curtis(coeffs)
        change = _relative_change(values, previous)
        if change <= _REL_TOL:
            return WaveQuadrature(values, previous, coeffs)
        if n >= _LEVEL_MAX:
            raise QuadratureFailure(
                f"Lobatto rule stalled at relative change {change:.3e} by level {n}")


def period(params: WaveParameters) -> float:
    """Spatial period T(a, E, c) by desingularized quadrature."""
    return float(wave_integral(params).values[0, 0])


# ---------------------------------------------------------------------------
# Chebyshev machinery for the half-period map x(theta)
# ---------------------------------------------------------------------------

def _dct1(values: np.ndarray) -> np.ndarray:
    """Unnormalized DCT-I along the last axis,

        y_k = x_0 + (-1)^k x_n + 2 sum(x_j cos(pi j k / n), j = 1..n-1),

    as the real part of the rfft of the even extension x_0..x_n, x_{n-1}..x_1.
    A complex input is transformed as its real and imaginary parts apart:
    its sine terms, zero in exact arithmetic, would otherwise round one
    part into the other, and under a complex step the imaginary part is
    ~1e-30 of the real one."""
    n = values.shape[-1] - 1
    parts = (values.real, values.imag) if np.iscomplexobj(values) else (values,)
    even = np.empty((len(parts),) + values.shape[:-1] + (2 * n,))
    for row, part in zip(even, parts):
        row[..., :n + 1] = part
        row[..., n + 1:] = part[..., -2:0:-1]
    y = np.fft.rfft(even).real
    if len(parts) == 1:
        return y[0]
    out = np.empty(values.shape, complex)
    out.real, out.imag = y
    return out


def _cheb_fit(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients interpolating values at t_j = cos(pi j / n),
    along the last axis."""
    n = values.shape[-1] - 1
    a = _dct1(values) / n
    a[..., 0] *= 0.5
    a[..., -1] *= 0.5
    return a


def _lobatto_theta(n: int) -> np.ndarray:
    """theta at the n + 1 Chebyshev-Lobatto points t_j = cos(pi j / n) of
    t = 4 theta / pi - 1."""
    return 0.25 * np.pi * (np.cos(np.pi * np.arange(n + 1) / n) + 1.0)


class _HalfPeriodMap(NamedTuple):
    """xi(theta) = sqrt(2) Integral[W^(-1/2), {0, theta}], as a Chebyshev
    series in t = 4 theta / pi - 1, together with its derivative series."""

    coeff_integrand: np.ndarray  # G(theta) = sqrt(2) / sqrt(W)
    coeff_antideriv: np.ndarray  # antiderivative in t, zeroed at t = -1
    half_period: float


def _half_period_map(coeff_integrand: np.ndarray) -> _HalfPeriodMap:
    """The map whose integrand G has the Chebyshev coefficients given."""
    A = _cheb_integral(coeff_integrand)
    right, left = _cheb_ends(A)
    return _HalfPeriodMap(coeff_integrand=coeff_integrand, coeff_antideriv=A,
                          half_period=0.25 * np.pi * float(right - left))


def _cheb_ends(coeffs: np.ndarray) -> tuple:
    """Values at t = 1 and t = -1 of Chebyshev series along the last
    axis, from T_k(1) = 1 and T_k(-1) = (-1)^k."""
    return (coeffs.sum(axis=-1),
            coeffs[..., 0::2].sum(axis=-1) - coeffs[..., 1::2].sum(axis=-1))


def _cheb_values(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Chebyshev series along the last axis of coeffs at the points of the
    1-D array t, shape coeffs.shape[:-1] + t.shape: the rows T_k(t) by the
    three-term recurrence T_k = 2 t T_(k-1) - T_(k-2), each row written in
    place, then one matrix product (numpy's chebval runs a Clenshaw loop
    whose every step allocates).  Row n-1-k holds T_k, so the product
    adds the small high-degree terms first, as Clenshaw's recurrence
    does; summed from T_0 up, a degree-4097 series was off by 1.2e-15 of
    sum |c_k|, against 1.5e-16 this way."""
    n = coeffs.shape[-1]
    rows = np.empty((n, t.size))
    row = list(rows[::-1])
    row[0][:] = 1.0
    if n > 1:
        row[1][:] = t
    t2 = 2.0 * t
    for k in range(2, n):
        np.multiply(t2, row[k - 1], out=row[k])
        np.subtract(row[k], row[k - 2], out=row[k])
    return coeffs[..., ::-1] @ rows


def _cheb_integral(coeffs: np.ndarray) -> np.ndarray:
    """Antiderivative of Chebyshev series along the last axis, zero at
    t = -1: coefficient k >= 1 is (c_{k-1} - c_{k+1}) / (2k), with c_0
    counted twice (numpy's chebint(c, lbnd=-1) without its loop)."""
    n = coeffs.shape[-1]
    padded = np.zeros(coeffs.shape[:-1] + (n + 2,))
    padded[..., :n] = coeffs
    padded[..., 0] *= 2.0
    k2 = 2.0 * np.arange(1, n + 1)
    out = np.zeros(coeffs.shape[:-1] + (n + 1,))
    out[..., 1:] = padded[..., :n] / k2 - padded[..., 2:] / k2
    out[..., 0] = -_cheb_ends(out)[1]
    return out


def _cheb_derivative(coeffs: np.ndarray) -> np.ndarray:
    """Derivative of Chebyshev series along the last axis (degree >= 1):
    coefficient k is 2 sum(j c_j) over j = k+1, k+3, ..., halved for
    k = 0, one reverse cumulative sum per parity (numpy's chebder)."""
    w = 2.0 * np.arange(1, coeffs.shape[-1]) * coeffs[..., 1:]
    out = np.empty_like(w)
    for start in (0, 1):
        out[..., start::2] = np.cumsum(w[..., start::2][..., ::-1], axis=-1)[..., ::-1]
    out[..., 0] *= 0.5
    return out


def _lobatto_values(coeffs: np.ndarray, m: int) -> np.ndarray:
    """A Chebyshev series at the m + 1 Lobatto points t_j = cos(pi j / m),
    m + 1 >= coeffs.size, by one DCT-I of the zero-padded series."""
    padded = np.zeros(m + 1)
    padded[:coeffs.size] = coeffs
    padded[1:-1] *= 0.5  # DCT-I doubles the interior terms
    return _dct1(padded)


def _invert_half_period(map_: _HalfPeriodMap, x_targets: np.ndarray) -> np.ndarray:
    """Solve xi(theta) = map_.half_period - x for each target x.

    xi, xi' = G and xi'' are tabulated at Chebyshev-Lobatto points by
    DCT-I; each target is located in its table interval, where Newton
    iteration on the quintic Hermite interpolant of (xi, xi', xi'') at the
    interval's ends stops once no iterate moves by more than 1e-15.  The
    residual is then checked against the exact series.
    """
    A = map_.coeff_antideriv
    A_left = _cheb_ends(A)[1]
    targets = map_.half_period - x_targets

    # tables in increasing theta (the Lobatto points run from t = 1 down)
    m = max(_INVERSION_TABLE, A.size - 1)
    xi = (0.25 * np.pi * (_lobatto_values(A, m) - A_left))[::-1]
    dxi = _lobatto_values(map_.coeff_integrand, m)[::-1]
    d2xi = (4.0 / np.pi) * _lobatto_values(_cheb_derivative(map_.coeff_integrand), m)[::-1]
    nodes = _lobatto_theta(m)[::-1]

    j = np.clip(np.searchsorted(xi, targets, side="right") - 1, 0, m - 1)
    h = nodes[j + 1] - nodes[j]
    # xi(nodes[j] + h s) ~ xi[j] + c1 s + ... + c5 s^5, matching xi, h xi'
    # and h^2 xi'' at s = 0 and s = 1
    c1, c2 = h * dxi[j], 0.5 * h**2 * d2xi[j]
    d0 = xi[j + 1] - xi[j] - c1 - c2
    d1 = h * dxi[j + 1] - c1 - 2.0 * c2
    d2 = h**2 * d2xi[j + 1] - 2.0 * c2
    c3 = 10.0 * d0 - 4.0 * d1 + 0.5 * d2
    c4 = -15.0 * d0 + 7.0 * d1 - d2
    c5 = 6.0 * d0 - 3.0 * d1 + 0.5 * d2
    r = targets - xi[j]
    s = np.clip(r / (xi[j + 1] - xi[j]), 0.0, 1.0)
    for _ in range(6):
        p = s * (c1 + s * (c2 + s * (c3 + s * (c4 + s * c5))))
        dp = c1 + s * (2.0 * c2 + s * (3.0 * c3 + s * (4.0 * c4 + s * 5.0 * c5)))
        new = np.clip(s - (p - r) / dp, 0.0, 1.0)
        done = float(np.max(h * np.abs(new - s))) <= 1e-15
        s = new
        if done:
            break
    theta = nodes[j] + h * s
    res = np.abs(0.25 * np.pi * (_cheb_values(A, 4.0 * theta / np.pi - 1.0)
                                 - A_left) - targets)
    if float(np.max(res)) > 1e-11 * max(map_.half_period, 1.0):
        raise ConvergenceFailure("inversion of the half-period map failed")
    return theta


def _noise_cut(mag: np.ndarray) -> int:
    """Start of the first window of 8 consecutive modes k >= 1, ending
    before the last mode, that all lie below 1e-13 of the largest; the
    size of mag when there is none."""
    quiet = sliding_window_view(mag[1:-1] < 1e-13 * mag.max(), 8).all(axis=1)
    return 1 + int(np.argmax(quiet)) if quiet.any() else mag.size


def _momentum(phi, phi_x2, params: WaveParameters | _Params) -> tuple:
    """(mu, f, mu_xx) of a wave at samples of phi and phi_x^2: mu =
    a/(c - phi)^b, mu_x = f phi_x with f = b mu/(c - phi), and mu_xx =
    f (phi_xx + (b + 1) phi_x^2/(c - phi)), phi_xx = phi - mu by the profile
    equation.  Analytic, so complex steps pass through."""
    b = params.b
    u = params.c - phi
    mu = params.a / _cpow(u, b)
    f = b * mu / u
    return mu, f, f * (phi - mu + (b + 1.0) * phi_x2 / u)


def synthesize_profile(params: WaveParameters, N: int = 512) -> WaveProfile:
    """Sample phi, its derivatives, and the momentum density on N uniform
    grid points over one period, with the maximum phase-locked at x = 0."""
    return _synthesized(params, N)


# one entry: the classification, the operator and the identities of one
# certificate share its profile, whose arrays are read-only; N is passed
# positionally, so f(p), f(p, 512) and f(p, N=512) share the entry
@lru_cache(maxsize=1)
def _synthesized(params: WaveParameters, N: int) -> WaveProfile:
    if N < 64 or (N & (N - 1)) != 0:
        raise ValueError("N must be a power of two with N >= 64")
    tp = turning_point_data(params)

    A = tp.amplitude
    hp_map = _half_period_map(wave_integral(params, tp=tp).coeffs[0, 0])
    T = 2.0 * hp_map.half_period

    half = N // 2
    x_half = np.arange(half + 1) * (T / N)
    theta = _invert_half_period(hp_map, x_half)
    theta[0] = 0.5 * np.pi  # x = 0 is the maximum
    theta[half] = 0.0       # x = T/2 is the minimum
    theta.setflags(write=False)

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
    ch[_noise_cut(np.abs(ch)):] = 0.0
    phi = np.fft.irfft(ch, n=N)

    # derivatives: analytic in phi, with the energy relation fixing |phi'|
    P_grid = np.maximum(params.E - eval_potential(phi, params), 0.0)
    dphi = -np.sqrt(2.0 * P_grid)
    dphi[half + 1:] *= -1.0
    dphi[0] = 0.0
    dphi[half] = 0.0

    mu, f, d2mu = _momentum(phi, dphi**2, params)
    d2phi = phi - mu
    dmu = f * dphi

    for arr in (x, phi, dphi, d2phi, mu, dmu, d2mu):
        arr.setflags(write=False)
    return WaveProfile(params=params, T=T, N=N, x=x, phi=phi, dphi=dphi,
                       d2phi=d2phi, mu=mu, dmu=dmu, d2mu=d2mu,
                       phi_min=tp.phi_min, phi_max=tp.phi_max, theta=theta)


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
        "residuals": asdict(res),
    }


def write_profile_csv(profile: WaveProfile, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "phi", "dphi", "d2phi", "mu", "dmu"])
        for j in range(profile.N):
            writer.writerow([f"{v:.17g}" for v in
                             (profile.x[j], profile.phi[j], profile.dphi[j],
                              profile.d2phi[j], profile.mu[j], profile.dmu[j])])
