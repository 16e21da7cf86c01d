"""Conserved quantities, Lagrange multipliers, parameter Jacobians, and the
stability classification.

The restricted invariants along the wave family are

    T(a, E, c),
    F1(a, E, c) = Integral[ mu^(1/b),  {0, T} ],
    F2(a, E, c) = Integral[ (mu_x^2/(b^2 mu^2) + 1) mu^(-1/b), {0, T} ],

and the multipliers that make the wave a critical point of the action
E - omega1 F1 - omega2 F2 are

    omega1 = (b-1) (2E + c^2) / (2 a^(1/b)),    omega2 = a^(1/b) (b-1) / 2.

Parameter gradients of (T, F1, F2) are complex-step derivatives of their
Clenshaw-Curtis sums on the profile's nested Lobatto levels, bounded by
the change over the last level doubling; omega gradients are closed forms.
Stability classification uses the sign data

    {T, omega1}_{E,c} > 0   (one negative direction of the second
                             variation, a simple translation kernel), and
    {T, F1}_{E,c} * {T, F1, F2}_{a,E,c} > 0,

the latter being equivalent to negativity of the second-variation form on
the residual direction built from the parameter derivatives of the wave,
which is exactly what the constrained-coercivity argument consumes.  A
positive product therefore certifies orbital stability; a negative one
leaves stability unresolved (no instability claim).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fourier
from .errors import FDUnreliable, RouteMismatch
from .potential import WaveParameters, _cpow
from .profile import (_COMPLEX_STEP, _REL_TOL, WaveProfile, _cheb_ends,
                      _cheb_integral, _cheb_values, _complex_steps,
                      _complex_turning_points, _momentum, _samples,
                      synthesize_profile, turning_point_data, wave_integral)

CLASS_STABLE = "StableCriteriaMet"
CLASS_DEGENERATE = "TrichotomyCase_ii"
CLASS_TWO_NEGATIVE = "TwoNegativeDirections"
CLASS_PRODUCT_FAIL = "ProductSignFail"
CLASS_OUT_OF_SCOPE = "OutOfScope"


@dataclass(frozen=True)
class Multipliers:
    omega1: float
    omega2: float
    grad_omega1: np.ndarray  # d/d(a, E, c)
    grad_omega2: np.ndarray


@dataclass(frozen=True)
class InvariantSet:
    T: float
    F1: float
    F2: float
    omega1: float
    omega2: float
    grad_T: np.ndarray
    grad_F1: np.ndarray
    grad_F2: np.ndarray
    err_grad_T: np.ndarray
    err_grad_F1: np.ndarray
    err_grad_F2: np.ndarray
    grad_omega1: np.ndarray
    grad_omega2: np.ndarray


@dataclass(frozen=True)
class JacobianReport:
    J_T_omega1: float
    J_T_F1: float
    J3: float
    err_J_T_omega1: float
    err_J_T_F1: float
    err_J3: float
    theta: float
    mu_xx0: float
    J_mu_plus_omega1: float
    classification: str
    invariants: InvariantSet


@dataclass(frozen=True)
class CrestIdentityReport:
    """Complex-step verification of the closed-form derivative identities
    for the crest value phi_+ = phi(0) and the crest momentum mu_+ = mu(0)
    (the _fd fields hold the differentiated route)."""

    resid_phiE: float
    resid_phic: float
    resid_combo: float
    resid_J_mu_omega1: float
    mu_xx0: float
    combo: float
    J_mu_plus_omega1_fd: float
    J_mu_plus_omega1_closed: float


@dataclass(frozen=True)
class StabilityReport:
    """The Jacobians, their classification, and F1 and F2 that the grid
    route of conserved_quantities agreed with."""

    params: WaveParameters
    classification: str
    jacobians: JacobianReport
    F1: float
    F2: float


def multipliers(params: WaveParameters) -> Multipliers:
    """Closed-form Lagrange multipliers and their parameter gradients."""
    a, b, E, c = params.a, params.b, params.E, params.c
    if a <= 0.0:
        raise ValueError("multipliers require a > 0")
    a1b = a ** (1.0 / b)
    w1 = (b - 1.0) * (2.0 * E + c**2) / (2.0 * a1b)
    w2 = 0.5 * a1b * (b - 1.0)
    grad1 = np.array([
        -(b - 1.0) * (2.0 * E + c**2) / (2.0 * b * a1b * a),
        (b - 1.0) / a1b,
        c * (b - 1.0) / a1b,
    ])
    grad2 = np.array([(b - 1.0) / (2.0 * b) * a1b / a, 0.0, 0.0])
    return Multipliers(omega1=w1, omega2=w2, grad_omega1=grad1, grad_omega2=grad2)


def delta_F1(mu: np.ndarray, b: float) -> np.ndarray:
    """Variational derivative of F1 at m = mu."""
    return (1.0 / b) * mu ** (1.0 / b - 1.0)


def delta_F2(mu: np.ndarray, dmu: np.ndarray, d2mu: np.ndarray, b: float) -> np.ndarray:
    """Variational derivative of F2 at m = mu."""
    bracket = ((2.0 * b + 1.0) * dmu**2 / (b**2 * mu**2)
               - 2.0 * d2mu / (b * mu) - 1.0)
    return (1.0 / b) * mu ** (-1.0 / b - 1.0) * bracket


def invariant_densities(m: np.ndarray, dm: np.ndarray,
                        b: float) -> tuple[np.ndarray, np.ndarray]:
    """Integrands of F1 and F2 at the density m with derivative dm."""
    return m ** (1.0 / b), (dm**2 / (b**2 * m**2) + 1.0) * m ** (-1.0 / b)


def _F1F2_integrands(params) -> tuple:
    """The F1 and F2 densities as functions of (phi, E - V(phi)), for
    wave_integral; analytic in (a, c), so complex steps pass through."""
    a, b, c = params.a, params.b, params.c
    a1b = a ** (1.0 / b)
    return (lambda phi, P: a1b / (c - phi),
            lambda phi, P: (2.0 * P / (c - phi) + (c - phi)) / a1b)


def conserved_quantities(profile: WaveProfile,
                         inv: InvariantSet | None = None) -> tuple[float, float]:
    """Restricted invariants F1, F2 by two routes: the periodic trapezoid
    rule on the grid, and the turning-point quadrature in phi.  The routes
    must agree; the quadrature values are returned.  inv, the invariants
    of the profile's parameters when the caller holds them, supplies the
    quadrature values instead of computing them again."""
    p = profile.params
    T = profile.T
    dens1, dens2 = invariant_densities(profile.mu, profile.dmu, p.b)
    F1_grid = fourier.grid_integral(dens1, T)
    F2_grid = fourier.grid_integral(dens2, T)
    if profile.phi_max == profile.phi_min:  # constant state: grid route is exact
        return F1_grid, F2_grid
    if inv is None:
        F1_quad, F2_quad = map(float, wave_integral(p, _F1F2_integrands(p)).values[:, 0])
    else:
        F1_quad, F2_quad = inv.F1, inv.F2
    for name, g, q in (("F1", F1_grid, F1_quad), ("F2", F2_grid, F2_quad)):
        if abs(g - q) > 1e-5 * abs(q):
            raise RouteMismatch(
                f"{name} routes disagree: grid {g!r} vs quadrature {q!r}")
    return F1_quad, F2_quad


# one entry: the invariants' gradients and the family derivatives of one
# point read it
@lru_cache(maxsize=1)
def _complex_step_table(params: WaveParameters) -> tuple:
    """One point's complex-step work, in read-only arrays: the steps
    a + ih, E + ih and c + ih, their turning points, and the wave_integral
    table of the G, F1 and F2 rows under them."""
    pc = _complex_steps(params)
    tpc = _complex_turning_points(pc, turning_point_data(params))
    quad = wave_integral(pc, (None, *_F1F2_integrands(pc)), tpc)
    for arr in (*pc[1:], *tpc[:3], *quad):
        arr.setflags(write=False)
    return pc, tpc, quad


# one entry: the Jacobians and the identities of one certificate share it
@lru_cache(maxsize=1)
def restricted_invariants(params: WaveParameters) -> InvariantSet:
    """T, F1, F2, the multipliers, and all parameter gradients, in
    read-only arrays.

    The gradients are complex-step derivatives of the Clenshaw-Curtis
    sums of T, F1 and F2, one wave_integral whose Lobatto levels double
    until values and gradients have both converged.  Each entry's error
    bound is the larger of its change over the last doubling and
    10 _REL_TOL times the entry."""
    value, previous, _ = _complex_step_table(params)[2]
    grad = value.imag / _COMPLEX_STEP
    err = np.maximum(np.abs(value.imag - previous.imag) / _COMPLEX_STEP,
                     10.0 * _REL_TOL * np.abs(grad))
    mults = multipliers(params)
    for arr in (grad, err, mults.grad_omega1, mults.grad_omega2):
        arr.setflags(write=False)
    return InvariantSet(
        T=float(value[0, 0].real), F1=float(value[1, 0].real),
        F2=float(value[2, 0].real),
        omega1=mults.omega1, omega2=mults.omega2,
        grad_T=grad[0], grad_F1=grad[1], grad_F2=grad[2],
        err_grad_T=err[0], err_grad_F1=err[1], err_grad_F2=err[2],
        grad_omega1=mults.grad_omega1, grad_omega2=mults.grad_omega2)


def _det3_error(m: np.ndarray, e: np.ndarray) -> float:
    """First-order error bound: sum of |cofactor| * entry error.  Row i of
    the cofactors is the cross product of rows i + 1 and i + 2 (mod 3)."""
    return float(np.sum(np.abs(np.cross(m[[1, 2, 0]], m[[2, 0, 1]])) * e))


def classify_from_signs(J1: float, e1: float, J2: float, e2: float,
                        J3: float, e3: float) -> str:
    """Map the Jacobian sign data to a classification label.

    J1 = 0 within its error estimate is the degenerate (double-kernel)
    boundary; unreliable product signs raise rather than guess.
    """
    if abs(J1) <= e1:
        return CLASS_DEGENERATE
    if e1 > 0.1 * abs(J1):
        raise FDUnreliable(
            f"error estimate {e1!r} exceeds 10% of {{T,omega1}} = {J1!r}")
    if J1 < 0.0:
        return CLASS_TWO_NEGATIVE
    if e2 > 0.1 * abs(J2) or e3 > 0.1 * abs(J3):
        raise FDUnreliable("error estimate exceeds 10% of a product factor")
    prod = J2 * J3
    err_prod = abs(J2) * e3 + abs(J3) * e2 + e2 * e3
    if abs(prod) <= err_prod:
        raise FDUnreliable(
            f"product {prod!r} indistinguishable from zero (err {err_prod!r})")
    return CLASS_STABLE if prod > 0.0 else CLASS_PRODUCT_FAIL


def _crest_quantities(params: WaveParameters, tp) -> tuple:
    """(phi_+, phi''(0), mu_+, mu_xx(0)) at the crest, and the closed form
    of {mu_+, omega1}_{E,c}; complex steps pass through."""
    a, b, c = params.a, params.b, params.c
    phip = tp.phi_max
    mup, _, muxx0 = _momentum(phip, 0.0, params)
    phipp0 = phip - mup
    J_mu_w1 = (a ** (1.0 - 1.0 / b) * (b - 1.0) * b
               * (-(c - phip) / phipp0) / _cpow(c - phip, b + 1.0))
    return phip, phipp0, mup, muxx0, J_mu_w1


def parameter_jacobians(params: WaveParameters) -> JacobianReport:
    """Assemble the three stability determinants, their error estimates,
    the monodromy coefficient theta, and the classification."""
    inv = restricted_invariants(params)
    w1_E, w1_c = inv.grad_omega1[1], inv.grad_omega1[2]

    J1 = inv.grad_T[1] * w1_c - inv.grad_T[2] * w1_E
    e1 = inv.err_grad_T[1] * abs(w1_c) + inv.err_grad_T[2] * abs(w1_E)

    J2 = inv.grad_T[1] * inv.grad_F1[2] - inv.grad_T[2] * inv.grad_F1[1]
    e2 = (inv.err_grad_T[1] * abs(inv.grad_F1[2])
          + abs(inv.grad_T[1]) * inv.err_grad_F1[2]
          + inv.err_grad_T[2] * abs(inv.grad_F1[1])
          + abs(inv.grad_T[2]) * inv.err_grad_F1[1])

    m3 = np.stack([inv.grad_T, inv.grad_F1, inv.grad_F2])
    e3m = np.stack([inv.err_grad_T, inv.err_grad_F1, inv.err_grad_F2])
    J3 = float(np.linalg.det(m3))
    e3 = _det3_error(m3, e3m)

    muxx0, J_mu_w1 = _crest_quantities(params, turning_point_data(params))[3:]
    theta = -muxx0 * J1 / J_mu_w1

    classification = classify_from_signs(J1, e1, J2, e2, J3, e3)
    return JacobianReport(
        J_T_omega1=J1, J_T_F1=J2, J3=J3,
        err_J_T_omega1=e1, err_J_T_F1=e2, err_J3=e3,
        theta=theta, mu_xx0=muxx0, J_mu_plus_omega1=J_mu_w1,
        classification=classification, invariants=inv)


def crest_identities(params: WaveParameters) -> CrestIdentityReport:
    """Check the closed-form crest-derivative identities against complex-step
    derivatives of the crest values:

        d(phi_+)/dE = -1/phi''(0),
        d(phi_+)/dc = -mu_+/phi''(0),
        c d(phi_+)/dE - d(phi_+)/dc + 1 = -(c - phi_+)/phi''(0) > 0,
        {mu_+, omega1}_{E,c} > 0.

    The residuals are rounding by construction: phi_+ is a Newton-polished
    root of E = V(phi), and complex-stepping that polish reproduces
    -1/phi''(0) algebraically, so they read ~1e-15 on any wave and check
    little.  The independent check is the test
    test_crest_derivatives_match_richardson, which takes Richardson
    differences of the crest values.  The function stays in the package
    only because the benchmark's tracer (LAYERS in benchmarks/tracing.py)
    names it.
    """
    tp = turning_point_data(params)
    pc = _complex_steps(params)
    phip_s, _, mup_s, _, _ = _crest_quantities(pc, _complex_turning_points(pc, tp))
    phip_E, phip_c = phip_s[1:, 0].imag / _COMPLEX_STEP
    mup_E, mup_c = mup_s[1:, 0].imag / _COMPLEX_STEP

    phip, phipp0, mup, muxx0, J_closed = _crest_quantities(params, tp)
    c = params.c
    mults = multipliers(params)
    w1_E, w1_c = mults.grad_omega1[1], mults.grad_omega1[2]

    pred_E = -1.0 / phipp0
    pred_c = -mup / phipp0
    combo = c * phip_E - phip_c + 1.0
    pred_combo = -(c - phip) / phipp0
    J_fd = mup_E * w1_c - mup_c * w1_E

    rel = lambda got, want: abs(got - want) / max(abs(want), 1e-300)
    return CrestIdentityReport(
        resid_phiE=rel(phip_E, pred_E),
        resid_phic=rel(phip_c, pred_c),
        resid_combo=rel(combo, pred_combo),
        resid_J_mu_omega1=rel(J_fd, J_closed),
        mu_xx0=muxx0,
        combo=combo,
        J_mu_plus_omega1_fd=J_fd,
        J_mu_plus_omega1_closed=J_closed)


def classify_stability(params: WaveParameters, N: int = 512) -> StabilityReport:
    """parameter_jacobians, cross-checked by conserved_quantities on the
    N-point profile (RouteMismatch where its grid F1 or F2 disagrees); the
    classify command reads parameter_jacobians alone."""
    profile = synthesize_profile(params, N)
    jac = parameter_jacobians(params)
    F1, F2 = conserved_quantities(profile, jac.invariants)
    return StabilityReport(params=params, classification=jac.classification,
                           jacobians=jac, F1=F1, F2=F2)


# ---------------------------------------------------------------------------
# derivatives of the synthesized family (shared with the spectral module)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyDerivatives:
    """Pointwise parameter derivatives of mu(x; a, E, c) at the base grid
    points x, with T_a, T_E, T_c the period derivatives.

    Grid index j of every synthesized profile samples the phase s = j/N;
    the derivatives at fixed phase come by complex step through the
    half-period map, and the derivative at fixed x follows in closed form:
    mu_p = d_p mu|_s - (T_p / T) x mu_x, with the base profile's analytic
    mu_x.  These are quasi-periodic: mu_p(x + T) - mu_p(x) = -T_p mu_x(x)."""

    profile: WaveProfile
    mu_a: np.ndarray
    mu_E: np.ndarray
    mu_c: np.ndarray
    T_a: float
    T_E: float
    T_c: float


def family_derivatives(profile: WaveProfile) -> FamilyDerivatives:
    """The map's parameter derivatives xi_p(theta) are the antiderivatives
    of the G row of the invariants' complex-step table, at the level where
    its imaginary parts converged (QuadratureFailure where they do not).
    Differentiating xi(theta; p) = T(p) (1/2 - s) at fixed s gives

        theta_p = (T_p (1/2 - s) - xi_p(theta)) / xi_theta(theta)

    at the synthesis' own theta samples, with no second inversion; mu then
    follows in closed form from phi = phi_min + A sin^2(theta), and the
    even symmetry of every member of the family mirrors the half to the
    grid."""
    if profile.theta is None:
        raise ValueError("derivatives need the samples of a synthesized profile")
    params, theta, h = profile.params, profile.theta, _COMPLEX_STEP
    pc, tpc, quad = _complex_step_table(params)
    A_p = _cheb_integral(quad.coeffs[0].imag / h)
    A_right, A_left = _cheb_ends(A_p)
    xi_p = 0.25 * np.pi * (_cheb_values(A_p, 4.0 * theta / np.pi - 1.0) - A_left[:, None])
    T_p = 0.5 * np.pi * (A_right - A_left)
    s = np.arange(theta.size) / profile.N
    G = _samples(theta, params, turning_point_data(params))[2]
    theta_p = (T_p[:, None] * (0.5 - s) - xi_p) / G

    phi_c = tpc.phi_min + tpc.amplitude * np.sin(theta + 1j * h * theta_p) ** 2
    mu_p = (pc.a / _cpow(pc.c - phi_c, params.b)).imag / h
    mu_s = np.concatenate([mu_p, mu_p[:, -2:0:-1]], axis=1)
    mu_grads = mu_s - (T_p[:, None] / profile.T) * profile.x * profile.dmu
    return FamilyDerivatives(
        profile=profile, mu_a=mu_grads[0], mu_E=mu_grads[1], mu_c=mu_grads[2],
        T_a=float(T_p[0]), T_E=float(T_p[1]), T_c=float(T_p[2]))
