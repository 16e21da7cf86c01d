"""Conserved quantities, Lagrange multipliers, parameter Jacobians, and the
stability classification.

The restricted invariants along the wave family are

    T(a, E, c),
    F1(a, E, c) = Integral[ mu^(1/b),  {0, T} ],
    F2(a, E, c) = Integral[ (mu_x^2/(b^2 mu^2) + 1) mu^(-1/b), {0, T} ],

and the multipliers that make the wave a critical point of the action
E - omega1 F1 - omega2 F2 are

    omega1 = (b-1) (2E + c^2) / (2 a^(1/b)),    omega2 = a^(1/b) (b-1) / 2.

Parameter gradients of (T, F1, F2) are central differences with Richardson
extrapolation over two step ladders; omega gradients are closed forms.
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
from typing import Callable

import numpy as np

from . import fourier
from .errors import FDUnreliable, MarginTooSmall, RouteMismatch
from .potential import WaveParameters, _cpow
from .profile import (ProfileResiduals, WaveProfile, profile_residuals,
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
    fd_steps: np.ndarray


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
    fd_steps: np.ndarray
    invariants: InvariantSet


@dataclass(frozen=True)
class CrestIdentityReport:
    """Finite-difference verification of the closed-form derivative
    identities for the crest value phi_+ = phi(0) and the crest momentum
    mu_+ = mu(0)."""

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
    params: WaveParameters
    classification: str
    jacobians: JacobianReport
    crest: CrestIdentityReport
    el_residual: float
    profile_res: ProfileResiduals
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


def euler_lagrange_residual(profile: WaveProfile,
                            omega1: float | None = None,
                            omega2: float | None = None) -> float:
    """Sup-norm residual of the stationarity equation
    1 - omega1 dF1/dm - omega2 dF2/dm = 0 on the profile grid."""
    b = profile.params.b
    mults = multipliers(profile.params)
    w1 = mults.omega1 if omega1 is None else omega1
    w2 = mults.omega2 if omega2 is None else omega2
    resid = (1.0 - w1 * delta_F1(profile.mu, b)
             - w2 * delta_F2(profile.mu, profile.dmu, profile.d2mu, b))
    return float(np.max(np.abs(resid)))


def _quadrature_F1F2(params: WaveParameters, tp=None) -> tuple[float, float]:
    a, b, c = params.a, params.b, params.c
    a1b = a ** (1.0 / b)
    F1 = wave_integral(params, integrand=lambda phi, P: a1b / (c - phi), tp=tp)
    F2 = wave_integral(
        params,
        integrand=lambda phi, P: (2.0 * P / (c - phi) + (c - phi)) / a1b,
        tp=tp)
    return F1, F2


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
    F1_quad, F2_quad = _quadrature_F1F2(p) if inv is None else (inv.F1, inv.F2)
    for name, g, q in (("F1", F1_grid, F1_quad), ("F2", F2_grid, F2_quad)):
        if abs(g - q) > 1e-5 * abs(q):
            raise RouteMismatch(
                f"{name} routes disagree: grid {g!r} vs quadrature {q!r}")
    return F1_quad, F2_quad


# ---------------------------------------------------------------------------
# finite-difference machinery
# ---------------------------------------------------------------------------

def fd_steps_for(params: WaveParameters, rel_step: float = 1e-5) -> np.ndarray:
    """Per-parameter central-difference steps: rel_step times the natural
    scale of each parameter, capped by margin/20 so all stencil points stay
    inside the admissible region."""
    tp = turning_point_data(params)
    scan = tp.scan
    margin = scan.margin
    scale_E = scan.V_phi1 - scan.V_phi2
    if margin < 1e-5 * scale_E:
        raise MarginTooSmall(
            f"margin {margin!r} too small for reliable finite differences")
    return np.array([
        min(rel_step * params.a, margin / 20.0),
        min(rel_step * scale_E, margin / 20.0),
        min(rel_step * params.c, margin / 20.0),
    ])


def _perturbed(params: WaveParameters, index: int, delta: float) -> WaveParameters:
    vals = [params.a, params.E, params.c]
    vals[index] += delta
    return WaveParameters(b=params.b, a=vals[0], E=vals[1], c=vals[2])


def _richardson_gradient(f: Callable[[WaveParameters], np.ndarray],
                         params: WaveParameters,
                         steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central differences at steps h and h/2, Richardson-combined.

    Returns (gradient, error_estimate) with shape (len(f), 3)."""
    grads, errs = [], []
    for i in range(3):
        h = steps[i]
        d_h = (f(_perturbed(params, i, h)) - f(_perturbed(params, i, -h))) / (2.0 * h)
        d_h2 = (f(_perturbed(params, i, h / 2)) - f(_perturbed(params, i, -h / 2))) / h
        grads.append((4.0 * d_h2 - d_h) / 3.0)
        errs.append(np.abs(d_h2 - d_h) / 3.0)
    return np.stack(grads, axis=-1), np.stack(errs, axis=-1)


def _observables(params: WaveParameters) -> np.ndarray:
    tp = turning_point_data(params)
    T = wave_integral(params, tp=tp)
    F1, F2 = _quadrature_F1F2(params, tp=tp)
    return np.array([T, F1, F2])


def restricted_invariants(params: WaveParameters,
                          rel_step: float = 1e-5) -> InvariantSet:
    """T, F1, F2, the multipliers, and all parameter gradients."""
    steps = fd_steps_for(params, rel_step)
    base = _observables(params)
    grad, err = _richardson_gradient(_observables, params, steps)
    mults = multipliers(params)
    return InvariantSet(
        T=float(base[0]), F1=float(base[1]), F2=float(base[2]),
        omega1=mults.omega1, omega2=mults.omega2,
        grad_T=grad[0], grad_F1=grad[1], grad_F2=grad[2],
        err_grad_T=err[0], err_grad_F1=err[1], err_grad_F2=err[2],
        grad_omega1=mults.grad_omega1, grad_omega2=mults.grad_omega2,
        fd_steps=steps)


def _det3_error(m: np.ndarray, e: np.ndarray) -> float:
    """First-order error bound: sum of |cofactor| * entry error."""
    total = 0.0
    for i in range(3):
        for j in range(3):
            minor = np.delete(np.delete(m, i, axis=0), j, axis=1)
            total += abs(float(np.linalg.det(minor))) * e[i, j]
    return total


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


def _crest_quantities(params: WaveParameters
                      ) -> tuple[float, float, float, float, float]:
    """(phi_+, phi''(0), mu_+, mu_xx(0)) at the crest, and the closed form
    of {mu_+, omega1}_{E,c}."""
    a, b, c = params.a, params.b, params.c
    tp = turning_point_data(params)
    phip = tp.phi_max
    phipp0 = phip - a / _cpow(c - phip, b)
    mup = a / _cpow(c - phip, b)
    muxx0 = b * phipp0 * mup / (c - phip)
    J_mu_w1 = (a ** (1.0 - 1.0 / b) * (b - 1.0) * b
               * (-(c - phip) / phipp0) / _cpow(c - phip, b + 1.0))
    return phip, phipp0, mup, muxx0, J_mu_w1


def parameter_jacobians(params: WaveParameters,
                        invariants: InvariantSet | None = None,
                        rel_step: float = 1e-5) -> JacobianReport:
    """Assemble the three stability determinants, their error estimates,
    the monodromy coefficient theta, and the classification."""
    inv = restricted_invariants(params, rel_step) if invariants is None else invariants
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

    muxx0, J_mu_w1 = _crest_quantities(params)[3:]
    theta = -muxx0 * J1 / J_mu_w1

    classification = classify_from_signs(J1, e1, J2, e2, J3, e3)
    return JacobianReport(
        J_T_omega1=J1, J_T_F1=J2, J3=J3,
        err_J_T_omega1=e1, err_J_T_F1=e2, err_J3=e3,
        theta=theta, mu_xx0=muxx0, J_mu_plus_omega1=J_mu_w1,
        classification=classification, fd_steps=inv.fd_steps,
        invariants=inv)


def crest_identities(params: WaveParameters,
                        rel_step: float = 1e-5) -> CrestIdentityReport:
    """Check the closed-form crest-derivative identities against finite
    differences of the synthesized family:

        d(phi_+)/dE = -1/phi''(0),
        d(phi_+)/dc = -mu_+/phi''(0),
        c d(phi_+)/dE - d(phi_+)/dc + 1 = -(c - phi_+)/phi''(0) > 0,
        {mu_+, omega1}_{E,c} > 0.
    """
    steps = fd_steps_for(params, rel_step)

    def crest(p: WaveParameters) -> np.ndarray:
        phip, _, mup, _, _ = _crest_quantities(p)
        return np.array([phip, mup])

    grad, _ = _richardson_gradient(crest, params, steps)
    phip_E, phip_c = grad[0, 1], grad[0, 2]
    mup_E, mup_c = grad[1, 1], grad[1, 2]

    phip, phipp0, mup, muxx0, J_closed = _crest_quantities(params)
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


def classify_stability(params: WaveParameters, N: int = 512,
                       rel_step: float = 1e-5) -> StabilityReport:
    """Full classification bundle: profile synthesis and its residuals,
    stationarity residual, invariants and Jacobians, crest-derivative identities."""
    profile = synthesize_profile(params, N)
    res = profile_residuals(profile)
    el = euler_lagrange_residual(profile)
    jac = parameter_jacobians(params, rel_step=rel_step)
    crest = crest_identities(params, rel_step=rel_step)
    F1, F2 = conserved_quantities(profile, jac.invariants)
    return StabilityReport(
        params=params, classification=jac.classification,
        jacobians=jac, crest=crest, el_residual=el,
        profile_res=res, F1=F1, F2=F2)


# ---------------------------------------------------------------------------
# derivatives of the synthesized family (shared with the spectral module)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyDerivatives:
    """Pointwise parameter derivatives of mu(x; a, E, c) at the base grid
    points x, with T_a, T_E, T_c the period derivatives.

    Grid index j of every synthesized profile samples the phase s = j/N,
    so Richardson differences (steps h and h/2) of the raw samples give
    the derivative at fixed phase, and the derivative at fixed x follows
    in closed form: mu_p = d_p mu|_s - (T_p / T) x mu_x, with the base
    profile's analytic mu_x.  These are quasi-periodic:
    mu_p(x + T) - mu_p(x) = -T_p mu_x(x)."""

    profile: WaveProfile
    mu_a: np.ndarray
    mu_E: np.ndarray
    mu_c: np.ndarray
    T_a: float
    T_E: float
    T_c: float
    fd_steps: np.ndarray


def family_derivatives(params: WaveParameters, N: int = 512,
                       profile: WaveProfile | None = None,
                       rel_step: float = 1e-4) -> FamilyDerivatives:
    # pointwise profile values carry ~1e-12 synthesis noise, so the optimal
    # central-difference step is larger here than for the quadrature-based
    # scalar observables
    base = synthesize_profile(params, N) if profile is None else profile
    steps = fd_steps_for(params, rel_step)

    def mu_and_T(p: WaveParameters) -> np.ndarray:
        prof = synthesize_profile(p, N)
        return np.append(prof.mu, prof.T)

    grad, _ = _richardson_gradient(mu_and_T, params, steps)
    T_grads = grad[-1]
    mu_grads = [grad[:-1, i] - (T_grads[i] / base.T) * base.x * base.dmu
                for i in range(3)]
    return FamilyDerivatives(
        profile=base, mu_a=mu_grads[0], mu_E=mu_grads[1], mu_c=mu_grads[2],
        T_a=float(T_grads[0]), T_E=float(T_grads[1]), T_c=float(T_grads[2]),
        fd_steps=steps)
