"""Second-variation operator: assembly, periodic spectrum, proof identities,
and the constrained coercivity probe.

The operator is the Hessian of the conserved combination
omega1 F1 + omega2 F2 - E at the wave, scaled so that its leading
Sturm-Liouville coefficient is

    p = omega2 / (b^2 mu^(2 + 1/b)) > 0,

which fixes the convention

    L = -p d^2/dx^2 - q d/dx - r = -d/dx(p d/dx) + symmetric_r,
    q = p' ,   symmetric_r = -r.

Relative to the raw Hessian of E - omega1 F1 - omega2 F2 this carries the
factor SECOND_VARIATION_SCALE = -1/2, which therefore multiplies the
right-hand sides of the kernel-image identities:

    L mu_x = 0,
    L mu_E = SECOND_VARIATION_SCALE * (omega1)_E dF1/dm,
    L mu_c = SECOND_VARIATION_SCALE * (omega1)_c dF1/dm,
    <L psi, psi> = SECOND_VARIATION_SCALE * (omega2)_a
                   * {T,F1}_{E,c} * {T,F1,F2}_{a,E,c},

with psi = {mu, T, F1}_{a,E,c}.  All four are verified numerically here;
the scale factor is reported, never silently absorbed.  In particular
<L psi, psi> < 0 (the sign the constrained-coercivity argument needs)
exactly when the determinant product is positive.

Spectra are computed by Hill's method in Fourier-mode space: the matrix
elements of -d(p d)/dx + symmetric_r in the basis exp(2 pi i k x / T) are

    H[j, k] = kt_j kt_k phat[j - k] + rhat[j - k],   kt = 2 pi k / T,

a Hermitian matrix over modes -M..M.  (A collocation product of grid
differentiation matrices is avoided deliberately: with even N its
annihilated Nyquist mode produces a spurious eigenvalue at mean(r).)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fourier
from .errors import CoefficientInconsistency, DiscretizationNotConverged
from .invariants import (FamilyDerivatives, InvariantSet, Multipliers,
                         delta_F1, delta_F2, family_derivatives, multipliers,
                         restricted_invariants)
from .profile import WaveProfile

SECOND_VARIATION_SCALE = -0.5
# rows per block of probe directions; bounds the probe's working memory
_PROBE_BLOCK = 128


@dataclass(frozen=True)
class OperatorCoefficients:
    """Sturm-Liouville coefficients of the second variation on the profile
    grid, plus the data needed to apply it and locate its kernel."""

    T: float
    x: np.ndarray
    p: np.ndarray
    q: np.ndarray
    r: np.ndarray
    symmetric_r: np.ndarray
    mu_x: np.ndarray


@dataclass(frozen=True)
class SpectralReport:
    eigenvalues: np.ndarray
    n_neg: int
    n_zero: int
    n_pos: int
    tau: float
    kernel_residual: float
    M: int
    op_scale: float


@dataclass(frozen=True)
class ProofIdentityReport:
    muE_residual: float
    muc_residual: float
    psi_identity_residual: float
    psi_quadform: float
    psi_quadform_predicted: float
    tangent_orthogonality: float
    convention_scale: float


@dataclass(frozen=True)
class ProbeReport:
    min_quotient: float
    n_negative: int
    trials: int
    projected: bool


def _raw_hessian_r(profile: WaveProfile, mults: Multipliers) -> np.ndarray:
    """Multiplication part R of the raw Hessian of E - w1 F1 - w2 F2,
    i.e. Hess = -p_raw d^2 - q_raw d + R with p_raw = -2 w2/(b^2 mu^(2+1/b))."""
    b = profile.params.b
    mu, mux, muxx = profile.mu, profile.dmu, profile.d2mu
    s = 1.0 / b
    w1, w2 = mults.omega1, mults.omega2
    return (w1 * (b - 1.0) / b**2 * mu ** (s - 2.0)
            + w2 * ((2.0 * b + 1.0) * (3.0 * b + 1.0) / b**4 * mux**2 * mu ** (-s - 4.0)
                    - 2.0 * (2.0 * b + 1.0) / b**3 * muxx * mu ** (-s - 3.0)
                    - (b + 1.0) / b**2 * mu ** (-s - 2.0)))


def assemble_operator(profile: WaveProfile,
                      mults: Multipliers | None = None) -> OperatorCoefficients:
    """Closed-form coefficients, with self-adjointness (q = p') asserted
    against a spectral derivative of p."""
    b = profile.params.b
    if mults is None:
        mults = multipliers(profile.params)
    mu, mux = profile.mu, profile.dmu
    s = 1.0 / b
    w2 = mults.omega2

    p = w2 / (b**2 * mu ** (2.0 + s))
    q = -w2 * (2.0 * b + 1.0) * mux / (b**3 * mu ** (3.0 + s))
    R = _raw_hessian_r(profile, mults)
    r = 0.5 * R
    symmetric_r = -0.5 * R

    dp = fourier.spectral_derivative(p, profile.T, 1)
    scale = max(float(np.max(np.abs(dp))), float(np.max(np.abs(q))), 1e-300)
    mismatch = float(np.max(np.abs(q - dp)))
    if profile.phi_max > profile.phi_min and mismatch > 1e-5 * scale:
        raise CoefficientInconsistency(
            f"q deviates from p' by {mismatch!r} (scale {scale!r})")

    return OperatorCoefficients(T=profile.T, x=profile.x, p=p, q=q, r=r,
                                symmetric_r=symmetric_r, mu_x=mux)


def apply_operator(coeffs: OperatorCoefficients, v: np.ndarray) -> np.ndarray:
    """L v = -(p v')' + symmetric_r v with spectral derivatives."""
    dv = fourier.spectral_derivative(v, coeffs.T, 1)
    return -fourier.spectral_derivative(coeffs.p * dv, coeffs.T, 1) + coeffs.symmetric_r * v


def hill_matrix(coeffs: OperatorCoefficients, M: int) -> np.ndarray:
    """Hermitian Fourier-mode matrix of the operator over modes -M..M."""
    n = coeffs.p.shape[0]
    if 2 * M + 1 > n:
        raise ValueError("mode count exceeds the coefficient grid")
    phat = np.fft.fft(coeffs.p) / n
    rhat = np.fft.fft(coeffs.symmetric_r) / n
    modes = np.arange(-M, M + 1)
    kt = 2.0 * np.pi * modes / coeffs.T
    idx = (modes[:, None] - modes[None, :]) % n
    H = kt[:, None] * kt[None, :] * phat[idx] + rhat[idx]
    return 0.5 * (H + H.conj().T)


def modes_to_grid(vec: np.ndarray, coeffs: OperatorCoefficients) -> np.ndarray:
    """Evaluate a mode-space eigenvector on the coefficient grid (real part,
    L2-normalized)."""
    M = (vec.shape[0] - 1) // 2
    modes = np.arange(-M, M + 1)
    kt = 2.0 * np.pi * modes / coeffs.T
    v = np.real(np.exp(1j * np.outer(coeffs.x, kt)) @ vec)
    nrm = fourier.l2_norm(v, coeffs.T)
    if nrm == 0.0:
        v = np.imag(np.exp(1j * np.outer(coeffs.x, kt)) @ vec)
        nrm = fourier.l2_norm(v, coeffs.T)
    return v / nrm


def operator_scale(coeffs: OperatorCoefficients) -> float:
    """Magnitude of the low-lying spectrum: p k1^2 + |r| scale."""
    k1 = 2.0 * np.pi / coeffs.T
    return float(np.max(coeffs.p) * k1**2 + np.max(np.abs(coeffs.symmetric_r)))


def kernel_residual(coeffs: OperatorCoefficients) -> float:
    """Sup-norm residual of the translation kernel, ||L mu_x|| / ||mu_x||."""
    mux = coeffs.mu_x
    denom = float(np.max(np.abs(mux)))
    if denom == 0.0:
        return 0.0
    return float(np.max(np.abs(apply_operator(coeffs, mux)))) / denom


def _default_modes(n: int) -> int:
    """Hill mode count used when none is given, for an n-point grid."""
    return min(n // 4, 128)


def periodic_spectrum(coeffs: OperatorCoefficients, M: int | None = None) -> SpectralReport:
    """Sorted periodic eigenvalues and the inertia counts.

    Convergence is certified by halving the mode count: the lowest five
    eigenvalues must be stationary.  The zero tolerance scales with the
    achieved kernel residual so that a genuinely degenerate pair is
    reported as such rather than silently split.
    """
    if M is None:
        M = _default_modes(coeffs.p.shape[0])
    if M < 1:
        raise ValueError(f"Hill mode count must be positive, got {M}")
    evals = np.linalg.eigvalsh(hill_matrix(coeffs, M))
    evals_half = np.linalg.eigvalsh(hill_matrix(coeffs, M // 2))
    scale = operator_scale(coeffs)
    move = float(np.max(np.abs(evals[:5] - evals_half[:5])))
    if move > 1e-6 * max(scale, 1.0):
        raise DiscretizationNotConverged(
            f"lowest eigenvalues moved by {move!r} when modes doubled from {M // 2}")

    kres = kernel_residual(coeffs)
    tau = max(1e-8 * scale, 10.0 * kres)
    n_neg = int(np.sum(evals < -tau))
    n_zero = int(np.sum(np.abs(evals) <= tau))
    n_pos = int(evals.size - n_neg - n_zero)
    return SpectralReport(eigenvalues=evals[:M].copy(), n_neg=n_neg,
                          n_zero=n_zero, n_pos=n_pos, tau=tau,
                          kernel_residual=kres, M=M, op_scale=scale)


def _minor(g1: np.ndarray, g2: np.ndarray, i: int, j: int) -> float:
    return float(g1[i] * g2[j] - g1[j] * g2[i])


def proof_identities(profile: WaveProfile,
                     coeffs: OperatorCoefficients | None = None,
                     fam: FamilyDerivatives | None = None,
                     inv: InvariantSet | None = None,
                     n_tangent_trials: int = 16,
                     seed: int = 0) -> ProofIdentityReport:
    """Verify the kernel-image identities satisfied by the parameter
    derivatives of the wave family, and the quadratic-form identity for
    psi = {mu, T, F1}_{a,E,c}.

    The parameter derivatives are quasi-periodic, so each is periodized
    with the exact compensator (T_p / T) x mu_x before the spectral
    operator is applied; the commutator correction is restored in closed
    form.
    """
    params = profile.params
    if coeffs is None:
        coeffs = assemble_operator(profile)
    if fam is None:
        fam = family_derivatives(params, N=profile.N, profile=profile)
    if inv is None:
        inv = restricted_invariants(params)

    T, x = profile.T, profile.x
    mux, muxx = profile.dmu, profile.d2mu
    b = params.b
    dF1 = delta_F1(profile.mu, b)
    dF2 = delta_F2(profile.mu, profile.dmu, profile.d2mu, b)
    kappa = SECOND_VARIATION_SCALE

    def image_of(mu_p: np.ndarray, T_p: float) -> np.ndarray:
        v = mu_p + (T_p / T) * x * mux
        correction = (T_p / T) * (2.0 * coeffs.p * muxx + coeffs.q * mux)
        return apply_operator(coeffs, v) + correction

    rel_l2 = lambda got, want: (fourier.l2_norm(got - want, T)
                                / max(fourier.l2_norm(want, T), 1e-300))
    L_muE = image_of(fam.mu_E, fam.T_E)
    L_muc = image_of(fam.mu_c, fam.T_c)
    muE_res = rel_l2(L_muE, kappa * inv.grad_omega1[1] * dF1)
    muc_res = rel_l2(L_muc, kappa * inv.grad_omega1[2] * dF1)

    # psi from the family derivatives and the {T, F1} minors
    m11 = _minor(inv.grad_T, inv.grad_F1, 1, 2)  # {T,F1}_{E,c}
    m12 = _minor(inv.grad_T, inv.grad_F1, 0, 2)  # {T,F1}_{a,c}
    m13 = _minor(inv.grad_T, inv.grad_F1, 0, 1)  # {T,F1}_{a,E}
    psi = fam.mu_a * m11 - fam.mu_E * m12 + fam.mu_c * m13
    L_psi = apply_operator(coeffs, psi)
    quadform = fourier.l2_inner(L_psi, psi, T)

    J3 = float(np.linalg.det(np.stack([inv.grad_T, inv.grad_F1, inv.grad_F2])))
    predicted = kappa * inv.grad_omega2[0] * m11 * J3
    psi_res = abs(quadform - predicted) / max(abs(predicted), 1e-300)

    # <L psi, m> vanishes for m in the tangent space {dF1, dF2}^perp
    rng = np.random.default_rng(seed)
    tangent_basis = fourier.orthonormalize((dF1, dF2), T)
    denom = fourier.l2_norm(L_psi, T)
    worst = 0.0
    trials = fourier.random_smooth(profile.N, rng, n_tangent_trials,
                                   profile.N // 3)
    for m in fourier.project_out(trials, tangent_basis, T):
        val = abs(fourier.l2_inner(L_psi, m, T))
        worst = max(worst, val / max(denom * fourier.l2_norm(m, T), 1e-300))

    return ProofIdentityReport(
        muE_residual=muE_res, muc_residual=muc_res,
        psi_identity_residual=psi_res, psi_quadform=quadform,
        psi_quadform_predicted=predicted, tangent_orthogonality=worst,
        convention_scale=kappa)


def coercivity_probe(coeffs: OperatorCoefficients, profile: WaveProfile,
                     trials: int = 1000, seed: int = 0,
                     project: bool = True) -> ProbeReport:
    """Minimum H^1 Rayleigh quotient of the operator over random smooth
    directions.

    With project=True the directions are first projected onto the
    orthogonal complement of {dF1/dm, dF2/dm, mu_x} (the constrained
    subspace where coercivity is claimed); a strictly positive minimum
    certifies it at probe resolution.  The trial set always includes the
    spectral ground state and the constant direction, so an unconstrained
    probe (project=False) reliably finds the negative direction.

    The directions are processed in blocks of _PROBE_BLOCK rows: each
    block is drawn at once, projected, mapped through the operator and
    its quotients <L m, m> / ||m||_{H^1}^2 formed together.  The first
    block leads with the ground state and the constant direction.
    """
    params = profile.params
    b, T, n = params.b, profile.T, profile.N
    dF1 = delta_F1(profile.mu, b)
    dF2 = delta_F2(profile.mu, profile.dmu, profile.d2mu, b)
    basis = fourier.orthonormalize((dF1, dF2, profile.dmu), T)

    _, evecs = np.linalg.eigh(hill_matrix(coeffs, _default_modes(n)))
    fixed = np.stack([modes_to_grid(evecs[:, 0], coeffs), np.ones(n)])

    rng = np.random.default_rng(seed)
    n_total = len(fixed) + max(trials - len(fixed), 0)
    min_q = np.inf
    n_negative = 0
    evaluated = 0
    for start in range(0, n_total, _PROBE_BLOCK):
        stop = min(start + _PROBE_BLOCK, n_total)
        block = fourier.random_smooth(n, rng, stop - max(start, len(fixed)),
                                      n // 3)
        if start == 0:
            block = np.concatenate([fixed, block])
        if project:
            block = fourier.project_out(block, basis, T)
        h1 = fourier.h1_norm_sq(block, T)
        keep = h1 > 1e-20
        block, h1 = block[keep], h1[keep]
        evaluated += block.shape[0]
        if not block.shape[0]:
            continue
        q = T * np.mean(apply_operator(coeffs, block) * block, axis=-1) / h1
        min_q = min(min_q, float(np.min(q)))
        n_negative += int(np.sum(q < 0.0))
    return ProbeReport(min_quotient=float(min_q), n_negative=n_negative,
                       trials=evaluated, projected=project)
