"""Second-variation operator: assembly, periodic spectrum (on the grid and in
theta), the inertia from the even kernel solution, proof identities, and
the constrained coercivity probe.

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
    L psi in span{dF1/dm, dF2/dm},

with psi = {mu, T, F1}_{a,E,c}.  All five are verified numerically here;
the scale factor is reported, never silently absorbed.  In particular
<L psi, psi> < 0 (the sign the constrained-coercivity argument needs)
exactly when the determinant product is positive.  The last identity is
checked by one L2 projection: the part of L psi off the span, relative
to ||L psi||, is the supremum of <L psi, m> / (||L psi|| ||m||) over the
tangent space {dF1, dF2}^perp, so no directions are sampled.

Spectra are computed by Hill's method in Fourier-mode space: the matrix
elements of -d(p d)/dx + symmetric_r in the basis exp(2 pi i k x / T) are

    H[j, k] = kt_j kt_k phat[j - k] + rhat[j - k],   kt = 2 pi k / T,

over modes -M..M.  The profile is even by construction, so phat and rhat
are real and even, and H splits into a cosine block over the basis
1, sqrt(2) cos(kt x), k = 0..M, and a sine block over sqrt(2) sin(kt x),
k = 1..M, each a Toeplitz-plus-Hankel matrix in d = |j - k|, s = j + k:

    C = kt kt^T (phat[d] - phat[s]) + rhat[d] + rhat[s]
        (row and column 0 divided by sqrt(2)),
    S = kt kt^T (phat[d] + phat[s]) + rhat[d] - rhat[s],   j, k >= 1.

Their eigenvalues together are those of H.  _parity_blocks builds both
once per operator and mode count (a one-entry memo): periodic_spectrum
solves them, and their leading sub-blocks, which are the blocks at M // 2,
for its convergence check, and coercivity_probe reads them at M = N // 4.
The caller gives M; periodic_spectrum tries no other.  The blocks are
graded, their diagonal growing like kt^2 toward the bottom right, so they
are solved from the upper triangle, whose tridiagonal reduction starts
from that corner: the lowest eigenvalue then agrees with a long-double
Rayleigh quotient to ~1e-14 relative, where the full matrix ordered -M..M
loses ~1e-12.  hill_matrix, the full matrix, stays as the reference the
blocks are tested against.  (A collocation product of grid differentiation
matrices is avoided deliberately: with even N its annihilated Nyquist mode
produces a spurious eigenvalue at mean(r).)

theta_spectrum computes the same spectrum by Hill's method in the
quadrature variable theta of profile.py (Deconinck & Kutz, J. Comput.
Phys. 219, 2006; Boyd, Chebyshev and Fourier Spectral Methods, 2001, on
mapped coordinates), with no uniform-grid profile.  On the half period
dx = G dtheta, and the even and odd eigenfunctions are those of the pencil

    -(P v_theta)_theta + G symmetric_r v = lambda G v,   P = p / G,

on theta in (0, pi/2) with Neumann and Dirichlet ends: the cosine block
over cos(2 k theta), k = 0..K, and the sine block over sin(2 k theta),
k = 1..K.  In the cosine moments hat f[m] = Integral[f cos(2 m theta),
{theta, 0, pi/2}] they are Toeplitz-plus-Hankel in d = |j - k|, s = j + k:

    cosine: A = 2 j k (Phat[d] - Phat[s]) + (1/2) (Grhat[d] + Grhat[s]),
            B = (1/2) (Ghat[d] + Ghat[s]),
    sine:   the same with the signs of the [s] terms flipped.

p and symmetric_r come in closed form from phi(theta), E - V and G, by the
formula assemble_operator uses (_sturm_liouville).  Each block is reduced
to standard form by the Cholesky factor of its mass matrix B and solved
by eigvalsh.

Both routes certify convergence by one halving rule (_halving_move) and
count the inertia at one zero tolerance (_inertia_report); only theta,
which sees waves alone, refuses an inertia no wave has.  spectrum reads
theta_spectrum; the benchmark's certificate (M = 128) and the coercivity
probe read the grid route, the theta route's oracle.

Sweep rows need the inertia alone, and kernel_inertia reads it with no
eigensolve.  By the identities above, v = (omega1)_c mu_E - (omega1)_E mu_c
solves L v = 0, and it is even, so it is the cosine block's Neumann
solution at 0 on the half period; its slope at the trough is
-(mu_xx(T/2) / 2) {T, omega1}_{E,c}.  By Sturm oscillation (Magnus &
Winkler, Hill's Equation, 1966) the block's count below 0 is the number
of zeros of v in (0, T/2), plus one where v(T/2) {T, omega1} > 0
(_neumann_count); the sine block adds the translation mode mu_x, its
lowest, at 0.  This mirrors the construction of Bronski, Johnson &
Kapitula (Proc. Roy. Soc. Edinburgh A 141, 2011) for KdV-type equations.
mu_E and mu_c at a fixed x are closed forms on theta nodes, from the
complex-step table the Jacobians already hold, so a count builds neither
a grid nor a block; it refines its nodes until the zero count is stable,
and checks the sign of v(T/2) and its slope there.

The coercivity probe is exact on the modes 0..N // 4: in the bases above
the H^1 Gram matrix is K = diag(1 + kt^2), so the stationary values of the
quotient <L v, v> / ||v||_{H^1}^2 are the eigenvalues of K^(-1/2) C K^(-1/2)
and K^(-1/2) S K^(-1/2), a congruence of C and S, which keeps their
inertia (Sylvester's law).  The constraints of the coercivity argument,
{dF1/dm, dF2/dm} (even) and mu_x (odd), are removed by one QR per block,
which drops a constraint at or below 1e-14 of the largest, or dependent
to that level, by fourier.orthonormal_basis's rule, as the tangent check's
projection does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fourier
from .errors import (CoefficientInconsistency, DiscretizationNotConverged,
                     FDUnreliable, RouteMismatch)
from .invariants import (Multipliers, _map_derivatives, _momentum_derivatives,
                         _T_omega1, delta_F1, delta_F2, family_derivatives,
                         invariant_densities, multipliers,
                         restricted_invariants)
from .potential import WaveParameters
from .profile import (WaveProfile, _lobatto_theta, _lobatto_values, _momentum,
                      _samples, turning_point_data)

SECOND_VARIATION_SCALE = -0.5
# the proof-identity residuals above which spectrum refuses its grid as
# unresolved: the reference wave reads <= 7.4e-8 from N = 64 on
IDENTITY_BOUNDS = {"muE_residual": 1e-4, "muc_residual": 1e-4,
                   "psi_identity_residual": 1e-3,
                   "tangent_orthogonality": 1e-4}


@dataclass(frozen=True, eq=False)
class OperatorCoefficients:
    """Sturm-Liouville coefficients of the second variation on the profile
    grid, plus the data needed to apply it and locate its kernel.  Equality
    and hashing go by identity, which keys the memo of its Hill blocks."""

    T: float
    x: np.ndarray
    p: np.ndarray
    q: np.ndarray
    symmetric_r: np.ndarray
    mu_x: np.ndarray


@dataclass(frozen=True)
class SpectralReport:
    """Either Hill route's spectrum (_inertia_report): the lowest M sorted
    eigenvalues, and the inertia of all at the zero tolerance tau.  In
    theta (theta_spectrum, which spectrum reads) M is K and
    kernel_residual the translation mode's |lambda|; on the grid
    (periodic_spectrum) M is the grid mode count and kernel_residual
    ||L mu_x|| / ||mu_x||."""

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
    projected: bool


def _sturm_liouville(mu: np.ndarray, mux2: np.ndarray, muxx: np.ndarray,
                     b: float, mults: Multipliers) -> tuple[np.ndarray, np.ndarray]:
    """p and symmetric_r at samples of mu, mu_x^2 and mu_xx: the one formula
    of the grid route (assemble_operator) and the theta route
    (theta_spectrum).  symmetric_r is SECOND_VARIATION_SCALE times the
    multiplication part R of the raw Hessian of E - w1 F1 - w2 F2,
    Hess = -p_raw d^2 - q_raw d + R with p_raw = -2 w2/(b^2 mu^(2+1/b))."""
    s = 1.0 / b
    w1, w2 = mults.omega1, mults.omega2
    p = w2 / (b**2 * mu ** (2.0 + s))
    raw_r = (w1 * (b - 1.0) / b**2 * mu ** (s - 2.0)
             + w2 * ((2.0 * b + 1.0) * (3.0 * b + 1.0) / b**4 * mux2 * mu ** (-s - 4.0)
                     - 2.0 * (2.0 * b + 1.0) / b**3 * muxx * mu ** (-s - 3.0)
                     - (b + 1.0) / b**2 * mu ** (-s - 2.0)))
    return p, SECOND_VARIATION_SCALE * raw_r


def assemble_operator(profile: WaveProfile) -> OperatorCoefficients:
    """Closed-form coefficients, with self-adjointness (q = p') asserted
    against a spectral derivative of p."""
    b = profile.params.b
    mults = multipliers(profile.params)
    mu, mux = profile.mu, profile.dmu
    s = 1.0 / b
    w2 = mults.omega2

    p, symmetric_r = _sturm_liouville(mu, mux**2, profile.d2mu, b, mults)
    q = -w2 * (2.0 * b + 1.0) * mux / (b**3 * mu ** (3.0 + s))

    dp = fourier.spectral_derivative(p, profile.T, 1)
    scale = max(float(np.max(np.abs(dp))), float(np.max(np.abs(q))), 1e-300)
    mismatch = float(np.max(np.abs(q - dp)))
    if profile.phi_max > profile.phi_min and mismatch > 1e-5 * scale:
        raise CoefficientInconsistency(
            f"q deviates from p' by {mismatch!r} (scale {scale!r})")

    return OperatorCoefficients(T=profile.T, x=profile.x, p=p, q=q,
                                symmetric_r=symmetric_r, mu_x=mux)


def apply_operator(coeffs: OperatorCoefficients, v: np.ndarray) -> np.ndarray:
    """L v = -(p v')' + symmetric_r v with spectral derivatives."""
    dv = fourier.spectral_derivative(v, coeffs.T, 1)
    return -fourier.spectral_derivative(coeffs.p * dv, coeffs.T, 1) + coeffs.symmetric_r * v


def hill_matrix(coeffs: OperatorCoefficients, M: int) -> np.ndarray:
    """Real symmetric Fourier-mode matrix of the operator over modes -M..M
    (the coefficients are even, so their Fourier coefficients are real)."""
    n = coeffs.p.shape[0]
    if 2 * M + 1 > n:
        raise ValueError("mode count exceeds the coefficient grid")
    phat = np.fft.fft(coeffs.p).real / n
    rhat = np.fft.fft(coeffs.symmetric_r).real / n
    modes = np.arange(-M, M + 1)
    kt = 2.0 * np.pi * modes / coeffs.T
    idx = (modes[:, None] - modes[None, :]) % n
    H = kt[:, None] * kt[None, :] * phat[idx] + rhat[idx]
    return 0.5 * (H + H.T)


# one entry: the spectrum and the probe of one operator share its blocks
@lru_cache(maxsize=1)
def _parity_blocks(coeffs: OperatorCoefficients, M: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Read-only cosine block C, (M+1)^2, and sine block S, M^2, of
    hill_matrix(coeffs, M) (see the module docstring).  The leading
    sub-blocks C[:m+1, :m+1] and S[:m, :m] are the blocks for m < M
    modes."""
    n = coeffs.p.shape[0]
    if 2 * M + 1 > n:
        raise ValueError("mode count exceeds the coefficient grid")
    phat = np.fft.rfft(coeffs.p).real / n
    rhat = np.fft.rfft(coeffs.symmetric_r).real / n
    k = np.arange(M + 1)
    kt = 2.0 * np.pi * k / coeffs.T
    d = np.abs(k[:, None] - k[None, :])
    s = k[:, None] + k[None, :]
    s = np.minimum(s, n - s)  # the coefficients are even: hat[s] = hat[n - s]
    kk = kt[:, None] * kt[None, :]
    pd, ps, rd, rs = phat[d], phat[s], rhat[d], rhat[s]
    C = kk * (pd - ps) + rd + rs
    S = (kk * (pd + ps) + rd - rs)[1:, 1:]
    C[0] /= np.sqrt(2.0)
    C[:, 0] /= np.sqrt(2.0)
    for block in (C, S):
        block.setflags(write=False)
    return C, S


def operator_scale(coeffs: OperatorCoefficients) -> float:
    """Magnitude of the low-lying spectrum: p k1^2 + |r| scale."""
    return _operator_scale(coeffs.p, coeffs.symmetric_r, coeffs.T)


def _operator_scale(p: np.ndarray, symmetric_r: np.ndarray, T: float) -> float:
    k1 = 2.0 * np.pi / T
    return float(np.max(p) * k1**2 + np.max(np.abs(symmetric_r)))


def kernel_residual(coeffs: OperatorCoefficients) -> float:
    """Sup-norm residual of the translation kernel, ||L mu_x|| / ||mu_x||."""
    mux = coeffs.mu_x
    denom = float(np.max(np.abs(mux)))
    if denom == 0.0:
        return 0.0
    return float(np.max(np.abs(apply_operator(coeffs, mux)))) / denom


def _block_eigenvalues(C: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of the Hill matrix with parity blocks C and S."""
    return np.sort(np.concatenate([np.linalg.eigvalsh(C, UPLO="U"),
                                   np.linalg.eigvalsh(S, UPLO="U")]))


def _halving_move(evals: np.ndarray, below: np.ndarray,
                  scale: float) -> tuple[float, float]:
    """The halving rule of both Hill routes: how far the lowest five sorted
    eigenvalues moved from half the mode count (below) to the full one
    (evals), and the tolerance 1e-6 max(scale, 1) a converged one meets."""
    return (float(np.max(np.abs(evals[:5] - below[:5]))),
            1e-6 * max(scale, 1.0))


def _inertia_report(evals: np.ndarray, kernel: float, M: int,
                    scale: float) -> SpectralReport:
    """The report of both Hill routes on sorted eigenvalues at M modes: the
    lowest M, and the inertia at tau = max(1e-8 scale, 10 kernel), which
    scales with the translation kernel's residual so that a genuinely
    degenerate pair is reported as such rather than silently split."""
    tau = max(1e-8 * scale, 10.0 * kernel)
    n_neg = int(np.sum(evals < -tau))
    n_zero = int(np.sum(np.abs(evals) <= tau))
    return SpectralReport(eigenvalues=evals[:M].copy(), n_neg=n_neg,
                          n_zero=n_zero, n_pos=int(evals.size - n_neg - n_zero),
                          tau=tau, kernel_residual=kernel, M=M, op_scale=scale)


def periodic_spectrum(coeffs: OperatorCoefficients, M: int) -> SpectralReport:
    """Sorted periodic eigenvalues over modes -M..M and the inertia counts,
    from the parity blocks of the Hill matrix.

    Convergence is certified by the halving rule (_halving_move): the
    lowest five eigenvalues at M must agree with those of the leading
    sub-blocks, the blocks at M // 2, or the point is refused with
    DiscretizationNotConverged.  The zero tolerance scales with the grid
    kernel residual (_inertia_report).
    """
    # the check compares the lowest five eigenvalues with the 2(M//2) + 1 at
    # M//2, so it needs M >= 4
    if M < 4:
        raise ValueError(f"Hill mode count must be at least 4, got {M}")
    scale = operator_scale(coeffs)
    C, S = _parity_blocks(coeffs, M)
    evals = _block_eigenvalues(C, S)
    below = _block_eigenvalues(C[:M // 2 + 1, :M // 2 + 1], S[:M // 2, :M // 2])
    move, tol = _halving_move(evals, below, scale)
    if move <= tol:
        return _inertia_report(evals, kernel_residual(coeffs), M, scale)
    raise DiscretizationNotConverged(
        f"lowest eigenvalues moved by {move!r} when modes doubled from {M // 2}")


# ---------------------------------------------------------------------------
# Hill's method in theta
# ---------------------------------------------------------------------------

# the mode counts theta_spectrum tries, in order, and its midpoint nodes per
# mode
_THETA_LADDER = (16, 32, 64, 128, 256)
_THETA_NODES_PER_MODE = 4
# (n_neg, n_zero) on a wave: mu_x has two zeros a period, so by Sturm
# oscillation 0 is the second or third periodic eigenvalue, simple or double
_WAVE_INERTIAS = ((1, 1), (2, 1), (1, 2))


def _theta_samples(params: WaveParameters,
                   theta: np.ndarray) -> tuple[np.ndarray, ...]:
    """p, symmetric_r, G, mu and mu_x^2 at the nodes theta of [0, pi/2], in
    closed form from phi(theta), E - V and G (profile._samples): on the
    wave phi_x^2 = 2 (E - V), and mu, mu_x = f phi_x and mu_xx follow from
    profile._momentum.
    """
    phi, P, G = _samples(theta, params, turning_point_data(params))
    phi_x2 = 2.0 * P
    # at large b, mu^(-1/b - 4) can overflow: refused below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        mu, f, muxx = _momentum(phi, phi_x2, params)
        mux2 = phi_x2 * f**2
        p, symmetric_r = _sturm_liouville(mu, mux2, muxx, params.b,
                                          multipliers(params))
    if not all(np.isfinite(arr).all() for arr in (p, symmetric_r, G)):
        raise CoefficientInconsistency(
            "theta coefficients p, symmetric_r or G are not finite")
    return p, symmetric_r, G, mu, mux2


def _cosine_moments(rows: np.ndarray, count: int) -> np.ndarray:
    """Integral[f cos(2 m theta), {theta, 0, pi/2}], m < count, for each row
    f of samples at the midpoint nodes: the midpoint rule, which is one
    DCT-II, taken as the rfft of the rows' even extension."""
    n = rows.shape[-1]
    spec = np.fft.rfft(np.concatenate([rows, rows[:, ::-1]], axis=-1))[:, :count]
    shift = np.exp(-0.5j * np.pi / n * np.arange(count))
    return (0.25 * np.pi / n) * (spec * shift).real


def _standard_form(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """L^-1 A L^-T for the Cholesky factor L of B: the symmetric matrix whose
    eigenvalues are those of the pencil (A, B).  L^-1 is lower triangular,
    so the leading m x m sub-block of the result is the standard form of
    the leading sub-blocks of A and B."""
    try:
        L_inv = np.linalg.inv(np.linalg.cholesky(B))
    except np.linalg.LinAlgError as exc:
        raise CoefficientInconsistency(
            "theta mass matrix is not positive definite") from exc
    return L_inv @ A @ L_inv.T


def _theta_blocks(moments: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Standard forms of the pencil's cosine block over cos(2 k theta),
    k = 0..K, and its sine block over sin(2 k theta), k = 1..K, from the
    cosine moments of the rows P = p / G, G symmetric_r and G (see the
    module docstring)."""
    k = np.arange(K + 1)
    hat_d = moments[:, np.abs(k[:, None] - k[None, :])]
    hat_s = moments[:, k[:, None] + k[None, :]]
    plus, minus = hat_d + hat_s, hat_d - hat_s
    stiff = 2.0 * k[:, None] * k[None, :]
    cosine = _standard_form(stiff * minus[0] + 0.5 * plus[1], 0.5 * plus[2])
    sine = _standard_form((stiff * plus[0] + 0.5 * minus[1])[1:, 1:],
                          0.5 * minus[2, 1:, 1:])
    return cosine, sine


def theta_spectrum(params: WaveParameters) -> SpectralReport:
    """Sorted periodic eigenvalues and the inertia counts by Hill's method
    in the quadrature variable theta: no uniform-grid profile is built.

    The mode counts of _THETA_LADDER are tried in turn, each sampled afresh
    at 4 K midpoint nodes; the first that passes the halving rule
    (_halving_move) against K // 2 (the rung below, or the leading
    sub-blocks at the first rung) is reported, and past the last the
    point is refused with DiscretizationNotConverged, as is an inertia no
    wave has (_WAVE_INERTIAS).  Non-finite coefficients, and a translation
    mode mu_x (the lowest sine eigenvalue) that does not vanish to the
    rule's tolerance, are refused with CoefficientInconsistency; that
    |lambda| is the kernel residual of _inertia_report.  F1 and F2 by the
    midpoint rule on the same nodes must agree with the Clenshaw-Curtis
    values of restricted_invariants to 1e-5 relative (RouteMismatch
    otherwise).  scale is operator_scale's on the nodes,
    with the period of restricted_invariants.
    """
    inv = restricted_invariants(params)
    below = None
    for K in _THETA_LADDER:
        n = _THETA_NODES_PER_MODE * K
        # the midpoint nodes theta_i = (i + 1/2) pi / (2n) of (0, pi/2)
        p, symmetric_r, G, mu, mux2 = _theta_samples(
            params, (np.arange(n) + 0.5) * (0.5 * np.pi / n))
        scale = _operator_scale(p, symmetric_r, inv.T)
        cosine, sine = _theta_blocks(
            _cosine_moments(np.stack([p / G, G * symmetric_r, G]), 2 * K + 1), K)
        w_sine = np.linalg.eigvalsh(sine, UPLO="U")
        evals = np.sort(np.concatenate([np.linalg.eigvalsh(cosine, UPLO="U"),
                                        w_sine]))
        if below is None:
            below = _block_eigenvalues(cosine[:K // 2 + 1, :K // 2 + 1],
                                       sine[:K // 2, :K // 2])
        move, tol = _halving_move(evals, below, scale)
        if move <= tol:
            break
        below = evals
    else:
        raise DiscretizationNotConverged(
            f"lowest theta eigenvalues moved by {move!r} when modes doubled "
            f"from {K // 2}")

    kernel = abs(float(w_sine[0]))
    if kernel > tol:
        raise CoefficientInconsistency(
            f"translation mode eigenvalue {float(w_sine[0])!r} exceeds {tol!r}")
    report = _inertia_report(evals, kernel, K, scale)
    if (report.n_neg, report.n_zero) not in _WAVE_INERTIAS:
        raise DiscretizationNotConverged(
            f"theta inertia ({report.n_neg}, {report.n_zero}) is not a "
            f"wave's at tau = {report.tau!r}")
    densities = invariant_densities(mu, np.sqrt(mux2), params.b)
    for name, density, quad in zip(("F1", "F2"), densities, (inv.F1, inv.F2)):
        midpoint = (np.pi / n) * float(np.sum(density * G))
        if abs(midpoint - quad) > 1e-5 * abs(quad):
            raise RouteMismatch(f"{name} routes disagree: theta midpoint "
                                f"{midpoint!r} vs quadrature {quad!r}")
    return report


# ---------------------------------------------------------------------------
# the inertia from the even kernel solution
# ---------------------------------------------------------------------------

# the Lobatto levels m (m + 1 nodes in theta, each level's nodes among the
# next one's) on which kernel_inertia counts the zeros of v; the first is
# only compared with, so a count is read on 513 nodes or more
_KERNEL_LEVELS = (256, 512, 1024, 2048, 4096)
# the least |v(T/2)| against the larger of its two terms: the terms are
# closed-form values, exact to rounding, so a smaller one leaves the sign
# of v(T/2) to rounding
_TROUGH_MARGIN = 1e-8
# the largest mismatch of the trough slope of v, by a one-sided difference
# on the accepted nodes, with its closed form, relative to the closed
# form: the 86 points and the 7 edge points read <= 2.1e-7
_SLOPE_BOUND = 1e-5


@dataclass(frozen=True)
class KernelInertia:
    """The inertia (n_neg, n_zero) of the second variation read from the
    even kernel solution v (kernel_inertia): zeros is the number of zeros
    of v in (0, T/2), alike on the accepted nodes and on every other one
    of them; trough_margin is |v(T/2)| against the larger of its two terms
    and slope_mismatch the trough-slope check's relative mismatch."""

    n_neg: int
    n_zero: int
    zeros: int
    nodes: int
    trough_margin: float
    slope_mismatch: float


def _sign_changes(v: np.ndarray) -> int:
    return int(np.count_nonzero(np.signbit(v[1:]) != np.signbit(v[:-1])))


def _neumann_count(sample, slope: float
                   ) -> tuple[int, int, int, int, np.ndarray]:
    """The inertia (n, z) at 0 of a Neumann problem -(p v')' + r v = lambda v
    on [0, l], p > 0, by Sturm oscillation (Magnus & Winkler, Hill's
    Equation, 1966), from its solution at lambda = 0 with v'(0) = 0 and
    the sign of v'(l), slope: the Prufer angle of v ends between
    k pi + pi/2 and k pi + pi after k zeros in (0, l) exactly when
    v(l) v'(l) < 0, so

        n = #zeros of v in (0, l) + [v(l) slope < 0],   z = 0,

    and slope = 0 makes v the eigenfunction at 0: n = #zeros, z = 1.

    sample(m) gives v at the m + 1 nodes of level m, ordered from 0 to l,
    with every other node a node of level m / 2.  The zeros are the sign
    changes between nodes.  From the second of _KERNEL_LEVELS on, a
    level's count is accepted when it equals the count on the level
    below's nodes; otherwise the next level is tried, and past the last
    the count is refused with DiscretizationNotConverged.  Returns
    (n, z, zeros, m, v) at the accepted level m."""
    for m in _KERNEL_LEVELS[1:]:
        v = sample(m)
        # every other node of level m is a node of the level below
        below, zeros = _sign_changes(v[::2]), _sign_changes(v)
        if zeros == below:
            break
    else:
        raise DiscretizationNotConverged(
            f"zeros of the kernel solution changed from {below} to {zeros} "
            f"at {m + 1} nodes")
    if slope == 0.0:
        return zeros, 1, zeros, m, v
    return zeros + int(v[-1] * slope < 0.0), 0, zeros, m, v


def kernel_inertia(params: WaveParameters) -> KernelInertia:
    """The inertia of the second variation with no eigensolve, counted
    from the even kernel solution v = (omega1)_c mu_E - (omega1)_E mu_c at
    fixed x (module docstring): _neumann_count on v over [0, T/2], with
    the trough slope v'(T/2) = -(mu_xx(T/2) / 2) {T, omega1}_{E,c}, which
    follows from mu_p(x + T) - mu_p(x) = -T_p mu_x(x), or with slope 0
    where {T, omega1} = 0 within its bound (CLASS_DEGENERATE's case); the
    translation mode adds one to n_zero.

    mu_E and mu_c come from _momentum_derivatives on the Lobatto nodes in
    theta (crest to trough), with the target T / 2 of a fixed x and xi_p
    from one DCT-I of the invariants' complex-step table: no quadrature
    and no grid.  Two checks certify the count besides _neumann_count's
    refinement.  |v(T/2)| must exceed _TROUGH_MARGIN times the larger of
    its two terms (FDUnreliable otherwise), not a fraction of sup |v|,
    which at large b is 1e8 and more times v(T/2).  And the trough slope
    by a three-point one-sided difference on the accepted nodes,
    v_x = -v_theta / G at theta = 0, must match its closed form to
    _SLOPE_BOUND, relative to mu_xx(T/2) / 2 max(|{T, omega1}|, its bound)
    (RouteMismatch otherwise).
    """
    inv = restricted_invariants(params)
    J1, e1 = _T_omega1(inv)
    w1_E, w1_c = inv.grad_omega1[1], inv.grad_omega1[2]
    A_p, A_left, T_p = _map_derivatives(params)
    trough = None

    def sample(m: int) -> np.ndarray:
        nonlocal trough
        xi_p = 0.25 * np.pi * (_lobatto_values(A_p, m) - A_left[:, None])
        mu_p, G = _momentum_derivatives(params, _lobatto_theta(m), xi_p,
                                        0.5 * T_p[:, None])
        terms = w1_c * mu_p[1], w1_E * mu_p[2]
        trough = terms[0][-1], terms[1][-1], G[-1]
        return terms[0] - terms[1]

    half_muxx = 0.5 * _momentum(turning_point_data(params).phi_min, 0.0,
                                params)[2]
    n, z, zeros, m, v = _neumann_count(
        sample, 0.0 if abs(J1) <= e1 else -half_muxx * J1)

    term_E, term_c, G0 = trough
    if not abs(v[-1]) > _TROUGH_MARGIN * max(abs(term_E), abs(term_c)):
        raise FDUnreliable(
            f"kernel solution at the trough {v[-1]!r} is within "
            f"{_TROUGH_MARGIN!r} of its terms {term_E!r} and {term_c!r}")
    # the three-point one-sided difference at theta = 0 on the last nodes
    t1, t2 = _lobatto_theta(m)[-2:-4:-1]
    v_theta = (-(t1 + t2) / (t1 * t2) * v[-1] - t2 / (t1 * (t1 - t2)) * v[-2]
               - t1 / (t2 * (t2 - t1)) * v[-3])
    mismatch = (abs(v_theta / G0 - half_muxx * J1)
                / (half_muxx * max(abs(J1), e1)))
    if not mismatch <= _SLOPE_BOUND:
        raise RouteMismatch(
            f"trough slope of the kernel solution is off its closed form by "
            f"{mismatch!r} relative (bound {_SLOPE_BOUND!r})")
    return KernelInertia(
        n_neg=n, n_zero=z + 1, zeros=zeros, nodes=m + 1,
        trough_margin=abs(v[-1]) / max(abs(term_E), abs(term_c)),
        slope_mismatch=mismatch)


def _minor(g1: np.ndarray, g2: np.ndarray, i: int, j: int) -> float:
    return float(g1[i] * g2[j] - g1[j] * g2[i])


def proof_identities(profile: WaveProfile,
                     coeffs: OperatorCoefficients) -> ProofIdentityReport:
    """Verify the kernel-image identities satisfied by the parameter
    derivatives of the wave family, the quadratic-form identity for
    psi = {mu, T, F1}_{a,E,c}, and that L psi lies in span{dF1, dF2}.

    The parameter derivatives are quasi-periodic, so each is periodized
    with the exact compensator (T_p / T) x mu_x before the spectral
    operator is applied; the commutator correction is restored in closed
    form.

    The tangent check is exact: over m in the tangent space
    {dF1, dF2}^perp the supremum of |<L psi, m>| / (||L psi|| ||m||) is
    ||(I - P) L psi|| / ||L psi||, with P the L2 projection onto
    span{dF1, dF2}, and it is attained at m = (I - P) L psi.
    """
    params = profile.params
    fam = family_derivatives(profile)
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
    off_span = fourier.project_out(L_psi, (dF1, dF2))
    tangent = (fourier.l2_norm(off_span, T)
               / max(fourier.l2_norm(L_psi, T), 1e-300))

    return ProofIdentityReport(
        muE_residual=muE_res, muc_residual=muc_res,
        psi_identity_residual=psi_res, psi_quadform=quadform,
        psi_quadform_predicted=predicted, tangent_orthogonality=tangent,
        convention_scale=kappa)


def _complement_eigenvalues(B: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric B on the orthogonal complement of the
    columns of G: the trailing columns of a complete QR of their
    orthonormal basis (fourier.orthonormal_basis, which drops a column at
    or below 1e-14 of the largest, or one whose part off the earlier ones
    is that small)."""
    basis = fourier.orthonormal_basis(G)
    Z = np.linalg.qr(basis, mode="complete")[0][:, basis.shape[1]:]
    return np.linalg.eigvalsh(Z.T @ B @ Z)


def coercivity_probe(coeffs: OperatorCoefficients, profile: WaveProfile,
                     trials: int = 1000, seed: int = 0,
                     project: bool = True) -> ProbeReport:
    """Exact minimum of the H^1 Rayleigh quotient <L v, v> / ||v||_{H^1}^2
    over the trigonometric polynomials v of modes 0..M, M = N // 4, and the
    number of its negative stationary values.

    With project=True, v is held orthogonal to dF1/dm, dF2/dm and mu_x, the
    constrained subspace where coercivity is claimed; a strictly positive
    minimum certifies it on those modes.  The blocks C and S of
    _parity_blocks(coeffs, M) are scaled by K^(-1/2), K = diag(1 + kt^2) the
    H^1 Gram matrix of their bases (see the module docstring), and the
    constraints, as columns of their L2 coefficients in those bases scaled
    alike, are removed by one QR per block (_complement_eigenvalues): the
    even pair {dF1, dF2} from the cosine block and mu_x from the sine block.
    project=False skips the QR; n_negative is then the Hill matrix's count
    of negative eigenvalues at M modes (Sylvester).  It counts the values
    below -1e-8 max|lambda|, so that the translation mode's, which is
    rounding (|lambda| <= 5e-16 on the panel), is not.

    trials and seed are not read, since no direction is sampled; they
    remain because benchmarks/run.py passes them.
    """
    M = profile.N // 4
    C, S = _parity_blocks(coeffs, M)
    kt = 2.0 * np.pi * np.arange(M + 1) / coeffs.T
    scale = 1.0 / np.sqrt(1.0 + kt**2)
    cosine = C * np.outer(scale, scale)
    sine = S * np.outer(scale[1:], scale[1:])
    if project:
        # the constraints' L2 coefficients in the bases, scaled as the blocks
        b, n = profile.params.b, profile.N
        hat = np.fft.rfft(np.stack([
            delta_F1(profile.mu, b),
            delta_F2(profile.mu, profile.dmu, profile.d2mu, b),
            profile.dmu]))[:, :M + 1] * (scale * np.sqrt(2.0) / n)
        hat[:, 0] /= np.sqrt(2.0)
        evals = np.concatenate([
            _complement_eigenvalues(cosine, hat[:2].real.T),
            _complement_eigenvalues(sine, hat[2, 1:, None].imag)])
    else:
        evals = np.concatenate([np.linalg.eigvalsh(cosine),
                                np.linalg.eigvalsh(sine)])
    tol = 1e-8 * float(np.max(np.abs(evals)))
    return ProbeReport(min_quotient=float(np.min(evals)),
                       n_negative=int(np.sum(evals < -tol)), projected=project)
