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
once per operator and mode count (a one-entry memo); periodic_spectrum
solves them, and their leading sub-blocks for its convergence check, and
the probe takes its ground state from C at M = N // 4 by inverse
iteration, shifted by the lowest eigenvalue of the spectrum's solve of C
(a one-entry memo beside the blocks).  The mode count is chosen here
alone: given none, periodic_spectrum climbs from M = 64 by doubling to
N // 4 and stops at the first M that passes its check.  The blocks are
graded, their diagonal growing like kt^2 toward the bottom right, so they
are solved from the upper triangle, whose tridiagonal reduction starts
from that corner: the lowest eigenvalue then agrees with a long-double
Rayleigh quotient to ~1e-14 relative, where the full matrix ordered -M..M
loses ~1e-12.  hill_matrix, the full matrix, stays as the reference the blocks
are tested against.  (A collocation product of grid differentiation
matrices is avoided deliberately: with even N its annihilated Nyquist mode
produces a spurious eigenvalue at mean(r).)

The coercivity probe's random directions depend only on the grid size N,
the seed and the trial count, not on the wave: _probe_directions draws them
and keeps their grid values and derivatives once per such triple (a
one-entry memo), so a run that probes many waves with one seed pays for the
draw and its inverse FFTs once, and each wave's probe is matrix products on
those grids plus one inverse FFT for its two fixed rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fourier
from .errors import CoefficientInconsistency, DiscretizationNotConverged
from .invariants import (Multipliers, delta_F1, delta_F2, family_derivatives,
                         multipliers, restricted_invariants)
from .profile import WaveProfile

SECOND_VARIATION_SCALE = -0.5
# rows per block of probe directions; bounds the probe's working memory
_PROBE_BLOCK = 64


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


def assemble_operator(profile: WaveProfile) -> OperatorCoefficients:
    """Closed-form coefficients, with self-adjointness (q = p') asserted
    against a spectral derivative of p."""
    b = profile.params.b
    mults = multipliers(profile.params)
    mu, mux = profile.mu, profile.dmu
    s = 1.0 / b
    w2 = mults.omega2

    p = w2 / (b**2 * mu ** (2.0 + s))
    q = -w2 * (2.0 * b + 1.0) * mux / (b**3 * mu ** (3.0 + s))
    symmetric_r = -0.5 * _raw_hessian_r(profile, mults)

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
    hill_matrix(coeffs, M) (see the module docstring).  Their leading
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
    C.setflags(write=False)
    S.setflags(write=False)
    return C, S


# one entry, like the blocks: the spectrum's solve of C gives the probe's
# ground state its shift
@lru_cache(maxsize=1)
def _cosine_eigenvalues(coeffs: OperatorCoefficients, M: int) -> np.ndarray:
    """Read-only sorted eigenvalues of the cosine block of
    _parity_blocks(coeffs, M), solved from the upper triangle."""
    w = np.linalg.eigvalsh(_parity_blocks(coeffs, M)[0], UPLO="U")
    w.setflags(write=False)
    return w


def _ground_state(coeffs: OperatorCoefficients, M: int) -> tuple[float, np.ndarray]:
    """Lowest periodic eigenvalue over modes -M..M and its eigenfunction as
    rfft coefficients on the coefficient grid, L2-normalized.

    The ground state is simple and free of zeros, hence even: it is the
    lowest eigenvector of the cosine block C.  Two steps of inverse
    iteration with C shifted by its lowest eigenvalue, from the constant
    mode (which a zero-free ground state does not annihilate), give it to
    rounding, since the shift sits ~1e-14 relative from that eigenvalue
    and far from the next.
    """
    C = _parity_blocks(coeffs, M)[0]
    lam = float(_cosine_eigenvalues(coeffs, M)[0])
    shifted = C - lam * np.eye(M + 1)
    g = np.zeros(M + 1)
    g[0] = 1.0
    for _ in range(2):
        g = np.linalg.solve(shifted, g)
        g /= np.linalg.norm(g)
    n = coeffs.p.shape[0]
    ground = np.zeros(n // 2 + 1, dtype=complex)
    ground[:M + 1] = g * (n / np.sqrt(2.0 * coeffs.T))
    ground[0] *= np.sqrt(2.0)
    return lam, ground


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


def _mode_ladder(n: int) -> tuple[int, ...]:
    """Hill mode counts periodic_spectrum tries, in order, when none is
    given for an n-point grid: 64, 128, ... below n // 4, then n // 4 (for
    n < 256, n // 4 alone)."""
    top = n // 4
    rungs = []
    M = 64
    while M < top:
        rungs.append(M)
        M *= 2
    return (*rungs, top)


def _block_eigenvalues(C: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of the Hill matrix with parity blocks C and S."""
    return np.sort(np.concatenate([np.linalg.eigvalsh(C, UPLO="U"),
                                   np.linalg.eigvalsh(S, UPLO="U")]))


def periodic_spectrum(coeffs: OperatorCoefficients, M: int | None = None) -> SpectralReport:
    """Sorted periodic eigenvalues and the inertia counts, from the parity
    blocks of the Hill matrix.

    Convergence is certified by halving the mode count: the lowest five
    eigenvalues at M must agree with those at M // 2.  An explicit M is the
    one mode count tried.  With M=None the counts of _mode_ladder are tried
    in turn, each checked against the one below it, and the first that
    passes is reported; the last refuses like an explicit M.  The zero
    tolerance scales with the achieved kernel residual so that a genuinely
    degenerate pair is reported as such rather than silently split.
    """
    rungs = _mode_ladder(coeffs.p.shape[0]) if M is None else (M,)
    # the check compares the lowest five eigenvalues with the 2(M//2) + 1 at
    # M//2, so it needs M >= 4
    if rungs[0] < 4:
        raise ValueError(f"Hill mode count must be at least 4, got {rungs[0]}")
    scale = operator_scale(coeffs)
    below = None
    for M in rungs:
        C, S = _parity_blocks(coeffs, M)
        evals = np.sort(np.concatenate([_cosine_eigenvalues(coeffs, M),
                                        np.linalg.eigvalsh(S, UPLO="U")]))
        if below is None:
            below = _block_eigenvalues(C[:M // 2 + 1, :M // 2 + 1],
                                       S[:M // 2, :M // 2])
        move = float(np.max(np.abs(evals[:5] - below[:5])))
        if move <= 1e-6 * max(scale, 1.0):
            break
        # the rungs double, so this rung is the next one's half
        below = evals
    else:
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
    tangent_basis = fourier.orthonormalize((dF1, dF2), T)
    off_span = fourier.project_out(L_psi, tangent_basis, T)
    tangent = (fourier.l2_norm(off_span, T)
               / max(fourier.l2_norm(L_psi, T), 1e-300))

    return ProofIdentityReport(
        muE_residual=muE_res, muc_residual=muc_res,
        psi_identity_residual=psi_res, psi_quadform=quadform,
        psi_quadform_predicted=predicted, tangent_orthogonality=tangent,
        convention_scale=kappa)


# one entry: the probe's random directions depend on the grid, the seed and
# the trial count, not on the wave, so successive points share their grids
@lru_cache(maxsize=1)
def _probe_directions(n: int, seed: int, count: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Read-only grids, shape (count, 2n), of the probe's count random
    directions, and each one's sup norm.  Row i is [v_i, v_i'] with v_i' the
    derivative at unit wavenumber spacing: the irfft of the coefficients c_i
    of fourier.random_smooth_coeffs from a fresh default_rng(seed) on the
    modes below n/3, where they are non-zero, and of 1j k c_i.  They are
    drawn and transformed _PROBE_BLOCK rows at a time from one generator,
    which gives the same rows as one draw of all count."""
    kmax = n // 3
    rng = np.random.default_rng(seed)
    grids = np.empty((count, 2 * n))
    sup = np.empty(count)
    ik = 1j * np.arange(kmax)
    for start in range(0, count, _PROBE_BLOCK):
        rows = grids[start:start + _PROBE_BLOCK]
        c = fourier.random_smooth_coeffs(rng, len(rows), kmax)
        np.fft.irfft(np.stack([c, ik * c], axis=1), n=n,
                     out=rows.reshape(len(rows), 2, n))
        sup[start:start + len(rows)] = np.max(np.abs(rows[:, :n]), axis=-1)
    grids.setflags(write=False)
    sup.setflags(write=False)
    return grids, sup


def coercivity_probe(coeffs: OperatorCoefficients, profile: WaveProfile,
                     trials: int = 1000, seed: int = 0,
                     project: bool = True) -> ProbeReport:
    """Minimum H^1 Rayleigh quotient of the operator over smooth directions.

    The candidates are the spectral ground state (from the Hill cosine
    block, see _ground_state), the constant direction, and random smooth
    fields from fourier.random_smooth_coeffs, trials in all; an
    unconstrained probe (project=False) therefore reliably finds the
    negative direction.  With project=True each candidate is first
    projected onto the orthogonal complement of {dF1/dm, dF2/dm, mu_x},
    the constrained subspace where coercivity is claimed; a strictly
    positive minimum certifies it at probe resolution only.  The random
    fields depend only on (N, seed, trials), so their grids are built once
    per such triple (_probe_directions) and shared by every wave probed
    with it; a probe transforms only the two fixed rows (and, projecting,
    the derivatives of the basis), in one inverse FFT.

    Every candidate is a grid row [v, v'/s]: its values, and its derivative
    at unit wavenumber spacing (s = 2 pi / T).  The projection acts on
    both halves at once through the rows [u, u'/s] of the basis, and the
    quotient is formed on the grid by one product with the (2N, 2) weights
    W = (T/N) [[1, symmetric_r], [s^2, s^2 p]] of the squared row:

        ||v||_{H^1}^2 = (T/N) sum(v^2 + v'^2),
        <L v, v> = (T/N) sum(p v'^2 + symmetric_r v^2),

    which equals <apply_operator(v), v> because the spectral derivative is
    skew-adjoint in the grid inner product.  Rows go in blocks of
    _PROBE_BLOCK.  Each counts as scaled to unit sup norm before
    projection; the quotient does not see the scale, so only the skip of
    rows with ||v||_{H^1}^2 <= 1e-20 uses it.
    """
    b, T, n = profile.params.b, profile.T, profile.N
    s = 2.0 * np.pi / T
    # derivative symbol at unit spacing, Nyquist zeroed as in
    # fourier.spectral_derivative
    k = np.arange(n // 2 + 1)
    unit_deriv = 1j * np.where(2 * k == n, 0, k)

    # one inverse FFT: the ground state and its derivative, the constant
    # and its (zero) derivative, then the basis derivatives
    spec = np.zeros((7 if project else 4, n // 2 + 1), dtype=complex)
    spec[0] = _ground_state(coeffs, n // 4)[1]
    spec[1] = spec[0] * unit_deriv
    spec[2, 0] = n  # the constant direction
    if project:
        dF1 = delta_F1(profile.mu, b)
        dF2 = delta_F2(profile.mu, profile.dmu, profile.d2mu, b)
        basis = np.array(fourier.orthonormalize((dF1, dF2, profile.dmu), T))
        spec[4:] = np.fft.rfft(basis) * unit_deriv
    grids = np.fft.irfft(spec, n=n)
    fixed = grids[:4].reshape(2, 2 * n)
    if project:
        rows_basis = np.hstack([basis, grids[4:]])
    drawn, drawn_sup = _probe_directions(n, seed, max(trials - len(fixed), 0))

    W = np.empty((2 * n, 2))
    W[:n, 0] = 1.0
    W[:n, 1] = coeffs.symmetric_r
    W[n:, 0] = s * s
    W[n:, 1] = (s * s) * coeffs.p
    W *= T / n

    blocks = [(fixed, np.max(np.abs(fixed[:, :n]), axis=-1))]
    blocks += [(drawn[i:i + _PROBE_BLOCK], drawn_sup[i:i + _PROBE_BLOCK])
               for i in range(0, len(drawn), _PROBE_BLOCK)]
    # reused by every block: allocating it per block made the probe ~1.4x slower
    buf = np.empty((_PROBE_BLOCK, 2 * n))
    min_q = np.inf
    n_negative = 0
    evaluated = 0
    for G, sup in blocks:
        X = buf[:len(G)]
        if project:
            coef = fourier.projection_coefficients(G[:, :n], basis, T)
            np.matmul(coef, rows_basis, out=X)
            np.subtract(G, X, out=X)
            X *= X
        else:
            np.multiply(G, G, out=X)
        h1, quad = (X @ W).T
        keep = h1 > 1e-20 * sup**2
        q = quad[keep] / h1[keep]
        evaluated += q.size
        if q.size:
            min_q = min(min_q, float(np.min(q)))
            n_negative += int(np.sum(q < 0.0))
    return ProbeReport(min_quotient=float(min_q), n_negative=n_negative,
                       trials=evaluated, projected=project)
