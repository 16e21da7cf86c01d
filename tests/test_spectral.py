import numpy as np
import pytest

from bchwaves import (DiscretizationNotConverged, apply_operator,
                      assemble_operator, coercivity_probe,
                      equilibrium_profile, hill_matrix, kernel_residual,
                      multipliers, periodic_spectrum, proof_identities,
                      synthesize_profile)
from bchwaves import fourier
from bchwaves.invariants import delta_F1, delta_F2
from bchwaves.spectral import SECOND_VARIATION_SCALE, modes_to_grid


def _coercivity_probe_loop(coeffs, profile, trials, seed, project):
    """Oracle route for coercivity_probe: one direction at a time, each
    drawn separately from the same stream, with the full-spectrum H^1
    norm; returns (min_quotient, n_negative, trials)."""
    b, T, n = profile.params.b, profile.T, profile.N
    basis = fourier.orthonormalize((delta_F1(profile.mu, b),
                                    delta_F2(profile.mu, profile.dmu,
                                             profile.d2mu, b),
                                    profile.dmu), T)
    M = min(n // 4, 128)
    _, evecs = np.linalg.eigh(hill_matrix(coeffs, M))
    rng = np.random.default_rng(seed)
    candidates = [modes_to_grid(evecs[:, 0], coeffs), np.ones(n)]
    candidates += [fourier.random_smooth(n, rng, 1, n // 3)[0]
                   for _ in range(max(trials - 2, 0))]
    min_q, n_negative, evaluated = np.inf, 0, 0
    for m in candidates:
        if project:
            for u in basis:
                m = m - fourier.l2_inner(m, u, T) * u
        h1 = T * float(np.sum((1.0 + fourier.wavenumbers(n, T) ** 2)
                              * np.abs(np.fft.fft(m) / n) ** 2))
        if h1 <= 1e-20:
            continue
        evaluated += 1
        q = fourier.l2_inner(apply_operator(coeffs, m), m, T) / h1
        min_q = min(min_q, q)
        n_negative += int(q < 0.0)
    return min_q, n_negative, evaluated


def discrete_action_gradient(m, T, b, w1, w2):
    """Gradient of the grid-discretized action E - w1 F1 - w2 F2 (integrand
    level), with the F2 transport term handled by the antisymmetry of the
    spectral derivative.  Kept independent of the library's closed forms."""
    Dm = fourier.spectral_derivative(m, T, 1)
    g = 1.0 - w1 * (1.0 / b) * m ** (1.0 / b - 1.0)
    h_m = (-(2 * b + 1) / b**3 * Dm**2 * m ** (-1.0 / b - 3.0)
           - (1.0 / b) * m ** (-1.0 / b - 1.0))
    h_n = 2.0 * Dm * m ** (-1.0 / b - 2.0) / b**2
    return g - w2 * (h_m - fourier.spectral_derivative(h_n, T, 1))


def test_operator_matches_discrete_hessian(ref_params, ref_profile, ref_coeffs):
    """Strongest validation of the assembled coefficients: Hessian-vector
    products of the discretized action, scaled by the documented
    normalization, must reproduce the operator."""
    m = multipliers(ref_params)
    T, b = ref_profile.T, ref_params.b
    rng = np.random.default_rng(3)
    for v in fourier.random_smooth(ref_profile.N, rng, 3, ref_profile.N // 3):
        eps = 1e-6
        hv = (discrete_action_gradient(ref_profile.mu + eps * v, T, b, m.omega1, m.omega2)
              - discrete_action_gradient(ref_profile.mu - eps * v, T, b, m.omega1, m.omega2)
              ) / (2 * eps)
        lv = apply_operator(ref_coeffs, v)
        assert np.max(np.abs(lv - SECOND_VARIATION_SCALE * hv)) \
            < 1e-6 * np.max(np.abs(lv))


def test_gradient_vanishes_at_wave(ref_params, ref_profile):
    m = multipliers(ref_params)
    g = discrete_action_gradient(ref_profile.mu, ref_profile.T, ref_params.b,
                                 m.omega1, m.omega2)
    assert np.max(np.abs(g)) < 1e-7


def test_coefficients(ref_profile, ref_coeffs):
    assert np.all(ref_coeffs.p > 0)
    dp = fourier.spectral_derivative(ref_coeffs.p, ref_profile.T, 1)
    assert np.max(np.abs(ref_coeffs.q - dp)) < 1e-7 * np.max(np.abs(dp))
    assert np.allclose(ref_coeffs.symmetric_r, -ref_coeffs.r)


def test_equilibrium_coefficients():
    eq = equilibrium_profile(2.0, 0.1, 1.0, 128)
    coeffs = assemble_operator(eq)
    assert np.ptp(coeffs.p) == 0.0
    assert np.max(np.abs(coeffs.q)) == 0.0
    assert np.ptp(coeffs.symmetric_r) == 0.0


def test_constant_coefficient_spectrum_oracle():
    """Hill eigenvalues of the equilibrium operator must equal the symbol
    r0 + p0 (2 pi k / T)^2, each nonzero k doubly degenerate."""
    eq = equilibrium_profile(2.0, 0.1, 1.0, 128, T=3.7)
    coeffs = assemble_operator(eq)
    spec = periodic_spectrum(coeffs, M=16)
    k = 2 * np.pi * np.arange(17) / eq.T
    symbol = coeffs.symmetric_r[0] + coeffs.p[0] * k**2
    expected = np.sort(np.concatenate([[symbol[0]], np.repeat(symbol[1:], 2)]))
    assert np.max(np.abs(spec.eigenvalues - expected[:16])) < 1e-10


def test_kernel_residual(ref_coeffs):
    assert kernel_residual(ref_coeffs) < 1e-6


def test_trichotomy_reference(ref_coeffs):
    spec = periodic_spectrum(ref_coeffs)
    assert (spec.n_neg, spec.n_zero) == (1, 1)
    # translation eigenvalue sits within tau of zero
    assert np.min(np.abs(spec.eigenvalues)) <= spec.tau


def test_inertia_invariance(ref_params, ref_profile, ref_coeffs):
    s1 = periodic_spectrum(ref_coeffs, M=64)
    s2 = periodic_spectrum(ref_coeffs, M=128)
    assert (s1.n_neg, s1.n_zero) == (s2.n_neg, s2.n_zero)
    prof2 = synthesize_profile(ref_params, 256)
    s3 = periodic_spectrum(assemble_operator(prof2), M=64)
    assert (s3.n_neg, s3.n_zero) == (s1.n_neg, s1.n_zero)
    assert np.max(np.abs(s1.eigenvalues[:5] - s2.eigenvalues[:5])) < 1e-8


def test_unconverged_discretization_raises(ref_coeffs):
    with pytest.raises(DiscretizationNotConverged):
        periodic_spectrum(ref_coeffs, M=8)


def test_hill_matrix_size_guard(ref_coeffs):
    with pytest.raises(ValueError):
        hill_matrix(ref_coeffs, 400)


def test_proof_identities(ref_params, ref_profile, ref_coeffs):
    ids = proof_identities(ref_profile, coeffs=ref_coeffs)
    assert ids.muE_residual < 1e-4
    assert ids.muc_residual < 1e-4
    assert ids.psi_identity_residual < 1e-3
    assert ids.tangent_orthogonality < 1e-4
    assert ids.convention_scale == SECOND_VARIATION_SCALE
    # the form is negative exactly because the determinant product is
    # positive here (J2 < 0, J3 < 0)
    assert ids.psi_quadform < 0
    assert ids.psi_quadform_predicted < 0


def test_coercivity_probe(ref_profile, ref_coeffs):
    probe = coercivity_probe(ref_coeffs, ref_profile, trials=300, seed=1)
    assert probe.projected and probe.min_quotient > 0
    assert probe.n_negative == 0
    free = coercivity_probe(ref_coeffs, ref_profile, trials=300, seed=1,
                            project=False)
    assert free.min_quotient < 0 and free.n_negative >= 1


def test_kernel_direction_quotient(ref_profile, ref_coeffs):
    spec = periodic_spectrum(ref_coeffs)
    q = (fourier.l2_inner(apply_operator(ref_coeffs, ref_profile.dmu),
                          ref_profile.dmu, ref_profile.T)
         / fourier.h1_norm_sq(ref_profile.dmu, ref_profile.T))
    assert abs(q) <= spec.tau


@pytest.mark.parametrize("project", [True, False])
@pytest.mark.parametrize("trials", [1, 2, 300, 1000])
def test_block_probe_matches_loop(ref_profile, ref_coeffs, trials, project):
    probe = coercivity_probe(ref_coeffs, ref_profile, trials=trials, seed=4,
                             project=project)
    min_q, n_negative, evaluated = _coercivity_probe_loop(
        ref_coeffs, ref_profile, trials, 4, project)
    assert probe.trials == evaluated
    assert probe.n_negative == n_negative
    assert abs(probe.min_quotient - min_q) <= 1e-9 * abs(min_q)


def test_random_smooth_block_is_the_single_draw_stream():
    block = fourier.random_smooth(128, np.random.default_rng(9), 5, 42)
    rng = np.random.default_rng(9)
    singles = np.concatenate([fourier.random_smooth(128, rng, 1, 42)
                              for _ in range(5)])
    assert block.shape == (5, 128)
    assert np.array_equal(block, singles)
    assert np.allclose(np.max(np.abs(block), axis=-1), 1.0)


def test_h1_norm_sq_block_matches_full_spectrum(ref_profile):
    T = ref_profile.T
    for n in (128, 127):
        block = fourier.random_smooth(n, np.random.default_rng(2), 3, n // 3)
        full = [T * float(np.sum((1.0 + fourier.wavenumbers(n, T) ** 2)
                                 * np.abs(np.fft.fft(v) / n) ** 2)) for v in block]
        assert np.allclose(fourier.h1_norm_sq(block, T), full, rtol=1e-13, atol=0)
        assert fourier.h1_norm_sq(block[0], T) == pytest.approx(full[0], rel=1e-13)
