import dataclasses

import numpy as np
import pytest
import scipy.linalg

from bchwaves import (CoefficientInconsistency, DiscretizationNotConverged,
                      RouteMismatch, WaveParameters, apply_operator,
                      assemble_operator, critical_points, family_derivatives,
                      multipliers, parameter_jacobians, proof_identities,
                      restricted_invariants, synthesize_profile,
                      theta_spectrum)
from bchwaves import fourier, spectral
from bchwaves.cli import main
from bchwaves.invariants import delta_F1, delta_F2
from bchwaves.spectral import (IDENTITY_BOUNDS, SECOND_VARIATION_SCALE,
                               _block_eigenvalues, _parity_blocks,
                               coercivity_probe, hill_matrix, kernel_residual,
                               operator_scale, periodic_spectrum)

from state_oracle import equilibrium_profile, gram_schmidt, wavenumbers


def _wave(point: dict) -> WaveParameters:
    return WaveParameters(b=point["b"], a=point["a"], E=point["E"],
                          c=point["c"])


def modes_to_grid(vec, coeffs):
    """Oracle: a mode-space eigenvector of hill_matrix over modes -M..M
    evaluated on the coefficient grid by a dense exponential sum (real
    part, L2-normalized)."""
    M = (vec.shape[0] - 1) // 2
    kt = 2.0 * np.pi * np.arange(-M, M + 1) / coeffs.T
    waves = np.exp(1j * np.outer(coeffs.x, kt))
    v = np.real(waves @ vec)
    nrm = fourier.l2_norm(v, coeffs.T)
    if nrm == 0.0:
        v = np.imag(waves @ vec)
        nrm = fourier.l2_norm(v, coeffs.T)
    return v / nrm


def _coercivity_probe_loop(coeffs, profile, trials, seed, project):
    """Sampled oracle for coercivity_probe: the H^1 quotient of trials
    directions, one at a time, with the full-spectrum H^1 norm: the Hill
    ground state over modes -N//4..N//4, the constant, and random smooth
    fields on modes below N/3, each drawn separately from one stream;
    returns (min_quotient, n_negative).  Its minimum is an upper
    bound of the exact one, up to the modes above N//4 that it reaches."""
    b, T, n = profile.params.b, profile.T, profile.N
    basis = gram_schmidt((delta_F1(profile.mu, b),
                          delta_F2(profile.mu, profile.dmu, profile.d2mu, b),
                          profile.dmu), T)
    _, evecs = np.linalg.eigh(hill_matrix(coeffs, n // 4))
    rng = np.random.default_rng(seed)
    candidates = [modes_to_grid(evecs[:, 0], coeffs), np.ones(n)]
    candidates += [fourier.random_smooth(n, rng, 1, n // 3)[0]
                   for _ in range(max(trials - 2, 0))]
    min_q, n_negative = np.inf, 0
    for m in candidates:
        if project:
            for u in basis:
                m = m - fourier.l2_inner(m, u, T) * u
        h1 = T * float(np.sum((1.0 + wavenumbers(n, T) ** 2)
                              * np.abs(np.fft.fft(m) / n) ** 2))
        if h1 <= 1e-20:
            continue
        q = fourier.l2_inner(apply_operator(coeffs, m), m, T) / h1
        min_q = min(min_q, q)
        n_negative += int(q < 0.0)
    return min_q, n_negative


def _sampled_tangent_orthogonality(profile, coeffs, trials=16, seed=0):
    """Oracle route for the tangent check of proof_identities: the largest
    |<L psi, m>| / (||L psi|| ||m||) over trials random smooth directions m
    on modes below N/3, each projected onto {dF1, dF2}^perp."""
    T, b = profile.T, profile.params.b
    inv = restricted_invariants(profile.params)
    fam = family_derivatives(profile)
    gT, gF = inv.grad_T, inv.grad_F1
    psi = (fam.mu_a * (gT[1] * gF[2] - gT[2] * gF[1])
           - fam.mu_E * (gT[0] * gF[2] - gT[2] * gF[0])
           + fam.mu_c * (gT[0] * gF[1] - gT[1] * gF[0]))
    L_psi = apply_operator(coeffs, psi)
    basis = gram_schmidt((delta_F1(profile.mu, b),
                          delta_F2(profile.mu, profile.dmu, profile.d2mu, b)),
                         T)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for m in fourier.random_smooth(profile.N, rng, trials, profile.N // 3):
        for u in basis:
            m = m - fourier.l2_inner(m, u, T) * u
        worst = max(worst, abs(fourier.l2_inner(L_psi, m, T))
                    / (fourier.l2_norm(L_psi, T) * fourier.l2_norm(m, T)))
    return worst


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
    spec = periodic_spectrum(ref_coeffs, M=64)
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


@pytest.mark.parametrize("row, M", [(None, 64), (2, 128)])
def test_ladder_stops_at_first_converged_rung(reference_points, ref_params,
                                              row, M):
    """On the mode counts 64, 128 at N = 512, the halving check passes
    first at M = 64 for the reference wave, and at M = 128 for README
    sweep row 2, whose check fails at 64; both with inertia (1, 1)."""
    params = ref_params
    if row is not None:
        params = _wave(reference_points["sweep"][row])
    coeffs = assemble_operator(synthesize_profile(params, 512))
    spec = periodic_spectrum(coeffs, M=M)
    assert spec.M == M and spec.eigenvalues.shape == (M,)
    assert (spec.n_neg, spec.n_zero) == (1, 1)
    if M > 64:
        with pytest.raises(DiscretizationNotConverged, match="from 32$"):
            periodic_spectrum(coeffs, M=M // 2)


def test_ladder_refuses_at_its_top_rung(reference_points):
    """README sweep row 5 fails the halving check at M = 128 = N // 4, the
    largest mode count of an N = 512 grid."""
    coeffs = assemble_operator(synthesize_profile(
        _wave(reference_points["sweep"][5]), 512))
    with pytest.raises(DiscretizationNotConverged, match="from 64$"):
        periodic_spectrum(coeffs, M=128)


@pytest.mark.parametrize("M", [1, 2, 3])
def test_spectrum_refuses_fewer_than_four_modes(ref_coeffs, M):
    """The halving check needs five eigenvalues at M // 2."""
    with pytest.raises(ValueError, match="mode count"):
        periodic_spectrum(ref_coeffs, M=M)


def test_hill_matrix_size_guard(ref_coeffs):
    with pytest.raises(ValueError):
        hill_matrix(ref_coeffs, 400)


def test_proof_identities(ref_params, ref_profile, ref_coeffs):
    ids = proof_identities(ref_profile, coeffs=ref_coeffs)
    for name, bound in IDENTITY_BOUNDS.items():
        assert getattr(ids, name) < bound, name
    assert ids.convention_scale == SECOND_VARIATION_SCALE
    # the form is negative exactly because the determinant product is
    # positive here (J2 < 0, J3 < 0)
    assert ids.psi_quadform < 0
    assert ids.psi_quadform_predicted < 0


def test_tangent_check_is_exact(ref_profile, ref_coeffs):
    """The tangent check is the supremum over the tangent space, so it is
    at least what sampled directions see, and it sees a defect of the
    operator on mode 200, which the sampled directions (modes below
    N/3 = 170) miss."""
    clean = proof_identities(ref_profile, ref_coeffs).tangent_orthogonality
    sampled = _sampled_tangent_orthogonality(ref_profile, ref_coeffs)
    assert clean >= sampled

    r = ref_coeffs.symmetric_r
    high = 1e-6 * np.max(np.abs(r)) * np.cos(
        2.0 * np.pi * 200 * ref_coeffs.x / ref_coeffs.T)
    corrupt = dataclasses.replace(ref_coeffs, symmetric_r=r + high)
    defect = proof_identities(ref_profile, corrupt).tangent_orthogonality
    assert defect > 1e3 * clean
    assert _sampled_tangent_orthogonality(ref_profile, corrupt) < 10 * sampled


def test_coercivity_probe(ref_profile, ref_coeffs):
    """Constrained, the minimum is positive with no negative value;
    unconstrained, the one negative direction shows.  trials and seed are
    not read."""
    probe = coercivity_probe(ref_coeffs, ref_profile, trials=300, seed=1)
    assert probe.projected
    assert probe.min_quotient == pytest.approx(0.0245022358217625, rel=1e-12)
    assert probe.n_negative == 0
    assert coercivity_probe(ref_coeffs, ref_profile, trials=5, seed=9) == probe
    free = coercivity_probe(ref_coeffs, ref_profile, trials=300, seed=1,
                            project=False)
    assert free.min_quotient < 0 and free.n_negative == 1


def test_kernel_direction_quotient(ref_profile, ref_coeffs):
    spec = periodic_spectrum(ref_coeffs, M=64)
    q = (fourier.l2_inner(apply_operator(ref_coeffs, ref_profile.dmu),
                          ref_profile.dmu, ref_profile.T)
         / fourier.h1_norm_sq(ref_profile.dmu, ref_profile.T))
    assert abs(q) <= spec.tau


@pytest.mark.parametrize("project", [True, False])
@pytest.mark.parametrize("trials", [1, 2, 64, 65, 66, 67, 130, 300, 1000])
def test_block_probe_matches_loop(ref_profile, ref_coeffs, trials, project):
    """The probe against the sampled loop at each trial count: the loop
    never reads below the exact minimum, and unconstrained both see the
    negative direction, the loop from its first candidate on."""
    probe = coercivity_probe(ref_coeffs, ref_profile, trials=trials, seed=4,
                             project=project)
    min_q, n_negative = _coercivity_probe_loop(
        ref_coeffs, ref_profile, trials, 4, project)
    assert probe.min_quotient <= min_q
    if project:
        assert probe.n_negative == n_negative == 0
    else:
        assert probe.n_negative == 1 and n_negative >= 1


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
        full = [T * float(np.sum((1.0 + wavenumbers(n, T) ** 2)
                                 * np.abs(np.fft.fft(v) / n) ** 2)) for v in block]
        assert np.allclose(fourier.h1_norm_sq(block, T), full, rtol=1e-13, atol=0)
        assert fourier.h1_norm_sq(block[0], T) == pytest.approx(full[0], rel=1e-13)


@pytest.fixture(scope="module")
def panel_operators(reference_points):
    """Profile and operator coefficients (N = 512) at the 13 certify-panel
    points."""
    out = []
    for point in reference_points["panel"]:
        prof = synthesize_profile(WaveParameters(point["b"], point["a"],
                                                 point["E"], point["c"]), 512)
        out.append((prof, assemble_operator(prof)))
    return out


@pytest.mark.parametrize("project", [True, False])
def test_block_probe_matches_loop_on_panel(panel_operators, project):
    """At the 13 panel points the sampled loop at 1000 trials never reads
    below the exact minimum."""
    for prof, coeffs in panel_operators:
        probe = coercivity_probe(coeffs, prof, project=project)
        min_q = _coercivity_probe_loop(coeffs, prof, 1000, 3, project)[0]
        assert probe.min_quotient <= min_q


def _galerkin_minimum(coeffs, profile, project):
    """Independent oracle for coercivity_probe: the Galerkin matrices A of
    <L u, v> and K of the H^1 inner product on 1, cos(kt x), sin(kt x),
    k = 1..N//4, by grid quadrature of their closed-form derivatives, the
    constraint null space by scipy.linalg.null_space, and the pencil's
    eigenvalues by scipy.linalg.eigh."""
    T, x, n = coeffs.T, coeffs.x, profile.N
    kt = 2.0 * np.pi * np.arange(1, n // 4 + 1) / T
    phase = np.outer(kt, x)
    basis = np.vstack([np.ones(n), np.cos(phase), np.sin(phase)])
    deriv = np.vstack([np.zeros(n), -kt[:, None] * np.sin(phase),
                       kt[:, None] * np.cos(phase)])
    w = T / n
    A = w * ((deriv * coeffs.p) @ deriv.T + (basis * coeffs.symmetric_r) @ basis.T)
    K = w * (basis @ basis.T + deriv @ deriv.T)
    if project:
        b = profile.params.b
        constraints = np.stack([delta_F1(profile.mu, b),
                                delta_F2(profile.mu, profile.dmu,
                                         profile.d2mu, b), profile.dmu])
        Z = scipy.linalg.null_space(w * constraints @ basis.T)
        A, K = Z.T @ A @ Z, Z.T @ K @ Z
    return scipy.linalg.eigh(A, K, eigvals_only=True)


@pytest.mark.parametrize("project", [True, False])
def test_probe_matches_galerkin_oracle(panel_operators, ref_profile,
                                       ref_coeffs, project):
    """At the reference wave and the 13 panel points the probe's minimum
    is the oracle's lowest eigenvalue to 1e-12 relative: constrained it is
    positive with no negative value, unconstrained negative with one."""
    for prof, coeffs in [(ref_profile, ref_coeffs), *panel_operators]:
        probe = coercivity_probe(coeffs, prof, project=project)
        want = _galerkin_minimum(coeffs, prof, project)[0]
        assert abs(probe.min_quotient - want) <= 1e-12 * abs(want)
        if project:
            assert probe.min_quotient > 0 and probe.n_negative == 0
        else:
            assert probe.min_quotient < 0 and probe.n_negative == 1


def test_probe_inertia_is_the_hill_inertia(panel_operators, ref_profile,
                                           ref_coeffs):
    """The H^1 scaling is a congruence, so by Sylvester's law of inertia the
    unconstrained count is the Hill matrix's at M = N // 4, where the
    translation mode's scaled eigenvalue is rounding, inside the zero
    tolerance.  The constrained minimum has no kernel: it clears that
    tolerance, 1e-8 of the largest value, by far."""
    for prof, coeffs in [(ref_profile, ref_coeffs), *panel_operators]:
        free = coercivity_probe(coeffs, prof, project=False)
        assert free.n_negative == periodic_spectrum(coeffs, M=128).n_neg == 1
        values = _galerkin_minimum(coeffs, prof, project=True)
        assert values[0] > 1e-6 * np.max(np.abs(values))


def test_probe_drops_dependent_and_vanishing_constraints():
    """At an equilibrium dF1 and dF2 are constants, so one of them is
    dependent, and mu_x vanishes: the constrained minimum is the quotient
    r0 + p0 kt^2 over 1 + kt^2 of mode 1, the unconstrained one that of
    mode 0."""
    eq = equilibrium_profile(2.0, 0.1, 1.0, 128, T=3.7)
    coeffs = assemble_operator(eq)
    kt = 2.0 * np.pi * np.arange(2) / eq.T
    quotient = (coeffs.symmetric_r[0] + coeffs.p[0] * kt**2) / (1.0 + kt**2)
    probe = coercivity_probe(coeffs, eq)
    assert probe.min_quotient == pytest.approx(quotient[1], rel=1e-12)
    assert probe.n_negative == 0
    free = coercivity_probe(coeffs, eq, project=False)
    assert free.min_quotient == pytest.approx(quotient[0], rel=1e-12)
    assert quotient[0] < 0 and free.n_negative == 1


@pytest.mark.parametrize("project", [True, False])
@pytest.mark.parametrize("trials", [300, 1000])
def test_probe_transforms_only_its_fixed_rows(ref_profile, ref_coeffs,
                                              monkeypatch, trials, project):
    """With the parity blocks' memo warm, a probe makes one forward FFT,
    of its three constraint rows, when it projects, and none otherwise;
    it makes no inverse FFT."""
    coercivity_probe(ref_coeffs, ref_profile, trials=trials, seed=1,
                     project=project)
    calls = []
    for name in ("rfft", "irfft"):
        transform = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name,
                            lambda *args, _t=transform, _n=name, **kwargs:
                            calls.append(_n) or _t(*args, **kwargs))
    coercivity_probe(ref_coeffs, ref_profile, trials=trials, seed=1,
                     project=project)
    assert calls == (["rfft"] if project else [])


@pytest.mark.parametrize("M", [16, 64, 128])
def test_parity_blocks_match_full_hill_matrix(panel_operators, ref_profile,
                                              ref_coeffs, M):
    """The cosine and sine blocks together against the full Hill matrix over
    modes -M..M at the 13 panel points and the reference wave: the lowest
    M eigenvalues (the range periodic_spectrum reports; the top of the
    spectrum sits at ~1e4 op_scale, where both solves round at
    eps ||H||), and the inertia counts at periodic_spectrum's zero
    tolerance."""
    for prof, coeffs in [*panel_operators, (ref_profile, ref_coeffs)]:
        full = np.linalg.eigvalsh(hill_matrix(coeffs, M))
        blocks = _block_eigenvalues(*_parity_blocks(coeffs, M))
        scale = operator_scale(coeffs)
        assert blocks.shape == full.shape
        assert np.max(np.abs(blocks[:M] - full[:M])) <= 1e-11 * scale
        tau = max(1e-8 * scale, 10.0 * kernel_residual(coeffs))
        assert np.sum(blocks < -tau) == np.sum(full < -tau)
        assert np.sum(np.abs(blocks) <= tau) == np.sum(np.abs(full) <= tau)


def test_lowest_eigenvalue_to_rounding():
    """At a graded panel point the lowest eigenvalue at M = 128 agrees with
    the long-double Rayleigh quotient of the full Hill matrix at its
    eigenvector to 1e-13 relative; the full matrix's own eigvalsh, which
    reduces it from the low modes, is off by ~1e-12."""
    params = WaveParameters(b=4.0, a=0.4938981104340343,
                            E=-0.2110995509239468, c=1.9508178180982396)
    coeffs = assemble_operator(synthesize_profile(params, 512))
    lam = periodic_spectrum(coeffs, M=128).eigenvalues[0]
    H = hill_matrix(coeffs, 128)
    v = np.linalg.eigh(H)[1][:, 0].astype(np.longdouble)
    rq = float(v @ (H.astype(np.longdouble) @ v) / (v @ v))
    assert abs(lam - rq) <= 1e-13 * abs(rq)


def test_one_hill_build_per_operator(ref_profile, ref_coeffs, monkeypatch):
    """The spectrum at M = 128 and the probe at N = 512 share one pair of
    parity blocks; the full Hill matrix is never built."""
    built = []
    monkeypatch.setattr(spectral, "hill_matrix",
                        lambda *args: built.append(args))
    periodic_spectrum(ref_coeffs, M=128)
    coercivity_probe(ref_coeffs, ref_profile, trials=16)
    assert _parity_blocks.cache_info().misses == 1
    assert built == []


def test_one_cosine_block_solve_per_operator(ref_profile, ref_coeffs,
                                            monkeypatch):
    """The spectrum solves each parity block and each leading sub-block
    once; the probe solves only its two constrained, scaled blocks, one
    constraint pair smaller in the cosine block and one in the sine
    block."""
    sizes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a, **kw: sizes.append(a.shape[0]) or eigvalsh(a, **kw))
    periodic_spectrum(ref_coeffs, M=128)
    coercivity_probe(ref_coeffs, ref_profile, trials=16)
    assert sizes == [129, 128, 65, 64, 127, 127]
    assert _parity_blocks.cache_info().misses == 1


def test_parity_blocks_memo(ref_profile, ref_coeffs):
    C, S = _parity_blocks(ref_coeffs, 64)
    assert C.shape == (65, 65) and S.shape == (64, 64)
    assert _parity_blocks(ref_coeffs, 64)[0] is C
    for block in (C, S):
        with pytest.raises(ValueError):
            block[0, 0] = 0.0
    # another operator object with equal coefficients has its own blocks
    twin = assemble_operator(ref_profile)
    assert twin != ref_coeffs
    assert _parity_blocks(twin, 64)[0] is not C
    assert np.array_equal(_parity_blocks(twin, 64)[0], C)
    with pytest.raises(ValueError):
        _parity_blocks(ref_coeffs, 400)


# ---------------------------------------------------------------------------
# Hill's method in theta, against the grid route as its oracle
# ---------------------------------------------------------------------------

# the README-grid rows of the benchmark reference that the grid route leaves
# unconverged at N = 512: at M = 64 (against 32), and at M = 128 = N // 4
# (against 64)
GRID_UNCONVERGED_64 = (2, 3, 4, 5, 6, 7, 8, 12, 13, 14, 15, 16, 17, 23, 24,
                       25, 26, 33, 34, 35, 44)
GRID_UNCONVERGED_128 = (5, 6, 7, 8, 16, 17)


def _theta_points(reference_points, ref_params):
    """The 86 points (the reference wave, the 13 panel points and the 72
    README sweep rows), each with its sweep row index (None off the
    sweep) and the inertia {T, omega1} calls for."""
    yield ref_params, None, (1, 1)
    rows = [(p, None) for p in reference_points["panel"]]
    rows += [(p, i) for i, p in enumerate(reference_points["sweep"])]
    for point, row in rows:
        J1 = float(point["J_T_omega1"])
        yield _wave(point), row, (1, 1) if J1 > 0.0 else (2, 1)


def _assert_grid_failure_set(reference_points, modes, unconverged):
    """Every README sweep row through the grid route at N = 512: exactly
    the given rows fail, all with DiscretizationNotConverged, and every
    other row has one negative direction and a simple kernel."""
    failed = []
    for i, point in enumerate(reference_points["sweep"]):
        coeffs = assemble_operator(synthesize_profile(_wave(point), 512))
        try:
            spec = periodic_spectrum(coeffs, M=modes)
        except DiscretizationNotConverged:
            failed.append(i)
            continue
        assert (spec.n_neg, spec.n_zero) == (1, 1)
    assert tuple(failed) == unconverged


def test_grid_failure_set_at_64_modes(reference_points):
    """At M = 64, the rows of GRID_UNCONVERGED_64 fail."""
    _assert_grid_failure_set(reference_points, 64, GRID_UNCONVERGED_64)


def test_grid_failure_set_at_128_modes(reference_points):
    """At M = 128, only the rows of GRID_UNCONVERGED_128 fail."""
    _assert_grid_failure_set(reference_points, 128, GRID_UNCONVERGED_128)


def _grid_spectrum(params):
    """The grid oracle at N = 512: M = 64, else M = 128.  Its M = 128 check
    compares against the M = 64 blocks, which are the leading sub-blocks."""
    coeffs = assemble_operator(synthesize_profile(params, 512))
    try:
        return periodic_spectrum(coeffs, M=64)
    except DiscretizationNotConverged:
        return periodic_spectrum(coeffs, M=128)


def test_theta_spectrum_matches_grid(reference_points, ref_params):
    """At the 86 points the theta route gives the inertia {T, omega1} calls
    for; wherever the grid oracle (_grid_spectrum) converges, it has the
    grid's inertia and its lowest five eigenvalues agree with the grid's to
    1e-10 max(scale, 1).  The rows the grid refuses converge in theta, at
    K <= 128, with inertia (1, 1).  The translation mode's eigenvalue is
    rounding: at most 1e-13 max(scale, 1)."""
    grid_refused = []
    for params, row, inertia in _theta_points(reference_points, ref_params):
        theta = theta_spectrum(params)
        bound = max(theta.op_scale, 1.0)
        assert (theta.n_neg, theta.n_zero) == inertia, params
        assert theta.kernel_residual <= 1e-13 * bound
        assert theta.M <= 128
        try:
            grid = _grid_spectrum(params)
        except DiscretizationNotConverged:
            grid_refused.append(row)
            continue
        assert (grid.n_neg, grid.n_zero) == inertia
        assert (np.max(np.abs(theta.eigenvalues[:5] - grid.eigenvalues[:5]))
                <= 1e-10 * bound), params
    assert tuple(grid_refused) == GRID_UNCONVERGED_128


def _theta_block_eigenvalues(params, K):
    """Sorted eigenvalues of the cosine and the sine block at K modes, each
    sampled as theta_spectrum's rung K samples it, and the largest
    eigenvalue magnitude."""
    p, symmetric_r, G, _, _ = spectral._theta_samples(params, 4 * K)
    cosine, sine = spectral._theta_blocks(spectral._cosine_moments(
        np.stack([p / G, G * symmetric_r, G]), 2 * K + 1), K)
    blocks = (np.linalg.eigvalsh(cosine, UPLO="U"),
              np.linalg.eigvalsh(sine, UPLO="U"))
    return blocks, max(float(np.max(np.abs(w))) for w in blocks)


def test_theta_galerkin_monotonicity(reference_points, ref_params):
    """Rayleigh-Ritz on nested bases: each eigenvalue of either block at K
    modes is at least the same eigenvalue at 2K, up to rounding
    (16 eps times the largest eigenvalue at 2K), at the 86 points for
    K = 16, 32, 64, though every rung samples its moments afresh."""
    eps = np.finfo(float).eps
    for params, _, _ in _theta_points(reference_points, ref_params):
        coarse, _ = _theta_block_eigenvalues(params, 16)
        for K in (32, 64, 128):
            fine, norm = _theta_block_eigenvalues(params, K)
            for w_coarse, w_fine in zip(coarse, fine):
                assert np.all(w_fine[:w_coarse.size]
                              <= w_coarse + 16.0 * eps * norm), (params, K)
            coarse = fine


def test_theta_route_mismatch_is_refused(ref_params, monkeypatch):
    """An F1 density off by 1e-4 relative: the theta midpoint rule
    disagrees with the Clenshaw-Curtis value, and the point is refused."""
    densities = spectral.invariant_densities

    def corrupted(*args):
        F1, F2 = densities(*args)
        return F1 * (1.0 + 1e-4), F2

    monkeypatch.setattr(spectral, "invariant_densities", corrupted)
    with pytest.raises(RouteMismatch, match="^F1 routes disagree"):
        theta_spectrum(ref_params)


def test_theta_kernel_check(ref_params, monkeypatch):
    """Coefficients whose symmetric_r is off by 1e-3 shift every
    eigenvalue by 1e-3, the translation mode's too: refused."""
    sturm_liouville = spectral._sturm_liouville

    def shifted(*args):
        p, symmetric_r = sturm_liouville(*args)
        return p, symmetric_r + 1e-3

    monkeypatch.setattr(spectral, "_sturm_liouville", shifted)
    with pytest.raises(CoefficientInconsistency, match="translation mode"):
        theta_spectrum(ref_params)


def test_theta_mass_matrix_not_positive_is_refused(ref_params, monkeypatch):
    """A mass matrix whose Cholesky factorisation fails (here, of -G) is a
    named refusal, not a LinAlgError."""
    moments = spectral._cosine_moments
    monkeypatch.setattr(spectral, "_cosine_moments",
                        lambda rows, count: moments(rows, count)
                        * np.array([[1.0], [1.0], [-1.0]]))
    with pytest.raises(CoefficientInconsistency, match="not positive definite"):
        theta_spectrum(ref_params)


def test_theta_ladder_refuses_past_its_cap(ref_params, monkeypatch):
    """A ladder that stops at K = 8 does not resolve the reference wave,
    which the full ladder stops at K = 32."""
    assert theta_spectrum(ref_params).M == 32
    monkeypatch.setattr(spectral, "_THETA_LADDER", (4, 8))
    with pytest.raises(DiscretizationNotConverged, match="from 4$"):
        theta_spectrum(ref_params)


def _mid_well(b, a, c, frac=0.5):
    """The wave at energy fraction frac of the well, as a sweep row's
    --E-frac-range places it."""
    scan = critical_points(WaveParameters(b=b, a=a, E=0.0, c=c))
    return WaveParameters(b=b, a=a, c=c,
                          E=scan.V_phi2 + frac * (scan.V_phi1 - scan.V_phi2))


def _assert_spectrum_refused(params, tmp_path, capsys, message):
    """spectrum exits 3 at params, naming message, and writes nothing."""
    out = tmp_path / "out"
    wave = [f"--{k}={getattr(params, k)!r}" for k in ("b", "a", "E", "c")]
    assert main(["spectrum", *wave, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and message in err
    assert not (out / "spectrum.json").exists()


@pytest.mark.parametrize("params", [
    pytest.param(_mid_well(2.0, 1.4814814814814815e-05, 1.0), id="b2-small-a"),
    pytest.param(_mid_well(50.0, 1e-3, 2.0), id="b50-c2"),
    pytest.param(_mid_well(100.0, 1e-3, 2.0), id="b100-c2")])
def test_theta_refuses_an_impossible_inertia(params, tmp_path, capsys):
    """mu_x has two zeros a period, so by Sturm oscillation 0 is the second
    or third periodic eigenvalue: (1, 1), (2, 1) and (1, 2) are the only
    inertias of a wave.  At these points the zero tolerance, 1e-8 of an
    operator scale of 3e7 to 1.5e25, counts three or more eigenvalues as
    zero and none as negative, though the Jacobians classify: refused."""
    assert parameter_jacobians(params).classification == "StableCriteriaMet"
    with pytest.raises(DiscretizationNotConverged,
                       match=r"^theta inertia \(0, \d+\) is not a wave's"):
        theta_spectrum(params)
    _assert_spectrum_refused(params, tmp_path, capsys, "theta inertia (0, ")


def test_theta_refuses_non_finite_coefficients(tmp_path, capsys):
    """b = 1020, a = 0.001, c = 2, mid-well: mu^(-1/b - 4) overflows near
    the trough.  The theta route refuses the coefficients by name before
    any transform, and no warning is raised (warnings are errors here)."""
    params = _mid_well(1020.0, 1e-3, 2.0)
    with pytest.raises(CoefficientInconsistency, match="not finite"):
        theta_spectrum(params)
    _assert_spectrum_refused(params, tmp_path, capsys, "not finite")
