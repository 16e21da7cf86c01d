"""Acceptance suite: one test per contracted criterion, each printing a
PASS/FAIL line with the measured figure of merit.

Sample points are drawn by the shared admissible-parameter sampler with a
fixed seed and a steepness guard that keeps one period resolvable at the
contracted grid sizes (waves approaching the peaked limit are out of
scope for the package as a whole).
"""

import numpy as np
import pytest

from bchwaves import (crest_identities, assemble_operator,
                      coercivity_probe, make_perturbation, multipliers,
                      orbital_distance, parameter_jacobians, period,
                      periodic_spectrum, profile_residuals, proof_identities,
                      run_experiment, synthesize_profile)
from bchwaves.invariants import CLASS_STABLE
from bchwaves.spectral import SECOND_VARIATION_SCALE

from conftest import sample_admissible
from fd_oracle import fd_steps_for, richardson_gradient
from quadrature_oracle import period_by_shooting
from state_oracle import (equilibrium_profile, euler_lagrange_residual,
                          h1_shift_distance)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def sample10():
    params = sample_admissible(10, seed=2024)
    profiles = [synthesize_profile(p, 512) for p in params]
    return params, profiles


def test_criterion_1_period_oracle(sample10):
    """Quadrature period equals the shooting period on random samples."""
    params, _ = sample10
    worst = 0.0
    for p in params:
        T = period(p)
        worst = max(worst, abs(T - period_by_shooting(p)) / T)
    report("criterion 1 (period quadrature vs shooting, 10 samples)",
           worst < 1e-6, f"worst relative difference {worst:.3e} < 1e-6")


def test_criterion_2_profile_residuals(sample10):
    """Energy relation, momentum relation, and the first integral hold at
    N = 512 under independent spectral differentiation."""
    _, profiles = sample10
    worst = {"energy_relation": 0.0, "mu_relation": 0.0, "first_integral": 0.0}
    for prof in profiles:
        res = profile_residuals(prof)
        worst["energy_relation"] = max(worst["energy_relation"], res.energy_relation)
        worst["mu_relation"] = max(worst["mu_relation"], res.mu_relation)
        worst["first_integral"] = max(worst["first_integral"], res.first_integral)
    ok = all(v < 1e-8 for v in worst.values())
    report("criterion 2 (profile residual suite at N=512, 10 samples)", ok,
           "worst sup-norms " + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
           + " all < 1e-8")


def test_criterion_3_stationarity(ref_profile):
    """Closed-form multipliers make the wave stationary; detuning one
    multiplier by 1% is detected."""
    resid = euler_lagrange_residual(ref_profile)
    m = multipliers(ref_profile.params)
    detuned = euler_lagrange_residual(ref_profile, omega1=1.01 * m.omega1)
    ok = resid < 1e-7 and detuned > 1e-4
    report("criterion 3 (stationarity residual)", ok,
           f"residual {resid:.2e} < 1e-7, 1%-detuned {detuned:.2e} > 1e-4")


def test_criterion_4_kernel_and_parameter_derivatives(ref_params):
    """Translation kernel and the images of the parameter derivatives."""
    from bchwaves import kernel_residual

    pts = [ref_params, sample_admissible(1, seed=77)[0]]
    worst_kernel = worst_id = 0.0
    for p in pts:
        prof = synthesize_profile(p, 512)
        coeffs = assemble_operator(prof)
        worst_kernel = max(worst_kernel, kernel_residual(coeffs))
        ids = proof_identities(prof, coeffs=coeffs)
        worst_id = max(worst_id, ids.muE_residual, ids.muc_residual)
    ok = worst_kernel < 1e-6 and worst_id < 1e-4
    report("criterion 4 (kernel + parameter-derivative identities, 2 points)",
           ok, f"kernel {worst_kernel:.2e} < 1e-6, "
               f"image residuals {worst_id:.2e} < 1e-4")


def test_criterion_5_trichotomy():
    """Inertia of the second variation follows the sign of {T,omega1}_{E,c}
    wherever that sign is resolved, and theta carries the same sign."""
    params = sample_admissible(20, seed=555)
    checked = 0
    failures = []
    for p in params:
        jac = parameter_jacobians(p)
        if abs(jac.J_T_omega1) <= jac.err_J_T_omega1:
            continue
        prof = synthesize_profile(p, 512)
        spec = periodic_spectrum(assemble_operator(prof), M=128)
        expected = (1, 1) if jac.J_T_omega1 > 0 else (2, 1)
        if (spec.n_neg, spec.n_zero) != expected:
            failures.append((p, (spec.n_neg, spec.n_zero), expected))
        if np.sign(jac.theta) != np.sign(jac.J_T_omega1):
            failures.append((p, "theta-sign", jac.theta))
        checked += 1
    ok = checked == 20 and not failures
    report("criterion 5 (inertia trichotomy + theta sign, 20 points)", ok,
           f"{checked}/20 points sign-resolved, {len(failures)} mismatches")


def test_criterion_6_quadratic_form_identity():
    """<L psi, psi> reproduces the determinant product (with the recorded
    operator normalization) and is negative exactly when the certified-
    stability product condition holds."""
    params = sample_admissible(5, seed=31)
    worst = 0.0
    sign_ok = True
    for p in params:
        prof = synthesize_profile(p, 512)
        ids = proof_identities(prof, assemble_operator(prof))
        worst = max(worst, ids.psi_identity_residual)
        jac = parameter_jacobians(p)
        product = jac.J_T_F1 * jac.J3
        sign_ok &= (ids.psi_quadform < 0) == (product > 0)
        sign_ok &= (jac.classification == CLASS_STABLE) == (
            jac.J_T_omega1 > 0 and product > 0)
    ok = worst < 1e-3 and sign_ok
    report("criterion 6 (quadratic-form identity, 5 points)", ok,
           f"worst relative error {worst:.2e} < 1e-3 at scale "
           f"{SECOND_VARIATION_SCALE}; negativity tracks the product condition: "
           f"{sign_ok}")


def test_criterion_7_crest_identities():
    """Closed-form crest derivatives and their positivity."""
    params = sample_admissible(10, seed=99)
    worst = 0.0
    signs = True
    for p in params:
        app = crest_identities(p)
        worst = max(worst, app.resid_phiE, app.resid_phic, app.resid_combo,
                    app.resid_J_mu_omega1)
        signs &= app.mu_xx0 < 0 and app.J_mu_plus_omega1_fd > 0
    ok = worst < 1e-5 and signs
    report("criterion 7 (crest-derivative identities, 10 points)", ok,
           f"worst relative residual {worst:.2e} < 1e-5, signs hold: {signs}")


def test_criterion_8_coercivity(ref_params, ref_profile, ref_coeffs):
    """Constrained coercivity at a certified-stable point: the exact
    minimum of the H^1 quotient on the modes 0..N/4."""
    jac = parameter_jacobians(ref_params)
    assert jac.classification == CLASS_STABLE
    probe = coercivity_probe(ref_coeffs, ref_profile)
    free = coercivity_probe(ref_coeffs, ref_profile, project=False)
    ok = (probe.min_quotient > 0 and probe.n_negative == 0
          and free.min_quotient < 0 and free.n_negative == 1)
    report("criterion 8 (exact constrained H1 minimum, modes 0..N/4)", ok,
           f"constrained min quotient {probe.min_quotient:.4f} > 0; "
           f"unconstrained has one negative value ({free.min_quotient:.4f})")


@pytest.mark.slow
def test_criterion_9_evolution(ref_params, ref_profile):
    """Orbital stability under time evolution at a certified-stable point:
    the response ratio is uniform across the perturbation ladder, the
    invariants are conserved, and the unperturbed wave stays put."""
    jac = parameter_jacobians(ref_params)
    assert jac.classification == CLASS_STABLE
    ratios = []
    worst_drift = 0.0
    for eps in (1e-3, 5e-4, 2.5e-4):
        diag = run_experiment(ref_profile, eps=eps, horizon_periods=50.0,
                              N=512, dt_safety=0.5, seed=11, n_samples=100)
        assert diag.outcome == "completed"
        ratios.append(diag.ratio)
        worst_drift = max(worst_drift, diag.E_drift.max(),
                          diag.F1_drift.max(), diag.F2_drift.max())
    spread = max(ratios) / min(ratios)
    base = run_experiment(ref_profile, eps=0.0, horizon_periods=50.0, N=512,
                          dt_safety=0.5)
    ok = spread < 3.0 and worst_drift < 1e-8 and base.max_rho < 1e-6
    report("criterion 9 (evolution ladder, 50 periods)", ok,
           f"ratios {[f'{r:.4f}' for r in ratios]} spread {spread:.4f} < 3, "
           f"drift {worst_drift:.2e} < 1e-8, unperturbed {base.max_rho:.2e} < 1e-6")


def test_criterion_10_oracle_equivalences(ref_params, ref_profile):
    """Cross-validation of the numerical machinery against closed forms
    and exhaustive search."""
    # constant-coefficient spectrum vs the symbol
    eq = equilibrium_profile(2.0, 0.1, 1.0, 128, T=3.7)
    ceq = assemble_operator(eq)
    spec = periodic_spectrum(ceq, M=16)
    k = 2 * np.pi * np.arange(17) / eq.T
    symbol = ceq.symmetric_r[0] + ceq.p[0] * k**2
    expected = np.sort(np.concatenate([[symbol[0]], np.repeat(symbol[1:], 2)]))
    hill_err = float(np.max(np.abs(spec.eigenvalues - expected[:16])))

    # shift optimizer vs direct scan with direct-norm refinement
    T = ref_profile.T
    mu = ref_profile.mu
    v = make_perturbation(mu, T, 2.0, 1e-3, seed=4)
    m = mu + v
    rho, _ = orbital_distance(np.fft.rfft(m), np.fft.rfft(mu), ref_profile.N, T)
    shifts = np.arange(4 * ref_profile.N) * (T / (4 * ref_profile.N))
    dists = np.array([h1_shift_distance(m, mu, T, s) for s in shifts])
    j = int(np.argmin(dists))
    lo, hi = shifts[j] - T / (4 * ref_profile.N), shifts[j] + T / (4 * ref_profile.N)
    for _ in range(80):
        x1 = lo + 0.382 * (hi - lo)
        x2 = lo + 0.618 * (hi - lo)
        if h1_shift_distance(m, mu, T, x1) > h1_shift_distance(m, mu, T, x2):
            lo = x1
        else:
            hi = x2
    scan_err = abs(rho - h1_shift_distance(m, mu, T, 0.5 * (lo + hi)))

    # finite-difference multiplier gradients vs closed forms
    mref = multipliers(ref_params)

    def omegas(p):
        mm = multipliers(p)
        return np.array([mm.omega1, mm.omega2])

    grad, _ = richardson_gradient(omegas, ref_params, fd_steps_for(ref_params))
    grad_err = float(np.max(np.abs(grad[0] - mref.grad_omega1)
                            / np.abs(mref.grad_omega1)))
    grad_err = max(grad_err, abs(grad[1, 0] - mref.grad_omega2[0])
                   / mref.grad_omega2[0])

    ok = hill_err < 1e-10 and scan_err < 1e-6 and grad_err < 1e-6
    report("criterion 10 (oracle equivalences)", ok,
           f"Hill-vs-symbol {hill_err:.2e} < 1e-10, "
           f"optimizer-vs-scan {scan_err:.2e} < 1e-6, "
           f"FD-vs-closed-form gradients {grad_err:.2e} < 1e-6")
