import dataclasses

import numpy as np
import pytest

from bchwaves import (FDUnreliable, MarginTooSmall, RouteMismatch,
                      WaveParameters, crest_identities, classify_stability,
                      conserved_quantities, critical_points,
                      euler_lagrange_residual, family_derivatives,
                      multipliers, parameter_jacobians, restricted_invariants,
                      synthesize_profile)
from bchwaves import fourier
from bchwaves.invariants import (CLASS_DEGENERATE, CLASS_PRODUCT_FAIL,
                                 CLASS_STABLE, CLASS_TWO_NEGATIVE,
                                 _perturbed, _richardson_gradient,
                                 classify_from_signs, delta_F1, fd_steps_for)


def test_multiplier_values(ref_params):
    m = multipliers(ref_params)
    assert m.omega1 == pytest.approx(1.18 / (2 * np.sqrt(0.1)), rel=1e-14)
    assert m.omega1 == pytest.approx(1.86574, abs=2e-5)
    assert m.omega2 == pytest.approx(0.5 * np.sqrt(0.1), rel=1e-14)
    assert m.grad_omega2[0] == pytest.approx(0.25 / np.sqrt(0.1), rel=1e-14)
    assert m.grad_omega2[0] > 0


def test_multiplier_values_b3():
    m = multipliers(WaveParameters(b=3.0, a=1.0, E=0.0, c=1.0))
    assert m.omega1 == pytest.approx(1.0, rel=1e-14)
    assert m.omega2 == pytest.approx(1.0, rel=1e-14)


def test_multiplier_gradients_match_finite_differences(ref_params):
    m = multipliers(ref_params)

    def omegas(p):
        mm = multipliers(p)
        return np.array([mm.omega1, mm.omega2])

    grad, _ = _richardson_gradient(omegas, ref_params, fd_steps_for(ref_params))
    assert np.max(np.abs(grad[0] - m.grad_omega1) / np.abs(m.grad_omega1)) < 1e-6
    assert abs(grad[1, 0] - m.grad_omega2[0]) / m.grad_omega2[0] < 1e-6
    assert abs(grad[1, 1]) < 1e-10 and abs(grad[1, 2]) < 1e-10


def test_euler_lagrange_residual(ref_profile):
    assert euler_lagrange_residual(ref_profile) < 1e-7
    m = multipliers(ref_profile.params)
    assert euler_lagrange_residual(ref_profile, omega1=1.01 * m.omega1) > 1e-4


def test_euler_lagrange_equilibrium():
    from bchwaves import equilibrium_profile

    eq = equilibrium_profile(2.0, 0.1, 1.0, 128)
    assert euler_lagrange_residual(eq) < 1e-12


def test_conserved_quantities(ref_profile):
    F1, F2 = conserved_quantities(ref_profile)
    assert F1 > 0 and F2 > 0
    # route agreement well inside the contract tolerance
    b, T = ref_profile.params.b, ref_profile.T
    F1_grid = fourier.grid_integral(ref_profile.mu ** (1 / b), T)
    dens = (ref_profile.dmu**2 / (b**2 * ref_profile.mu**2) + 1.0) \
        * ref_profile.mu ** (-1 / b)
    F2_grid = fourier.grid_integral(dens, T)
    assert abs(F1 - F1_grid) < 1e-7 * F1
    assert abs(F2 - F2_grid) < 1e-7 * F2
    # the caller's invariants stand in for the quadrature route, and are
    # still checked against the grid
    inv = restricted_invariants(ref_profile.params)
    assert conserved_quantities(ref_profile, inv) == (F1, F2)
    with pytest.raises(RouteMismatch):
        conserved_quantities(ref_profile, dataclasses.replace(inv, F2=1.001 * F2))


def test_conserved_quantities_small_amplitude(ref_scan):
    p = WaveParameters(b=2.0, a=0.1, E=ref_scan.V_phi2 + 1e-8, c=1.0)
    prof = synthesize_profile(p, 256)
    F1, F2 = conserved_quantities(prof)
    phi2 = ref_scan.phi2
    assert F1 == pytest.approx(prof.T * 0.1 ** 0.5 / (1 - phi2), rel=1e-6)
    assert F2 == pytest.approx(prof.T * 0.1 ** -0.5 * (1 - phi2), rel=1e-6)


def test_gradient_identity(ref_params):
    # d/dp of the restricted invariant equals the inner product of its
    # variational derivative with the pointwise family derivative, up to
    # the crest-value boundary term from the moving period
    prof = synthesize_profile(ref_params, 2048)
    inv = restricted_invariants(ref_params, rel_step=1e-4)
    fam = family_derivatives(ref_params, 2048, profile=prof)
    b, T = ref_params.b, prof.T
    from bchwaves.invariants import delta_F2

    dF1 = delta_F1(prof.mu, b)
    dF2 = delta_F2(prof.mu, prof.dmu, prof.d2mu, b)
    mu0 = prof.mu[0]
    cases = [
        (dF1, inv.grad_F1, mu0 ** (1 / b)),
        (dF2, inv.grad_F2, mu0 ** (-1 / b)),
    ]
    for dF, grad, crest in cases:
        for idx, (mu_p, T_p) in enumerate([(fam.mu_a, fam.T_a),
                                           (fam.mu_E, fam.T_E),
                                           (fam.mu_c, fam.T_c)]):
            lhs = fourier.grid_integral(dF * mu_p, T)
            rhs = grad[idx] - crest * T_p
            assert abs(lhs - rhs) < 1e-5 * abs(rhs)


def test_jacobian_reference_values(ref_params):
    # pinned from two independent finite-difference step ladders agreeing
    # to better than six digits
    jac = parameter_jacobians(ref_params)
    assert jac.J_T_omega1 == pytest.approx(194.34432, rel=1e-5)
    assert jac.J_T_F1 == pytest.approx(-162.47037, rel=1e-5)
    assert jac.J3 == pytest.approx(-11590.319, rel=1e-4)
    assert jac.theta == pytest.approx(39.62018, rel=1e-4)
    assert jac.err_J_T_omega1 < 1e-3 * abs(jac.J_T_omega1)
    assert jac.classification == CLASS_STABLE


def test_theta_sign_matches_J1(ref_params):
    jac = parameter_jacobians(ref_params)
    assert np.sign(jac.theta) == np.sign(jac.J_T_omega1)
    assert jac.mu_xx0 < 0
    assert jac.J_mu_plus_omega1 > 0


def test_classification_logic():
    assert classify_from_signs(1.0, 1e-6, -1.0, 1e-6, -1.0, 1e-6) == CLASS_STABLE
    assert classify_from_signs(1.0, 1e-6, 1.0, 1e-6, -1.0, 1e-6) == CLASS_PRODUCT_FAIL
    assert classify_from_signs(-1.0, 1e-6, -1.0, 1e-6, -1.0, 1e-6) == CLASS_TWO_NEGATIVE
    assert classify_from_signs(1e-9, 1e-6, -1.0, 1e-6, -1.0, 1e-6) == CLASS_DEGENERATE
    with pytest.raises(FDUnreliable):
        classify_from_signs(1.0, 0.5, -1.0, 1e-6, -1.0, 1e-6)
    with pytest.raises(FDUnreliable):
        classify_from_signs(1.0, 1e-6, 1e-9, 1e-6, -1.0, 1e-6)


def test_crest_identities(ref_params):
    app = crest_identities(ref_params)
    assert app.resid_phiE < 1e-5
    assert app.resid_phic < 1e-5
    assert app.resid_combo < 1e-5
    assert app.resid_J_mu_omega1 < 1e-5
    assert app.mu_xx0 < 0
    assert app.combo > 0
    assert app.J_mu_plus_omega1_fd > 0 and app.J_mu_plus_omega1_closed > 0


def test_crest_identities_second_point():
    scan = critical_points(WaveParameters(b=3.0, a=0.05, E=0.0, c=1.0))
    p = WaveParameters(b=3.0, a=0.05,
                       E=scan.V_phi2 + 0.4 * (scan.V_phi1 - scan.V_phi2), c=1.0)
    app = crest_identities(p)
    assert max(app.resid_phiE, app.resid_phic, app.resid_combo,
               app.resid_J_mu_omega1) < 1e-5
    assert app.mu_xx0 < 0


def test_classify_stability_bundle(ref_params):
    rep = classify_stability(ref_params, N=256)
    assert rep.classification == CLASS_STABLE
    assert rep.el_residual < 1e-7
    assert rep.F1 > 0 and rep.F2 > 0
    assert rep.profile_res.mu_relation < 1e-8
    # deterministic: identical inputs give bit-identical numbers
    rep2 = classify_stability(ref_params, N=256)
    assert rep2.jacobians.J_T_omega1 == rep.jacobians.J_T_omega1
    assert rep2.jacobians.J3 == rep.jacobians.J3
    assert rep2.el_residual == rep.el_residual


def test_margin_too_small(ref_scan):
    p = WaveParameters(b=2.0, a=0.1, E=ref_scan.V_phi2 + 1e-9, c=1.0)
    with pytest.raises(MarginTooSmall):
        fd_steps_for(p)


def test_family_derivatives_quasi_periodicity(ref_params, ref_profile):
    # mu_E(x + T) - mu_E(x) = -T_E mu_x(x): check at x = T/2 (interior)
    # by comparing the periodized combination's wrap consistency
    fam = family_derivatives(ref_params, 256)
    prof = fam.profile
    v = fam.mu_E + (fam.T_E / prof.T) * prof.x * prof.dmu
    # v is T-periodic, so its trig interpolant at x=0 and x->T agree
    left = fourier.trig_interpolate(v, prof.T, np.array([1e-6]))
    right = fourier.trig_interpolate(v, prof.T, np.array([prof.T - 1e-6]))
    assert abs(left[0] - right[0]) < 1e-4 * max(1.0, np.max(np.abs(v)))


def _family_derivatives_interpolated(params, N, base, rel_step=1e-4):
    """Oracle route for family_derivatives: each perturbed profile is
    evaluated at the base grid points through the trigonometric
    interpolant of its own samples, then Richardson-differenced; returns
    (mu_a, mu_E, mu_c), (T_a, T_E, T_c)."""
    steps = fd_steps_for(params, rel_step)

    def mu_T_at(p):
        prof = synthesize_profile(p, N)
        return fourier.trig_interpolate(prof.mu, prof.T, base.x), prof.T

    mu_grads, T_grads = [], []
    for i in range(3):
        h = steps[i]
        mp, Tp = mu_T_at(_perturbed(params, i, h))
        mm, Tm = mu_T_at(_perturbed(params, i, -h))
        mp2, Tp2 = mu_T_at(_perturbed(params, i, h / 2))
        mm2, Tm2 = mu_T_at(_perturbed(params, i, -h / 2))
        mu_grads.append((4.0 * ((mp2 - mm2) / h) - (mp - mm) / (2.0 * h)) / 3.0)
        T_grads.append((4.0 * ((Tp2 - Tm2) / h) - (Tp - Tm) / (2.0 * h)) / 3.0)
    return mu_grads, T_grads


def test_family_derivatives_match_interpolation_route(ref_params, ref_profile):
    fam = family_derivatives(ref_params, 512, profile=ref_profile)
    mu_grads, T_grads = _family_derivatives_interpolated(ref_params, 512,
                                                         ref_profile)
    for got, want in zip((fam.mu_a, fam.mu_E, fam.mu_c), mu_grads):
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))
    assert (fam.T_a, fam.T_E, fam.T_c) == tuple(T_grads)
