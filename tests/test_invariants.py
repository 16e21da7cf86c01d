import dataclasses

import numpy as np
import pytest

from bchwaves import (BchWavesError, FDUnreliable, RouteMismatch,
                      WaveParameters, crest_identities, classify_stability,
                      conserved_quantities, critical_points,
                      euler_lagrange_residual, family_derivatives,
                      multipliers, parameter_jacobians, restricted_invariants,
                      synthesize_profile, wave_integral)
from bchwaves import fourier
from bchwaves.invariants import (CLASS_DEGENERATE, CLASS_PRODUCT_FAIL,
                                 CLASS_STABLE, CLASS_TWO_NEGATIVE,
                                 _F1F2_integrands, classify_from_signs,
                                 delta_F1)
from bchwaves.profile import (_COMPLEX_STEP, _complex_steps,
                              _complex_turning_points, turning_point_data)

from fd_oracle import fd_steps_for, perturbed, richardson_gradient
from quadrature_oracle import gauss_integrals

# the reference wave and three certify-panel points of the benchmark
# reference, b = 1.5, 3, 4
ORACLE_POINTS = (
    WaveParameters(b=2.0, a=0.1, E=0.09, c=1.0),
    WaveParameters(b=1.5, a=0.032019635880594755, E=0.07846125073780831,
                   c=0.5901130476448696),
    WaveParameters(b=3.0, a=0.24505320717738976, E=-0.07784763792444795,
                   c=1.5731954835318858),
    WaveParameters(b=4.0, a=0.4938981104340343, E=-0.2110995509239468,
                   c=1.9508178180982396),
)
ORACLE_IDS = ("reference", "b=1.5", "b=3", "b=4")


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

    grad, _ = richardson_gradient(omegas, ref_params, fd_steps_for(ref_params))
    assert np.max(np.abs(grad[0] - m.grad_omega1) / np.abs(m.grad_omega1)) < 1e-6
    assert abs(grad[1, 0] - m.grad_omega2[0]) / m.grad_omega2[0] < 1e-6
    assert abs(grad[1, 1]) < 1e-10 and abs(grad[1, 2]) < 1e-10


def test_euler_lagrange_residual(ref_profile):
    assert euler_lagrange_residual(ref_profile) < 1e-7
    m = multipliers(ref_profile.params)
    assert euler_lagrange_residual(ref_profile, omega1=1.01 * m.omega1) > 1e-4


def test_euler_lagrange_equilibrium():
    from state_oracle import equilibrium_profile

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
    assert conserved_quantities(ref_profile, inv) == (inv.F1, inv.F2)
    assert (inv.F1, inv.F2) == pytest.approx((F1, F2), rel=1e-12)
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
    inv = restricted_invariants(ref_params)
    fam = family_derivatives(prof)
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


def test_near_well_bottom_classifies_or_refuses(ref_scan):
    # E - V(phi2) = 1e-9, where no difference stencil fits: the point is
    # classified with converged gradients or refused with a named error
    p = WaveParameters(b=2.0, a=0.1, E=ref_scan.V_phi2 + 1e-9, c=1.0)
    try:
        jac = parameter_jacobians(p)
    except BchWavesError:
        return
    near = parameter_jacobians(dataclasses.replace(p, E=ref_scan.V_phi2 + 1e-6))
    for name in ("J_T_omega1", "J_T_F1", "J3"):
        assert getattr(jac, name) == pytest.approx(getattr(near, name), rel=1e-3)
    assert jac.classification == near.classification


def _observables(p):
    return wave_integral(p, (None, *_F1F2_integrands(p))).values[:, 0]


@pytest.mark.parametrize("p", ORACLE_POINTS, ids=ORACLE_IDS)
def test_complex_step_gradients_match_richardson(p):
    inv = restricted_invariants(p)
    fd, _ = richardson_gradient(_observables, p, fd_steps_for(p))
    for got, want in zip((inv.grad_T, inv.grad_F1, inv.grad_F2), fd):
        assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))
    # the bounds stay small enough to resolve every sign
    for got, err in zip((inv.grad_T, inv.grad_F1, inv.grad_F2),
                        (inv.err_grad_T, inv.err_grad_F1, inv.err_grad_F2)):
        assert np.all(err <= 1e-8 * np.max(np.abs(got)))


def test_lobatto_rule_matches_gauss_oracle(reference_points):
    # the same integrands by Gauss-Legendre doubling: values to 1e-12
    # relative (measured 1.6e-14), every gradient entry within its own
    # error bound (measured: differences below 2e-13 relative, bounds 1e-10)
    for point in reference_points["panel"]:
        p = WaveParameters(point["b"], point["a"], point["E"], point["c"])
        inv = restricted_invariants(p)
        pc = _complex_steps(p)
        gauss = gauss_integrals(pc, (None, *_F1F2_integrands(pc)),
                                _complex_turning_points(pc, turning_point_data(p)))
        values = np.array([inv.T, inv.F1, inv.F2])
        assert np.all(np.abs(values - gauss[:, 0].real) <= 1e-12 * values)
        grads = np.stack([inv.grad_T, inv.grad_F1, inv.grad_F2])
        errs = np.stack([inv.err_grad_T, inv.err_grad_F1, inv.err_grad_F2])
        assert np.all(np.abs(grads - gauss.imag / _COMPLEX_STEP) <= errs)


def test_quadrature_runs_through_wave_integral(ref_params, ref_profile, monkeypatch):
    # the benchmark counts profile.wave_integral by rebinding that name
    # wherever the package binds it, so every quadrature must call it so
    from bchwaves import invariants, profile

    original = profile.wave_integral
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in (profile, invariants):
        monkeypatch.setattr(module, "wave_integral", counted)
    for run in (lambda: synthesize_profile(ref_params, 64),
                lambda: restricted_invariants(ref_params),
                lambda: conserved_quantities(ref_profile)):
        calls.clear()
        run()
        assert len(calls) == 1


def test_one_complex_step_table_per_certificate(ref_params, monkeypatch):
    """The invariants and the family derivatives of a certificate read one
    complex-step table: the complex turning points are polished once, and
    the complex integrand is sampled at the reference wave's two Lobatto
    levels (64 and 128) only."""
    from bchwaves import (assemble_operator, coercivity_probe, invariants,
                          periodic_spectrum, profile, proof_identities)

    calls = {"turning points": 0, "samples": 0}
    turning_points, samples = profile._complex_turning_points, profile._samples

    def counted_turning_points(*args):
        calls["turning points"] += 1
        return turning_points(*args)

    def counted_samples(theta, params, tp):
        calls["samples"] += np.iscomplexobj(params.a)
        return samples(theta, params, tp)

    for module in (profile, invariants):
        monkeypatch.setattr(module, "_complex_turning_points", counted_turning_points)
        monkeypatch.setattr(module, "_samples", counted_samples)
    classify_stability(ref_params, N=512)
    prof = synthesize_profile(ref_params, 512)
    coeffs = assemble_operator(prof)
    periodic_spectrum(coeffs, M=128)
    proof_identities(prof, coeffs)
    coercivity_probe(coeffs, prof, trials=1000, seed=1)
    assert calls == {"turning points": 1, "samples": 2}


@pytest.mark.parametrize("p", ORACLE_POINTS, ids=ORACLE_IDS)
def test_crest_derivatives_match_richardson(p):
    # differences of the crest values satisfy the closed-form identities
    # that crest_identities checks by complex step

    def crest(q):
        phip = turning_point_data(q).phi_max
        return np.array([phip, q.a / (q.c - phip) ** q.b])

    fd, _ = richardson_gradient(crest, p, fd_steps_for(p))
    phip, mup = crest(p)
    phipp0 = phip - mup
    w1 = multipliers(p).grad_omega1
    assert fd[0, 1] == pytest.approx(-1.0 / phipp0, rel=1e-6)
    assert fd[0, 2] == pytest.approx(-mup / phipp0, rel=1e-6)
    app = crest_identities(p)
    assert fd[1, 1] * w1[2] - fd[1, 2] * w1[1] == pytest.approx(
        app.J_mu_plus_omega1_fd, rel=1e-6)


def test_family_derivatives_quasi_periodicity(ref_params, ref_profile):
    # mu_E(x + T) - mu_E(x) = -T_E mu_x(x): check at x = T/2 (interior)
    # by comparing the periodized combination's wrap consistency
    fam = family_derivatives(synthesize_profile(ref_params, 256))
    prof = fam.profile
    v = fam.mu_E + (fam.T_E / prof.T) * prof.x * prof.dmu
    # v is T-periodic, so its trig interpolant at x=0 and x->T agree
    left = fourier.trig_interpolate(v, prof.T, np.array([1e-6]))
    right = fourier.trig_interpolate(v, prof.T, np.array([prof.T - 1e-6]))
    assert abs(left[0] - right[0]) < 1e-4 * max(1.0, np.max(np.abs(v)))


def _family_derivatives_interpolated(params, N, base, rel_step=1e-4):
    # pointwise profile values carry ~1e-12 synthesis noise, so the optimal
    # central-difference step is larger here than for the quadratures
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
        mp, Tp = mu_T_at(perturbed(params, i, h))
        mm, Tm = mu_T_at(perturbed(params, i, -h))
        mp2, Tp2 = mu_T_at(perturbed(params, i, h / 2))
        mm2, Tm2 = mu_T_at(perturbed(params, i, -h / 2))
        mu_grads.append((4.0 * ((mp2 - mm2) / h) - (mp - mm) / (2.0 * h)) / 3.0)
        T_grads.append((4.0 * ((Tp2 - Tm2) / h) - (Tp - Tm) / (2.0 * h)) / 3.0)
    return mu_grads, T_grads


def test_family_derivatives_match_interpolation_route(ref_params, ref_profile):
    fam = family_derivatives(ref_profile)
    mu_grads, T_grads = _family_derivatives_interpolated(ref_params, 512,
                                                         ref_profile)
    for got, want in zip((fam.mu_a, fam.mu_E, fam.mu_c), mu_grads):
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))
    for got, want in zip((fam.T_a, fam.T_E, fam.T_c), T_grads):
        assert abs(got - want) <= 1e-7 * abs(want)


def test_invariants_memo(ref_params):
    """One entry with read-only arrays; a refused point is refused again
    rather than remembered."""
    from bchwaves import NotInExistenceSet

    inv = restricted_invariants(ref_params)
    assert restricted_invariants(ref_params) is inv
    for arr in (inv.grad_T, inv.grad_F1, inv.grad_F2, inv.err_grad_T,
                inv.err_grad_F1, inv.err_grad_F2, inv.grad_omega1,
                inv.grad_omega2):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    other = dataclasses.replace(ref_params, E=0.08)
    assert restricted_invariants(other).T != inv.T
    again = restricted_invariants(ref_params)
    assert again is not inv and again.T == inv.T
    refused = dataclasses.replace(ref_params, E=0.2)
    for _ in range(2):
        with pytest.raises(NotInExistenceSet):
            restricted_invariants(refused)


@pytest.mark.parametrize("b", [28.0, 30.0, 50.0, 100.0, 150.0, 300.0, 1000.0, 1020.0,
                               1100.0, 2000.0, 1.001, 1.01, 2.0])
def test_edges_of_the_region_classify_or_refuse_by_name(b):
    """Large b and b -> 1+, c = 1, a and E across the well, a = 0.001,
    E = 0 at c = 2 and c = 1.5 (where c^(b+1) exceeds the double range at
    b = 1100 and b = 2000), and a = 1e-29, E = 0 at c = 1 (where phi2 lies
    above the root scan's bracket at b = 2): every point classifies or
    raises a package error, never a ZeroDivisionError, an OverflowError, a
    bare ValueError or a warning."""
    from bchwaves import a_max

    points = [WaveParameters(b=b, a=0.001, E=0.0, c=c) for c in (2.0, 1.5)]
    points.append(WaveParameters(b=b, a=1e-29, E=0.0, c=1.0))
    for a_frac in (0.05, 0.5, 0.95):
        a = a_frac * a_max(b, 1.0)
        scan = critical_points(WaveParameters(b=b, a=a, E=0.0, c=1.0))
        for e_frac in (1e-3, 0.5, 0.999):
            E = scan.V_phi2 + e_frac * (scan.V_phi1 - scan.V_phi2)
            points.append(WaveParameters(b=b, a=a, E=E, c=1.0))
    for params in points:
        try:
            classify_stability(params)
        except BchWavesError:
            pass


def test_det3_error_matches_minors():
    """The cofactors from cross products of the rows against the nine
    minors' determinants, on random 3x3 matrices of mixed scales."""
    from bchwaves.invariants import _det3_error

    rng = np.random.default_rng(7)
    for _ in range(200):
        m = rng.standard_normal((3, 3)) * 10.0 ** rng.uniform(-3, 3, (3, 3))
        e = rng.uniform(0.0, 1.0, (3, 3)) * np.abs(m)
        want = sum(abs(np.linalg.det(np.delete(np.delete(m, i, 0), j, 1))) * e[i, j]
                   for i in range(3) for j in range(3))
        assert _det3_error(m, e) == pytest.approx(want, rel=1e-14)
