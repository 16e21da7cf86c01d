import dataclasses

import numpy as np
import pytest

from bchwaves import (NotInExistenceSet, WaveParameters, critical_points,
                      equilibrium_profile, eval_potential, period,
                      period_by_shooting, profile_residuals,
                      synthesize_profile, turning_points)
from bchwaves.potential import a_max
from bchwaves.profile import (_build_half_period_map, _invert_half_period,
                              _wave_integral_impl, profile_header,
                              turning_point_data, write_profile_csv)


def bisect(f, lo, hi, tol=1e-14):
    flo = f(lo)
    assert flo * f(hi) < 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo, flo = mid, f(mid)
    return 0.5 * (lo + hi)


def test_turning_points_reference(ref_params, ref_scan):
    lo, hi = turning_points(ref_params)
    assert lo == pytest.approx(0.372, abs=2e-3)
    assert hi == pytest.approx(0.704, abs=2e-3)
    P = lambda phi: ref_params.E - eval_potential(phi, ref_params)
    assert lo == pytest.approx(bisect(P, ref_scan.phi1, ref_scan.phi2), abs=1e-10)
    assert hi == pytest.approx(bisect(P, ref_scan.phi2, 1.0 - 1e-9), abs=1e-10)
    assert ref_scan.phi1 < lo < ref_scan.phi2 < hi < 1.0


def test_turning_points_well_bottom_limit(ref_scan):
    p = WaveParameters(b=2.0, a=0.1, E=ref_scan.V_phi2 + 1e-8, c=1.0)
    lo, hi = turning_points(p)
    assert abs(lo - ref_scan.phi2) < 1e-3
    assert abs(hi - ref_scan.phi2) < 1e-3


def test_turning_points_saddle_limit(ref_scan):
    p = WaveParameters(b=2.0, a=0.1, E=ref_scan.V_phi1 - 1e-9, c=1.0)
    lo, _ = turning_points(p)
    assert abs(lo - ref_scan.phi1) < 1e-3


def test_period_harmonic_limit(ref_scan):
    p = WaveParameters(b=2.0, a=0.1, E=ref_scan.V_phi2 + 1e-8, c=1.0)
    Vpp = -1.0 + 0.2 / (1.0 - ref_scan.phi2) ** 3
    assert period(p) == pytest.approx(2 * np.pi / np.sqrt(Vpp), abs=1e-3)


def test_period_diverges_toward_saddle(ref_scan):
    gaps = (1e-4, 1e-5, 1e-6, 1e-7)
    Ts = [period(WaveParameters(b=2.0, a=0.1, E=ref_scan.V_phi1 - g, c=1.0))
          for g in gaps]
    assert np.all(np.diff(Ts) > 0)


def test_period_matches_shooting(ref_params):
    T = period(ref_params)
    assert abs(T - period_by_shooting(ref_params)) < 1e-6 * T


def test_period_matches_shooting_b3():
    scan = critical_points(WaveParameters(b=3.0, a=0.05, E=0.0, c=1.0))
    p = WaveParameters(b=3.0, a=0.05,
                       E=scan.V_phi2 + 0.5 * (scan.V_phi1 - scan.V_phi2), c=1.0)
    T = period(p)
    assert abs(T - period_by_shooting(p)) < 1e-6 * T


def test_period_continuity_in_E(ref_params):
    T0 = period(ref_params)
    diffs = []
    for h in (1e-4, 1e-5, 1e-6, 1e-7):
        Th = period(WaveParameters(b=2.0, a=0.1, E=0.09 + h, c=1.0))
        diffs.append(abs(Th - T0))
    assert np.all(np.diff(diffs) < 0)
    assert diffs[-1] < 1e-4


def test_profile_construction_invariants(ref_params, ref_profile):
    prof = ref_profile
    assert prof.phi[0] == pytest.approx(prof.phi_max, abs=1e-12)
    assert prof.phi[prof.N // 2] == pytest.approx(prof.phi_min, abs=1e-12)
    assert prof.dphi[0] == 0.0 and prof.dphi[prof.N // 2] == 0.0
    assert prof.d2phi[0] < 0.0  # nondegenerate maximum
    assert np.max(prof.phi) < ref_params.c
    assert np.all(prof.mu > 0)
    # even symmetry
    assert np.allclose(prof.phi[1:], prof.phi[1:][::-1], atol=1e-13)
    assert np.allclose(prof.dphi[1:], -prof.dphi[1:][::-1], atol=1e-13)
    # stored derivative satisfies the energy relation
    en = 0.5 * prof.dphi**2 + eval_potential(prof.phi, ref_params) - ref_params.E
    assert np.max(np.abs(en)) < 1e-9
    # first integral with the stored fields
    b, c, E = ref_params.b, ref_params.c, ref_params.E
    f = ((c - prof.phi) * (prof.phi - prof.d2phi)
         + 0.5 * (b - 1) * (prof.dphi**2 - prof.phi**2))
    assert np.max(np.abs(f - (b - 1) * E)) < 1e-8


def test_profile_residuals_fresh(ref_profile):
    res = profile_residuals(ref_profile)
    assert res.energy_relation < 1e-8
    assert res.first_integral < 1e-8
    assert res.mu_relation < 1e-8
    assert res.profile_ode < 1e-8


def test_profile_residuals_detect_corruption(ref_profile):
    phi = ref_profile.phi.copy()
    phi[10] += 1e-3
    bad = dataclasses.replace(ref_profile, phi=phi)
    assert profile_residuals(bad).mu_relation > 1e-4


def test_equilibrium_profile_residuals():
    eq = equilibrium_profile(2.0, 0.1, 1.0, 128)
    res = profile_residuals(eq)
    assert res.energy_relation < 1e-12
    assert res.first_integral < 1e-12
    assert res.mu_relation < 1e-12
    assert res.profile_ode < 1e-12


def test_grid_refinement(ref_scan):
    # a steeper wave so truncation dominates at coarse N: the residual must
    # drop at least 4x per doubling until it hits the accuracy floor
    p = WaveParameters(b=2.0, a=0.1,
                       E=ref_scan.V_phi2 + 0.8 * (ref_scan.V_phi1 - ref_scan.V_phi2),
                       c=1.0)
    res = [profile_residuals(synthesize_profile(p, N)).mu_relation
           for N in (64, 128, 256, 512)]
    for coarse, fine in zip(res, res[1:]):
        assert fine < coarse / 4.0 or coarse < 1e-9
    assert res[-1] < 1e-8


def test_small_amplitude_profile(ref_scan):
    p = WaveParameters(b=2.0, a=0.1, E=ref_scan.V_phi2 + 1e-10, c=1.0)
    prof = synthesize_profile(p, 256)
    amp = prof.phi_max - ref_scan.phi2
    assert 0 < amp <= 2e-5
    cosine = ref_scan.phi2 + 0.5 * (prof.phi_max - prof.phi_min) * np.cos(
        2 * np.pi * prof.x / prof.T) + 0.5 * (prof.phi_max + prof.phi_min) - ref_scan.phi2
    # harmonic shape to a few percent of the (tiny) amplitude
    assert np.max(np.abs(prof.phi - cosine)) < 0.05 * amp


def test_refuses_near_degenerate_energy(ref_scan):
    p = WaveParameters(b=2.0, a=0.1, E=ref_scan.V_phi2 + 1e-13, c=1.0)
    with pytest.raises(NotInExistenceSet):
        synthesize_profile(p, 128)


def test_grid_validation(ref_params):
    with pytest.raises(ValueError):
        synthesize_profile(ref_params, 100)
    with pytest.raises(ValueError):
        synthesize_profile(ref_params, 32)


def test_serialization(tmp_path, ref_profile):
    path = tmp_path / "profile.csv"
    write_profile_csv(ref_profile, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,phi,dphi,d2phi,mu,dmu"
    assert len(lines) == ref_profile.N + 1
    header = profile_header(ref_profile)
    assert header["N"] == ref_profile.N
    assert header["T"] == ref_profile.T
    assert set(header["residuals"]) == {"energy_relation", "first_integral",
                                        "mu_relation", "profile_ode"}


def _well_point(b, a_frac, e_frac, c=1.0):
    a = a_frac * a_max(b, c)
    scan = critical_points(WaveParameters(b=b, a=a, E=0.0, c=c))
    return WaveParameters(b=b, a=a, E=scan.V_phi2 + e_frac * (scan.V_phi1 - scan.V_phi2),
                          c=c)


@pytest.mark.parametrize("which", ["reference", "b=1.5"])
def test_half_period_inversion_residual(ref_params, which):
    params = ref_params if which == "reference" else _well_point(1.5, 0.3, 0.5)
    tp = turning_point_data(params)
    T_gauss, change = _wave_integral_impl(params, None, tp, 1e-11, 64, 16384)
    hp_map = _build_half_period_map(params, tp, T_gauss, change)
    half = hp_map.half_period
    x = np.arange(257) * (half / 256)
    theta = _invert_half_period(hp_map, x)
    A = hp_map.coeff_antideriv
    xi = 0.25 * np.pi * (np.polynomial.chebyshev.chebval(4.0 * theta / np.pi - 1.0, A)
                         - np.polynomial.chebyshev.chebval(-1.0, A))
    assert np.max(np.abs(xi - (half - x))) <= 1e-13 * half
    assert np.all(np.diff(theta) < 0.0)
