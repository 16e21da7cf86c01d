import dataclasses

import numpy as np
import pytest
from numpy.polynomial import chebyshev
from scipy.fft import dct

from bchwaves import (NotInExistenceSet, WaveParameters, critical_points,
                      eval_potential, period, profile_residuals,
                      synthesize_profile, wave_integral)
from bchwaves.potential import a_max
from bchwaves.invariants import _complex_step_table
from bchwaves.profile import (_COMPLEX_STEP, _INVERSION_TABLE,
                              _cheb_derivative, _cheb_fit, _cheb_integral,
                              _cheb_values, _dct1,
                              _half_period_map, _invert_half_period,
                              _lobatto_theta, _noise_cut, _samples,
                              _synthesized, profile_header,
                              turning_point_data, write_profile_csv)

from quadrature_oracle import period_by_shooting
from state_oracle import equilibrium_profile


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
    tp = turning_point_data(ref_params)
    lo, hi = tp.phi_min, tp.phi_max
    assert lo == pytest.approx(0.372, abs=2e-3)
    assert hi == pytest.approx(0.704, abs=2e-3)
    P = lambda phi: ref_params.E - eval_potential(phi, ref_params)
    assert lo == pytest.approx(bisect(P, ref_scan.phi1, ref_scan.phi2), abs=1e-10)
    assert hi == pytest.approx(bisect(P, ref_scan.phi2, 1.0 - 1e-9), abs=1e-10)
    assert ref_scan.phi1 < lo < ref_scan.phi2 < hi < 1.0


def test_turning_points_well_bottom_limit(ref_scan):
    p = WaveParameters(b=2.0, a=0.1, E=ref_scan.V_phi2 + 1e-8, c=1.0)
    tp = turning_point_data(p)
    lo, hi = tp.phi_min, tp.phi_max
    assert abs(lo - ref_scan.phi2) < 1e-3
    assert abs(hi - ref_scan.phi2) < 1e-3


def test_turning_points_saddle_limit(ref_scan):
    p = WaveParameters(b=2.0, a=0.1, E=ref_scan.V_phi1 - 1e-9, c=1.0)
    lo = turning_point_data(p).phi_min
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


def test_period_matches_shooting_near_peakon():
    # c - phi_max = 1.4e-3: E - V must stay smooth far below _REL_TOL next
    # to the turning points for the Lobatto doubling to stop at once
    b, c = 1.5, 1.0
    a = 0.02 * a_max(b, c)
    scan = critical_points(WaveParameters(b=b, a=a, E=0.0, c=c))
    p = WaveParameters(b=b, a=a, E=scan.V_phi2 + 0.3 * (scan.V_phi1 - scan.V_phi2),
                       c=c)
    T = period(p)
    assert abs(T - period_by_shooting(p, rtol=1e-13)) <= 1e-11 * T


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
    hp_map = _half_period_map(wave_integral(params).coeffs[0, 0])
    half = hp_map.half_period
    x = np.arange(257) * (half / 256)
    theta = _invert_half_period(hp_map, x)
    A = hp_map.coeff_antideriv
    xi = 0.25 * np.pi * (np.polynomial.chebyshev.chebval(4.0 * theta / np.pi - 1.0, A)
                         - np.polynomial.chebyshev.chebval(-1.0, A))
    assert np.max(np.abs(xi - (half - x))) <= 1e-13 * half
    assert np.all(np.diff(theta) < 0.0)


def _invert_by_chebval_newton(map_, x_targets):
    """Oracle route for _invert_half_period: a linear interpolation of the
    Lobatto table of xi as first guess, then Newton on the exact series,
    evaluating xi and G by Clenshaw recurrence at every iterate."""
    A = map_.coeff_antideriv
    A_left = chebyshev.chebval(-1.0, A)
    targets = map_.half_period - x_targets
    m = max(_INVERSION_TABLE, A.size - 1)
    padded = np.zeros(m + 1)
    padded[:A.size] = A
    padded[1:-1] *= 0.5
    xi_table = 0.25 * np.pi * (dct(padded, type=1) - A_left)
    theta = np.interp(targets, xi_table[::-1], _lobatto_theta(m)[::-1])
    both = np.zeros((A.size, 2))
    both[:, 0] = A
    both[:map_.coeff_integrand.size, 1] = map_.coeff_integrand
    for _ in range(6):
        xi_raw, dxi = chebyshev.chebval(4.0 * theta / np.pi - 1.0, both)
        res = 0.25 * np.pi * (xi_raw - A_left) - targets
        new = np.clip(theta - res / dxi, 0.0, 0.5 * np.pi)
        done = float(np.max(np.abs(new - theta))) <= 1e-15
        theta = new
        if done:
            break
    return theta


# near-saddle E, near-peakon a, and b at both ends of the range
INVERSION_GRID = [(b, a_frac, e_frac) for b in (1.05, 2.0, 6.0)
                  for a_frac in (0.5, 0.995) for e_frac in (1e-3, 0.5, 0.9999)]


def _check_inversion(hp_map):
    x = np.arange(257) * (2.0 * hp_map.half_period / 512)
    theta = _invert_half_period(hp_map, x)
    assert np.max(np.abs(theta - _invert_by_chebval_newton(hp_map, x))) <= 1e-14


@pytest.mark.parametrize("b,a_frac,e_frac", INVERSION_GRID)
def test_inversion_matches_chebval_newton(b, a_frac, e_frac):
    params = _well_point(b, a_frac, e_frac)
    _check_inversion(_half_period_map(wave_integral(params).coeffs[0, 0]))


def test_inversion_matches_chebval_newton_past_table():
    # a map of degree 4097, twice the table, fitted directly at level 4096
    # (synthesis accepts level 128 at this small-amplitude point)
    params = _well_point(6.0, 0.995, 1e-4)
    G = _samples(_lobatto_theta(4096), params, turning_point_data(params))[2]
    hp_map = _half_period_map(_cheb_fit(G))
    assert hp_map.coeff_antideriv.size - 1 == 4097 > _INVERSION_TABLE
    _check_inversion(hp_map)


def test_small_amplitude_period_matches_mpmath():
    # E - V is ~1e-9 mid-orbit here, so the ~1e-17 rounding of V at the
    # roots bounds what double precision can do: adding the rounded
    # residual E - V(root) back into E - V put T 2.2e-8 off (measured now:
    # 1.3e-11); reference: mpmath at 40 digits, tanh-sinh in theta.  The
    # point is a = 0.995 a_max, E at 1e-4 of the well, given as literals:
    # derived, they would move with every rounding of a_max or the scan
    params = WaveParameters(b=6.0, a=0.05636951561727803,
                            E=0.014156607836324518, c=1.0)
    T_mpmath = 18.716823842957643
    assert abs(synthesize_profile(params, 512).T - T_mpmath) <= 1e-10 * T_mpmath
    assert abs(period(params) - T_mpmath) <= 1e-10 * T_mpmath


@pytest.mark.parametrize("shape", [(2,), (3,), (4,), (257,), (4098,), (3, 257)])
def test_chebyshev_helpers_match_numpy(shape):
    """Degrees 1, 2, 3, 256 and 4097, and a stack of three series as the
    fixed-phase derivatives pass; the scale is the same operation on |c|,
    the size of the terms that rounding acts on."""
    c = np.random.default_rng(shape[-1]).standard_normal(shape)
    for mine, numpy_op in (
            (_cheb_integral, lambda a: chebyshev.chebint(a, lbnd=-1.0, axis=-1)),
            (_cheb_derivative, lambda a: chebyshev.chebder(a, axis=-1))):
        got, want = mine(c), numpy_op(c)
        assert got.shape == want.shape
        scale = np.max(np.abs(numpy_op(np.abs(c))))
        assert np.max(np.abs(got - want)) <= 1e-15 * scale


@pytest.mark.parametrize("shape", [(65,), (129,), (2049,), (1, 1, 65),
                                   (3, 3, 129)])
def test_dct1_matches_scipy(shape):
    """The rfft route to the DCT-I against scipy's at the shapes passed: a
    Lobatto level, the inversion table, and stacks of integrands by
    complex steps.  A complex stack's imaginary part is step-sized, and
    each part keeps its own accuracy."""
    rng = np.random.default_rng(shape[-1])
    x = rng.standard_normal(shape)
    z = x + 1e-30j * rng.standard_normal(shape)
    bound = lambda v: 1e-15 * np.max(np.abs(v)) * shape[-1]
    assert np.max(np.abs(_dct1(x) - dct(x, type=1))) <= bound(x)
    got, want = _dct1(z), dct(z, type=1)
    assert got.shape == want.shape
    for part in (np.real, np.imag):
        assert np.max(np.abs(part(got) - part(want))) <= bound(part(z))


def test_cheb_values_matches_chebval(ref_profile):
    """The recurrence-row evaluation against numpy's chebval at the degrees
    synthesis uses, at its 257 theta samples: the reference wave's map
    (level 128), its three parameter derivatives from the invariants'
    complex-step table, and a map of degree 4097 from level 4096."""
    t = 4.0 * ref_profile.theta / np.pi - 1.0
    params = ref_profile.params
    series = [_half_period_map(wave_integral(params).coeffs[0, 0]).coeff_antideriv]
    G_rows = _complex_step_table(params)[2].coeffs[0]
    series.append(_cheb_integral(G_rows.imag / _COMPLEX_STEP))
    far = _well_point(6.0, 0.995, 1e-4)
    G = _samples(_lobatto_theta(4096), far, turning_point_data(far))[2]
    series.append(_half_period_map(_cheb_fit(G)).coeff_antideriv)
    assert [c.shape for c in series] == [(130,), (3, 130), (4098,)]
    for c in series:
        got = _cheb_values(c, t)
        want = chebyshev.chebval(t, c.T)
        assert got.shape == want.shape
        scale = np.sum(np.abs(c), axis=-1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-15 * scale)


def _noise_cut_loop(mag):
    """Oracle route for _noise_cut: the window scan one k at a time."""
    cutoff = 1e-13 * mag.max()
    for k in range(1, mag.size - 8):
        if np.all(mag[k:k + 8] < cutoff):
            return k
    return mag.size


def test_noise_cut_matches_loop(reference_points):
    cuts = []
    for point in reference_points["panel"]:
        params = WaveParameters(point["b"], point["a"], point["E"], point["c"])
        prof = synthesize_profile(params, 512)
        # the unfiltered samples, rebuilt from the synthesis' own theta
        half = prof.N // 2
        phi_half = prof.phi_min + (prof.phi_max - prof.phi_min) * np.sin(prof.theta) ** 2
        phi_half[0], phi_half[half] = prof.phi_max, prof.phi_min
        ch = np.fft.rfft(np.concatenate([phi_half, phi_half[-2:0:-1]]))
        k_cut = _noise_cut(np.abs(ch))
        assert k_cut == _noise_cut_loop(np.abs(ch))
        ch[k_cut:] = 0.0
        assert np.array_equal(np.fft.irfft(ch, n=prof.N), prof.phi)
        cuts.append(k_cut)
    assert min(cuts) < 257  # the filter acts on the panel
    # no quiet window; one only in the last 8 modes, which is not scanned;
    # one in the last window that is
    loud = np.ones(257)
    tail = np.concatenate([np.ones(249), np.zeros(8)])
    last = np.concatenate([np.ones(248), np.zeros(8), np.ones(1)])
    for mag, want in ((loud, 257), (tail, 257), (last, 248)):
        assert _noise_cut(mag) == _noise_cut_loop(mag) == want


def test_turning_point_memo(ref_params):
    fresh = turning_point_data.__wrapped__
    assert turning_point_data(ref_params) == fresh(ref_params)
    assert turning_point_data(ref_params) is turning_point_data(ref_params)
    other = dataclasses.replace(ref_params, E=0.08)
    assert turning_point_data(other) == fresh(other)
    assert turning_point_data(other) != turning_point_data(ref_params)
    assert turning_point_data(ref_params) == fresh(ref_params)


def test_turning_points_once_per_point(ref_params):
    """A sweep row and a full certificate each find the roots once."""
    from bchwaves import assemble_operator, proof_identities
    from bchwaves.invariants import classify_stability
    from bchwaves.spectral import coercivity_probe, periodic_spectrum
    from bchwaves.cli import _sweep_row

    turning_point_data.cache_clear()
    row = _sweep_row({"index": 0, "b": ref_params.b, "a": ref_params.a,
                      "e_mode": "abs", "e_val": ref_params.E, "c": ref_params.c})
    assert row["status"] == "ok"
    assert turning_point_data.cache_info().misses == 1

    turning_point_data.cache_clear()
    classify_stability(ref_params)
    prof = synthesize_profile(ref_params, 512)
    coeffs = assemble_operator(prof)
    periodic_spectrum(coeffs, M=128)
    proof_identities(prof, coeffs=coeffs)
    coercivity_probe(coeffs, prof, trials=16)
    assert turning_point_data.cache_info().misses == 1


def test_synthesis_memo(ref_params, ref_scan):
    """One entry, shared by positional, keyword and default N; a refused
    point is refused again rather than remembered."""
    prof = synthesize_profile(ref_params, 512)
    assert synthesize_profile(ref_params, N=512) is prof
    assert synthesize_profile(ref_params) is prof
    assert _synthesized.cache_info().misses == 1
    assert synthesize_profile(ref_params, 256).N == 256
    other = dataclasses.replace(ref_params, E=0.08)
    assert synthesize_profile(other, 512).params == other
    again = synthesize_profile(ref_params, 512)
    assert again is not prof and np.array_equal(again.mu, prof.mu)
    refused = dataclasses.replace(ref_params, E=ref_scan.V_phi2 + 1e-13)
    for _ in range(2):
        with pytest.raises(NotInExistenceSet):
            synthesize_profile(refused, 512)


def test_crest_at_the_bracket_end_is_refused_as_near_peakon():
    """b -> 1+: E - V is still positive at c (1 - 1e-12), so the crest lies
    closer to c than the search bracket reaches."""
    params = WaveParameters(b=1.01, a=0.012413964995495415,
                            E=1.241042475576888, c=1.0)
    with pytest.raises(NotInExistenceSet, match="crest lies within 1e-12"):
        turning_point_data(params)
