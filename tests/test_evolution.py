import dataclasses

import numpy as np
import pytest

from bchwaves import (BlowUp, PositivityLost, cfl_dt, make_perturbation,
                      orbital_distance, reconstruct_velocity, run_experiment,
                      step)
from bchwaves import fourier
from bchwaves.evolution import EvolutionState, h1_shift_distance, rhs
from bchwaves.invariants import delta_F1, delta_F2


def _golden_section_min(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Minimizer of a unimodal f on [lo, hi] to within tol."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 > f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
    return 0.5 * (lo + hi)


def _orbital_distance_golden(m, ref, period):
    """Oracle route for orbital_distance: the full-spectrum H^1
    cross-correlation on the grid, its maximum refined by golden-section
    search on the continuous correlation to 1e-10 in the shift."""
    n = m.shape[-1]
    k = fourier.wavenumbers(n, period)
    w = 1.0 + k**2
    mh = np.fft.fft(m) / n
    gh = np.fft.fft(ref) / n
    norms = period * float(np.sum(w * (np.abs(mh) ** 2 + np.abs(gh) ** 2)))
    coef = w * mh * np.conj(gh)
    j0 = int(np.argmax(np.real(np.fft.ifft(coef))))
    dx = period / n

    def corr(s):
        return period * float(np.real(np.sum(coef * np.exp(1j * k * s))))

    s_best = _golden_section_min(lambda s: -corr(s), (j0 - 1) * dx,
                                 (j0 + 1) * dx)
    rho_sq = norms - 2.0 * corr(s_best)
    return float(np.sqrt(max(rho_sq, 0.0))), s_best % period


def _rhs_six_transforms(m, period, b, frame_speed):
    """Oracle route for rhs: the three inverse transforms and the two
    dealiased products done separately."""
    n = m.shape[-1]
    kr = 2.0 * np.pi * np.arange(n // 2 + 1) / period
    deriv = 1j * kr
    if n % 2 == 0:
        deriv[-1] = 0.0
    mask = np.arange(n // 2 + 1) <= n / 3.0
    mh = np.fft.rfft(m)
    uh = mh / (1.0 + kr**2)
    mxh = deriv * mh
    u = np.fft.irfft(uh, n=n)
    m_x = np.fft.irfft(mxh, n=n)
    u_x = np.fft.irfft(deriv * uh, n=n)
    advh = np.fft.rfft(u * m_x) * mask
    strainh = np.fft.rfft(m * u_x) * mask
    return np.fft.irfft(frame_speed * mxh - advh - b * strainh, n=n)


def test_reconstruct_constant():
    m = np.full(256, 1.7)
    assert np.max(np.abs(reconstruct_velocity(m, 5.0) - 1.7)) < 1e-14


def test_reconstruct_single_mode():
    T = 6.0
    x = np.arange(256) * T / 256
    m = np.cos(2 * np.pi * x / T)
    u = reconstruct_velocity(m, T)
    assert np.allclose(u, m / (1.0 + (2 * np.pi / T) ** 2), atol=1e-14)


def test_reconstruct_roundtrip(ref_profile):
    u = reconstruct_velocity(ref_profile.mu, ref_profile.T)
    m_back = u - fourier.spectral_derivative(u, ref_profile.T, 2)
    # exact on the trigonometric space; the floor is k_max^2 roundoff
    assert np.max(np.abs(m_back - ref_profile.mu)) < 2e-11


def test_constant_state_stationary():
    T = 5.0
    m = np.full(128, 0.8)
    assert np.max(np.abs(rhs(m, T, 2.0, 0.7))) < 1e-15
    state = EvolutionState(t=0.0, m=m, dx=T / 128)
    out = step(state, 0.01, 2.0, 0.7)
    assert np.max(np.abs(out.m - m)) < 1e-14


def test_rk4_order(ref_profile):
    """Halving dt cuts the fixed-horizon error by about 2^4."""
    params = ref_profile.params
    T = ref_profile.T
    n = 256
    mu = fourier.resample(ref_profile.mu, n)
    v = make_perturbation(mu, T, params.b, 1e-2, seed=2)
    m0 = mu + v

    def advance(dt, t_end):
        state = EvolutionState(t=0.0, m=m0.copy(), dx=T / n)
        steps = int(round(t_end / dt))
        for _ in range(steps):
            state = step(state, dt, params.b, params.c)
        return state.m

    dt0 = cfl_dt(m0, T, params.c, safety=0.45)
    t_end = 64 * dt0
    ref = advance(dt0 / 8, t_end)
    err1 = np.max(np.abs(advance(dt0, t_end) - ref))
    err2 = np.max(np.abs(advance(dt0 / 2, t_end) - ref))
    assert 10.0 < err1 / err2 < 22.0


@pytest.mark.slow
def test_exact_wave_stationary(ref_profile):
    diag = run_experiment(ref_profile, eps=0.0, horizon_periods=10.0, N=512,
                          n_samples=20)
    assert diag.outcome == "completed"
    assert diag.max_rho < 1e-6
    assert diag.E_drift.max() < 1e-12
    assert diag.F1_drift.max() < 1e-10
    assert diag.F2_drift.max() < 1e-9


def test_orbital_distance_exact_shift(ref_profile):
    T = ref_profile.T
    mu = ref_profile.mu
    for frac in (0.1, 0.3, 0.77):
        shifted = fourier.circular_shift(mu, frac * T, T)
        rho, x0 = orbital_distance(shifted, mu, T)
        assert rho < 1e-10
        assert x0 == pytest.approx(frac * T, abs=1e-6)


def test_orbital_distance_bounded_by_eps(ref_profile):
    T = ref_profile.T
    v = make_perturbation(ref_profile.mu, T, 2.0, 1e-3, seed=4)
    rho, _ = orbital_distance(ref_profile.mu + v, ref_profile.mu, T)
    assert rho <= 1e-3 + 1e-12


def test_orbital_distance_shift_invariance(ref_profile):
    T = ref_profile.T
    v = make_perturbation(ref_profile.mu, T, 2.0, 1e-3, seed=4)
    m = ref_profile.mu + v
    rho1, _ = orbital_distance(m, ref_profile.mu, T)
    rho2, _ = orbital_distance(fourier.circular_shift(m, 1.2345, T),
                               ref_profile.mu, T)
    assert abs(rho1 - rho2) < 1e-9


def test_orbital_distance_brute_force_oracle(ref_profile):
    """Independent oracle: direct shifted-norm evaluations on a 4N scan,
    locally refined by golden section on the same direct route."""
    T = ref_profile.T
    n = ref_profile.N
    mu = ref_profile.mu
    v = make_perturbation(mu, T, 2.0, 1e-3, seed=4)
    m = mu + v
    rho, _ = orbital_distance(m, mu, T)

    shifts = np.arange(4 * n) * (T / (4 * n))
    dists = np.array([h1_shift_distance(m, mu, T, s) for s in shifts])
    j = int(np.argmin(dists))
    s_best = _golden_section_min(lambda s: h1_shift_distance(m, mu, T, s),
                                 shifts[j] - T / (4 * n),
                                 shifts[j] + T / (4 * n))
    rho_brute = h1_shift_distance(m, mu, T, s_best)
    assert abs(rho - rho_brute) < 1e-6


def test_frame_equivalence(ref_profile):
    """Evolving in the lab frame and shifting by c t matches the
    traveling-frame picture at a checkpoint."""
    params = ref_profile.params
    T = ref_profile.T
    diag = run_experiment(ref_profile, eps=0.0, horizon_periods=1.0, N=256,
                          frame="lab", n_samples=4)
    assert diag.outcome == "completed"
    assert diag.max_rho < 1e-5  # rho is shift-minimized, frame-agnostic
    # explicit shift comparison
    n = 256
    mu = fourier.resample(ref_profile.mu, n)
    mu = np.fft.irfft(np.fft.rfft(mu) * fourier.rfft_tools(n, T)[2], n=n)
    state = EvolutionState(t=0.0, m=mu.copy(), dx=T / n)
    t_end = 0.37 * T / params.c
    dt = cfl_dt(mu, T, 0.0, safety=0.4)
    steps = int(np.ceil(t_end / dt))
    dt = t_end / steps
    for _ in range(steps):
        state = step(state, dt, params.b, 0.0)
    expected = fourier.circular_shift(mu, params.c * t_end, T)
    assert np.max(np.abs(state.m - expected)) < 1e-5


def _make_perturbation_inline(mu, period, b, eps, mode, seed):
    """Oracle route for make_perturbation: its own band-limited draw (real
    parts, then imaginary parts) and an explicit two-vector Gram-Schmidt."""
    n = mu.shape[-1]
    rng = np.random.default_rng(seed)
    kmax = max(n // 8, 4)
    c = np.zeros(n // 2 + 1, dtype=complex)
    kk = np.arange(1, kmax)
    c[1:kmax] = ((rng.standard_normal(kmax - 1)
                  + 1j * rng.standard_normal(kmax - 1)) / (1.0 + kk) ** 2)
    v = np.fft.irfft(c, n=n)
    if mode == "constrained":
        dmu = fourier.spectral_derivative(mu, period, 1)
        d2mu = fourier.spectral_derivative(mu, period, 2)
        g1, g2 = delta_F1(mu, b), delta_F2(mu, dmu, d2mu, b)
        u1 = g1 / fourier.l2_norm(g1, period)
        u2 = g2 - fourier.l2_inner(g2, u1, period) * u1
        u2 /= fourier.l2_norm(u2, period)
        for u in (u1, u2):
            v = v - fourier.l2_inner(v, u, period) * u
    return v * (eps / fourier.h1_norm(v, period))


@pytest.mark.parametrize("mode", ["raw", "constrained"])
def test_perturbation_matches_inline_route(ref_profile, mode):
    T, b = ref_profile.T, ref_profile.params.b
    for seed in (4, 11):
        got = make_perturbation(ref_profile.mu, T, b, 1e-3, mode=mode, seed=seed)
        want = _make_perturbation_inline(ref_profile.mu, T, b, 1e-3, mode, seed)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_perturbation_modes(ref_profile):
    T, b = ref_profile.T, ref_profile.params.b
    v = make_perturbation(ref_profile.mu, T, b, 2e-3, mode="raw", seed=7)
    assert fourier.h1_norm(v, T) == pytest.approx(2e-3, rel=1e-12)
    vc = make_perturbation(ref_profile.mu, T, b, 2e-3, mode="constrained", seed=7)
    assert fourier.h1_norm(vc, T) == pytest.approx(2e-3, rel=1e-12)
    mu = ref_profile.mu
    dmu = fourier.spectral_derivative(mu, T, 1)
    d2mu = fourier.spectral_derivative(mu, T, 2)
    g1, g2 = delta_F1(mu, b), delta_F2(mu, dmu, d2mu, b)
    for g in (g1, g2):
        assert abs(fourier.l2_inner(vc, g, T)) < 1e-12 * fourier.l2_norm(g, T)
    with pytest.raises(ValueError):
        make_perturbation(mu, T, b, 1e-3, mode="bogus")


def test_positivity_guard(ref_profile):
    with pytest.raises(PositivityLost):
        run_experiment(ref_profile, eps=50.0, horizon_periods=0.1, N=128)


def test_violent_step_aborts(ref_profile):
    n = 128
    T = ref_profile.T
    mu = fourier.resample(ref_profile.mu, n)
    state = EvolutionState(t=0.0, m=mu, dx=T / n)
    with pytest.raises((PositivityLost, BlowUp)):
        s = state
        for _ in range(50):
            s = step(s, 100.0, 2.0, 1.0)  # grossly unstable step size


def test_step_rejects_nan_state():
    m = np.full(64, 0.8)
    m[17] = np.nan
    state = EvolutionState(t=0.0, m=m, dx=5.0 / 64)
    with pytest.raises(BlowUp):
        step(state, 0.01, 2.0, 0.7)


def test_run_experiment_rejects_nan_profile(ref_profile):
    mu = ref_profile.mu.copy()
    mu[5] = np.nan
    bad = dataclasses.replace(ref_profile, mu=mu)
    with pytest.raises(PositivityLost):
        run_experiment(bad, eps=0.0, horizon_periods=0.1, N=ref_profile.N,
                       n_samples=2)


def test_constrained_run_smoke(ref_profile):
    diag = run_experiment(ref_profile, eps=5e-4, horizon_periods=2.0, N=256,
                          mode="constrained", n_samples=10, seed=3)
    assert diag.outcome == "completed"
    assert diag.max_rho < 10 * 5e-4


@pytest.mark.parametrize("n", [512, 511])
def test_fused_rhs_matches_six_transforms(ref_profile, n):
    T, b, c = ref_profile.T, ref_profile.params.b, ref_profile.params.c
    mu = fourier.resample(ref_profile.mu, n)
    m = mu + make_perturbation(mu, T, b, 1e-2, seed=6)
    expected = _rhs_six_transforms(m, T, b, c)
    err = np.max(np.abs(rhs(m, T, b, c) - expected))
    assert err <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_orbital_distance_matches_golden_section(ref_profile, seed):
    T = ref_profile.T
    mu = ref_profile.mu
    v = make_perturbation(mu, T, 2.0, 1e-3, seed=seed)
    m = fourier.circular_shift(mu + v, 0.3 * T, T)
    rho, x0 = orbital_distance(m, mu, T)
    rho_gold, x0_gold = _orbital_distance_golden(m, mu, T)
    assert abs(rho - rho_gold) <= 1e-9
    assert x0 == pytest.approx(x0_gold, abs=1e-6)


def test_cfl_max_recorded(ref_profile):
    """The worst CFL number over the run is reported and is at least the
    one of the initial data at the step actually taken."""
    T, b, c = ref_profile.T, ref_profile.params.b, ref_profile.params.c
    n = 256
    diag = run_experiment(ref_profile, eps=1e-3, horizon_periods=0.5, N=n,
                          n_samples=4, seed=5)
    assert diag.outcome == "completed"
    mu = fourier.resample(ref_profile.mu, n)
    mu = np.fft.irfft(np.fft.rfft(mu) * fourier.rfft_tools(n, T)[2], n=n)
    m0 = mu + make_perturbation(mu, T, b, 1e-3, seed=5)
    cfl0 = (float(np.max(np.abs(reconstruct_velocity(m0, T) - c)))
            * diag.config["dt"] / (T / n))
    assert diag.config["cfl_max"] >= cfl0 * (1.0 - 1e-12)
    assert cfl0 <= diag.config["dt_safety"] * (1.0 + 1e-12)
