import dataclasses

import numpy as np
import pytest

from bchwaves import (BlowUp, PositivityLost, WaveParameters, cfl_dt,
                      make_perturbation, orbital_distance,
                      reconstruct_velocity, run_experiment, step,
                      synthesize_profile)
from bchwaves import fourier
from bchwaves.evolution import EvolutionState, rhs
from bchwaves.invariants import delta_F1, delta_F2

from conftest import sample_admissible
from state_oracle import circular_shift, h1_shift_distance


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
    dealiased products done separately, the frame term dealiased too."""
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
    return np.fft.irfft(frame_speed * mxh * mask - advh - b * strainh, n=n)


def _step_ten_transforms(state, dt, b, frame_speed):
    """Oracle route for step: RK4 on the rfft coefficients of state.m,
    each stage one stacked inverse transform of [mh, mh/(1+k^2), ik mh,
    ik mh/(1+k^2)] and one rfft of the product, the new m one inverse
    transform (10 transforms).  Returns the new m and the CFL number of
    the stage-1 velocity."""
    n = state.m.shape[-1]
    period = state.dx * n
    _, deriv, mask, helm = fourier.rfft_tools(n, period)

    def rhs_hat(mh):
        stack = np.empty((4, mh.shape[-1]), dtype=complex)
        stack[0] = mh
        np.divide(mh, helm, out=stack[1])
        np.multiply(deriv, mh, out=stack[2])
        np.multiply(deriv, stack[1], out=stack[3])
        m, u, m_x, u_x = np.fft.irfft(stack, n=n)
        prodh = np.fft.rfft(u * m_x + b * (m * u_x))
        return (frame_speed * stack[2] - prodh) * mask, u

    mh = np.fft.rfft(state.m)
    k1, u = rhs_hat(mh)
    k2, _ = rhs_hat(mh + (0.5 * dt) * k1)
    k3, _ = rhs_hat(mh + (0.5 * dt) * k2)
    k4, _ = rhs_hat(mh + dt * k3)
    m_new = np.fft.irfft(mh + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4), n=n)
    return m_new, float(np.max(np.abs(u - frame_speed))) * dt / state.dx


def _filtered_initial_data(profile, n, eps, seed):
    """run_experiment's initial data: the 2/3-filtered wave on n points
    plus its raw perturbation of H^1 norm eps."""
    T, b = profile.T, profile.params.b
    mu = fourier.resample(profile.mu, n) if n != profile.N else profile.mu
    mu = np.fft.irfft(np.fft.rfft(mu) * fourier.rfft_tools(n, T)[2], n=n)
    return mu + make_perturbation(mu, T, b, eps, seed=seed)


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
        shifted = circular_shift(mu, frac * T, T)
        rho, x0 = orbital_distance(np.fft.rfft(shifted), np.fft.rfft(mu),
                                   mu.size, T)
        assert rho < 1e-10
        assert x0 == pytest.approx(frac * T, abs=1e-6)


def test_orbital_distance_bounded_by_eps(ref_profile):
    T = ref_profile.T
    v = make_perturbation(ref_profile.mu, T, 2.0, 1e-3, seed=4)
    rho, _ = orbital_distance(np.fft.rfft(ref_profile.mu + v),
                              np.fft.rfft(ref_profile.mu), ref_profile.N, T)
    assert rho <= 1e-3 + 1e-12


def test_orbital_distance_shift_invariance(ref_profile):
    T = ref_profile.T
    v = make_perturbation(ref_profile.mu, T, 2.0, 1e-3, seed=4)
    m = ref_profile.mu + v
    muh = np.fft.rfft(ref_profile.mu)
    rho1, _ = orbital_distance(np.fft.rfft(m), muh, m.size, T)
    rho2, _ = orbital_distance(
        np.fft.rfft(circular_shift(m, 1.2345, T)), muh, m.size, T)
    assert abs(rho1 - rho2) < 1e-9


def test_orbital_distance_brute_force_oracle(ref_profile):
    """Independent oracle: direct shifted-norm evaluations on a 4N scan,
    locally refined by golden section on the same direct route; on the
    profile's grid and on an odd one (N = 511), whose half spectrum has
    the length of N = 510's."""
    T = ref_profile.T
    for n in (ref_profile.N, 511):
        mu = fourier.resample(ref_profile.mu, n)
        v = make_perturbation(mu, T, 2.0, 1e-3, seed=4)
        m = mu + v
        rho, _ = orbital_distance(np.fft.rfft(m), np.fft.rfft(mu), n, T)

        shifts = np.arange(4 * n) * (T / (4 * n))
        dists = np.array([h1_shift_distance(m, mu, T, s) for s in shifts])
        j = int(np.argmin(dists))
        s_best = _golden_section_min(lambda s: h1_shift_distance(m, mu, T, s),
                                     shifts[j] - T / (4 * n),
                                     shifts[j] + T / (4 * n))
        rho_brute = h1_shift_distance(m, mu, T, s_best)
        assert abs(rho - rho_brute) < 1e-6
    with pytest.raises(ValueError, match="n = 511"):
        orbital_distance(np.fft.rfft(m)[:-1], np.fft.rfft(mu)[:-1], n, T)


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
    expected = circular_shift(mu, params.c * t_end, T)
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


@pytest.mark.parametrize("name, value", [
    ("eps", -1e-3), ("eps", np.nan), ("eps", np.inf),
    ("horizon_periods", -1.0), ("horizon_periods", 0.0),
    ("horizon_periods", np.nan), ("horizon_periods", np.inf),
    ("dt_safety", 0.0), ("dt_safety", -0.5), ("dt_safety", np.nan),
    ("dt_safety", np.inf)])
def test_run_experiment_refuses_out_of_range_input(ref_profile, name, value):
    """Unchecked, horizon_periods = -1 takes one backward step,
    dt_safety = 0 divides by zero, dt_safety = -0.5 takes one step over
    the whole horizon, and eps = -1e-3 runs unperturbed."""
    kwargs = dict(eps=1e-3, horizon_periods=0.1, dt_safety=0.5)
    kwargs[name] = value
    with pytest.raises(ValueError, match=name):
        run_experiment(ref_profile, N=128, n_samples=2, **kwargs)


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
    m = circular_shift(mu + v, 0.3 * T, T)
    rho, x0 = orbital_distance(np.fft.rfft(m), np.fft.rfft(mu), m.size, T)
    rho_gold, x0_gold = _orbital_distance_golden(m, mu, T)
    assert abs(rho - rho_gold) <= 1e-9
    assert x0 == pytest.approx(x0_gold, abs=1e-6)


def test_cfl_max_recorded(ref_profile):
    """The worst CFL number over the run is reported and is at least the
    one of the initial data at the step actually taken."""
    T, c = ref_profile.T, ref_profile.params.c
    n = 256
    diag = run_experiment(ref_profile, eps=1e-3, horizon_periods=0.5, N=n,
                          n_samples=4, seed=5)
    assert diag.outcome == "completed"
    m0 = _filtered_initial_data(ref_profile, n, 1e-3, 5)
    cfl0 = (float(np.max(np.abs(reconstruct_velocity(m0, T) - c)))
            * diag.config["dt"] / (T / n))
    assert diag.config["cfl_max"] >= cfl0 * (1.0 - 1e-12)
    assert cfl0 <= diag.config["dt_safety"] * (1.0 + 1e-12)


def test_rhs_dealiased_on_every_mode():
    """The 2/3 mask covers the frame term c m_x as well as the products."""
    n, T = 256, 7.0
    rng = np.random.default_rng(3)
    m = 1.0 + 0.05 * rng.standard_normal(n)  # every mode populated
    out = np.abs(np.fft.rfft(rhs(m, T, 2.0, 1.3)))
    assert np.max(out[np.arange(n // 2 + 1) > n / 3]) <= 1e-14 * np.max(out)


@pytest.mark.parametrize("N", [256, 512])
def test_exact_steep_wave_stays_positive(N):
    """Left undealiased on the modes above N/3, the frame term put the
    linearised step's spectral radius at 3.03 / dt here, past RK4's limit
    2 sqrt(2), and the exact wave left the positive cone within a period."""
    prof = synthesize_profile(WaveParameters(b=2.0, a=0.1722, E=0.0194, c=1.378), N)
    diag = run_experiment(prof, eps=0.0, horizon_periods=1.0, N=N, n_samples=20)
    assert diag.outcome == "completed"
    assert diag.max_rho < 1e-8


def test_exact_waves_complete_one_period():
    """Every exact wave of the acceptance sample stays put for one period
    (3 of these 10 lost positivity before the whole RHS was dealiased)."""
    for params in sample_admissible(10, seed=2024):
        diag = run_experiment(synthesize_profile(params, 256), eps=0.0,
                              horizon_periods=1.0, N=256, n_samples=10)
        assert diag.outcome == "completed", params
        assert diag.max_rho < 1e-8, params


@pytest.mark.parametrize("n, n_steps", [(512, 643), (511, 50)])
def test_step_matches_ten_transforms(ref_profile, n, n_steps):
    """The spectrum-holding step against the ten-transform oracle, which
    rebuilds the coefficients from m every step: one period of the
    benchmark's eps = 1e-3 member at N = 512 (643 steps), and 50 steps on
    an odd grid."""
    T, b, c = ref_profile.T, ref_profile.params.b, ref_profile.params.c
    m0 = _filtered_initial_data(ref_profile, n, 1e-3, 11)
    horizon = T / c
    period_steps = int(np.ceil(horizon / cfl_dt(m0, T, c, safety=0.5)))
    assert period_steps >= n_steps
    dt = horizon / period_steps
    state = EvolutionState(t=0.0, m=m0, dx=T / n)
    m_oracle = m0
    worst_cfl = 0.0
    for _ in range(n_steps):
        m_oracle, cfl_oracle = _step_ten_transforms(
            EvolutionState(t=state.t, m=m_oracle, dx=state.dx), dt, b, c)
        state = step(state, dt, b, c)
        worst_cfl = max(worst_cfl, abs(state.cfl - cfl_oracle) / cfl_oracle)
    err = np.max(np.abs(state.m - m_oracle)) / np.max(np.abs(m_oracle))
    assert err <= 1e-12
    assert worst_cfl <= 1e-14


def test_stepped_state_is_read_only(ref_profile):
    n = 256
    m0 = _filtered_initial_data(ref_profile, n, 1e-3, 11)
    state = step(EvolutionState(t=0.0, m=m0, dx=ref_profile.T / n), 1e-3,
                 ref_profile.params.b, ref_profile.params.c)
    with pytest.raises(ValueError):
        state.m[0] = 1.0
    for derived in (state.spectrum, state.fields):
        with pytest.raises(ValueError):
            derived[0, ...] = 0.0
    assert state.m.base is state.fields


def test_replaced_state_steps_from_its_own_m(ref_profile):
    """dataclasses.replace makes a state whose spectrum and fields are
    those of the new m, also when that m is a view of the old fields."""
    n = 256
    T, b, c = ref_profile.T, ref_profile.params.b, ref_profile.params.c
    m0 = _filtered_initial_data(ref_profile, n, 1e-3, 11)
    state = step(EvolutionState(t=0.0, m=m0, dx=T / n), 1e-3, b, c)
    for other in (_filtered_initial_data(ref_profile, n, 1e-3, 4),
                  state.m[::-1]):
        got = step(dataclasses.replace(state, m=other), 1e-3, b, c)
        want = step(EvolutionState(t=state.t, m=other, dx=state.dx), 1e-3, b, c)
        assert np.array_equal(got.m, want.m)
        assert got.cfl == want.cfl


def test_step_takes_eight_transforms(ref_profile, monkeypatch):
    """Only the first step of a chain transforms a user-built m; every
    later one takes 8 numpy FFT calls.  The sampled diagnostics read m_x
    from the carried fields, not from spectral_derivative."""
    calls = {"fft": 0, "spectral_derivative": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name), "fft"))
    monkeypatch.setattr(fourier, "spectral_derivative",
                        counted(fourier.spectral_derivative,
                                "spectral_derivative"))
    n = 256
    state = EvolutionState(t=0.0, m=_filtered_initial_data(ref_profile, n, 1e-3, 11),
                           dx=ref_profile.T / n)
    per_step = []
    for _ in range(6):
        before = calls["fft"]
        state = step(state, 1e-3, ref_profile.params.b, ref_profile.params.c)
        per_step.append(calls["fft"] - before)
    assert per_step[1:] == [8] * 5

    diag = run_experiment(ref_profile, eps=1e-3, horizon_periods=0.2, N=n,
                          n_samples=10, seed=11)
    assert diag.outcome == "completed"
    assert calls["spectral_derivative"] <= 1


def test_one_period_ladder_within_benchmark_bounds(ref_profile):
    """The evolve benchmark's ladder (one period, N = 512, seed 11, 100
    samples) within the bounds of its check: every member completes, the
    invariants drift by < 1e-8, the unperturbed wave stays within 1e-6 of
    its orbit, and max_rho/eps varies by < 3x across the perturbed ones."""
    ratios = []
    for eps in (1e-3, 5e-4, 2.5e-4, 0.0):
        diag = run_experiment(ref_profile, eps=eps, horizon_periods=1.0,
                              N=512, seed=11, n_samples=100)
        assert diag.outcome == "completed"
        assert max(diag.E_drift.max(), diag.F1_drift.max(),
                   diag.F2_drift.max()) < 1e-8
        if eps > 0.0:
            ratios.append(diag.ratio)
        else:
            assert diag.max_rho < 1e-6
    assert max(ratios) / min(ratios) < 3.0


def test_sample_takes_one_transform(ref_profile, monkeypatch):
    """An orbital-distance sample takes one numpy FFT call, and after the
    2/3 filter run_experiment takes no rfft of the reference: the samples
    read its half spectrum from the filter."""
    from bchwaves import evolution

    n = 256
    mu = fourier.resample(ref_profile.mu, n)  # the filtered reference
    mu = np.fft.irfft(np.fft.rfft(mu) * fourier.rfft_tools(n, ref_profile.T)[2], n=n)
    calls = []

    def counted(name):
        fn = getattr(np.fft, name)

        def wrapper(a, *args, **kwargs):
            calls.append((name, np.array_equal(a, mu)))
            return fn(a, *args, **kwargs)
        return wrapper

    per_sample = []

    def sample(*args):
        before = len(calls)
        out = orbital_distance(*args)
        per_sample.append(len(calls) - before)
        return out

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(name))
    monkeypatch.setattr(evolution, "orbital_distance", sample)
    diag = run_experiment(ref_profile, eps=1e-3, horizon_periods=0.2, N=n,
                          n_samples=10, seed=11)
    assert diag.outcome == "completed"
    assert per_sample == [1] * diag.rho.size
    assert ("rfft", True) not in calls
