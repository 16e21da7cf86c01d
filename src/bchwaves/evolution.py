"""Pseudospectral time evolution of the momentum density on one period.

The equation in the frame moving with speed c is

    m_t = c m_x - u m_x - b m u_x,      u = (1 - d^2/dx^2)^(-1) m,

so a synthesized wave is a fixed point and orbital drift is measured
directly.  Setting the frame speed to zero gives the lab-frame equation.

Quadratic products are dealiased by the 2/3 rule, time stepping is a fixed
step classical RK4 on the rfft coefficients with the step chosen from the
initial advective CFL bound, and positivity of m (membership in the
admissible state space) is monitored every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fourier
from .errors import BlowUp, PositivityLost
from .invariants import delta_F1, delta_F2, invariant_densities
from .profile import WaveProfile

_BLOWUP_GUARD = 1e6
_NEWTON_MAXITER = 60


@dataclass(frozen=True)
class EvolutionState:
    """Momentum density on the grid at time t.  cfl is the advective
    number max|u - c| dt/dx of the step that produced the state (0 for
    initial data)."""

    t: float
    m: np.ndarray
    dx: float
    cfl: float = 0.0


@dataclass(frozen=True)
class RunDiagnostics:
    """Time series of conserved-quantity drifts and the orbital
    semidistance, plus the run outcome."""

    times: np.ndarray
    E_drift: np.ndarray
    F1_drift: np.ndarray
    F2_drift: np.ndarray
    rho: np.ndarray
    max_rho: float
    eps: float
    ratio: float
    outcome: str
    config: dict = field(default_factory=dict)


def reconstruct_velocity(m: np.ndarray, period: float) -> np.ndarray:
    """u = (1 - d^2/dx^2)^(-1) m via the Fourier symbol 1/(1 + k^2)."""
    n = m.shape[-1]
    return np.fft.irfft(np.fft.rfft(m) / fourier.rfft_tools(n, period)[3], n=n)


def _rhs_hat(mh: np.ndarray, n: int, period: float, b: float,
             frame_speed: float) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side in rfft space, from the rfft coefficients mh of m,
    and the velocity u on the grid.  One stacked inverse transform gives
    m, u, m_x and u_x; the product u m_x + b m u_x is dealiased as one."""
    _, deriv, mask, helm = fourier.rfft_tools(n, period)
    stack = np.empty((4, mh.shape[-1]), dtype=complex)
    stack[0] = mh
    np.divide(mh, helm, out=stack[1])
    np.multiply(deriv, mh, out=stack[2])
    np.multiply(deriv, stack[1], out=stack[3])
    m, u, m_x, u_x = np.fft.irfft(stack, n=n)
    prodh = np.fft.rfft(u * m_x + b * (m * u_x))
    return frame_speed * stack[2] - prodh * mask, u


def rhs(m: np.ndarray, period: float, b: float, frame_speed: float) -> np.ndarray:
    """Right-hand side c m_x - u m_x - b m u_x with dealiased products."""
    n = m.shape[-1]
    out, _ = _rhs_hat(np.fft.rfft(m), n, period, b, frame_speed)
    return np.fft.irfft(out, n=n)


def cfl_dt(m: np.ndarray, period: float, frame_speed: float,
           safety: float = 0.5) -> float:
    """Advective step bound safety * dx / max|u - c|."""
    n = m.shape[-1]
    u = reconstruct_velocity(m, period)
    speed = float(np.max(np.abs(u - frame_speed)))
    return safety * (period / n) / max(speed, 1e-300)


def step(state: EvolutionState, dt: float, b: float,
         frame_speed: float) -> EvolutionState:
    """One classical RK4 step in rfft space; aborts if m leaves the
    positive cone or exceeds the blow-up guard."""
    n = state.m.shape[-1]
    period = state.dx * n
    mh = np.fft.rfft(state.m)
    k1, u = _rhs_hat(mh, n, period, b, frame_speed)
    k2, _ = _rhs_hat(mh + (0.5 * dt) * k1, n, period, b, frame_speed)
    k3, _ = _rhs_hat(mh + (0.5 * dt) * k2, n, period, b, frame_speed)
    k4, _ = _rhs_hat(mh + dt * k3, n, period, b, frame_speed)
    m_new = np.fft.irfft(mh + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4), n=n)
    m_min = float(np.min(m_new))
    if not m_min > 0.0:  # a NaN anywhere makes m_min NaN, which fails this too
        if np.isnan(m_min):
            raise BlowUp(f"m is not a number at t = {state.t + dt!r}")
        raise PositivityLost(f"min m = {m_min!r} at t = {state.t + dt!r}")
    if float(np.max(m_new)) > _BLOWUP_GUARD:  # m > 0 here, so this is sup|m|
        raise BlowUp(f"sup |m| exceeded {_BLOWUP_GUARD} at t = {state.t + dt!r}")
    cfl = float(np.max(np.abs(u - frame_speed))) * dt / state.dx
    return EvolutionState(t=state.t + dt, m=m_new, dx=state.dx, cfl=cfl)


def h1_shift_distance(m: np.ndarray, ref: np.ndarray, period: float,
                      shift: float) -> float:
    """Direct H^1 distance ||m - ref(. - shift)|| (oracle route)."""
    shifted = fourier.circular_shift(ref, shift, period)
    return fourier.h1_norm(m - shifted, period)


def orbital_distance(m: np.ndarray, ref: np.ndarray,
                     period: float) -> tuple[float, float]:
    """Distance to the group orbit of ref: minimize the H^1 norm of
    m - ref(. - x0) over the shift x0.

    The H^1 cross-correlation is evaluated at all grid shifts by one
    inverse rfft.  Its maximum is then refined by Newton iteration on the
    trigonometric polynomial, with closed-form first and second
    derivatives; every iterate stays inside the bracket (j0 +- 1) dx
    around the grid maximum j0 (bisection when a Newton step would leave
    it), until the step is at most 1e-13 T.  The distance at that shift
    is summed directly over the half spectrum of m - ref(. - x0).
    """
    n = m.shape[-1]
    kr, _, _, helm = fourier.rfft_tools(n, period)
    mh = np.fft.rfft(m) / n
    gh = np.fft.rfft(ref) / n
    cross = mh * np.conj(gh)
    j0 = int(np.argmax(np.fft.irfft(helm * cross, n=n)))
    w = fourier.h1_weights(n, period)
    coef = w * cross
    kcoef = kr * coef
    k2coef = kr * kcoef

    dx = period / n
    lo, hi = (j0 - 1) * dx, (j0 + 1) * dx
    s = j0 * dx
    for _ in range(_NEWTON_MAXITER):
        phase = np.exp(1j * kr * s)
        d1 = -float(np.imag(kcoef @ phase))
        if d1 == 0.0:
            break
        if d1 > 0.0:
            lo = s
        else:
            hi = s
        d2 = -float(np.real(k2coef @ phase))
        s_new = s - d1 / d2 if d2 < 0.0 else 0.5 * (lo + hi)
        if not lo < s_new < hi:
            s_new = 0.5 * (lo + hi)
        done = abs(s_new - s) <= 1e-13 * period
        s = s_new
        if done:
            break
    # the distance itself, not |m|^2 + |ref|^2 - 2 corr, which cancels
    # to a ~1e-8 floor in rho when m is a shift of ref
    rho_sq = period * float(np.sum(w * np.abs(mh - gh * np.exp(-1j * kr * s)) ** 2))
    return float(np.sqrt(rho_sq)), float(s % period)


def make_perturbation(mu: np.ndarray, period: float, b: float, eps: float,
                      mode: str = "raw", seed: int = 0) -> np.ndarray:
    """Random smooth perturbation with H^1 norm eps.

    mode="constrained" projects onto the tangent space of the
    conserved-quantity level set (first-order matching of F1 and F2)
    before normalizing; mode="raw" leaves it generic.
    """
    n = mu.shape[-1]
    v = fourier.random_smooth(n, np.random.default_rng(seed), 1, max(n // 8, 4))[0]
    v -= np.mean(v)
    if mode == "constrained":
        dmu = fourier.spectral_derivative(mu, period, 1)
        d2mu = fourier.spectral_derivative(mu, period, 2)
        basis = fourier.orthonormalize(
            (delta_F1(mu, b), delta_F2(mu, dmu, d2mu, b)), period)
        v = fourier.project_out(v, basis, period)
    elif mode != "raw":
        raise ValueError(f"unknown perturbation mode {mode!r}")
    return v * (eps / fourier.h1_norm(v, period))


def run_experiment(profile: WaveProfile, eps: float,
                   horizon_periods: float = 50.0, N: int = 512,
                   dt_safety: float = 0.5, mode: str = "raw",
                   frame: str = "traveling", n_samples: int = 200,
                   seed: int = 0) -> RunDiagnostics:
    """Evolve mu + v and record conserved-quantity drifts and the orbital
    semidistance rho(m(t), mu) at sample instants.

    One period means the temporal period T/c of the lab-frame wave.
    Positivity loss and blow-up are experiment outcomes, recorded in the
    diagnostics rather than raised.
    """
    params = profile.params
    b, c = params.b, params.c
    period = profile.T
    frame_speed = c if frame == "traveling" else 0.0
    if frame not in ("traveling", "lab"):
        raise ValueError(f"unknown frame {frame!r}")

    n = N
    mu = fourier.resample(profile.mu, n) if n != profile.N else profile.mu.copy()
    mask = fourier.rfft_tools(n, period)[2]
    mu = np.fft.irfft(np.fft.rfft(mu) * mask, n=n)

    if eps > 0.0:
        v = make_perturbation(mu, period, b, eps, mode=mode, seed=seed)
        m0 = mu + v
    else:
        m0 = mu.copy()
    if not float(np.min(m0)) > 0.0:  # also refuses NaN data
        raise PositivityLost("initial data leaves the positive cone or holds NaN")

    horizon = horizon_periods * period / abs(c)
    dt0 = cfl_dt(m0, period, frame_speed, safety=dt_safety)
    n_steps = max(int(np.ceil(horizon / dt0)), 1)
    dt = horizon / n_steps
    stride = max(n_steps // max(n_samples, 1), 1)

    def _invariants(mm: np.ndarray) -> tuple[float, float, float]:
        """E, F1 and F2 of the density mm."""
        dens1, dens2 = invariant_densities(
            mm, fourier.spectral_derivative(mm, period, 1), b)
        return (fourier.grid_integral(mm, period),
                fourier.grid_integral(dens1, period),
                fourier.grid_integral(dens2, period))

    E0, F1_0, F2_0 = _invariants(m0)

    times, dE, dF1, dF2, rho_series = [], [], [], [], []

    def record(state: EvolutionState) -> None:
        mm = state.m
        times.append(state.t)
        e, f1, f2 = _invariants(mm)
        dE.append(abs(e - E0) / abs(E0))
        dF1.append(abs(f1 - F1_0) / abs(F1_0))
        dF2.append(abs(f2 - F2_0) / abs(F2_0))
        # the orbit contains all translates, so the same reference serves
        # both frames
        ref_dist, _ = orbital_distance(mm, mu, period)
        rho_series.append(ref_dist)

    state = EvolutionState(t=0.0, m=m0, dx=period / n)
    record(state)
    outcome = "completed"
    cfl_max = 0.0
    try:
        for i in range(1, n_steps + 1):
            state = step(state, dt, b, frame_speed)
            cfl_max = max(cfl_max, state.cfl)
            if i % stride == 0 or i == n_steps:
                record(state)
    except PositivityLost:
        outcome = "positivity_lost"
    except BlowUp:
        outcome = "blowup"

    rho_arr = np.array(rho_series)
    max_rho = float(np.max(rho_arr))
    return RunDiagnostics(
        times=np.array(times), E_drift=np.array(dE), F1_drift=np.array(dF1),
        F2_drift=np.array(dF2), rho=rho_arr, max_rho=max_rho, eps=eps,
        ratio=max_rho / eps if eps > 0.0 else float("nan"),
        outcome=outcome,
        config={"N": n, "dt": dt, "dt_safety": dt_safety, "horizon_periods":
                horizon_periods, "frame": frame, "mode": mode, "seed": seed,
                "n_steps": n_steps, "cfl_max": cfl_max, "b": b, "a": params.a,
                "E": params.E, "c": params.c})
