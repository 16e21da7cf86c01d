"""Pseudospectral time evolution of the momentum density on one period.

The equation in the frame moving with speed c is

    m_t = c m_x - u m_x - b m u_x,      u = (1 - d^2/dx^2)^(-1) m,

so a synthesized wave is a fixed point and orbital drift is measured
directly.  Setting the frame speed to zero gives the lab-frame equation.

The right-hand side is dealiased by the 2/3 rule, time stepping is a fixed
step classical RK4 on the rfft coefficients with the step chosen from the
initial advective CFL bound, and positivity of m (membership in the
admissible state space) is monitored every step.

A state holds its rfft half spectrum and the grid fields m, u, m_x and
u_x of one stacked inverse transform, which a stepped state gets from its
step.  They serve the state's m, the next step's first stage and the
samples, so a step takes 8 numpy FFT calls (one rfft at stage 1, one
stacked irfft and one rfft at each of stages 2-4, one stacked irfft for
the new state) and an orbital-distance sample 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import fourier
from .errors import BlowUp, PositivityLost
from .invariants import delta_F1, delta_F2, invariant_densities
from .profile import WaveProfile

_BLOWUP_GUARD = 1e6
_NEWTON_MAXITER = 60


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class EvolutionState:
    """Momentum density on the grid at time t.  cfl is the advective
    number max|u - c| dt/dx of the step that produced the state (0 for
    initial data).

    spectrum, the rfft half spectrum of m, and fields, the grid rows m, u,
    m_x, u_x of one stacked irfft of it, are read-only values of the
    state, not dataclass fields.  A stepped state gets both from its step,
    and its m is fields[0]; a state built from a grid m, or by
    dataclasses.replace, derives them on first use."""

    t: float
    m: np.ndarray
    dx: float
    cfl: float = 0.0

    @cached_property
    def spectrum(self) -> np.ndarray:
        return _read_only(np.fft.rfft(self.m))

    @cached_property
    def fields(self) -> np.ndarray:
        n = self.m.shape[-1]
        return _read_only(_fields(self.spectrum, n, self.dx * n))


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


@lru_cache(maxsize=16)
def _field_symbols(n: int, period: float) -> np.ndarray:
    """The read-only (4, n//2+1) stack [1, 1/(1+k^2), ik, ik/(1+k^2)]
    that maps mh to the coefficients of m, u, m_x and u_x."""
    _, deriv, _, helm = fourier.rfft_tools(n, period)
    inv_helm = 1.0 / helm
    return _read_only(np.array([np.ones_like(deriv), inv_helm, deriv,
                                deriv * inv_helm]))


@lru_cache(maxsize=16)
def _step_symbols(n: int, period: float, frame_speed: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The read-only masked frame term c ik mask, and the 2/3 mask.

    The mask covers the whole right-hand side, the frame term c m_x
    included.  Left on the modes above N/3, that term alone can put dt
    times the spectral radius of the linearised right-hand side past RK4's
    stability limit 2 sqrt(2) (3.03 at b = 2, a = 0.1722, E = 0.0194,
    c = 1.378 and dt_safety 0.5); rounding noise on those modes then grows
    until m leaves the positive cone."""
    _, deriv, mask, _ = fourier.rfft_tools(n, period)
    return _read_only(frame_speed * deriv * mask), mask


def _fields(mh: np.ndarray, n: int, period: float) -> np.ndarray:
    """m, u, m_x and u_x on the grid, as the rows of one stacked inverse
    transform of the coefficients mh."""
    return np.fft.irfft(_field_symbols(n, period) * mh, n=n, out=np.empty((4, n)))


def _stage(mh: np.ndarray, fields, b: float, frame: np.ndarray,
           mask: np.ndarray) -> np.ndarray:
    """rfft coefficients of the dealiased right-hand side
    c m_x - u m_x - b m u_x at the state with coefficients mh and grid
    fields (m, u, m_x, u_x); the product u m_x + b m u_x is formed as one."""
    m, u, m_x, u_x = fields
    prodh = np.fft.rfft(u * m_x + b * (m * u_x), out=np.empty_like(mh))
    prodh *= mask
    return frame * mh - prodh


def rhs(m: np.ndarray, period: float, b: float, frame_speed: float) -> np.ndarray:
    """Right-hand side c m_x - u m_x - b m u_x with dealiased products."""
    n = m.shape[-1]
    mh = np.fft.rfft(m)
    return np.fft.irfft(_stage(mh, _fields(mh, n, period), b,
                               *_step_symbols(n, period, frame_speed)), n=n)


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
    positive cone or exceeds the blow-up guard.

    Stage 1 reads the state's spectrum and fields (see EvolutionState),
    so the step takes 8 FFT calls, or 10 from a state that has not yet
    derived them.  The new state gets both from the stacked irfft that
    gives its m, which is the m checked here."""
    n = state.m.shape[-1]
    period = state.dx * n
    frame, mask = _step_symbols(n, period, frame_speed)
    mh = state.spectrum
    k1 = _stage(mh, state.fields, b, frame, mask)
    mh2 = mh + (0.5 * dt) * k1
    k2 = _stage(mh2, _fields(mh2, n, period), b, frame, mask)
    mh3 = mh + (0.5 * dt) * k2
    k3 = _stage(mh3, _fields(mh3, n, period), b, frame, mask)
    mh4 = mh + dt * k3
    k4 = _stage(mh4, _fields(mh4, n, period), b, frame, mask)
    t = state.t + dt
    u = state.fields[1]
    # max|u - c| without the temporary: rounding is monotone and odd, so
    # this is the same float
    speed = max(float(u.max()) - frame_speed, frame_speed - float(u.min()))
    mh_new = _read_only(mh + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4))
    grid = _read_only(_fields(mh_new, n, period))
    new = EvolutionState(t=t, m=grid[0], dx=state.dx, cfl=speed * dt / state.dx)
    object.__setattr__(new, "spectrum", mh_new)
    object.__setattr__(new, "fields", grid)
    m_min = float(new.m.min())
    if not m_min > 0.0:  # a NaN anywhere makes m_min NaN, which fails this too
        if np.isnan(m_min):
            raise BlowUp(f"m is not a number at t = {t!r}")
        raise PositivityLost(f"min m = {m_min!r} at t = {t!r}")
    if float(new.m.max()) > _BLOWUP_GUARD:  # m > 0 here, so this is sup|m|
        raise BlowUp(f"sup |m| exceeded {_BLOWUP_GUARD} at t = {t!r}")
    return new


def orbital_distance(mh: np.ndarray, refh: np.ndarray, n: int,
                     period: float) -> tuple[float, float]:
    """Distance to the group orbit of ref: minimize the H^1 norm of
    m - ref(. - x0) over the shift x0, from mh and refh, the rfft half
    spectra of m and ref on n points (n // 2 + 1 does not fix an odd n).

    The H^1 cross-correlation at all grid shifts is one inverse rfft, the
    only FFT call.  Its maximum is then refined by Newton iteration on the
    trigonometric polynomial, with closed-form first and second
    derivatives; every iterate stays inside the bracket (j0 +- 1) dx
    around the grid maximum j0 (bisection when a Newton step would leave
    it), until the step is at most 1e-13 T.  The distance at that shift is
    summed directly over the half spectrum of m - ref(. - x0).
    """
    if not mh.shape == refh.shape == (n // 2 + 1,):
        raise ValueError(f"half spectra {mh.shape}, {refh.shape} for n = {n}")
    kr, _, _, helm = fourier.rfft_tools(n, period)
    mh, gh = mh / n, refh / n
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
        v = fourier.project_out(v, (delta_F1(mu, b),
                                    delta_F2(mu, dmu, d2mu, b)))
    elif mode != "raw":
        raise ValueError(f"unknown perturbation mode {mode!r}")
    return v * (eps / fourier.h1_norm(v, period))


def run_experiment(profile: WaveProfile, eps: float,
                   horizon_periods: float = 50.0, N: int | None = None,
                   dt_safety: float = 0.5, mode: str = "raw",
                   frame: str = "traveling", n_samples: int = 200,
                   seed: int = 0) -> RunDiagnostics:
    """Evolve mu + v and record conserved-quantity drifts and the orbital
    semidistance rho(m(t), mu) at sample instants.

    The run evolves on the profile's grid, never resampled: an N other
    than profile.N raises ValueError naming both (N remains because
    benchmarks/run.py passes it).  One period means the temporal period
    T/c of the lab-frame wave.  Positivity loss and blow-up are experiment
    outcomes, recorded in the diagnostics rather than raised.  An eps
    below zero, a horizon_periods or dt_safety not above zero, or any of
    them not finite raises ValueError naming it.
    """
    params = profile.params
    b, c = params.b, params.c
    period = profile.T
    frame_speed = c if frame == "traveling" else 0.0
    if frame not in ("traveling", "lab"):
        raise ValueError(f"unknown frame {frame!r}")
    if not (np.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"eps must be finite and >= 0, got {eps!r}")
    for name, value in (("horizon_periods", horizon_periods),
                        ("dt_safety", dt_safety)):
        if not (np.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    n = profile.N
    if N not in (None, n):
        raise ValueError(f"N = {N} differs from the profile's {n} points")

    # the reference: the wave filtered to the 2/3 band, kept as its half
    # spectrum for the samples and on the grid for the perturbation
    muh = np.fft.rfft(profile.mu) * fourier.rfft_tools(n, period)[2]
    mu = np.fft.irfft(muh, n=n)
    m0 = mu
    if eps > 0.0:
        m0 = mu + make_perturbation(mu, period, b, eps, mode=mode, seed=seed)
    if not float(np.min(m0)) > 0.0:  # also refuses NaN data
        raise PositivityLost("initial data leaves the positive cone or holds NaN")

    horizon = horizon_periods * period / abs(c)
    dt0 = cfl_dt(m0, period, frame_speed, safety=dt_safety)
    n_steps = max(int(np.ceil(horizon / dt0)), 1)
    dt = horizon / n_steps
    stride = max(n_steps // max(n_samples, 1), 1)

    state = EvolutionState(t=0.0, m=m0, dx=period / n)

    def _invariants(state: EvolutionState) -> tuple[float, float, float]:
        """E, F1 and F2 of a state, with m_x from its grid fields."""
        mm, _, m_x, _ = state.fields
        dens1, dens2 = invariant_densities(mm, m_x, b)
        return (fourier.grid_integral(mm, period),
                fourier.grid_integral(dens1, period),
                fourier.grid_integral(dens2, period))

    E0, F1_0, F2_0 = _invariants(state)

    times, dE, dF1, dF2, rho_series = [], [], [], [], []

    def record(state: EvolutionState) -> None:
        times.append(state.t)
        e, f1, f2 = _invariants(state)
        dE.append(abs(e - E0) / abs(E0))
        dF1.append(abs(f1 - F1_0) / abs(F1_0))
        dF2.append(abs(f2 - F2_0) / abs(F2_0))
        # the orbit contains all translates, so the same reference serves
        # both frames
        rho_series.append(orbital_distance(state.spectrum, muh, n, period)[0])

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
