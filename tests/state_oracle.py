"""Exactly known states and direct routes that the package's evolution and
spectra are checked against: the constant solution at the well bottom,
the spectral shift of a grid field, and the H^1 distance to a shifted
reference evaluated directly at one shift."""

from __future__ import annotations

import math

import numpy as np

from bchwaves import WaveParameters, WaveProfile, critical_points, fourier
from bchwaves.potential import _cpow


def equilibrium_profile(b: float, a: float, c: float, N: int = 256,
                        T: float | None = None) -> WaveProfile:
    """Constant solution at the well bottom phi2 (E = V(phi2)).

    The default period is the harmonic one, 2 pi / sqrt(V''(phi2)).
    """
    params_probe = WaveParameters(b=b, a=a, E=0.0, c=c)
    scan = critical_points(params_probe)
    phi2 = scan.phi2
    E = scan.V_phi2
    params = WaveParameters(b=b, a=a, E=E, c=c)
    if T is None:
        Vpp = -1.0 + a * b / _cpow(c - phi2, b + 1.0)
        T = 2.0 * np.pi / math.sqrt(Vpp)
    x = np.arange(N) * (T / N)
    ones = np.ones(N)
    zeros = np.zeros(N)
    mu0 = a / _cpow(c - phi2, b)
    arrays = dict(x=x, phi=phi2 * ones, dphi=zeros.copy(), d2phi=zeros.copy(),
                  mu=mu0 * ones, dmu=zeros.copy(), d2mu=zeros.copy())
    for arr in arrays.values():
        arr.setflags(write=False)
    return WaveProfile(params=params, T=float(T), N=N, phi_min=phi2,
                       phi_max=phi2, **arrays)


def circular_shift(v: np.ndarray, shift: float, period: float) -> np.ndarray:
    """Evaluate v(x - shift) on the grid by a spectral phase shift."""
    n = v.shape[-1]
    kr = fourier.rfft_tools(n, period)[0]
    return np.fft.irfft(np.fft.rfft(v) * np.exp(-1j * kr * shift), n=n)


def h1_shift_distance(m: np.ndarray, ref: np.ndarray, period: float,
                      shift: float) -> float:
    """Direct H^1 distance ||m - ref(. - shift)||."""
    return fourier.h1_norm(m - circular_shift(ref, shift, period), period)
