"""Exactly known states and direct routes that the package's evolution,
spectra and profiles are checked against: the constant solution at the
well bottom, the spectral shift of a grid field, the H^1 distance to a
shifted reference evaluated directly at one shift, the residual of the
stationarity equation on a profile grid, trigonometric resampling, the
FFT-ordered wavenumbers of the full complex transform, and an explicit
Gram-Schmidt orthonormalization."""

from __future__ import annotations

import math

import numpy as np

from bchwaves import (WaveParameters, WaveProfile, critical_points, fourier,
                      multipliers)
from bchwaves.invariants import delta_F1, delta_F2
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


def euler_lagrange_residual(profile: WaveProfile,
                            omega1: float | None = None,
                            omega2: float | None = None) -> float:
    """Sup-norm residual of the stationarity equation
    1 - omega1 dF1/dm - omega2 dF2/dm = 0 on the profile grid."""
    b = profile.params.b
    mults = multipliers(profile.params)
    w1 = mults.omega1 if omega1 is None else omega1
    w2 = mults.omega2 if omega2 is None else omega2
    resid = (1.0 - w1 * delta_F1(profile.mu, b)
             - w2 * delta_F2(profile.mu, profile.dmu, profile.d2mu, b))
    return float(np.max(np.abs(resid)))


def resample(v: np.ndarray, n_new: int) -> np.ndarray:
    """Trigonometric resampling onto n_new uniform points.

    Upsampling is exact; downsampling truncates modes above the new
    Nyquist (exact for data band-limited to the coarser grid).  The rfft
    coefficients are zero-padded or truncated; the Nyquist mode of the
    even one of the two grids has no partner, so it is halved into a
    cosine pair when upsampling and takes the pair's sum, twice its
    coefficient, when downsampling (scipy.signal.resample's convention).
    """
    n = v.shape[-1]
    if n_new == n:
        return v.copy()
    m = min(n, n_new)
    c = np.fft.rfft(v)[..., :m // 2 + 1]
    if m % 2 == 0:
        c[..., m // 2] *= 2.0 if n_new < n else 0.5
    return np.fft.irfft(c / (n / n_new), n=n_new)


def wavenumbers(n: int, period: float) -> np.ndarray:
    """Angular wavenumbers 2 pi k / T in the ordering of the full FFT."""
    return 2.0 * np.pi * np.fft.fftfreq(n, d=period / n)


def gram_schmidt(vectors, period: float) -> list[np.ndarray]:
    """L2-orthonormal basis of the span of the vectors, by modified
    Gram-Schmidt one vector at a time; a vector whose part off the earlier
    ones is at most 1e-14 of the largest vector's norm is dropped."""
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    tol = 1e-14 * max(fourier.l2_norm(v, period) for v in vectors)
    basis: list[np.ndarray] = []
    for v in vectors:
        w = v.copy()
        for u in basis:
            w -= fourier.l2_inner(w, u, period) * u
        norm = fourier.l2_norm(w, period)
        if norm > tol:
            basis.append(w / norm)
    return basis
