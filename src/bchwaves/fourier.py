"""Spectral helpers on uniform periodic grids.

All functions assume N samples of a real T-periodic function at
x_j = j*T/N.  Integrals use the periodic trapezoid rule (T * mean), which
is spectrally accurate for smooth periodic data.
"""

from __future__ import annotations

import numpy as np


def wavenumbers(n: int, period: float) -> np.ndarray:
    """Angular wavenumbers 2*pi*k/T in FFT ordering."""
    return 2.0 * np.pi * np.fft.fftfreq(n, d=period / n)


def spectral_derivative(v: np.ndarray, period: float, order: int = 1) -> np.ndarray:
    """Differentiate a real periodic grid function by FFT.

    For odd derivative orders on an even grid the Nyquist mode is zeroed
    (the standard antisymmetric convention).
    """
    n = v.shape[-1]
    k = wavenumbers(n, period)
    sym = (1j * k) ** order
    if order % 2 == 1 and n % 2 == 0:
        sym[n // 2] = 0.0
    return np.real(np.fft.ifft(sym * np.fft.fft(v)))


def grid_integral(v: np.ndarray, period: float) -> float:
    return period * float(np.mean(v))


def l2_inner(u: np.ndarray, v: np.ndarray, period: float) -> float:
    return period * float(np.mean(u * v))


def l2_norm(v: np.ndarray, period: float) -> float:
    return float(np.sqrt(max(l2_inner(v, v, period), 0.0)))


def h1_norm_sq(v: np.ndarray, period: float) -> float:
    """Squared H^1 norm, ||v||^2 + ||v'||^2, via Parseval."""
    n = v.shape[-1]
    vh = np.fft.fft(v) / n
    k = wavenumbers(n, period)
    return period * float(np.sum((1.0 + k**2) * np.abs(vh) ** 2))


def h1_norm(v: np.ndarray, period: float) -> float:
    return float(np.sqrt(max(h1_norm_sq(v, period), 0.0)))


def trig_interpolate(v: np.ndarray, period: float, x_new: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of the samples at new points.

    Periodic in the sample period, so x_new may lie outside [0, T).  The
    Nyquist mode (even N) is treated as a pure cosine.
    """
    n = v.shape[-1]
    c = np.fft.fft(v) / n
    k = wavenumbers(n, period)
    x = np.atleast_1d(np.asarray(x_new, dtype=float))
    out = np.zeros_like(x)
    if n % 2 == 0:
        interior = np.r_[0:n // 2, n // 2 + 1:n]
        out += np.real(np.exp(1j * np.outer(x, k[interior])) @ c[interior])
        out += np.real(c[n // 2]) * np.cos(k[n // 2] * x)
    else:
        out += np.real(np.exp(1j * np.outer(x, k)) @ c)
    if np.isscalar(x_new) or np.asarray(x_new).ndim == 0:
        return out[0]
    return out


def resample(v: np.ndarray, n_new: int) -> np.ndarray:
    """Trigonometric resampling onto n_new uniform points.

    Upsampling is exact; downsampling truncates modes above the new
    Nyquist (exact for data band-limited to the coarser grid).
    """
    from scipy.signal import resample as _fourier_resample

    n = v.shape[-1]
    if n_new == n:
        return v.copy()
    return np.asarray(_fourier_resample(v, n_new), dtype=float)


def circular_shift(v: np.ndarray, shift: float, period: float) -> np.ndarray:
    """Evaluate v(x - shift) on the grid by a spectral phase shift."""
    n = v.shape[-1]
    k = wavenumbers(n, period)
    return np.real(np.fft.ifft(np.fft.fft(v) * np.exp(-1j * k * shift)))
