"""Spectral helpers on uniform periodic grids.

All functions assume N samples of a real T-periodic function at
x_j = j*T/N.  Integrals use the periodic trapezoid rule (T * mean), which
is spectrally accurate for smooth periodic data.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def wavenumbers(n: int, period: float) -> np.ndarray:
    """Angular wavenumbers 2*pi*k/T in FFT ordering."""
    return 2.0 * np.pi * np.fft.fftfreq(n, d=period / n)


@lru_cache(maxsize=16)
def rfft_tools(n: int, period: float):
    """Read-only half-spectrum wavenumbers, the derivative symbol ik (Nyquist
    zeroed on even grids), the 2/3-rule mask and the Helmholtz symbol 1 + k^2."""
    kr = 2.0 * np.pi * np.arange(n // 2 + 1) / period
    deriv = 1j * kr
    if n % 2 == 0:
        deriv[-1] = 0.0
    mask = np.arange(n // 2 + 1) <= n / 3.0
    helm = 1.0 + kr**2
    for a in (kr, deriv, mask, helm):
        a.flags.writeable = False
    return kr, deriv, mask, helm


def spectral_derivative(v: np.ndarray, period: float, order: int = 1) -> np.ndarray:
    """Differentiate a real periodic grid function by rfft, over the last axis.

    For odd derivative orders on an even grid the Nyquist mode is zeroed
    (the standard antisymmetric convention).
    """
    n = v.shape[-1]
    kr, deriv, _, _ = rfft_tools(n, period)
    sym = (deriv if order % 2 == 1 else 1j * kr) ** order
    return np.fft.irfft(sym * np.fft.rfft(v), n=n)


def grid_integral(v: np.ndarray, period: float) -> float:
    return period * float(np.mean(v))


def l2_inner(u: np.ndarray, v: np.ndarray, period: float) -> float:
    return period * float(np.mean(u * v))


def l2_norm(v: np.ndarray, period: float) -> float:
    return float(np.sqrt(max(l2_inner(v, v, period), 0.0)))


def h1_weights(n: int, period: float) -> np.ndarray:
    """Parseval weights 1 + k^2 of the H^1 norm on the rfft half spectrum;
    modes strictly between 0 and n/2 also stand for their conjugates."""
    helm = rfft_tools(n, period)[3]
    w = 2.0 * helm
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = helm[-1]
    return w


def h1_norm_sq(v: np.ndarray, period: float) -> float | np.ndarray:
    """Squared H^1 norm, ||v||^2 + ||v'||^2, via Parseval; over the last
    axis, so a (count, n) block gives count norms."""
    n = v.shape[-1]
    return period / n**2 * (np.abs(np.fft.rfft(v)) ** 2 @ h1_weights(n, period))


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


def circular_shift(v: np.ndarray, shift: float, period: float) -> np.ndarray:
    """Evaluate v(x - shift) on the grid by a spectral phase shift."""
    n = v.shape[-1]
    kr = rfft_tools(n, period)[0]
    return np.fft.irfft(np.fft.rfft(v) * np.exp(-1j * kr * shift), n=n)


def random_smooth_coeffs(rng: np.random.Generator, count: int,
                         kmax: int) -> np.ndarray:
    """rfft coefficients on modes 0..kmax-1, shape (count, kmax), of count
    random real periodic fields with spectrum decaying like 1/(1 + k)^2 on
    modes 1..kmax-1; the higher modes are zero, so irfft(c, n=n) pads them.
    Row i holds what the i-th of count single-field draws would give: real
    parts, imaginary parts, then the mean."""
    z = rng.standard_normal((count, 2 * kmax - 1))
    decay = 1.0 / (1.0 + np.arange(1, kmax)) ** 2
    c = np.zeros((count, kmax), dtype=complex)
    c.real[:, 1:] = z[:, :kmax - 1] * decay
    c.imag[:, 1:] = z[:, kmax - 1:-1] * decay
    c.real[:, 0] = z[:, -1]
    return c


def random_smooth(n: int, rng: np.random.Generator, count: int,
                  kmax: int) -> np.ndarray:
    """count random real periodic fields, shape (count, n): the inverse
    transforms of random_smooth_coeffs, each scaled to unit sup norm."""
    v = np.fft.irfft(random_smooth_coeffs(rng, count, kmax), n=n)
    return v / np.max(np.abs(v), axis=-1, keepdims=True)


def orthonormalize(vectors, period: float) -> list[np.ndarray]:
    """L2-orthonormal basis spanning the given vectors (modified
    Gram-Schmidt); required before projecting, since e.g. dF1/dm and
    dF2/dm are far from orthogonal."""
    basis: list[np.ndarray] = []
    for v in vectors:
        w = v.astype(float).copy()
        for u in basis:
            w -= l2_inner(w, u, period) * u
        nrm = l2_norm(w, period)
        if nrm > 1e-14:
            basis.append(w / nrm)
    return basis


def projection_coefficients(m: np.ndarray, orthonormal,
                            period: float) -> np.ndarray:
    """L2 inner products of m (one field or a (count, n) block) with each
    member of an orthonormal set, over the last axis."""
    u = np.asarray(orthonormal)
    return (period / m.shape[-1]) * (m @ u.T)


def project_out(m: np.ndarray, orthonormal, period: float) -> np.ndarray:
    """Remove the components along an orthonormal set from m, one field
    or a (count, n) block of fields."""
    u = np.asarray(orthonormal)
    return m - projection_coefficients(m, u, period) @ u
