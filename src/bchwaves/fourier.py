"""Spectral helpers on uniform periodic grids.

All functions assume N samples of a real T-periodic function at
x_j = j*T/N.  Integrals use the periodic trapezoid rule (T * mean), which
is spectrally accurate for smooth periodic data.  Every transform is an
rfft.  orthonormal_basis owns the one rule that drops a vanishing or
dependent constraint, relative to the largest, for project_out and for
the coercivity probe (spectral._complement_eigenvalues).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


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
    Nyquist mode (even N) is treated as a pure cosine: each rfft mode
    strictly between 0 and N/2 stands for itself and its conjugate.
    """
    n = v.shape[-1]
    c = np.fft.rfft(v) / n
    c[1:(n + 1) // 2] *= 2.0
    x = np.atleast_1d(np.asarray(x_new, dtype=float))
    out = np.real(np.exp(1j * np.outer(x, rfft_tools(n, period)[0])) @ c)
    return out[0] if np.ndim(x_new) == 0 else out


def random_smooth(n: int, rng: np.random.Generator, count: int,
                  kmax: int) -> np.ndarray:
    """count random real periodic fields, shape (count, n), each scaled to
    unit sup norm: the inverse transforms of rfft coefficients with
    spectrum decaying like 1/(1 + k)^2 on modes 1..kmax-1 and zero above.
    Row i is what the i-th of count single-field draws would give: the real
    parts, the imaginary parts, then the mean."""
    z = rng.standard_normal((count, 2 * kmax - 1))
    decay = 1.0 / (1.0 + np.arange(1, kmax)) ** 2
    c = np.zeros((count, kmax), dtype=complex)
    c.real[:, 1:] = z[:, :kmax - 1] * decay
    c.imag[:, 1:] = z[:, kmax - 1:-1] * decay
    c.real[:, 0] = z[:, -1]
    v = np.fft.irfft(c, n=n)
    return v / np.max(np.abs(v), axis=-1, keepdims=True)


def orthonormal_basis(columns: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning those of columns, shape (n, count), by
    one QR.  A column at or below 1e-14 of the largest, or whose part off
    the earlier columns is, is vanishing or dependent and dropped; the
    rule is relative, so the basis does not depend on the columns' scale,
    and exact for the two columns every caller has at most."""
    norms = np.linalg.norm(columns, axis=0)
    tol = 1e-14 * np.max(norms)
    Q, R = np.linalg.qr(columns[:, norms > tol])
    return Q[:, np.abs(np.diag(R)) > tol]


def project_out(m: np.ndarray, constraints) -> np.ndarray:
    """m, one field or a (count, n) block of fields, less its projection
    onto the span of the constraint fields (orthonormal_basis).  The L2
    weight of the uniform grid is the constant T / n, so the L2
    projection is the Euclidean one of the samples."""
    Q = orthonormal_basis(np.asarray(constraints, dtype=float).T)
    return m - (m @ Q) @ Q.T
