import numpy as np
import pytest

from bchwaves import fourier


def _spectral_derivative_full(v, period, order):
    """Oracle route for spectral_derivative: the full complex FFT with the
    FFT-ordered wavenumbers, Nyquist zeroed for odd orders on even grids."""
    n = v.shape[-1]
    sym = (1j * fourier.wavenumbers(n, period)) ** order
    if order % 2 == 1 and n % 2 == 0:
        sym[n // 2] = 0.0
    return np.real(np.fft.ifft(sym * np.fft.fft(v)))


def _circular_shift_full(v, shift, period):
    """Oracle route for circular_shift: a full complex FFT phase shift."""
    k = fourier.wavenumbers(v.shape[-1], period)
    return np.real(np.fft.ifft(np.fft.fft(v) * np.exp(-1j * k * shift)))


def _band_limited(n, period, seed):
    """A smooth field whose spectrum reaches the Nyquist mode."""
    x = np.arange(n) * period / n
    v = np.exp(np.sin(2.0 * np.pi * x / period))
    return v + 1e-3 * np.random.default_rng(seed).standard_normal(n)


@pytest.mark.parametrize("n", [512, 511])
def test_spectral_derivative_matches_full_fft(n):
    period = 5.5
    v = _band_limited(n, period, 1)
    for order in (1, 2, 3):
        got = fourier.spectral_derivative(v, period, order)
        want = _spectral_derivative_full(v, period, order)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(got))


@pytest.mark.parametrize("n", [512, 511])
def test_circular_shift_matches_full_fft(n):
    period = 5.5
    v = _band_limited(n, period, 2)
    for shift in (0.0, 0.3 * period, 1.2345, -2.0):
        got = fourier.circular_shift(v, shift, period)
        want = _circular_shift_full(v, shift, period)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(v))
