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


@pytest.mark.parametrize("n", [512, 511])
def test_spectral_derivative_skew_adjoint(n):
    """<Dv, w> = -<v, Dw> in the grid inner product, on white noise that
    fills every mode up to Nyquist; the coercivity probe's grid quotient
    relies on it."""
    T = 7.3
    v, w = np.random.default_rng(n).standard_normal((2, n))
    Dv, Dw = fourier.spectral_derivative(np.stack([v, w]), T, 1)
    lhs, rhs = fourier.l2_inner(Dv, w, T), -fourier.l2_inner(v, Dw, T)
    scale = fourier.l2_norm(Dv, T) * fourier.l2_norm(w, T)
    assert abs(lhs - rhs) <= 1e-13 * scale


def test_random_smooth_is_the_scaled_transform_of_its_coefficients():
    coeffs = fourier.random_smooth_coeffs(np.random.default_rng(5), 4, 85)
    v = np.fft.irfft(coeffs, n=256)
    fields = fourier.random_smooth(256, np.random.default_rng(5), 4, 85)
    assert np.array_equal(fields, v / np.max(np.abs(v), axis=-1, keepdims=True))


def test_project_out_matches_sequential_projection():
    T, n = 3.0, 128
    rng = np.random.default_rng(8)
    basis = fourier.orthonormalize(rng.standard_normal((3, n)), T)
    block = rng.standard_normal((5, n))
    coef = fourier.projection_coefficients(block, basis, T)
    assert coef.shape == (5, 3)
    want = block.copy()
    for u in basis:
        want -= (T * np.mean(want * u, axis=-1, keepdims=True)) * u
    got = fourier.project_out(block, basis, T)
    assert np.allclose(got, want, rtol=0, atol=1e-14)
    assert np.max(np.abs(fourier.projection_coefficients(got, basis, T))) < 1e-14
    assert np.allclose(fourier.project_out(block[0], basis, T), got[0],
                       rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [64, 65])
def test_resample_matches_scipy(n):
    """Zero-padding and truncation of the rfft against scipy's resample,
    n -> 2n and 2n -> n, with the Nyquist mode of an even grid split or
    united the same way."""
    from scipy.signal import resample as scipy_resample

    rng = np.random.default_rng(n)
    for n_old, n_new in ((n, 2 * n), (2 * n, n)):
        v = rng.standard_normal(n_old)
        got = fourier.resample(v, n_new)
        assert got.shape == (n_new,)
        assert np.max(np.abs(got - scipy_resample(v, n_new))) <= 1e-14 * np.max(np.abs(v))
    # upsampling keeps the samples it started from, the Nyquist mode too
    v = rng.standard_normal(n)
    assert np.allclose(fourier.resample(v, 2 * n)[::2], v, rtol=0, atol=1e-14)
