import numpy as np
import pytest

from bchwaves import fourier

from state_oracle import circular_shift, gram_schmidt, resample, wavenumbers


def _spectral_derivative_full(v, period, order):
    """Oracle route for spectral_derivative: the full complex FFT with the
    FFT-ordered wavenumbers, Nyquist zeroed for odd orders on even grids."""
    n = v.shape[-1]
    sym = (1j * wavenumbers(n, period)) ** order
    if order % 2 == 1 and n % 2 == 0:
        sym[n // 2] = 0.0
    return np.real(np.fft.ifft(sym * np.fft.fft(v)))


def _circular_shift_full(v, shift, period):
    """Oracle route for circular_shift: a full complex FFT phase shift."""
    k = wavenumbers(v.shape[-1], period)
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
        got = circular_shift(v, shift, period)
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
    """Each field is the inverse transform of coefficients drawn as real
    parts, imaginary parts, then the mean, with spectrum 1/(1 + k)^2 on
    modes 1..kmax-1 and none above, scaled to unit sup norm."""
    n, count, kmax = 256, 4, 85
    z = np.random.default_rng(5).standard_normal((count, 2 * kmax - 1))
    decay = 1.0 / (1.0 + np.arange(1, kmax)) ** 2
    coeffs = np.zeros((count, kmax), dtype=complex)
    coeffs[:, 0] = z[:, -1]
    coeffs[:, 1:] = (z[:, :kmax - 1] + 1j * z[:, kmax - 1:-1]) * decay
    v = np.fft.irfft(coeffs, n=n)
    fields = fourier.random_smooth(n, np.random.default_rng(5), count, kmax)
    assert np.array_equal(fields, v / np.max(np.abs(v), axis=-1, keepdims=True))
    assert np.max(np.abs(np.fft.rfft(fields)[:, kmax:])) < 1e-12


def test_project_out_matches_sequential_projection():
    """One field and a block of fields, against a projection onto the
    Gram-Schmidt basis, one basis vector at a time."""
    T, n = 3.0, 128
    rng = np.random.default_rng(8)
    constraints = rng.standard_normal((3, n))
    basis = gram_schmidt(constraints, T)
    block = rng.standard_normal((5, n))
    want = block.copy()
    for u in basis:
        want -= (T * np.mean(want * u, axis=-1, keepdims=True)) * u
    got = fourier.project_out(block, constraints)
    assert got.shape == (5, n)
    assert np.allclose(got, want, rtol=0, atol=1e-14)
    assert max(abs(fourier.l2_inner(g, u, T)) for g in got for u in basis) < 1e-14
    assert np.allclose(fourier.project_out(block[0], constraints), got[0],
                       rtol=0, atol=1e-15)


def test_project_out_is_scale_free():
    """The drop rule is relative: constraint fields scaled by 1e-20 or
    1e20 give the projection at scale 1 to rounding, orthogonal to them
    (an absolute rule would drop both fields at 1e-20), and a dependent
    pair (g, 2g) or a vanishing field is dropped at any scale."""
    T, n = 4.0, 256
    x = np.arange(n) * T / n
    g1 = np.exp(np.cos(2.0 * np.pi * x / T))
    g2 = np.sin(4.0 * np.pi * x / T) + 0.3 * np.cos(6.0 * np.pi * x / T)
    m = np.random.default_rng(3).standard_normal(n)
    want = m.copy()
    for u in gram_schmidt((g1, g2), T):
        want -= fourier.l2_inner(want, u, T) * u
    scale_m = fourier.l2_norm(m, T)
    for scale in (1.0, 1e-20, 1e20):
        got = fourier.project_out(m, (scale * g1, scale * g2))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(m))
        for g in (g1, g2):
            assert (abs(fourier.l2_inner(got, g, T))
                    <= 1e-14 * scale_m * fourier.l2_norm(g, T))
        assert fourier.orthonormal_basis(np.stack([scale * g1, scale * g2]).T
                                         ).shape == (n, 2)
        for dropped in ((g1, 2.0 * g1), (g1, 0.0 * g1), (0.0 * g1, g1)):
            fields = np.stack(dropped).T * scale
            assert fourier.orthonormal_basis(fields).shape == (n, 1)
            assert len(gram_schmidt(dropped, T)) == 1
            got = fourier.project_out(m, scale * np.stack(dropped))
            u = g1 / fourier.l2_norm(g1, T)
            assert np.allclose(got, m - fourier.l2_inner(m, u, T) * u,
                               rtol=0, atol=1e-13 * np.max(np.abs(m)))


@pytest.mark.parametrize("n", [64, 65])
def test_resample_matches_scipy(n):
    """Zero-padding and truncation of the rfft against scipy's resample,
    n -> 2n and 2n -> n, with the Nyquist mode of an even grid split or
    united the same way."""
    from scipy.signal import resample as scipy_resample

    rng = np.random.default_rng(n)
    for n_old, n_new in ((n, 2 * n), (2 * n, n)):
        v = rng.standard_normal(n_old)
        got = resample(v, n_new)
        assert got.shape == (n_new,)
        assert np.max(np.abs(got - scipy_resample(v, n_new))) <= 1e-14 * np.max(np.abs(v))
    # upsampling keeps the samples it started from, the Nyquist mode too
    v = rng.standard_normal(n)
    assert np.allclose(resample(v, 2 * n)[::2], v, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", [64, 65])
def test_trig_interpolate_matches_full_fft(n):
    """The rfft interpolant against the full complex transform's, its
    Nyquist mode (even n) a pure cosine, off and on the grid, and a
    scalar point giving a scalar."""
    T = 2.5
    v = _band_limited(n, T, 7)
    x = np.array([-0.7, 0.0, 0.31, 1.9, T + 0.2])
    want = np.real(np.exp(1j * np.outer(x, wavenumbers(n, T)))
                   @ (np.fft.fft(v) / n))
    got = fourier.trig_interpolate(v, T, x)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(v))
    grid = np.arange(n) * T / n
    assert np.allclose(fourier.trig_interpolate(v, T, grid), v, rtol=0,
                       atol=1e-13 * np.max(np.abs(v)))
    scalar = fourier.trig_interpolate(v, T, 0.31)
    assert np.ndim(scalar) == 0 and scalar == pytest.approx(got[2], abs=1e-15)
