"""Spectra: direct DFT oracle, NumPy rfft against the recursive FFT oracle, amplitudes,
and the multi-head spectrum scaling product that spectrum attention runs."""

import numpy as np
import pytest

from spectral_attn import numerics as nm
from spectral_attn.errors import ShapeError
from spectral_attn.spectral import amplitude_matrix

from oracles import dft_naive, finite_difference_gradient, max_rel_error, recursive_amplitudes


def amplitudes(x):
    """Amplitude row of one sequence, as the model computes it."""
    return amplitude_matrix(np.asarray(x)[None])[0]


def mss_scale(amps, weights):
    """Per-head scaled rows (H, tokens, F): the Q product of `SpectrumAttention` with MSS on."""
    amps = amps if isinstance(amps, nm.Tensor) else nm.Tensor(amps)
    return nm.mul(nm.reshape(amps, amps.shape[:-2] + (1,) + amps.shape[-2:]), weights)


def test_dft_constant_signal_is_dc_only():
    c = 2.5
    spectrum = dft_naive(np.full(8, c))
    assert abs(spectrum[0] - 8 * c) < 1e-12
    assert np.abs(spectrum[1:]).max() < 1e-12


def test_dft_single_cosine_tone():
    t = np.arange(8)
    spectrum = dft_naive(np.cos(2 * np.pi * t / 8))
    mags = np.abs(spectrum)
    assert abs(mags[1] - 4.0) < 1e-12
    assert abs(mags[7] - 4.0) < 1e-12
    others = np.delete(mags, [1, 7])
    assert others.max() < 1e-12


def test_dft_parseval_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(13)
    spectrum = dft_naive(x)
    time_energy = np.sum(x ** 2)
    freq_energy = np.sum(np.abs(spectrum) ** 2) / 13
    assert abs(time_energy - freq_energy) < 1e-9


def test_dft_rejects_empty():
    with pytest.raises(ShapeError):
        dft_naive(np.array([]))


def test_rfft_constant():
    amps = amplitudes(np.full(96, 1.5))
    assert amps.shape == (49,)
    assert abs(amps[0] - 96 * 1.5) < 1e-9
    assert amps[1:].max() < 1e-9


def test_rfft_single_tone_amplitude_is_half_length():
    t = np.arange(96)
    amps = amplitudes(np.sin(2 * np.pi * 5 * t / 96))
    assert abs(amps[5] - 48.0) < 1e-9
    others = np.delete(amps, 5)
    assert others.max() < 1e-9


@pytest.mark.parametrize("length", range(2, 257))
def test_rfft_matches_naive_prefix(length):
    rng = np.random.default_rng(length)
    x = rng.standard_normal(length)
    reference = dft_naive(x)[: length // 2 + 1]
    amps = amplitudes(x)
    np.testing.assert_allclose(np.fft.rfft(x), reference, atol=1e-9)
    np.testing.assert_allclose(amps, np.abs(reference), atol=1e-9)


@pytest.mark.parametrize("length", range(2, 257))
def test_amplitude_matrix_matches_recursive_fft_oracle(length):
    rng = np.random.default_rng(1000 + length)
    series = rng.standard_normal((32, length))
    expected = np.stack([recursive_amplitudes(row) for row in series])
    for rows in (1, 4, 32):
        amps = amplitude_matrix(series[:rows])
        scale = np.maximum(1.0, np.abs(expected[:rows]))
        assert np.max(np.abs(amps - expected[:rows]) / scale) <= 1e-12
    np.testing.assert_array_equal(amplitudes(series[0]), amps[0])


def test_rfft_rejects_short_input():
    with pytest.raises(ShapeError):
        amplitude_matrix(np.array([[1.0]]))


def test_amplitude_shift_invariance():
    rng = np.random.default_rng(2)
    for _ in range(25):
        length = int(rng.integers(4, 129))
        x = rng.standard_normal(length)
        shift = int(rng.integers(0, length))
        base = amplitudes(x)
        shifted = amplitudes(np.roll(x, shift))
        np.testing.assert_allclose(base, shifted, atol=1e-9)


def test_dft_linearity_on_bins():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(31)
    y = rng.standard_normal(31)
    a, b = 1.7, -0.4
    combined = dft_naive(a * x + b * y)
    separate = a * dft_naive(x) + b * dft_naive(y)
    np.testing.assert_allclose(combined, separate, atol=1e-9)


def test_amplitude_matrix_shape_and_nonnegativity():
    rng = np.random.default_rng(4)
    series = rng.standard_normal((5, 24))
    amps = amplitude_matrix(series)
    assert amps.shape == (5, 13)
    assert (amps >= 0).all()


# ---------------------------------------------------------------------------
# MSS: the (..., 1, tokens, F) source broadcast against (H, tokens, F) scales
# ---------------------------------------------------------------------------

def test_mss_identity_scaling():
    rng = np.random.default_rng(5)
    amps = np.abs(rng.standard_normal((3, 5)))
    out = mss_scale(amps, nm.Parameter(np.ones((2, 3, 5)), "w"))
    for head in out.data:
        np.testing.assert_array_equal(head, amps)


def test_mss_zero_weights():
    amps = np.ones((3, 5))
    out = mss_scale(amps, nm.Parameter(np.zeros((2, 3, 5)), "w"))
    np.testing.assert_array_equal(out.data[1], np.zeros((3, 5)))


def test_mss_matches_elementwise_loop():
    rng = np.random.default_rng(6)
    amps = np.abs(rng.standard_normal((3, 5)))
    w = rng.standard_normal((4, 3, 5))
    out = mss_scale(amps, nm.Parameter(w, "w")).data
    for head in range(4):
        expected = np.zeros((3, 5))
        for i in range(3):
            for k in range(5):
                expected[i, k] = amps[i, k] * w[head, i, k]
        np.testing.assert_allclose(out[head], expected, atol=0)


def test_mss_shape_mismatch():
    weights = nm.Parameter(np.ones((2, 3, 5)), "w")
    with pytest.raises(ShapeError):
        mss_scale(np.ones((3, 4)), weights)
    with pytest.raises(ShapeError):
        mss_scale(np.ones((2, 5)), weights)


def test_mss_gradients_wrt_amplitudes_and_weights():
    rng = np.random.default_rng(7)
    amps = np.abs(rng.standard_normal((3, 5)))
    w = rng.standard_normal((2, 3, 5))

    param = nm.Parameter(w, "w")
    amp_t = nm.Tensor(amps, requires_grad=True)
    with nm.GradientTape() as tape:
        out = mss_scale(amp_t, param)
        loss = nm.mean_all(nm.mul(out, out))
    nm.backward(tape, loss)

    def loss_wrt_amps(a):
        proj = mss_scale(nm.Tensor(a), nm.Parameter(w, "w"))
        return float(nm.mean_all(nm.mul(proj, proj)).data)

    def loss_wrt_w(wv):
        proj = mss_scale(nm.Tensor(amps), nm.Parameter(wv, "w"))
        return float(nm.mean_all(nm.mul(proj, proj)).data)

    fd_amps = finite_difference_gradient(loss_wrt_amps, amps.copy())
    fd_w = finite_difference_gradient(loss_wrt_w, w.copy())
    assert max_rel_error(amp_t.grad, fd_amps) < 1e-4
    assert max_rel_error(param.grad, fd_w) < 1e-4
