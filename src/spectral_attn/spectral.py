"""One-sided spectra and per-head spectrum scaling.

`dft_naive` evaluates the defining transform sum directly and serves as the
reference for `rfft_amplitudes` and `amplitude_matrix`, which take their bins
from NumPy's `rfft` for every L >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ShapeError


def dft_naive(x):
    """Full complex spectrum of a real sequence by direct evaluation.

    X[k] = sum_t x[t] * exp(-i 2 pi k t / L) for k = 0..L-1, each bin
    computed as an explicit inner product against its Fourier basis row.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ShapeError(f"dft_naive: expected a nonempty 1-D sequence, got shape {x.shape}")
    length = x.size
    t = np.arange(length)
    out = np.empty(length, dtype=np.complex128)
    for k in range(length):
        out[k] = np.sum(x * np.exp(-2j * np.pi * k * t / length))
    return out


@dataclass(frozen=True)
class Spectrum:
    """One-sided complex bins of a real sequence of length `source_length`."""

    bins: np.ndarray  # complex128, length floor(L/2) + 1
    source_length: int

    def __post_init__(self):
        expected = self.source_length // 2 + 1
        if self.bins.shape != (expected,):
            raise ShapeError(
                f"Spectrum: {self.bins.shape[0]} bins inconsistent with length {self.source_length}"
            )

    @property
    def bin_count(self):
        return self.bins.shape[0]


def rfft_amplitudes(x):
    """One-sided spectrum and amplitude row of a real sequence.

    Returns (Spectrum, amplitudes) where amplitudes[k] = |bin k|, computed
    as in `amplitude_matrix`. Bin 0 is purely real, as is bin L/2 when L is
    even.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ShapeError(f"rfft_amplitudes: expected a 1-D sequence of length >= 2, got shape {x.shape}")
    bins = np.fft.rfft(x)
    return Spectrum(bins=bins, source_length=x.size), np.abs(bins)


def amplitude_matrix(series):
    """Amplitude rows for every sequence of a (rows, L) array; shape (rows, floor(L/2)+1)."""
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2 or series.shape[1] < 2:
        raise ShapeError(f"amplitude_matrix: expected (rows, L >= 2), got shape {series.shape}")
    return np.abs(np.fft.rfft(series, axis=-1))


@dataclass(frozen=True)
class AmplitudeMatrix:
    """Nonnegative amplitude rows, one per sequence/token."""

    values: np.ndarray  # (tokens, F)

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ShapeError(f"AmplitudeMatrix: expected 2-D values, got shape {self.values.shape}")
        if np.any(self.values < 0):
            raise ShapeError("AmplitudeMatrix: amplitudes must be nonnegative")

    @classmethod
    def from_series(cls, series):
        return cls(values=amplitude_matrix(series))


class MssWeights:
    """Per-head scaling matrices, stored as one (heads, tokens, F) parameter."""

    def __init__(self, param):
        if param.data.ndim != 3:
            raise ShapeError(f"MssWeights: expected (heads, tokens, F), got shape {param.shape}")
        self.param = param

    @property
    def heads(self):
        return self.param.shape[0]

    @property
    def tokens(self):
        return self.param.shape[1]

    @property
    def bin_count(self):
        return self.param.shape[2]

    def head(self, index):
        """One head's (tokens, F) matrix as a tape-tracked tensor."""
        return nm.plane(self.param, index)


def mss_project(amplitudes, weights, head):
    """Scale each token's spectrum row elementwise with one head's weights.

    amplitudes: (tokens, F) tensor or array; weights: MssWeights or a
    (tokens, F) tensor. Gradients flow to both factors of the product.
    """
    if isinstance(weights, MssWeights):
        if head < 0 or head >= weights.heads:
            raise ShapeError(f"mss_project: head {head} out of range for {weights.heads} heads")
        w = weights.head(head)
    else:
        w = weights
    a = amplitudes if isinstance(amplitudes, nm.Tensor) else nm.Tensor(amplitudes)
    w = w if isinstance(w, nm.Tensor) else nm.Tensor(w)
    if a.shape != w.shape:
        raise ShapeError(f"mss_project: shape mismatch {a.shape} vs {w.shape}")
    return nm.mul(a, w)
