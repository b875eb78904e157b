"""One-sided amplitude spectra, the Q/K source of frequency-spectrum attention.

`amplitude_matrix` takes each sequence's bins from NumPy's `rfft` and
returns their magnitudes. Multi-head spectrum scaling is the elementwise
product of these rows with per-head scales, done inside the attention layer.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .numerics import finite, real_array


def amplitude_matrix(series):
    """Amplitude rows for every sequence of a (rows, L) array; shape (rows, floor(L/2)+1).
    FiniteInputError if any is NaN or inf, from NaN or inf input or from an overflow."""
    series = real_array(series, "amplitude_matrix", ("rows", "L"))
    if series.shape[1] < 2:
        raise ShapeError(f"amplitude_matrix: expected (rows, L >= 2), got shape {series.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        amplitudes = np.abs(np.fft.rfft(series, axis=-1))
    return finite(amplitudes, "amplitude_matrix: amplitudes are not finite (non-finite or overflowing input)")
