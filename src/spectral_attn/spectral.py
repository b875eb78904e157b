"""One-sided amplitude spectra, the Q/K source of frequency-spectrum attention.

`amplitude_matrix` takes each sequence's bins from NumPy's `rfft` and
returns their magnitudes. Multi-head spectrum scaling is the elementwise
product of these rows with per-head scales, done inside the attention layer.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError


def amplitude_matrix(series):
    """Amplitude rows for every sequence of a (rows, L) array; shape (rows, floor(L/2)+1)."""
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2 or series.shape[1] < 2:
        raise ShapeError(f"amplitude_matrix: expected (rows, L >= 2), got shape {series.shape}")
    return np.abs(np.fft.rfft(series, axis=-1))
