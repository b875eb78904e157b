"""Attention-map forensics, gradient checking, and export formats.

Exports are deliberately plain: CSV with 8-significant-digit decimals for
matrices and P2 PGM (256 levels, min-max scaled) for heatmaps; reports go
out as canonical JSON through `artifacts.write_json`. All of them are
byte-deterministic for a fixed (config, seed, data). The metrics and the
split evaluation live in `models`, beside `train`, which keeps its test
split's MetricsReport; their names stay importable from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .artifacts import atomic_open
from .attention import AttentionTensor
from .errors import ConfigError, DataError, ShapeError
from .models import ForecastModel, MetricsReport, evaluate_on_split, evaluate_windows, mae, mse  # noqa: F401


# ---------------------------------------------------------------------------
# attention forensics
# ---------------------------------------------------------------------------

def average_attention(maps):
    """Arithmetic mean of every N x N plane of the (..., N, N) maps, in order; result is N x N."""
    planes = []
    for m in maps:
        arr = m.weights if isinstance(m, AttentionTensor) else np.asarray(m, dtype=np.float64)
        if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2] or arr.shape[-1] == 0:
            raise ShapeError(f"average_attention: expected (..., N, N) maps, N >= 1, got shape {arr.shape}")
        planes.append(arr.reshape((-1,) + arr.shape[-2:]))
    if not sum(len(p) for p in planes):
        raise DataError("average_attention: no attention maps given")
    n = planes[0].shape[1]
    for arr in planes:
        if arr.shape[1] != n:
            raise ShapeError(f"average_attention: inconsistent map size {arr.shape} vs N={n}")
    return np.concatenate(planes, axis=0).mean(axis=0)


@dataclass(frozen=True)
class _Spectrum:
    """A matrix's singular values, nonincreasing, and its larger dimension."""

    values: np.ndarray
    size: int


def _spectrum(a, caller):
    """The _Spectrum of nonempty matrix `a` by one SVD; `a` itself if it already is one."""
    if isinstance(a, _Spectrum):
        return a
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise ShapeError(f"{caller}: expected a nonempty matrix, got shape {arr.shape}")
    return _Spectrum(nm.svd_singular_values(arr), max(arr.shape))


def _check_rank_tol(tol):
    if not 0.0 < tol < math.inf:
        raise ConfigError(f"numerical_rank: tol must be positive and finite, got {tol}")


def condition_number(a):
    """Ratio of largest to smallest singular value.

    inf when the matrix is numerically singular: sigma_min <= max(m, n) *
    eps * sigma_max, NumPy's own rank cutoff, below which sigma_min is
    rounding noise (an exactly rank-deficient matrix, or the zero matrix).
    """
    spectrum = _spectrum(a, "condition_number")
    largest, smallest = spectrum.values[0], spectrum.values[-1]
    if smallest <= spectrum.size * np.finfo(np.float64).eps * largest:
        return math.inf
    return float(largest / smallest)


def numerical_rank(a, tol=1e-10):
    """Count of singular values above tol * sigma_max."""
    _check_rank_tol(tol)
    values = _spectrum(a, "numerical_rank").values
    top = values[0]
    if top == 0.0:
        return 0
    return int(np.sum(values > tol * top))


@dataclass(frozen=True)
class AttentionReport:
    averaged_map: np.ndarray
    rank: int
    condition_number: float
    mechanism: str

    def to_dict(self):
        kappa = self.condition_number
        return {
            "n": int(self.averaged_map.shape[0]),
            "rank": self.rank,
            "condition_number": kappa if math.isfinite(kappa) else "inf",
            "mechanism": self.mechanism,
        }


def attention_report(maps, mechanism, rank_tol=1e-10):
    """The averaged map with its rank and condition number, both from one SVD."""
    averaged = average_attention(maps)
    _check_rank_tol(rank_tol)
    spectrum = _spectrum(averaged, "numerical_rank")
    # Both public functions take the spectrum in place of the matrix, so each
    # still runs, and can be traced or replaced, under its own name.
    return AttentionReport(
        averaged_map=averaged,
        rank=numerical_rank(spectrum, rank_tol),
        condition_number=condition_number(spectrum),
        mechanism=mechanism,
    )


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradCheckEntry:
    name: str
    max_rel_error: float


@dataclass(frozen=True)
class GradCheckReport:
    entries: tuple
    threshold: float

    @property
    def max_rel_error(self):
        return max((e.max_rel_error for e in self.entries), default=0.0)

    @property
    def passed(self):
        return all(e.max_rel_error < self.threshold for e in self.entries)


_SMALL_GRAD = 1e-5       # below this, gradients are compared absolutely
_SMALL_GRAD_ABS = 1e-9


def _rel_error(analytic, numeric):
    scale = max(abs(analytic), abs(numeric))
    if scale < _SMALL_GRAD:
        return 0.0 if abs(analytic - numeric) <= _SMALL_GRAD_ABS else abs(analytic - numeric) / max(scale, 1e-300)
    return abs(analytic - numeric) / scale


def grad_check(config, step=1e-5, threshold=1e-4):
    """Compare every parameter's analytic gradient against central differences.

    Parameters are re-drawn at a well-scaled random point (the training
    initialization deliberately saturates some softmaxes, which would leave
    nothing to check), then d(loss)/d(entry) from the tape is compared with
    (loss(+h) - loss(-h)) / 2h entry by entry. Near-zero pairs (< 1e-5 both
    sides) must agree within 1e-9 absolutely; everything else within the
    relative threshold.
    """
    model = ForecastModel(config)
    rng = nm.substream(config.seed, "gradcheck")
    for name, param in model.params.items():
        spread = 0.2 if ("mss_" in name or "lin_" in name) else 0.4
        param.data = rng.standard_normal(param.data.shape) * spread
    x = rng.standard_normal((config.C, config.L))
    y = rng.standard_normal((config.C, config.T))

    with nm.GradientTape() as tape:
        loss = model.window_loss(x, y, training=False)
    nm.backward(tape, loss)
    analytic = {name: p.grad.copy() for name, p in model.params.items()}

    def loss_value():
        return float(model.window_loss(x, y, training=False).data)

    entries = []
    for name, param in model.params.items():
        flat = param.data.reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            up = loss_value()
            flat[i] = original - step
            down = loss_value()
            flat[i] = original
            numeric = (up - down) / (2.0 * step)
            worst = max(worst, _rel_error(analytic[name].reshape(-1)[i], numeric))
        entries.append(GradCheckEntry(name=name, max_rel_error=worst))
    return GradCheckReport(entries=tuple(entries), threshold=threshold)


# ---------------------------------------------------------------------------
# export formats
# ---------------------------------------------------------------------------

def matrix_to_csv_text(matrix):
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"matrix_to_csv_text: expected a matrix, got shape {arr.shape}")
    return "\n".join(",".join("%.8g" % v for v in row) for row in arr) + "\n"


def write_matrix_csv(path, matrix):
    with atomic_open(path) as fh:
        fh.write(matrix_to_csv_text(matrix))


def matrix_to_pgm_text(matrix):
    """P2 grayscale rendering, min-max scaled to 0..255 (flat input -> all 0)."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"matrix_to_pgm_text: expected a matrix, got shape {arr.shape}")
    lo, hi = float(arr.min()), float(arr.max())
    if hi > lo:
        levels = np.rint((arr - lo) / (hi - lo) * 255).astype(int)
    else:
        levels = np.zeros(arr.shape, dtype=int)
    lines = [f"P2", f"{arr.shape[1]} {arr.shape[0]}", "255"]
    lines.extend(" ".join(str(v) for v in row) for row in levels)
    return "\n".join(lines) + "\n"


def write_pgm(path, matrix):
    with atomic_open(path) as fh:
        fh.write(matrix_to_pgm_text(matrix))
