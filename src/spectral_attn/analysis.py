"""Metrics, attention-map forensics, gradient checking, and export formats.

Exports are deliberately plain: CSV with 8-significant-digit decimals for
matrices, canonical JSON for reports, and P2 PGM (256 levels, min-max
scaled) for heatmaps. All of them are byte-deterministic for a fixed
(config, seed, data).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .artifacts import atomic_open
from .attention import AttentionTensor
from .errors import ConfigError, DataError, FiniteInputError, ShapeError


def mse(pred, target):
    """Mean squared error over all entries."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"mse: shape mismatch {pred.shape} vs {target.shape}")
    return float(np.mean((pred - target) ** 2))


def mae(pred, target):
    """Mean absolute error over all entries."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"mae: shape mismatch {pred.shape} vs {target.shape}")
    return float(np.mean(np.abs(pred - target)))


@dataclass(frozen=True)
class MetricsReport:
    mse: float
    mae: float
    per_horizon: tuple | None   # ((t, mse, mae), ...) for t = 1..T
    config_hash: str
    seed: int

    def to_dict(self):
        return {
            "mse": self.mse,
            "mae": self.mae,
            "per_horizon": [
                {"t": t, "mse": m, "mae": a} for t, m, a in (self.per_horizon or ())
            ],
            "config_hash": self.config_hash,
            "seed": self.seed,
        }


def evaluate_on_split(model, dataset, which="test"):
    """MetricsReport for one split, on the de-normalized (window-native) scale.

    Every window of the split is forecast in one batch.
    """
    from .data import windows
    from .models import config_hash

    cfg = model.config
    pairs = windows(dataset, which, cfg.L, cfg.T)
    preds = model.predict_batch(np.stack([p.input for p in pairs]))    # (n, C, T)
    targets = np.stack([p.target for p in pairs])
    per_horizon = tuple(
        (t + 1, mse(preds[:, :, t], targets[:, :, t]), mae(preds[:, :, t], targets[:, :, t]))
        for t in range(cfg.T)
    )
    return MetricsReport(
        mse=mse(preds, targets),
        mae=mae(preds, targets),
        per_horizon=per_horizon,
        config_hash=config_hash(cfg),
        seed=cfg.seed,
    )


# ---------------------------------------------------------------------------
# attention forensics
# ---------------------------------------------------------------------------

def average_attention(maps):
    """Arithmetic mean of every N x N plane of the (..., N, N) maps, in order; result is N x N."""
    planes = []
    for m in maps:
        arr = m.weights if isinstance(m, AttentionTensor) else np.asarray(m, dtype=np.float64)
        if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
            raise ShapeError(f"average_attention: expected (..., N, N) maps, got shape {arr.shape}")
        planes.append(arr.reshape((-1,) + arr.shape[-2:]))
    if not sum(len(p) for p in planes):
        raise DataError("average_attention: no attention maps given")
    n = planes[0].shape[1]
    for arr in planes:
        if arr.shape[1] != n:
            raise ShapeError(f"average_attention: inconsistent map size {arr.shape} vs N={n}")
    return np.concatenate(planes, axis=0).mean(axis=0)


def condition_number(a):
    """Ratio of largest to smallest singular value.

    inf when the matrix is numerically singular: sigma_min <= max(m, n) *
    eps * sigma_max, NumPy's own rank cutoff, below which sigma_min is
    rounding noise (an exactly rank-deficient matrix, or the zero matrix).
    """
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise ShapeError(f"condition_number: expected a nonempty matrix, got shape {arr.shape}")
    values = nm.svd_singular_values(arr)
    largest, smallest = values[0], values[-1]
    if smallest <= max(arr.shape) * np.finfo(np.float64).eps * largest:
        return math.inf
    return float(largest / smallest)


def numerical_rank(a, tol=1e-10):
    """Count of singular values above tol * sigma_max."""
    if not 0.0 < tol < math.inf:
        raise ConfigError(f"numerical_rank: tol must be positive and finite, got {tol}")
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise ShapeError(f"numerical_rank: expected a nonempty matrix, got shape {arr.shape}")
    values = nm.svd_singular_values(arr)
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
    averaged = average_attention(maps)
    return AttentionReport(
        averaged_map=averaged,
        rank=numerical_rank(averaged, rank_tol),
        condition_number=condition_number(averaged),
        mechanism=mechanism,
    )


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradCheckEntry:
    name: str
    max_rel_error: float
    checked: int
    near_zero: int

    @property
    def passed(self):
        return self.max_rel_error < 1e-4


@dataclass(frozen=True)
class GradCheckReport:
    mechanism: str
    architecture: str
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
    from .models import ForecastModel

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
        near_zero = 0
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            up = loss_value()
            flat[i] = original - step
            down = loss_value()
            flat[i] = original
            numeric = (up - down) / (2.0 * step)
            a = analytic[name].reshape(-1)[i]
            if max(abs(a), abs(numeric)) < _SMALL_GRAD:
                near_zero += 1
            worst = max(worst, _rel_error(a, numeric))
        entries.append(GradCheckEntry(
            name=name, max_rel_error=worst, checked=flat.size, near_zero=near_zero,
        ))
    return GradCheckReport(
        mechanism=config.mechanism,
        architecture=config.architecture,
        entries=tuple(entries),
        threshold=threshold,
    )


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


def json_text(obj, dest):
    """obj as canonical JSON text; FiniteInputError naming `dest` for a NaN or infinity.

    JSON has no non-finite numbers, so such a value is an error rather than
    the invalid `NaN`/`Infinity` tokens. (An infinite condition number is
    reported as the string "inf" before it gets here.)
    """
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise FiniteInputError(f"{dest}: {exc}; nothing written") from None


def write_json(path, obj):
    text = json_text(obj, path)
    with atomic_open(path) as fh:
        fh.write(text + "\n")
