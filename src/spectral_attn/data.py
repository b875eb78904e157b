"""Dataset ingestion, chronological splitting, windowing, and synthesis.

CSV layout: a header row whose first column is a date/index column, with one
numeric column per variate after it. Column order is preserved, since
neighboring-variate structure matters downstream. Missing or non-numeric
cells are rejected, never imputed.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace

import numpy as np

from .artifacts import atomic_open, read_text
from .errors import ConfigError, DataError, FormatError, ParseError, ShapeError
from .numerics import substream


@dataclass(frozen=True)
class SeriesDataset:
    """An immutable C-variate series with optional split bookkeeping.

    `norm_stats` (per-variate mean/std) is derived exclusively from indices
    before `split_bounds[0]`, so no statistics leak from validation or test
    data.
    """

    name: str
    values: np.ndarray                     # (C, Tlen)
    timestamps: tuple | None = None        # Tlen strings
    variate_names: tuple | None = None     # C strings
    split_bounds: tuple | None = None      # (train_end, val_end)
    norm_stats: tuple | None = None        # (means (C,), stds (C,))

    @property
    def variates(self):
        return self.values.shape[0]

    @property
    def length(self):
        return self.values.shape[1]


@dataclass(frozen=True)
class WindowPair:
    """A lookback window and the target that immediately follows it."""

    input: np.ndarray    # (C, L)
    target: np.ndarray   # (C, T)
    origin_index: int


def load_csv(path, name=None):
    """Parse a dataset file into a SeriesDataset (values transposed to C x Tlen)."""
    rows = list(csv.reader(io.StringIO(read_text(path), newline="")))
    if not rows:
        raise FormatError(f"{path}: empty file")
    header = rows[0]
    if len(header) < 2:
        raise FormatError(f"{path}: header must have a date column plus at least one variate")
    width = len(header)
    if len(rows) < 2:
        raise FormatError(f"{path}: no data rows")
    timestamps = []
    columns = [[] for _ in range(width - 1)]
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise FormatError(f"{path}: row {r} has {len(row)} cells, expected {width}")
        timestamps.append(row[0])
        for c, cell in enumerate(row[1:], start=1):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: non-numeric cell at row {r}, column {header[c]!r}: {cell!r}"
                ) from None
            if not math.isfinite(value):
                raise ParseError(f"{path}: non-finite cell at row {r}, column {header[c]!r}: {cell!r}")
            columns[c - 1].append(value)
    values = np.array(columns, dtype=np.float64)
    stem = name if name is not None else _stem(path)
    return SeriesDataset(
        name=stem,
        values=values,
        timestamps=tuple(timestamps),
        variate_names=tuple(header[1:]),
    )


def _stem(path):
    base = str(path).replace("\\", "/").rsplit("/", 1)[-1]
    return base.rsplit(".", 1)[0] if "." in base else base


def save_csv(path, dataset):
    """Write a dataset back out in the same schema; values survive exactly."""
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        names = dataset.variate_names or tuple(f"v{i}" for i in range(dataset.variates))
        writer.writerow(("date",) + tuple(names))
        stamps = dataset.timestamps or tuple(str(i) for i in range(dataset.length))
        for t in range(dataset.length):
            writer.writerow([stamps[t]] + [repr(float(v)) for v in dataset.values[:, t]])


def default_ratios(name):
    """6:2:2 for ETT-named datasets, 7:1:2 otherwise."""
    return (0.6, 0.2) if name.lower().startswith("ett") else (0.7, 0.1)


def split(dataset, ratios):
    """Set contiguous chronological split bounds and train-only norm stats."""
    r_train, r_val = ratios
    if r_train <= 0 or r_val < 0 or r_train + r_val > 1.0 + 1e-12:
        raise DataError(f"split: invalid ratios {ratios}")
    length = dataset.length
    train_end = int(length * r_train)
    val_end = int(length * (r_train + r_val))
    if not 0 < train_end <= val_end <= length:
        raise DataError(f"split: bounds ({train_end}, {val_end}) invalid for length {length}")
    train_part = dataset.values[:, :train_end]
    means = train_part.mean(axis=1)
    stds = train_part.std(axis=1)
    return replace(dataset, split_bounds=(train_end, val_end), norm_stats=(means, stds))


_SPLITS = ("train", "val", "test")


def _split_range(dataset, which):
    if dataset.split_bounds is None:
        raise DataError("dataset has no split bounds; call split() first")
    train_end, val_end = dataset.split_bounds
    if which == "train":
        return 0, train_end
    if which == "val":
        return train_end, val_end
    if which == "test":
        return val_end, dataset.length
    raise DataError(f"unknown split {which!r}; expected one of {_SPLITS}")


def normalized_values(dataset):
    """Values standardized per variate by the train-split statistics."""
    if dataset.norm_stats is None:
        raise DataError("dataset has no normalization statistics; call split() first")
    means, stds = dataset.norm_stats
    safe = np.where(stds > 0, stds, 1.0)
    return (dataset.values - means[:, None]) / safe[:, None]


def windows(dataset, which, L, T):
    """All (input, target) pairs fully inside one split, in time order.

    Values are standardized with the train-split statistics. The count is
    split_len - (L + T) + 1.
    """
    if L < 1 or T < 1:
        raise DataError(f"windows: L and T must be positive, got {L}, {T}")
    start, end = _split_range(dataset, which)
    span = L + T
    if end - start < span:
        raise DataError(
            f"windows: split {which!r} holds {end - start} points, "
            f"fewer than one window of length {span}"
        )
    values = normalized_values(dataset)
    out = []
    for origin in range(start, end - span + 1):
        out.append(WindowPair(
            input=values[:, origin:origin + L].copy(),
            target=values[:, origin + L:origin + span].copy(),
            origin_index=origin,
        ))
    return out


def synth_multisine(C, Tlen, tone_spec, noise_sigma, seed, period=96, name="synth_multisine"):
    """Deterministic multi-tone series for mechanism verification.

    tone_spec[c] lists (frequency, amplitude, phase) triples for variate c,
    with frequency counted in cycles per `period` samples so a length-
    `period` window sees each tone in a single bin. Frequencies at or above
    the Nyquist bin (period/2) are rejected.
    """
    if C < 1 or Tlen < 2:
        raise ConfigError(f"synth_multisine: need C >= 1 and Tlen >= 2, got {C}, {Tlen}")
    if len(tone_spec) != C:
        raise ConfigError(f"synth_multisine: tone_spec has {len(tone_spec)} entries for C={C}")
    if noise_sigma < 0:
        raise ConfigError(f"synth_multisine: noise_sigma must be >= 0, got {noise_sigma}")
    if period < 2:
        raise ConfigError(f"synth_multisine: period must be >= 2, got {period}")
    t = np.arange(Tlen)
    values = np.zeros((C, Tlen))
    for c, tones in enumerate(tone_spec):
        for freq, amp, phase in tones:
            if freq >= period / 2:
                raise ConfigError(
                    f"synth_multisine: frequency {freq} reaches Nyquist for period {period}"
                )
            values[c] += amp * np.sin(2.0 * np.pi * freq * t / period + phase)
    if noise_sigma > 0:
        values += substream(seed, "synth-noise").standard_normal((C, Tlen)) * noise_sigma
    return SeriesDataset(
        name=name,
        values=values,
        timestamps=tuple(str(i) for i in range(Tlen)),
        variate_names=tuple(f"v{i}" for i in range(C)),
    )
