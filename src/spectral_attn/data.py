"""Dataset ingestion, chronological splitting, windowing, and synthesis.

CSV layout: a header row whose first column is a date/index column, with one
numeric column per variate after it. Column order is preserved, since
neighboring-variate structure matters downstream. Each cell is parsed as
Python's `float` parses it; a missing, non-numeric or non-finite cell is
rejected, never imputed, and the error names the first bad cell in row
order.

`window_arrays` is the one place a split becomes model-ready batches:
inputs (n, C, L) and targets (n, C, T), both views of the standardized
split, so a split's windows take the memory of the split, not n times the
window length. `windows` lists the same windows as WindowPair views.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, replace
from datetime import datetime
from types import SimpleNamespace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .artifacts import atomic_open, read_text
from .errors import ConfigError, DataError, FormatError, ParseError
from .numerics import substream

_CSV_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class SeriesDataset:
    """An immutable C-variate series, C >= 1 and Tlen >= 1, with optional split bookkeeping.

    Variate names, if given, are distinct. `norm_stats` (per-variate mean/std)
    is derived only from indices before `split_bounds[0]`, so no statistics
    leak from validation or test data.
    """

    name: str
    values: np.ndarray                     # (C, Tlen)
    timestamps: tuple | None = None        # Tlen strings
    variate_names: tuple | None = None     # C strings
    split_bounds: tuple | None = None      # (train_end, val_end)
    norm_stats: tuple | None = None        # (means (C,), stds (C,))

    def __post_init__(self):
        if np.ndim(self.values) != 2 or 0 in np.shape(self.values):
            raise DataError(f"dataset {self.name!r}: values must be (C, Tlen), both >= 1, "
                            f"got shape {np.shape(self.values)}")
        if self.values.dtype.kind not in "biuf":
            raise DataError(f"dataset {self.name!r}: values must be real numbers, got {self.values.dtype}")
        for field, count in (("timestamps", self.length), ("variate_names", self.variates)):
            entries = getattr(self, field)
            if entries is not None and len(entries) != count:
                raise DataError(f"dataset {self.name!r}: {field} holds {len(entries)} entries, expected {count}")
        names = self.variate_names or ()
        if len(set(names)) < len(names):
            repeated = next(name for i, name in enumerate(names) if name in names[:i])
            raise DataError(f"dataset {self.name!r}: variate_names repeats the name {repeated!r}")

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


def load_csv(path):
    """Parse a dataset file into a SeriesDataset (values transposed to C x Tlen).

    The body is converted `_CSV_BLOCK_ROWS` rows at a time, each block in one
    NumPy call, which parses each `str` as Python's `float` does; so only one
    block's cells are held as Python strings. If a block's call fails, or a
    row has the wrong width, or a value is not finite, `_parse_cells` names
    the first bad cell of that block, which is the first in the file. A field
    too long for the csv module, a repeated variate name, or timestamps out of
    order (`_check_time_order`) is a FormatError.
    """
    # Once read_text has checked the UTF-8, the text is held as its bytes and
    # decoded again a chunk at a time: io.StringIO(text) would hold 4 bytes
    # per character. Both split lines alike under newline="".
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(read_text(path).encode("utf-8")), encoding="utf-8", newline=""))
    try:   # the csv module refuses a field above its size limit
        header = next(reader, None)
        if header is None:
            raise FormatError(f"{path}: empty file")
        if len(header) < 2:
            raise FormatError(f"{path}: header must have a date column plus at least one variate")
        stamps, blocks = [], []
        while block := list(itertools.islice(reader, _CSV_BLOCK_ROWS)):
            try:
                # Fortran order makes each block's (C, rows) transpose C-contiguous without a copy.
                cells = np.array([row[1:] for row in block], dtype=np.float64, order="F")
            except ValueError:
                cells = None
            if cells is None or cells.shape != (len(block), len(header) - 1) or not np.isfinite(cells).all():
                _parse_cells(path, header, block, len(stamps) + 2)
            stamps.extend(row[0] for row in block)
            blocks.append(cells.T)
    except csv.Error as exc:
        raise FormatError(f"{path}: line {reader.line_num}: {exc}") from None
    if not blocks:
        raise FormatError(f"{path}: no data rows")
    _check_time_order(path, stamps)
    try:   # SeriesDataset refuses a repeated variate name
        return SeriesDataset(name=_stem(path), values=np.concatenate(blocks, axis=1),
                             timestamps=tuple(stamps), variate_names=tuple(header[1:]))
    except DataError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _check_time_order(path, stamps):
    """FormatError naming the first row whose timestamp is not after the one before it,
    if every stamp parses as a number (one NumPy call, as the value blocks do) or every
    one as ISO 8601 (`datetime.fromisoformat`). Other stamps, naive and offset-aware
    ISO stamps mixed among them, are free labels. Data rows start at row 2."""
    try:
        keys = np.array(stamps, dtype=np.float64).tolist()
    except ValueError:
        try:
            keys = [datetime.fromisoformat(stamp) for stamp in stamps]
        except ValueError:
            return
        if len({key.utcoffset() is None for key in keys}) > 1:   # naive and aware do not compare
            return
    for row, (before, after) in enumerate(zip(keys, keys[1:]), start=3):
        if not before < after:
            raise FormatError(f"{path}: row {row}: timestamp {stamps[row - 2]!r} is not after {stamps[row - 3]!r}")


def _parse_cells(path, header, block, first_row):
    """Raise the error of the first bad row or cell of `block`, whose first
    row is row `first_row` of the file, parsing one cell at a time. Called
    only when the block's one-call conversion has found one."""
    width = len(header)
    for r, row in enumerate(block, start=first_row):
        if len(row) != width:
            raise FormatError(f"{path}: row {r} has {len(row)} cells, expected {width}")
        for c, cell in enumerate(row[1:], start=1):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: non-numeric cell at row {r}, column {header[c]!r}: {cell!r}"
                ) from None
            if not math.isfinite(value):
                raise ParseError(f"{path}: non-finite cell at row {r}, column {header[c]!r}: {cell!r}")


def _stem(path):
    base = str(path).replace("\\", "/").rsplit("/", 1)[-1]
    return base.rsplit(".", 1)[0] if "." in base else base


def _names(dataset):
    return dataset.variate_names or tuple(f"v{i}" for i in range(dataset.variates))


def save_csv(path, dataset):
    """Write a dataset back out in the same schema; values survive exactly.

    The csv module writes the header and quotes each timestamp. Each row's
    values are joined in one step: a float's repr never needs quoting.
    Timestamps that `load_csv` would refuse as out of order
    (`_check_time_order`) are a FormatError, and no file is written.
    """
    names = _names(dataset)
    stamps = dataset.timestamps or tuple(str(i) for i in range(dataset.length))
    _check_time_order(path, stamps)
    lines = []
    writer = csv.writer(SimpleNamespace(write=lines.append))
    writer.writerow(("date",) + tuple(names))
    # Each stamp goes out as the first of two fields, so that csv quotes it as
    # it would in a full row; the empty second field is where the values go.
    writer.writerows((stamp, "") for stamp in stamps)
    cut = len(writer.dialect.lineterminator)
    rows = zip(lines[1:], map(np.ndarray.tolist, dataset.values.T), strict=True)
    with atomic_open(path, newline="") as fh:
        fh.write(lines[0])
        fh.writelines(line[:-cut] + ",".join(map(repr, row)) + line[-cut:] for line, row in rows)


def default_ratios(name):
    """6:2:2 for ETT-named datasets, 7:1:2 otherwise."""
    return (0.6, 0.2) if name.lower().startswith("ett") else (0.7, 0.1)


def split(dataset, ratios):
    """Set contiguous chronological split bounds and train-only norm stats.

    Each variate's mean and std are taken on its train values divided by a
    power of two, the exponent of their largest magnitude, and scaled back.
    For normal numbers that is exact, so data scaled by any power of two
    standardizes to the same bits, with no overflow or underflow in the
    squares. DataError names the first variate that cannot be standardized
    so: one holding non-finite or subnormal values (the latter have lost
    significant bits), one whose mean or std does not survive the scaling
    back, or one whose standardized values overflow.
    """
    r_train, r_val = ratios
    if not (r_train > 0 and r_val >= 0 and r_train + r_val <= 1.0 + 1e-12):  # NaN fails each
        raise DataError(f"split: invalid ratios {ratios}")
    length = dataset.length
    train_end = int(length * r_train)
    val_end = int(length * (r_train + r_val))
    if not 0 < train_end <= val_end <= length:
        raise DataError(f"split: bounds ({train_end}, {val_end}) invalid for length {length}")
    values = dataset.values
    magnitudes = np.abs(values)
    with np.errstate(over="ignore", invalid="ignore"):
        _, exps = np.frexp(np.maximum.reduce(magnitudes[:, :train_end], axis=1))
        scaled = np.ldexp(values[:, :train_end], -exps[:, None])
        scaled_stats = (scaled.mean(axis=1), scaled.std(axis=1))
        means, stds = (np.ldexp(stat, exps) for stat in scaled_stats)
        result = replace(dataset, split_bounds=(train_end, val_end), norm_stats=(means, stds))
        standardized = np.isfinite(normalized_values(result)).all(axis=1)
    faults = (
        (~np.isfinite(values).all(axis=1), "holds non-finite values"),
        (((values != 0) & (magnitudes < np.finfo(np.float64).tiny)).any(axis=1),
         "holds subnormal values, which have lost significant bits"),
        (np.ldexp(means, -exps) != scaled_stats[0], "has a train mean that float64 cannot represent"),
        (np.ldexp(stds, -exps) != scaled_stats[1], "has a train std that float64 cannot represent"),
        (~standardized, "overflows float64 when standardized"),
    )
    for fault, what in faults:
        if fault.any():
            raise DataError(f"split: variate {_names(dataset)[np.argmax(fault)]!r} {what}")
    return result


def _split_range(dataset, which):
    if dataset.split_bounds is None:
        raise DataError("dataset has no split bounds; call split() first")
    train_end, val_end = dataset.split_bounds
    ranges = {"train": (0, train_end), "val": (train_end, val_end), "test": (val_end, dataset.length)}
    if isinstance(which, str) and which in ranges:
        return ranges[which]
    raise DataError(f"unknown split {which!r}; expected one of {tuple(ranges)}")


def normalized_values(dataset, columns=slice(None)):
    """Values (of the given time steps) standardized per variate by the train-split statistics."""
    if dataset.norm_stats is None:
        raise DataError("dataset has no normalization statistics; call split() first")
    means, stds = dataset.norm_stats
    safe = np.where(stds > 0, stds, 1.0)
    return (dataset.values[:, columns] - means[:, None]) / safe[:, None]


def window_arrays(dataset, which, L, T):
    """Inputs (n, C, L) and targets (n, C, T) of every window fully inside one split.

    Window i starts i points into the split, so n = split_len - (L + T) + 1.
    Values are standardized with the train-split statistics. Both arrays are
    read-only views of one standardized copy of the split, so no window is
    copied: index them to gather a batch.
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
    values = normalized_values(dataset, slice(start, end))
    spans = sliding_window_view(values, span, axis=1).transpose(1, 0, 2)   # (n, C, L + T)
    return spans[..., :L], spans[..., L:]


def windows(dataset, which, L, T):
    """`window_arrays` as a list of WindowPair views, one per window, in time order."""
    inputs, targets = window_arrays(dataset, which, L, T)
    start = _split_range(dataset, which)[0]
    return [WindowPair(x, y, start + i) for i, (x, y) in enumerate(zip(inputs, targets))]


def synth_multisine(C, Tlen, tone_spec, noise_sigma, seed, period=96, name="synth_multisine"):
    """Deterministic multi-tone series for mechanism verification.

    tone_spec[c] lists (frequency, amplitude, phase) triples for variate c,
    with frequency counted in cycles per `period` samples so a length-
    `period` window sees each tone in a single bin. Frequencies at or above
    the Nyquist bin (period/2) are rejected. tone_spec is a sequence of C
    lists, or a dict from variate index to list, where an omitted variate
    has no tones.
    """
    if C < 1 or Tlen < 2:
        raise ConfigError(f"synth_multisine: need C >= 1 and Tlen >= 2, got {C}, {Tlen}")
    if not isinstance(tone_spec, dict):
        if len(tone_spec) != C:
            raise ConfigError(f"synth_multisine: tone_spec has {len(tone_spec)} entries for C={C}")
        tone_spec = dict(enumerate(tone_spec))
    elif not all(type(c) is int and 0 <= c < C for c in tone_spec):
        raise ConfigError(f"synth_multisine: tone_spec has variates {list(tone_spec)} outside 0..{C - 1}")
    if not 0 <= noise_sigma < math.inf:
        raise ConfigError(f"synth_multisine: noise_sigma must be finite and >= 0, got {noise_sigma}")
    if period < 2:
        raise ConfigError(f"synth_multisine: period must be >= 2, got {period}")
    t = np.arange(Tlen)
    values = np.zeros((C, Tlen))
    for c, tones in tone_spec.items():
        for freq, amp, phase in tones:
            if not all(map(math.isfinite, (freq, amp, phase))):
                raise ConfigError(f"synth_multisine: variate {c} has a non-finite tone {(freq, amp, phase)}")
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
