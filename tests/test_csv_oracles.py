"""`load_csv` and `save_csv` against the cell-at-a-time reader and writer.

`load_csv` converts every cell in one NumPy call and falls back to the
cell-by-cell parse only to name a bad cell; `save_csv` joins each row's
values itself and leaves only the header and the timestamps to the csv
module. On generated tables, loading must give the same bits (or the same
exception type and message) as `oracles.cellwise_load_csv`, and saving the
same bytes as `oracles.fieldwise_save_csv`.
"""

import csv
import io
import re
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from spectral_attn import data  # noqa: E402
from spectral_attn.data import SeriesDataset, load_csv, save_csv  # noqa: E402
from spectral_attn.errors import DataError, FormatError  # noqa: E402

from oracles import cellwise_load_csv, fieldwise_save_csv  # noqa: E402

PROPERTY = settings(max_examples=300, derandomize=True, deadline=None, database=None)

ODD_BUT_VALID = [" 1.5 ", "1_000", "١٢٣", "１２", "1e-400", "+.5", "-0",
                 "\t2\n", "1E5", "5e-324", "-.0e0"]
BAD = ["nan", "NaN", "inf", "-Infinity", "infinity", "1e400", "1.5\x00", "", "0x10", "oops",
       "1__0", " ", "1,5", "1.5.2", "--1"]
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)   # UTF-8 encodable

CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(ODD_BUT_VALID),
    st.sampled_from(BAD),
    TEXT,
)
# Mostly valid cells, so that many tables load and the rest carry several defects.
MOSTLY_VALID = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                         st.floats(allow_nan=False, allow_infinity=False).map(repr),
                         st.sampled_from(ODD_BUT_VALID), CELLS)
AWKWARD_TEXT = st.one_of(st.sampled_from(["", " lead", "a,b", 'q"uote', "cr\r", "lf\n", "\r\n", '"']), TEXT)


def outcome(loader, path):
    """(values bytes, C-contiguity, dataset fields) on success; (type, message) on error."""
    try:
        ds = loader(path)
    except Exception as exc:
        return type(exc), str(exc)
    return (ds.values.dtype, ds.values.shape, ds.values.tobytes(), ds.values.flags.c_contiguous,
            ds.name, ds.timestamps, ds.variate_names)


@st.composite
def tables(draw):
    """CSV text of a header and rows, some ragged, written by csv.writer so that quoting is valid.

    (A header without a variate and a file without rows have fixed cases below.)
    """
    width = draw(st.integers(2, 5))
    header = ["date"] + draw(st.lists(AWKWARD_TEXT, min_size=width - 1, max_size=width - 1))
    rows = [header]
    for _ in range(draw(st.integers(1, 6))):
        cells = draw(st.lists(MOSTLY_VALID, min_size=width - 1, max_size=width - 1))
        if draw(st.integers(0, 9)) == 0:   # a ragged row: cells dropped or added
            cells = cells[:draw(st.integers(0, width))] + draw(st.lists(CELLS, max_size=2))
        rows.append([draw(AWKWARD_TEXT)] + cells)
    buffer = io.StringIO(newline="")
    csv.writer(buffer, lineterminator=draw(st.sampled_from(["\r\n", "\n"]))).writerows(rows)
    return buffer.getvalue()


@PROPERTY
@given(text=tables())
def test_load_csv_matches_the_cellwise_parse(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(load_csv, path) == outcome(cellwise_load_csv, path)


@PROPERTY
@given(text=tables(), block_rows=st.integers(1, 3))
def test_load_csv_in_blocks_of_a_few_rows_matches_the_cellwise_parse(text, block_rows):
    """With blocks of 1-3 rows a table's first bad row or cell can sit in any
    block; its row number and message are still the oracle's."""
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        patch.setattr(data, "_CSV_BLOCK_ROWS", block_rows)
        path = Path(tmp) / "table.csv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(load_csv, path) == outcome(cellwise_load_csv, path)


@pytest.mark.parametrize("text", [
    "",
    "date\n0\n",
    "date,a\n",
    "date,a,b\n\n",
    "date,a,b\nt0,1,2\nt1,1\nt2,nan,1\n",
    "date,a,b\nt0,1,x\nt1,nan,2\n",
    "date,a,b\nt0,1,2\nt1,3,1e400\nt2,x,2\n",
    "date,a,b\nt0,1,2,3\nt1,4,5,6\n",
    "date,a\nt0,1.5\x00\n",
    "date,a,b\nt0,١٢,1_000\nt1, 1.5 ,1e-400\n",
], ids=["empty", "one-column", "no-rows", "blank-row", "ragged-before-nan", "bad-before-nan",
        "nan-before-bad", "all-rows-too-wide", "nul-byte", "odd-but-valid"])
def test_load_csv_matches_the_cellwise_parse_on_fixed_files(tmp_path, text):
    path = tmp_path / "fixed.csv"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(load_csv, path) == outcome(cellwise_load_csv, path)


@st.composite
def datasets(draw):
    C = draw(st.integers(1, 4))
    Tlen = draw(st.integers(1, 6))
    values = np.array(draw(st.lists(st.floats(), min_size=C * Tlen, max_size=C * Tlen)),
                      dtype=np.float64).reshape(C, Tlen)
    stamps = draw(st.none() | st.lists(AWKWARD_TEXT, min_size=Tlen, max_size=Tlen).map(tuple))
    names = draw(st.none() | st.lists(AWKWARD_TEXT, min_size=C, max_size=C, unique=True).map(tuple))
    return SeriesDataset(name="gen", values=values, timestamps=stamps, variate_names=names)


def saved_bytes(saver, dataset):
    """The file's bytes, or the FormatError's type and message past the path."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        try:
            saver(path, dataset)
        except FormatError as exc:
            return type(exc), str(exc).removeprefix(f"{path}: ")
        return path.read_bytes()


@PROPERTY
@given(dataset=datasets())
@example(dataset=SeriesDataset(name="gen", values=np.ones((1, 2)), timestamps=("2", "1")))
def test_save_csv_matches_the_fieldwise_writer(dataset):
    assert saved_bytes(save_csv, dataset) == saved_bytes(fieldwise_save_csv, dataset)


@pytest.mark.parametrize("shape", [(0, 3), (2, 0), (0, 0)], ids=["no-variate", "no-step", "neither"])
def test_empty_dataset_is_rejected_before_it_reaches_a_writer(shape):
    """`save_csv` would write such a dataset as a file that `load_csv` refuses:
    one without a variate column, or without a data row."""
    with pytest.raises(DataError, match=re.escape(f"(C, Tlen), both >= 1, got shape {shape}")):
        SeriesDataset(name="empty", values=np.zeros(shape))


@pytest.mark.parametrize("stamps", [("0",), ("0", "1", "2")], ids=["short", "long"])
def test_save_csv_rejects_a_stamp_count_off_the_values_as_before(tmp_path, stamps):
    dataset = SimpleNamespace(variate_names=("a",), variates=1, timestamps=stamps, length=2,
                              values=np.ones((1, 2)))
    errors = []
    for saver in (save_csv, fieldwise_save_csv):
        with pytest.raises(ValueError) as info:
            saver(tmp_path / "out.csv", dataset)
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    assert not (tmp_path / "out.csv").exists()
