"""Property fuzzing of the analysis layer's library functions.

Each example draws an array's dtype (bool, int, float, complex, object, str),
its shape (the documented one, a zero-size axis, a wrong rank, a non-square
matrix) and its values (NaN, +-inf, +-1e308, subnormal, ordinary), and calls
one public function on it. The contract is the CLI's: a finite result of the
documented shape, or a SpectralAttnError subclass, and no warning escapes.
The one documented non-finite result is a condition number of inf, for a
numerically singular matrix; and `average_attention` hands NaN or inf maps on
as a non-finite mean, which the SVD of `numerical_rank` and
`condition_number` then refuses.
"""

import math
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from spectral_attn import numerics as nm  # noqa: E402
from spectral_attn.analysis import (  # noqa: E402
    attention_report, average_attention, condition_number, matrix_to_csv_text, matrix_to_pgm_text, numerical_rank,
)
from spectral_attn.errors import SpectralAttnError  # noqa: E402
from spectral_attn.spectral import amplitude_matrix  # noqa: E402

FUZZ = settings(max_examples=300, derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])

TINY = 5e-324                  # the smallest subnormal
EXTREMES = [0.0, -0.0, 1.0, -1.0, 0.5, 1e-12, math.nan, math.inf, -math.inf, 1e308, -1e308,
            1.7976931348623157e308, -1.7976931348623157e308, TINY, -TINY, 2.2250738585072014e-308, 1e-300]
FLOATS = st.one_of(st.sampled_from(EXTREMES), st.floats(width=64))
KINDS = ["float", "float", "float", "bool", "int", "complex", "object", "str"]
ANY_SHAPE = st.lists(st.integers(0, 4), max_size=4).map(tuple)


@st.composite
def arrays(draw, shape):
    """An array of `shape` whose dtype and values are drawn; mostly float."""
    kind = draw(st.sampled_from(KINDS))
    size = math.prod(shape)
    if kind == "bool":
        flat = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)), dtype=bool)
    elif kind == "int":
        flat = np.array(draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=size, max_size=size)),
                        dtype=np.int64)
    else:
        values = draw(st.lists(FLOATS, min_size=size, max_size=size))
        flat = {"float": lambda: np.array(values, dtype=np.float64),
                "complex": lambda: np.array(values, dtype=np.float64) + 1j,
                "object": lambda: np.array(values, dtype=object),
                "str": lambda: np.array([repr(v) for v in values], dtype=str)}[kind]()
    return flat.reshape(shape)


def shapes(documented):
    """The documented shape most of the time, any rank-0..4 shape otherwise."""
    return st.one_of(documented, documented, ANY_SHAPE)


MATRIX_SHAPES = shapes(st.tuples(st.integers(1, 4), st.integers(1, 4)))
SQUARE_SHAPES = shapes(st.integers(1, 4).map(lambda n: (n, n)))


@st.composite
def map_lists(draw):
    """One to three attention maps, mostly of one (..., N, N) size."""
    n = draw(st.integers(1, 4))
    documented = st.lists(st.integers(1, 3), max_size=2).map(lambda lead: tuple(lead) + (n, n))
    return [draw(arrays(shape)) for shape in draw(st.lists(shapes(documented), min_size=1, max_size=3))]


TOLS = st.one_of(st.just(1e-10), FLOATS)


def outcome(call):
    """call()'s result, or None if it raised a SpectralAttnError; any warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except SpectralAttnError:
            return None


def finite_of_shape(result, shape):
    assert isinstance(result, np.ndarray) and result.dtype == np.float64 and result.shape == shape, result
    assert np.isfinite(result).all(), result


def all_finite(maps):
    return all(np.isfinite(np.asarray(m, dtype=np.float64)).all() for m in maps)


@FUZZ
@given(maps=map_lists())
def test_average_attention(maps):
    mean = outcome(lambda: average_attention(maps))
    if mean is not None:
        n = mean.shape[0]
        assert mean.shape == (n, n) and mean.dtype == np.float64
        if all_finite(maps):
            finite_of_shape(mean, (n, n))


@FUZZ
@given(maps=map_lists(), tol=TOLS)
def test_attention_report(maps, tol):
    report = outcome(lambda: attention_report(maps, "fsatten", rank_tol=tol))
    if report is not None:
        n = report.averaged_map.shape[0]
        finite_of_shape(report.averaged_map, (n, n))
        assert type(report.rank) is int and 0 <= report.rank <= n
        assert report.condition_number == math.inf or 1.0 <= report.condition_number < math.inf
        assert report.to_dict()["n"] == n


@FUZZ
@given(matrix=MATRIX_SHAPES.flatmap(arrays), tol=TOLS)
def test_numerical_rank(matrix, tol):
    rank = outcome(lambda: numerical_rank(matrix, tol))
    if rank is not None:
        assert type(rank) is int and 0 <= rank <= min(matrix.shape)


@FUZZ
@given(matrix=SQUARE_SHAPES.flatmap(arrays))
def test_condition_number(matrix):
    kappa = outcome(lambda: condition_number(matrix))
    if kappa is not None:
        assert type(kappa) is float and (kappa == math.inf or 1.0 <= kappa < math.inf)


@FUZZ
@given(matrix=MATRIX_SHAPES.flatmap(arrays))
def test_svd_singular_values(matrix):
    values = outcome(lambda: nm.svd_singular_values(matrix))
    if values is not None:
        finite_of_shape(values, (min(matrix.shape),))
        assert (values >= 0).all() and (np.diff(values) <= 0).all()


@FUZZ
@given(matrix=MATRIX_SHAPES.flatmap(arrays))
def test_matrix_to_csv_text(matrix):
    text = outcome(lambda: matrix_to_csv_text(matrix))
    if text is not None:
        rows = [[float(cell) for cell in line.split(",")] for line in text.splitlines()]
        finite_of_shape(np.array(rows), matrix.shape)
        assert text.endswith("\n")


@FUZZ
@given(matrix=MATRIX_SHAPES.flatmap(arrays))
def test_matrix_to_pgm_text(matrix):
    text = outcome(lambda: matrix_to_pgm_text(matrix))
    if text is not None:
        lines = text.splitlines()
        assert lines[:3] == ["P2", f"{matrix.shape[1]} {matrix.shape[0]}", "255"]
        levels = np.array([[int(v) for v in line.split(" ")] for line in lines[3:]])
        assert levels.shape == matrix.shape and ((0 <= levels) & (levels <= 255)).all()


@FUZZ
@given(series=shapes(st.tuples(st.integers(1, 3), st.integers(2, 9))).flatmap(arrays))
def test_amplitude_matrix(series):
    amplitudes = outcome(lambda: amplitude_matrix(series))
    if amplitudes is not None:
        finite_of_shape(amplitudes, (series.shape[0], series.shape[1] // 2 + 1))
        assert (amplitudes >= 0).all()
