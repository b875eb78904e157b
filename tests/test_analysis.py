"""Metrics, attention forensics, exports, and a gradient-check smoke test."""

import math
import re
import warnings

import numpy as np
import pytest

from spectral_attn import analysis, numerics as nm
from spectral_attn.analysis import (
    attention_report,
    average_attention,
    condition_number,
    grad_check,
    matrix_to_csv_text,
    matrix_to_pgm_text,
    numerical_rank,
    write_matrix_csv,
    write_pgm,
)
from spectral_attn.attention import AttentionTensor
from spectral_attn.errors import ConfigError, DataError, FiniteInputError, ShapeError
from spectral_attn.data import split, synth_multisine, windows
from spectral_attn.models import (
    ForecastModel, ModelConfig, evaluate_on_split, instance_normalize, mae, mse, naive_repeat_forecast, patchify,
)
from spectral_attn.spectral import amplitude_matrix

from oracles import jacobi_eigenvalues


def test_mse_mae_identical_inputs():
    x = np.random.default_rng(0).standard_normal((3, 4))
    assert mse(x, x) == 0.0
    assert mae(x, x) == 0.0


def test_mse_mae_constant_offset():
    target = np.zeros((2, 5))
    pred = np.full((2, 5), 2.0)
    assert mse(pred, target) == 4.0
    assert mae(pred, target) == 2.0


def test_mse_mae_match_scalar_loop():
    rng = np.random.default_rng(1)
    pred = rng.standard_normal((3, 6))
    target = rng.standard_normal((3, 6))
    sq = ab = 0.0
    for i in range(3):
        for j in range(6):
            diff = pred[i, j] - target[i, j]
            sq += diff * diff
            ab += abs(diff)
    assert abs(mse(pred, target) - sq / 18) < 1e-12
    assert abs(mae(pred, target) - ab / 18) < 1e-12


def test_metrics_shape_mismatch():
    with pytest.raises(ShapeError):
        mse(np.zeros((2, 3)), np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        mae(np.zeros((2, 3)), np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# arrays that are not real
# ---------------------------------------------------------------------------

TAKES_AN_ARRAY = {
    "amplitude_matrix": amplitude_matrix,
    "svd_singular_values": nm.svd_singular_values,
    "numerical_rank": numerical_rank,
    "condition_number": condition_number,
    "attention_report": lambda m: attention_report([m], "fsatten"),
    "average_attention": lambda m: average_attention([m]),
    "matrix_to_csv_text": matrix_to_csv_text,
    "matrix_to_pgm_text": matrix_to_pgm_text,
    "instance_normalize": instance_normalize,
    "patchify": lambda x: patchify(x, 2, 1),
    "naive_repeat_forecast": lambda x: naive_repeat_forecast(x, 2),
}

NOT_REAL = {
    "complex": (np.eye(3) + 1j, "real values, got complex128"),
    "str": (np.full((3, 3), "1.0"), "real values, got <U3"),
    "none-objects": (np.full((3, 3), None), "real values, got object"),
    "ragged": ([[1.0, 0.0, 0.0], [0.0, 1.0]], "an array of real values, got a ragged sequence"),
}


@pytest.mark.parametrize("kind", NOT_REAL)
@pytest.mark.parametrize("name", TAKES_AN_ARRAY)
def test_arrays_that_are_not_real_are_refused_by_name(name, kind):
    """A ShapeError naming the function called, not a result from the real
    part, the parsed strings or NaN for `None`, nor NumPy's own error."""
    call = TAKES_AN_ARRAY[name]
    bad, got = NOT_REAL[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(np.eye(3))
        with pytest.raises(ShapeError, match=f"^{name}: expected {re.escape(got)}$"):
            call(bad)


WRONG_TYPE = {
    "average_attention": (lambda: average_attention(1.0), ShapeError,
                          "average_attention: expected an iterable of attention maps, got float"),
    "attention_report": (lambda: attention_report(1.0, "soatten"), ShapeError,
                         "attention_report: expected an iterable of attention maps, got float"),
    "patchify-P": (lambda: patchify(np.arange(8.0), 2.5, 1), ConfigError,
                   "patchify: patch length and stride must be integers, got P=2.5, S=1"),
    "patchify-S": (lambda: patchify(np.arange(8.0), 4, 1.5), ConfigError,
                   "patchify: patch length and stride must be integers, got P=4, S=1.5"),
}


@pytest.mark.parametrize("case", WRONG_TYPE)
def test_arguments_of_the_wrong_type_are_refused_by_name(case):
    """Not Python's own TypeError from iterating a float or indexing by one."""
    call, error, message = WRONG_TYPE[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


# ---------------------------------------------------------------------------
# average_attention
# ---------------------------------------------------------------------------

def test_average_single_map_is_itself():
    w = np.abs(np.random.default_rng(2).standard_normal((1, 4, 4)))
    avg = average_attention([AttentionTensor(w)])
    np.testing.assert_allclose(avg, w[0], atol=0)


def test_average_uniform_maps():
    maps = [np.full((3, 5, 5), 0.2) for _ in range(4)]
    np.testing.assert_allclose(average_attention(maps), np.full((5, 5), 0.2), atol=1e-15)


def test_average_two_known_maps_hand_arithmetic():
    a = np.array([[[1.0, 0.0], [0.5, 0.5]]])
    b = np.array([[[0.0, 1.0], [0.25, 0.75]]])
    np.testing.assert_allclose(
        average_attention([a, b]), [[0.5, 0.5], [0.375, 0.625]], atol=1e-15
    )


def test_average_is_permutation_invariant():
    rng = np.random.default_rng(3)
    maps = [rng.random((2, 4, 4)) for _ in range(5)]
    base = average_attention(maps)
    np.testing.assert_allclose(average_attention(maps[::-1]), base, atol=1e-12)
    np.testing.assert_allclose(
        average_attention([maps[i] for i in (2, 0, 4, 1, 3)]), base, atol=1e-12
    )


def test_average_empty_rejected():
    with pytest.raises(DataError):
        average_attention([])


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0), (0, 0, 0)])
def test_average_of_zero_size_planes_is_a_shape_error(shape):
    with pytest.raises(ShapeError, match=re.escape(f"N >= 1, got shape {shape}")):
        average_attention([np.zeros(shape)])


# ---------------------------------------------------------------------------
# condition number / rank
# ---------------------------------------------------------------------------

def test_condition_number_identity():
    assert abs(condition_number(np.eye(5)) - 1.0) < 1e-12


def test_condition_number_diagonal_ratio():
    assert abs(condition_number(np.diag([10.0, 0.1])) - 100.0) < 1e-9


def test_condition_number_matches_jacobi_oracle():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 6))
    eigs = np.sqrt(np.clip(jacobi_eigenvalues(a.T @ a), 0.0, None))
    expected = eigs[0] / eigs[-1]
    assert abs(condition_number(a) - expected) / expected < 1e-6


def test_condition_number_scale_invariance():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((5, 5))
    base = condition_number(a)
    for c in (0.3, 2.0, 1e3):
        assert abs(condition_number(c * a) - base) / base < 1e-9


def test_condition_number_singular_matrix_is_infinite():
    u = np.array([[1.0], [2.0], [0.5]])
    assert condition_number(u @ u.T) == math.inf


def test_condition_number_cutoff_is_relative_to_sigma_max():
    assert condition_number(np.zeros((3, 3))) == math.inf
    assert abs(condition_number(np.diag([1.0, 1e-12])) - 1e12) / 1e12 < 1e-12
    assert condition_number(np.diag([1.0, 1e-17])) == math.inf


def test_numerical_rank_identity_up_to_64():
    for n in range(1, 65):
        assert numerical_rank(np.eye(n)) == n


def test_numerical_rank_rank_one():
    u = np.arange(1.0, 6.0)[:, None]
    v = np.array([[2.0, -1.0, 0.5, 3.0]])
    assert numerical_rank(u @ v) == 1


def test_numerical_rank_sum_of_rank_ones():
    rng = np.random.default_rng(6)
    n = 8
    for k in (1, 2, 3, 5, 7):
        acc = np.zeros((n, n))
        for _ in range(k):
            acc += np.outer(rng.standard_normal(n), rng.standard_normal(n))
        assert numerical_rank(acc, tol=1e-10) == k


def test_numerical_rank_requires_positive_tol():
    for tol in (0.0, np.nan, np.inf):
        with pytest.raises(ConfigError):
            numerical_rank(np.eye(3), tol=tol)


def test_numerical_rank_with_a_tol_times_sigma_max_past_float64_is_zero():
    """tol * sigma_max overflowed with a RuntimeWarning; no singular value exceeds it."""
    assert numerical_rank(np.full((1, 1), 1e308), 1e308) == 0
    assert numerical_rank(np.diag([1e300, 1.0]), np.float64(1e10)) == 0


def counting_svd(monkeypatch):
    calls = []
    original = nm.svd_singular_values

    def counted(a):
        calls.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(nm, "svd_singular_values", counted)
    return calls


@pytest.mark.parametrize("rank", [1, 3, 6], ids=["rank-1", "rank-3", "full-rank"])
def test_attention_report_calls_rank_and_kappa_by_module_name_on_the_averaged_map(monkeypatch, rank):
    """perfbench traces and patches both functions as `analysis` attributes."""
    rng = np.random.default_rng(rank)
    maps = rng.random((6, rank)) @ rng.random((3, 2, rank, 6))   # every plane in one column space
    averaged = average_attention([maps])
    want_rank, want_kappa = numerical_rank(averaged, 1e-10), condition_number(averaged)
    seen = {"numerical_rank": [], "condition_number": []}
    for name, original in (("numerical_rank", numerical_rank), ("condition_number", condition_number)):
        def spy(a, *args, _name=name, _original=original):
            seen[_name].append(np.array(a))
            return _original(a, *args)
        monkeypatch.setattr(analysis, name, spy)
    report = attention_report([maps], "fsatten")
    assert [len(calls) for calls in seen.values()] == [1, 1]
    assert all(c[0].shape == averaged.shape and c[0].tobytes() == averaged.tobytes() for c in seen.values())
    assert report.averaged_map.tobytes() == averaged.tobytes()
    assert report.rank == want_rank
    assert report.condition_number == want_kappa and (rank < 6) == math.isinf(want_kappa)


@pytest.mark.parametrize("maps, tol, error, message", [
    (np.eye(3)[None], 0.0, ConfigError, "numerical_rank: tol must be positive and finite, got 0.0"),
    (np.eye(3)[None], math.nan, ConfigError, "numerical_rank: tol must be positive and finite, got nan"),
    (np.full((1, 2, 2), np.inf), math.inf, ConfigError, "numerical_rank: tol must be positive"),
    (np.full((1, 2, 2), np.nan), 1e-10, FiniteInputError, "svd_singular_values: matrix must be finite"),
    (np.eye(3)[None], "a", ConfigError, "numerical_rank: tol must be positive and finite, got a"),
    (np.eye(3)[None], None, ConfigError, "numerical_rank: tol must be positive and finite, got None"),
    (np.eye(3)[None], 1j, ConfigError, "numerical_rank: tol must be positive and finite, got 1j"),
    (np.eye(3)[None], True, ConfigError, "numerical_rank: tol must be positive and finite, got True"),
], ids=["zero-tol", "nan-tol", "tol-before-finiteness", "non-finite-map", "str-tol", "none-tol", "complex-tol",
        "bool-tol"])
def test_attention_report_errors_before_and_at_the_svd(monkeypatch, maps, tol, error, message):
    calls = counting_svd(monkeypatch)
    with pytest.raises(error, match=re.escape(message)):
        attention_report([maps], "soatten", rank_tol=tol)
    assert len(calls) == (error is FiniteInputError)


# ---------------------------------------------------------------------------
# finite input at the float extremes: a refusal, never a silent result
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("call", [
    lambda m: numerical_rank(m),          # LAPACK's sigma_max overflows: rank 0 at 1e308
    lambda m: condition_number(m),
    lambda m: attention_report([m[None]], "fsatten"),
], ids=["numerical_rank", "condition_number", "attention_report"])
def test_an_overflowing_singular_value_is_refused(call):
    with pytest.raises(FiniteInputError, match="^svd_singular_values: singular values overflow float64$"):
        call(np.full((2, 2), 1e308))


def test_average_attention_refuses_a_mean_of_finite_maps_that_overflows():
    for maps in ([np.full((2, 2, 2), 1e308)], [np.full((1, 2, 2), 1e308), np.full((1, 2, 2), 1e308)]):
        with pytest.raises(FiniteInputError, match="^average_attention: the mean of finite maps overflows float64$"):
            average_attention(maps)
        with pytest.raises(FiniteInputError, match="^average_attention: "):
            attention_report(maps, "soatten")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_average_attention_passes_a_non_finite_map_on_to_the_svd(value):
    maps = [np.full((1, 2, 2), value), np.ones((1, 2, 2))]
    assert not np.isfinite(average_attention(maps)).any()
    with pytest.raises(FiniteInputError, match="^svd_singular_values: matrix must be finite$"):
        attention_report(maps, "soatten")


@pytest.mark.parametrize("matrix", [
    [[1.0, np.nan], [0.0, 1.0]], [[np.inf, 0.0]], [[-np.inf, 0.0]], np.full((2, 2), np.nan),
], ids=["nan-cell", "inf-cell", "minus-inf-cell", "all-nan"])
@pytest.mark.parametrize("export, write", [(matrix_to_csv_text, write_matrix_csv), (matrix_to_pgm_text, write_pgm)])
def test_matrix_exports_refuse_a_non_finite_matrix(tmp_path, export, write, matrix):
    """Not `nan` cells, nor an all-black image; no file is written."""
    for call in (lambda: export(matrix), lambda: write(tmp_path / "map", matrix)):
        with pytest.raises(FiniteInputError, match=f"^{export.__name__}: "):
            call()
    assert not list(tmp_path.iterdir())


def test_pgm_refuses_a_value_range_that_overflows():
    """Its level was -9223372036854775808; the CSV of the same matrix is exact."""
    matrix = [[1e308, 0.0], [0.0, -1e308]]
    with pytest.raises(FiniteInputError, match=re.escape("matrix_to_pgm_text: value range -1e+308..1e+308 is not finite")):
        matrix_to_pgm_text(matrix)
    assert matrix_to_csv_text(matrix) == "1e+308,0\n0,-1e+308\n"
    assert matrix_to_pgm_text([[1.7e308, 0.0]]).splitlines()[3] == "255 0"


# ---------------------------------------------------------------------------
# grad_check smoke (the full suite runs in acceptance)
# ---------------------------------------------------------------------------

def test_grad_check_passes_on_micro_conventional():
    cfg = ModelConfig(architecture="variate", mechanism="conventional", L=12, T=3,
                      C=2, P=4, S=2, H=2, D=4, layers=1, dropout=0.0, seed=0)
    report = grad_check(cfg)
    assert report.passed, max(report.entries, key=lambda e: e.max_rel_error)
    assert {e.name for e in report.entries} == {
        "embed.weight", "embed.bias", "head.weight", "head.bias",
        "layers.0.attn.wq", "layers.0.attn.bq", "layers.0.attn.wk", "layers.0.attn.bk",
        "layers.0.attn.wv", "layers.0.attn.bv", "layers.0.attn.wo", "layers.0.attn.bo",
        "layers.0.ln1.gamma", "layers.0.ln1.beta", "layers.0.ln2.gamma", "layers.0.ln2.beta",
        "layers.0.ffn.w1", "layers.0.ffn.b1", "layers.0.ffn.w2", "layers.0.ffn.b2",
    }


# ---------------------------------------------------------------------------
# split evaluation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("architecture, mechanism, f", [
    ("variate", "fsatten", 0),
    ("temporal", "soatten", 6),
])
def test_evaluate_on_split_matches_per_window_predict_loop(architecture, mechanism, f):
    tones = [[(3 + i, 1.0, 0.2 * i)] for i in range(3)]
    dataset = split(synth_multisine(3, 200, tones, noise_sigma=0.05, seed=1, period=32), (0.5, 0.2))
    cfg = ModelConfig(architecture=architecture, mechanism=mechanism, L=16, T=4, C=3, P=4,
                      S=2, H=2, D=8, F=f, layers=2, dropout=0.2, seed=2)
    model = ForecastModel(cfg)
    report = evaluate_on_split(model, dataset, "test")

    pairs = windows(dataset, "test", cfg.L, cfg.T)
    assert len(pairs) >= 3
    preds = np.stack([model.predict(p.input) for p in pairs])
    targets = np.stack([p.target for p in pairs])
    assert abs(report.mse - mse(preds, targets)) <= 1e-12 * max(1.0, report.mse)
    assert abs(report.mae - mae(preds, targets)) <= 1e-12 * max(1.0, report.mae)
    assert len(report.per_horizon) == cfg.T
    for t, m, a in report.per_horizon:
        assert abs(m - mse(preds[:, :, t - 1], targets[:, :, t - 1])) <= 1e-12 * max(1.0, m)
        assert abs(a - mae(preds[:, :, t - 1], targets[:, :, t - 1])) <= 1e-12 * max(1.0, a)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def test_matrix_csv_format():
    text = matrix_to_csv_text(np.array([[1.0, 0.123456789], [1e-12, -2.5]]))
    assert text == "1,0.12345679\n1e-12,-2.5\n"


def test_pgm_format_and_scaling():
    text = matrix_to_pgm_text(np.array([[0.0, 1.0], [0.5, 0.25]]))
    lines = text.splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "2 2"
    assert lines[2] == "255"
    assert lines[3] == "0 255"
    assert lines[4] == "128 64"


def test_pgm_constant_matrix_is_black():
    text = matrix_to_pgm_text(np.full((2, 3), 7.0))
    assert text.splitlines()[3:] == ["0 0 0", "0 0 0"]


@pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
@pytest.mark.parametrize("export, write", [(matrix_to_csv_text, write_matrix_csv), (matrix_to_pgm_text, write_pgm)])
def test_matrix_exports_refuse_an_empty_axis_by_name(tmp_path, export, write, shape):
    """Neither a file of blank lines nor NumPy's reduction error; no file is written."""
    message = f"^{export.__name__}: expected a nonempty matrix, got shape {re.escape(str(shape))}$"
    with pytest.raises(ShapeError, match=message):
        export(np.zeros(shape))
    with pytest.raises(ShapeError, match=message):
        write(tmp_path / "map", np.zeros(shape))
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("tol", ["a", None, 1j, True, np.bool_(True), [1e-10]],
                         ids=["str", "none", "complex", "bool", "numpy-bool", "list"])
def test_numerical_rank_refuses_a_tolerance_that_is_not_a_real_number(tol):
    """A str, None or complex raised `TypeError: '<' not supported`, and True
    counted as a tolerance of 1, so the identity had rank 0."""
    with pytest.raises(ConfigError, match="^numerical_rank: tol must be positive and finite, got "):
        numerical_rank(np.eye(2), tol)


@pytest.mark.parametrize("tol, rank", [(0.5, 1), (np.float32(0.5), 1), (1, 0), (np.int64(1), 0)])
def test_numerical_rank_takes_any_real_number_as_tolerance(tol, rank):
    assert numerical_rank(np.diag([1.0, 0.25]), tol) == rank
