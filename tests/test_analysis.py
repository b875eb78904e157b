"""Metrics, attention forensics, exports, and a gradient-check smoke test."""

import math
import re

import numpy as np
import pytest

from spectral_attn import numerics as nm
from spectral_attn.analysis import (
    attention_report,
    average_attention,
    condition_number,
    evaluate_on_split,
    grad_check,
    matrix_to_csv_text,
    matrix_to_pgm_text,
    mae,
    mse,
    numerical_rank,
)
from spectral_attn.attention import AttentionTensor
from spectral_attn.errors import ConfigError, DataError, FiniteInputError, ShapeError
from spectral_attn.data import split, synth_multisine, windows
from spectral_attn.models import ForecastModel, ModelConfig

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


def counting_svd(monkeypatch):
    calls = []
    original = nm.svd_singular_values

    def counted(a):
        calls.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(nm, "svd_singular_values", counted)
    return calls


@pytest.mark.parametrize("rank", [1, 3, 6], ids=["rank-1", "rank-3", "full-rank"])
def test_attention_report_takes_rank_and_kappa_from_one_svd(monkeypatch, rank):
    rng = np.random.default_rng(rank)
    maps = rng.random((6, rank)) @ rng.random((3, 2, rank, 6))   # every plane in one column space
    averaged = average_attention([maps])
    want_rank, want_kappa = numerical_rank(averaged, 1e-10), condition_number(averaged)
    calls = counting_svd(monkeypatch)
    report = attention_report([maps], "fsatten")
    assert calls == [(6, 6)]
    assert report.averaged_map.tobytes() == averaged.tobytes()
    assert report.rank == want_rank
    assert report.condition_number == want_kappa and (rank < 6) == math.isinf(want_kappa)


@pytest.mark.parametrize("maps, tol, error, message", [
    (np.eye(3)[None], 0.0, ConfigError, "numerical_rank: tol must be positive and finite, got 0.0"),
    (np.eye(3)[None], math.nan, ConfigError, "numerical_rank: tol must be positive and finite, got nan"),
    (np.full((1, 2, 2), np.inf), math.inf, ConfigError, "numerical_rank: tol must be positive"),
    (np.full((1, 2, 2), np.nan), 1e-10, FiniteInputError, "svd_singular_values: matrix must be finite"),
], ids=["zero-tol", "nan-tol", "tol-before-finiteness", "non-finite-map"])
def test_attention_report_errors_before_and_at_the_svd(monkeypatch, maps, tol, error, message):
    calls = counting_svd(monkeypatch)
    with pytest.raises(error, match=re.escape(message)):
        attention_report([maps], "soatten", rank_tol=tol)
    assert len(calls) == (error is FiniteInputError)


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
