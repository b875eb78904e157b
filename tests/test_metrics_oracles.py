"""`evaluate_windows` against the per-horizon loop it replaced.

The evaluation squares and takes the absolute value of the error array
once, and reduces each horizon step from a contiguous (T, n, C) copy; every
number of its MetricsReport must equal `oracles.loop_metrics` bit for bit.
"""

from types import SimpleNamespace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from spectral_attn.errors import ShapeError  # noqa: E402
from spectral_attn.models import ModelConfig, config_hash, evaluate_windows  # noqa: E402

from oracles import loop_metrics  # noqa: E402

PROPERTY = settings(max_examples=200, derandomize=True, deadline=None, database=None)


def forecasting(preds, seed=0):
    """A model stand-in that forecasts an input window holding i as preds[i], so
    any (n, C, T) can be drawn and each forecast chunk gets its own rows. Its
    windows hold L = 2 samples."""
    n, C, T = preds.shape
    return SimpleNamespace(config=ModelConfig(L=2, T=T, C=C, P=2, seed=seed),
                           predict_batch=lambda x: preds[x[:, 0, 0].astype(np.intp)])


def assert_matches_the_loop(preds, targets):
    ids = np.broadcast_to(np.arange(len(preds), dtype=np.float64)[:, None, None], preds.shape[:2] + (2,))
    report = evaluate_windows(forecasting(preds), ids, targets)
    want_mse, want_mae, want_steps = loop_metrics(preds, targets)
    assert (report.mse, report.mae) == (want_mse, want_mae)
    assert report.per_horizon == want_steps
    assert all(type(v) is float for step in report.per_horizon for v in step[1:])


@PROPERTY
@given(n=st.integers(1, 200), C=st.integers(1, 12), T=st.integers(1, 30),
       seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 1.0, 1e6]))
def test_evaluate_windows_matches_the_per_horizon_loop(n, C, T, seed, scale):
    rng = np.random.default_rng(seed)
    preds = rng.standard_normal((n, C, T)) * scale
    targets = rng.standard_normal((n, C, T)) * scale
    assert_matches_the_loop(preds, targets)


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 3, 4), (161, 4, 24), (777, 32, 24)])
def test_evaluate_windows_matches_the_loop_on_fixed_shapes(shape):
    rng = np.random.default_rng(sum(shape))
    assert_matches_the_loop(rng.standard_normal(shape), rng.standard_normal(shape))


def test_evaluate_windows_reports_config_hash_and_seed():
    preds = np.ones((2, 3, 4))
    model = forecasting(preds, seed=7)
    report = evaluate_windows(model, np.zeros((2, 3, 2)), preds)
    assert (report.mse, report.mae, report.seed) == (0.0, 0.0, 7)
    assert report.config_hash == config_hash(model.config)
    assert [step[0] for step in report.per_horizon] == [1, 2, 3, 4]


def test_evaluate_windows_rejects_targets_of_another_shape():
    with pytest.raises(ShapeError, match="evaluate_windows"):
        evaluate_windows(forecasting(np.ones((2, 3, 4))), np.zeros((2, 3, 2)), np.ones((2, 3, 1)))
