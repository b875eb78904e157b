"""Property fuzzing of the model layer's library functions and the two attention primitives.

The draws and the contract are those of `tests/test_analysis_fuzz.py`, imported
from it: each example draws an array's dtype, shape and values (NaN, +-inf,
+-1e308, subnormal, ordinary) and calls one public function on it, which must
return a finite result of the documented shape or raise a SpectralAttnError
subclass, with no warning escaping. `patchify` only rearranges its input, so
its patches are finite where the input is.
"""

from functools import lru_cache

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from test_analysis_fuzz import FUZZ, arrays, finite_of_shape, outcome, shapes  # noqa: E402

from spectral_attn import numerics as nm  # noqa: E402
from spectral_attn.models import (  # noqa: E402
    ForecastModel, ModelConfig, evaluate_windows, instance_denormalize, instance_normalize, mae, mse, patchify,
)

FUZZ = settings(FUZZ, max_examples=150)   # the analysis suite's settings, at half its examples
ARMS = [dict(architecture="variate", mechanism="fsatten"), dict(architecture="variate", mechanism="conventional"),
        dict(architecture="temporal", mechanism="soatten")]
C, L, T = 2, 8, 3


@lru_cache(maxsize=None)
def model(arm):
    return ForecastModel(ModelConfig(C=C, L=L, T=T, P=4, S=2, H=2, D=4, layers=1, seed=7, **ARMS[arm]))


MODELS = st.integers(0, len(ARMS) - 1).map(model)
COUNTS = st.integers(0, 3)
WINDOWS = shapes(st.just((C, L))).flatmap(arrays)
BATCHES = COUNTS.flatmap(lambda b: shapes(st.just((b, C, L))).flatmap(arrays))


@st.composite
def batch_pairs(draw):
    """(inputs, targets) of one drawn window count, each mostly of its documented shape."""
    b = draw(COUNTS)
    return draw(shapes(st.just((b, C, L))).flatmap(arrays)), draw(shapes(st.just((b, C, T))).flatmap(arrays))


@st.composite
def error_pairs(draw):
    """(pred, target), mostly of one drawn shape."""
    pred = draw(shapes(st.lists(st.integers(0, 3), max_size=3).map(tuple)).flatmap(arrays))
    return pred, draw(shapes(st.just(pred.shape)).flatmap(arrays))


@FUZZ
@given(m=MODELS, x=WINDOWS)
def test_predict(m, x):
    forecast = outcome(lambda: m.predict(x))
    if forecast is not None:
        finite_of_shape(forecast, (C, T))


@FUZZ
@given(m=MODELS, x=BATCHES)
def test_predict_batch(m, x):
    forecasts = outcome(lambda: m.predict_batch(x))
    if forecasts is not None:
        finite_of_shape(forecasts, (len(x), C, T))


@FUZZ
@given(m=MODELS, pair=batch_pairs())
def test_batch_loss(m, pair):
    loss = outcome(lambda: m.batch_loss(*pair))
    if loss is not None:
        finite_of_shape(loss.data, ())


@FUZZ
@given(m=MODELS, pair=batch_pairs())
def test_evaluate_windows(m, pair):
    report = outcome(lambda: evaluate_windows(m, *pair))
    if report is not None:
        finite_of_shape(np.array([report.mse, report.mae]), (2,))
        finite_of_shape(np.array(report.per_horizon), (T, 3))


@pytest.mark.parametrize("metric", [mse, mae])
@FUZZ
@given(pair=error_pairs())
def test_mse_and_mae(metric, pair):
    value = outcome(lambda: metric(*pair))
    if value is not None:
        assert type(value) is float
        finite_of_shape(np.array(value), ())


@FUZZ
@given(x=shapes(st.tuples(st.integers(1, 3), st.integers(2, 6))).flatmap(arrays))
def test_instance_normalize(x):
    result = outcome(lambda: instance_normalize(x))
    if result is not None:
        normalized, stats = result
        finite_of_shape(normalized, x.shape)
        finite_of_shape(stats.mean, x.shape[:-1] + (1,))
        finite_of_shape(stats.scale, x.shape[:-1] + (1,))
        assert (stats.scale >= 1e-5).all()


@FUZZ
@given(window=st.lists(st.floats(-1e3, 1e3), min_size=C * L, max_size=C * L),
       x=shapes(st.just((C, T))).flatmap(arrays))
def test_instance_denormalize(window, x):
    _, stats = instance_normalize(np.reshape(window, (C, L)))
    result = outcome(lambda: instance_denormalize(x, stats))
    if result is not None:
        finite_of_shape(result, x.shape)


@FUZZ
@given(x=shapes(st.tuples(st.integers(1, 3), st.integers(1, 9))).flatmap(arrays),
       P=st.one_of(st.integers(-1, 10), st.sampled_from([2.0, "2", None])), S=st.integers(-1, 10))
def test_patchify(x, P, S):
    patches = outcome(lambda: patchify(x, P, S))
    if patches is not None:
        n = (x.shape[-1] - P) // S + 2
        assert patches.shape == x.shape[:-1] + (n, P) and patches.dtype == np.float64
        if np.isfinite(x.astype(np.float64)).all():
            finite_of_shape(patches, x.shape[:-1] + (n, P))


@st.composite
def qk_pairs(draw):
    """(q, k), mostly (H, N, d) and (H, M, d) stacks of one head count and width."""
    h, d = draw(st.integers(1, 2)), draw(st.integers(0, 3))
    q = draw(shapes(st.tuples(st.just(h), st.integers(1, 3), st.just(d))).flatmap(arrays))
    return q, draw(shapes(st.tuples(st.just(h), st.integers(1, 3), st.just(d))).flatmap(arrays))


@FUZZ
@given(pair=qk_pairs())
def test_attention_weights(pair):
    q, k = pair
    weights = outcome(lambda: nm.attention_weights(q, k))
    if weights is not None:
        finite_of_shape(weights.data, q.shape[:-1] + k.shape[-2:-1])
        np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0)


@st.composite
def mss_triples(draw):
    """(source, scale_q, scale_k), mostly (B, N, F) and two (H, N, F) of one N and F."""
    n, f = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    scales = shapes(st.tuples(st.integers(1, 2), st.just(n), st.just(f)))
    source = draw(shapes(st.tuples(st.integers(1, 2), st.just(n), st.just(f))).flatmap(arrays))
    scale_q = draw(scales.flatmap(arrays))
    return source, scale_q, draw(shapes(st.just(scale_q.shape)).flatmap(arrays))


@FUZZ
@given(triple=mss_triples())
def test_mss_attention_weights(triple):
    source, scale_q, scale_k = triple
    weights = outcome(lambda: nm.mss_attention_weights(source, scale_q, scale_k))
    if weights is not None:
        n = source.shape[-2]
        finite_of_shape(weights.data, source.shape[:-2] + (scale_q.shape[0], n, n))
        np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0)
