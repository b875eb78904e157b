"""Metamorphic properties of whole models: how forecasts, the loss and the
parameter gradients must move when the input is permuted, rescaled or
partly changed.

Models are small, with every parameter redrawn at random (so all-ones MSS
scales or a near-identity kernel cannot hide a broken property), and run
forward and backward on drawn batches:
- permuting the variates permutes the forecasts, leaves the loss as it is,
  and permutes the gradients of the only per-variate parameters, the MSS
  scales of the variate architecture (H, C, F), along axis 1;
- permuting the windows of a batch permutes the forecasts and leaves the
  loss and every gradient as they are;
- on the temporal architecture, variate 0's forecast does not depend on the
  other variates at all;
- f(a·x + b) = a·f(x) + b for a > 0, for windows whose standard deviation is
  above `instance_normalize`'s 1e-5 floor (the drawn windows are far above
  it; the floor itself is pinned in its own case).
Variate order reaches the model only through head-coupling convolution,
which convolves the (C, C) attention plane: with its kernel set to a Dirac
the variate architecture is equivariant again (as c10 checks for HCC off),
and with a drawn kernel it is not.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from spectral_attn import numerics as nm  # noqa: E402
from spectral_attn.attention import dirac_kernel  # noqa: E402
from spectral_attn.models import ForecastModel, ModelConfig  # noqa: E402

PROPERTY = settings(max_examples=25, derandomize=True, deadline=None, database=None)
SEED = st.integers(0, 2**32 - 1)
TOL = 1e-12
L, T = 16, 4

# name -> config fields; "variate-soatten-hcc" is the one whose variate order matters
CASES = {
    "variate-conventional": dict(architecture="variate", mechanism="conventional"),
    "variate-fsatten": dict(architecture="variate", mechanism="fsatten"),
    "variate-fsatten-linear": dict(architecture="variate", mechanism="fsatten", mss_enabled=False),
    "variate-soatten": dict(architecture="variate", mechanism="soatten", hcc_enabled=False),
    "variate-soatten-linear": dict(architecture="variate", mechanism="soatten", hcc_enabled=False,
                                   mss_enabled=False),
    "variate-soatten-hcc": dict(architecture="variate", mechanism="soatten"),
    "temporal-conventional": dict(architecture="temporal", mechanism="conventional"),
    "temporal-soatten": dict(architecture="temporal", mechanism="soatten"),
    "temporal-soatten-linear": dict(architecture="temporal", mechanism="soatten", mss_enabled=False),
}
TEMPORAL = sorted(name for name in CASES if name.startswith("temporal"))


def drawn_model(case, c, seed):
    fields = dict(L=L, T=T, C=c, P=4, S=2, H=2, D=8, kernel_K=3, layers=2, dropout=0.0, seed=seed)
    if CASES[case]["mechanism"] == "soatten":
        fields["F"] = 6
    model = ForecastModel(ModelConfig(**fields, **CASES[case]))
    rng = nm.substream(seed, "metamorphic")
    for param in model.params.values():
        param.data[...] = rng.standard_normal(param.data.shape) * 0.4
    return model


def set_dirac_kernels(model):
    for layer in model.layers:
        layer.attn.kernel.data[...] = dirac_kernel(model.config.H, model.config.kernel_K)


def batch(seed, b, c):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((b, c, L)), rng.standard_normal((b, c, T))


def loss_and_grads(model, x, y):
    for param in model.params.values():
        param.grad[...] = 0.0
    with nm.GradientTape() as tape:
        loss = model.batch_loss(x, y)
    nm.backward(tape, loss)
    return float(loss.data), {name: p.grad.copy() for name, p in model.params.items()}


def assert_close(got, want, tol=TOL):
    """Agreement to `tol` relative to the larger of 1 and the reference's magnitude."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= tol * max(1.0, float(np.max(np.abs(want))))


def per_variate(model, name):
    """Whether a parameter has one slice per variate: the variate architecture's MSS scales."""
    return model.config.architecture == "variate" and ".mss_" in name


@PROPERTY
@given(case=st.sampled_from(sorted(CASES)), c=st.integers(2, 5), b=st.integers(1, 3),
       seed=SEED, data=st.data())
def test_variate_permutation_permutes_forecasts_loss_and_gradients(case, c, b, seed, data):
    perm = list(data.draw(st.permutations(range(c))))
    model = drawn_model(case, c, seed)
    if case == "variate-soatten-hcc":
        set_dirac_kernels(model)
    x, y = batch(seed, b, c)
    pred = model.predict_batch(x)
    loss, grads = loss_and_grads(model, x, y)
    for name, param in model.params.items():
        if per_variate(model, name):
            param.data[...] = param.data[:, perm]
    assert_close(model.predict_batch(x[:, perm]), pred[:, perm])
    loss_p, grads_p = loss_and_grads(model, x[:, perm], y[:, perm])
    assert_close(loss_p, loss)
    for name, grad in grads.items():
        if per_variate(model, name):
            grad = grad[:, perm]
        elif name.endswith("hcc_kernel") and model.config.architecture == "variate":
            # an off-centre tap pairs neighbouring variates, so only the centre tap is invariant
            centre = model.config.kernel_K // 2
            grad, grads_p[name] = grad[..., centre, centre], grads_p[name][..., centre, centre]
        assert_close(grads_p[name], grad)


def test_hcc_kernel_makes_variate_order_matter():
    model = drawn_model("variate-soatten-hcc", 4, seed=11)
    x, _ = batch(11, 3, 4)
    perm = [0, 2, 1, 3]
    moved = np.abs(model.predict_batch(x[:, perm]) - model.predict_batch(x)[:, perm]).max()
    assert moved > 1e-3


@PROPERTY
@given(case=st.sampled_from(sorted(CASES)), c=st.integers(1, 4), b=st.integers(2, 4),
       seed=SEED, data=st.data())
def test_batch_permutation_permutes_forecasts_and_keeps_loss_and_gradients(case, c, b, seed, data):
    perm = list(data.draw(st.permutations(range(b))))
    model = drawn_model(case, c, seed)
    x, y = batch(seed, b, c)
    pred = model.predict_batch(x)
    loss, grads = loss_and_grads(model, x, y)
    assert_close(model.predict_batch(x[perm]), pred[perm])
    loss_p, grads_p = loss_and_grads(model, x[perm], y[perm])
    assert_close(loss_p, loss)
    for name, grad in grads.items():
        assert_close(grads_p[name], grad)


@PROPERTY
@given(case=st.sampled_from(TEMPORAL), c=st.integers(2, 4), b=st.integers(1, 3), seed=SEED)
def test_temporal_forecast_of_a_variate_ignores_the_other_variates(case, c, b, seed):
    model = drawn_model(case, c, seed)
    x, _ = batch(seed, b, c)
    changed = x.copy()
    changed[:, 1:] = np.random.default_rng(seed + 1).standard_normal((b, c - 1, L)) * 3.0 + 1.0
    assert model.predict_batch(changed)[:, 0].tobytes() == model.predict_batch(x)[:, 0].tobytes()


@PROPERTY
@given(case=st.sampled_from(sorted(CASES)), c=st.integers(1, 4), b=st.integers(1, 3), seed=SEED,
       a=st.floats(0.1, 10.0), shift=st.floats(-10.0, 10.0))
def test_affine_input_change_moves_forecasts_the_same_way(case, c, b, seed, a, shift):
    # Holds above instance_normalize's 1e-5 scale floor; standard-normal
    # windows of length 16 scaled by a >= 0.1 are orders of magnitude above it.
    model = drawn_model(case, c, seed)
    x, _ = batch(seed, b, c)
    assert_close(model.predict_batch(a * x + shift), a * model.predict_batch(x) + shift)


@pytest.mark.parametrize("case", sorted(CASES))
def test_below_the_scale_floor_a_forecast_is_its_level_plus_a_fixed_offset(case):
    """A window with standard deviation under 1e-5 is divided by 1e-5, not by its own
    scale, so f(a·x + b) = a·f(x) + b fails there. A constant window pins it: its
    normalized input is exactly zero, so its forecast is its level plus 1e-5 times
    the normalized forecast of a zero window, unscaled by a."""
    model = drawn_model(case, 3, seed=7)
    offset = model.forward_batch(np.zeros((1, 3, L)))[0].data * 1e-5   # (1, 3, T)
    assert np.abs(offset).min() > 0.0
    levels = np.array([-7.0, 3.25, 1024.0])   # sums of 16 copies and their means are exact
    for a, shift in ((1.0, 0.0), (2.5, -7.0), (0.125, 3.0)):
        level = a * levels + shift
        x = np.broadcast_to(level[None, :, None], (1, 3, L)).copy()
        got = model.predict_batch(x)
        assert got.tobytes() == (offset + level[None, :, None]).tobytes()
