"""Attention mechanisms vs naive oracles; orthogonal init and HCC contracts."""

import numpy as np
import pytest

from spectral_attn import numerics as nm
from spectral_attn.attention import (
    ConventionalAttention,
    SpectrumAttention,
    dirac_kernel,
    hcc,
    orthogonal_init,
)
from spectral_attn.errors import ConfigError, ShapeError
from spectral_attn.models import ForecastModel, ModelConfig
from spectral_attn.spectral import amplitude_matrix

from oracles import (
    conventional_forward,
    finite_difference_gradient,
    max_rel_error,
    naive_attention,
    naive_conv2d,
    naive_matmul,
    spectrum_forward,
    sum_all,
)


def make_param_factory(seed=0):
    """Standalone parameter factory mirroring the model's init kinds."""
    params = {}

    def make(name, spec):
        rng = nm.substream(seed, f"init/{name}")
        kind, shape, *scale = spec
        if kind == "normal":
            data = rng.standard_normal(shape) * scale[0]
        elif kind == "zeros":
            data = np.zeros(shape)
        elif kind == "ones":
            data = np.ones(shape)
        elif kind == "dirac_noise":
            data = dirac_kernel(shape[0], shape[2]) + rng.standard_normal(shape) * scale[0]
        else:
            raise ValueError(kind)
        param = nm.Parameter(data, name)
        params[name] = param
        return param

    return make, params


def run_layer(layer, hidden, source=None):
    """One attention pass as the encoder runs it; returns (output, LayerAttention)."""
    capture = []
    out = layer.forward(nm.Tensor(hidden), source, capture)
    return out, capture[0]


def fsatten_pass(x, hidden, layer):
    """Q/K source = amplitude rows of the raw (C, L) input, as in `forward_batch`."""
    return run_layer(layer, hidden, nm.Tensor(amplitude_matrix(x)))


def soatten_pass(tokens, hidden, layer, embed):
    """Q/K source = raw tokens times the orthogonal embedding, as in `forward_batch`."""
    return run_layer(layer, hidden, nm.matmul(nm.Tensor(tokens), nm.Tensor(embed)))


# ---------------------------------------------------------------------------
# the attention step's primitives: attention_weights, then matmul with the values
# ---------------------------------------------------------------------------

def test_attention_uniform_when_scores_vanish():
    v = np.random.default_rng(0).standard_normal((1, 4, 3))
    weights = nm.attention_weights(np.zeros((1, 4, 2)), np.zeros((1, 4, 2)), 1.0 / 2.0)
    out = nm.matmul(weights, v)
    np.testing.assert_allclose(weights.data, np.full((1, 4, 4), 0.25), atol=1e-15)
    np.testing.assert_allclose(out.data[0], np.tile(v[0].mean(axis=0), (4, 1)), atol=1e-12)


def test_attention_single_token_passes_value_through():
    v = np.array([[[3.0, -1.0]]])
    weights = nm.attention_weights(np.ones((1, 1, 2)), np.ones((1, 1, 2)), 1.0)
    out = nm.matmul(weights, v)
    np.testing.assert_array_equal(weights.data, np.ones((1, 1, 1)))
    np.testing.assert_array_equal(out.data, v)


def test_attention_matches_naive_per_head_oracle():
    rng = np.random.default_rng(1)
    q = rng.standard_normal((2, 3, 4))
    k = rng.standard_normal((2, 3, 4))
    v = rng.standard_normal((2, 3, 5))
    scale = 2.0
    weights = nm.attention_weights(q, k, 1.0 / scale)
    out = nm.matmul(weights, v)
    ref_w, ref_o = naive_attention(q, k, v, scale)
    np.testing.assert_allclose(weights.data, ref_w, atol=1e-12)
    np.testing.assert_allclose(out.data, ref_o, atol=1e-12)


def test_attention_rejects_mismatched_shapes():
    q = np.zeros((1, 2, 3))
    with pytest.raises(ShapeError):
        nm.attention_weights(q, np.zeros((1, 2, 4)), 1.0)


def test_row_argmax_invariant_under_positive_query_scaling():
    rng = np.random.default_rng(2)
    q = rng.standard_normal((2, 5, 3))
    k = rng.standard_normal((2, 5, 3))
    rng.standard_normal((2, 5, 3))  # the values' draw, which the weights never read
    base = nm.attention_weights(q, k, 1.0 / np.sqrt(3))
    for factor in (0.5, 2.0, 7.0):
        scaled = nm.attention_weights(q * factor, k, 1.0 / np.sqrt(3))
        np.testing.assert_array_equal(
            np.argmax(scaled.data, axis=-1), np.argmax(base.data, axis=-1)
        )


def test_pre_hcc_rows_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(20):
        heads = int(rng.integers(1, 5))
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 6))
        q = rng.standard_normal((heads, n, d)) * 3
        k = rng.standard_normal((heads, n, d)) * 3
        rng.standard_normal((heads, n, d))  # the values' draw, which the weights never read
        weights = nm.attention_weights(q, k, 1.0 / np.sqrt(d))
        assert (weights.data >= 0).all()
        np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# hcc
# ---------------------------------------------------------------------------

def test_hcc_dirac_kernel_is_identity_on_nonnegative_input():
    rng = np.random.default_rng(4)
    w = np.abs(rng.standard_normal((3, 5, 5)))
    out = hcc(w, dirac_kernel(3, 3))
    np.testing.assert_array_equal(out.data, w)


def test_hcc_zero_kernel_gives_zero():
    out = hcc(np.ones((2, 4, 4)), np.zeros((2, 2, 3, 3)))
    np.testing.assert_array_equal(out.data, np.zeros((2, 4, 4)))


def test_hcc_matches_naive_convolution():
    rng = np.random.default_rng(5)
    w = np.abs(rng.standard_normal((2, 5, 5)))
    k = rng.standard_normal((2, 2, 3, 3))
    out = hcc(w, k)
    expected = np.maximum(naive_conv2d(w, k), 0.0)
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_hcc_rejects_even_kernel():
    with pytest.raises(ConfigError):
        hcc(np.ones((2, 4, 4)), np.zeros((2, 2, 2, 2)))


def test_hcc_output_nonnegative():
    rng = np.random.default_rng(6)
    out = hcc(np.abs(rng.standard_normal((4, 6, 6))), rng.standard_normal((4, 4, 5, 5)))
    assert (out.data >= 0).all()


def test_hcc_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    w = rng.uniform(0.5, 1.5, size=(2, 4, 4))
    k = rng.standard_normal((2, 2, 3, 3)) * 0.5

    wt = nm.Tensor(w, requires_grad=True)
    kt = nm.Parameter(k, "k")
    with nm.GradientTape() as tape:
        out = hcc(wt, kt)
        loss = nm.mean_all(nm.mul(out, out))
    nm.backward(tape, loss)

    def loss_wrt_w(wv):
        o = hcc(nm.Tensor(wv), nm.Tensor(k))
        return float(nm.mean_all(nm.mul(o, o)).data)

    def loss_wrt_k(kv):
        o = hcc(nm.Tensor(w), nm.Tensor(kv))
        return float(nm.mean_all(nm.mul(o, o)).data)

    assert max_rel_error(wt.grad, finite_difference_gradient(loss_wrt_w, w.copy())) < 1e-4
    assert max_rel_error(kt.grad, finite_difference_gradient(loss_wrt_k, k.copy())) < 1e-4


# ---------------------------------------------------------------------------
# orthogonal_init
# ---------------------------------------------------------------------------

def test_orthogonal_init_scalar_is_sign():
    assert orthogonal_init(1, 1, seed=3)[0, 0] in (1.0, -1.0)


def test_orthogonal_init_square():
    w = orthogonal_init(8, 8, seed=11)
    np.testing.assert_allclose(w.T @ w, np.eye(8), atol=1e-6)
    np.testing.assert_allclose(w @ w.T, np.eye(8), atol=1e-6)


def test_orthogonal_init_tall_matrix_columns_and_singular_values():
    w = orthogonal_init(96, 32, seed=12)
    assert np.abs(w.T @ w - np.eye(32)).max() < 1e-6
    values = nm.svd_singular_values(w)
    np.testing.assert_allclose(values, np.ones(32), atol=1e-6)


def test_orthogonal_init_wide_matrix_rows():
    w = orthogonal_init(16, 48, seed=13)
    assert w.shape == (16, 48)
    assert np.abs(w @ w.T - np.eye(16)).max() < 1e-6


def test_orthogonal_init_deterministic_in_seed():
    np.testing.assert_array_equal(orthogonal_init(9, 4, 7), orthogonal_init(9, 4, 7))
    assert not np.allclose(orthogonal_init(9, 4, 7), orthogonal_init(9, 4, 8))


# ---------------------------------------------------------------------------
# fsatten
# ---------------------------------------------------------------------------

def test_fsatten_identical_sequences_give_uniform_attention():
    make, _ = make_param_factory()
    layer = SpectrumAttention(width=8, heads=2, tokens=3, bin_count=9, make_param=make)
    rng = np.random.default_rng(8)
    row = rng.standard_normal(16)
    x = np.tile(row, (3, 1))
    hidden = rng.standard_normal((3, 8))
    _, attn = fsatten_pass(x, hidden, layer)
    np.testing.assert_allclose(attn.pre_hcc.weights, np.full((2, 3, 3), 1.0 / 3.0), atol=1e-12)


def test_fsatten_orthogonal_tones_attend_diagonally():
    t = np.arange(16)
    x = np.stack([np.sin(2 * np.pi * 2 * t / 16), np.sin(2 * np.pi * 5 * t / 16)])
    amps = amplitude_matrix(x)
    scores = naive_matmul(amps, amps.T) / np.sqrt(9)
    assert abs(scores[0, 1]) < 1e-9 and abs(scores[1, 0]) < 1e-9
    assert scores[0, 0] > 0 and scores[1, 1] > 0

    make, _ = make_param_factory()
    layer = SpectrumAttention(width=8, heads=2, tokens=2, bin_count=9, make_param=make)
    hidden = np.random.default_rng(9).standard_normal((2, 8))
    _, attn = fsatten_pass(x, hidden, layer)
    for head in attn.pre_hcc.weights:
        np.testing.assert_array_equal(np.argmax(head, axis=1), [0, 1])


def test_fsatten_composition_of_primitives():
    rng = np.random.default_rng(10)
    make, params = make_param_factory(seed=5)
    layer = SpectrumAttention(width=8, heads=2, tokens=3, bin_count=9, make_param=make)
    for name in ("mss_q", "mss_k"):
        params[name].data = rng.standard_normal(params[name].data.shape)
    x = rng.standard_normal((3, 16))
    hidden = rng.standard_normal((3, 8))
    out, attn = fsatten_pass(x, hidden, layer)

    amps = amplitude_matrix(x)
    q = np.stack([amps * params["mss_q"].data[h] for h in range(2)])
    k = np.stack([amps * params["mss_k"].data[h] for h in range(2)])
    v_full = naive_matmul(hidden, params["wv"].data) + params["bv"].data
    v = np.stack([v_full[:, h * 4:(h + 1) * 4] for h in range(2)])
    ref_w, ref_o = naive_attention(q, k, v, np.sqrt(9))
    merged = np.concatenate([ref_o[0], ref_o[1]], axis=1)
    expected = naive_matmul(merged, params["wo"].data) + params["bo"].data

    np.testing.assert_allclose(attn.pre_hcc.weights, ref_w, atol=1e-12)
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_fsatten_f_mismatch_raises_shape_error():
    make, _ = make_param_factory()
    layer = SpectrumAttention(width=8, heads=2, tokens=3, bin_count=9, make_param=make)
    with pytest.raises(ShapeError):
        # L = 20 gives F = 11 != 9
        fsatten_pass(np.random.default_rng(0).standard_normal((3, 20)),
                     np.zeros((3, 8)), layer)


def test_fsatten_linear_arm_is_dense_map_when_tokens_equal_bins():
    # C = F = 9: the (H, F, F) linear maps have the shape of MSS scales, and
    # must still multiply the amplitude rows as matrices
    rng = np.random.default_rng(18)
    make, params = make_param_factory(seed=4)
    layer = SpectrumAttention(width=8, heads=2, tokens=9, bin_count=9,
                              make_param=make, mss_enabled=False)
    x = rng.standard_normal((9, 16))
    _, attn = fsatten_pass(x, rng.standard_normal((9, 8)), layer)
    amps = amplitude_matrix(x)
    q = np.stack([naive_matmul(amps, params["lin_q"].data[h]) for h in range(2)])
    k = np.stack([naive_matmul(amps, params["lin_k"].data[h]) for h in range(2)])
    ref_w, _ = naive_attention(q, k, np.zeros((2, 9, 1)), np.sqrt(9))
    np.testing.assert_allclose(attn.pre_hcc.weights, ref_w, atol=1e-12)


def test_spectrum_attention_batched_source_matches_per_window():
    rng = np.random.default_rng(19)
    make, params = make_param_factory(seed=5)
    layer = SpectrumAttention(width=8, heads=2, tokens=3, bin_count=5,
                              make_param=make, kernel_size=3)
    for name in ("mss_q", "mss_k", "hcc_kernel"):
        params[name].data = rng.standard_normal(params[name].data.shape) * 0.5
    source = rng.standard_normal((4, 3, 5))
    hidden = rng.standard_normal((4, 3, 8))
    capture = []
    out = layer.forward(nm.Tensor(hidden), nm.Tensor(source), capture)
    assert out.shape == (4, 3, 8) and len(capture) == 1
    (entry,) = capture
    assert entry.pre_hcc.weights.shape == entry.final.weights.shape == (4, 2, 3, 3)
    assert not entry.pre_hcc.weights.flags.writeable
    assert not entry.final.weights.flags.writeable
    for b in range(4):
        single = []
        one = layer.forward(nm.Tensor(hidden[b]), nm.Tensor(source[b]), single)
        assert len(single) == 1
        np.testing.assert_allclose(out.data[b], one.data, atol=1e-12)
        np.testing.assert_allclose(entry.pre_hcc.weights[b], single[0].pre_hcc.weights, atol=1e-12)
        np.testing.assert_allclose(entry.final.weights[b], single[0].final.weights, atol=1e-12)


# ---------------------------------------------------------------------------
# soatten
# ---------------------------------------------------------------------------

def test_soatten_dirac_kernel_equals_ablated_hcc():
    make_a, params_a = make_param_factory(seed=2)
    with_hcc = SpectrumAttention(width=8, heads=2, tokens=4, bin_count=6,
                                 make_param=make_a, kernel_size=3)
    make_b, _ = make_param_factory(seed=2)
    without = SpectrumAttention(width=8, heads=2, tokens=4, bin_count=6,
                                make_param=make_b, kernel_size=None)
    params_a["hcc_kernel"].data = dirac_kernel(2, 3)

    rng = np.random.default_rng(11)
    tokens = rng.standard_normal((4, 16))
    hidden = rng.standard_normal((4, 8))
    embed = orthogonal_init(16, 6, seed=21)
    out_a, _ = soatten_pass(tokens, hidden, with_hcc, embed)
    out_b, _ = soatten_pass(tokens, hidden, without, embed)
    np.testing.assert_array_equal(out_a.data, out_b.data)


def test_soatten_single_token_unit_kernel():
    make, params = make_param_factory(seed=3)
    layer = SpectrumAttention(width=4, heads=2, tokens=1, bin_count=3,
                              make_param=make, kernel_size=1)
    center = np.array([[[[0.7]], [[0.4]]], [[[0.2]], [[1.1]]]])  # (2, 2, 1, 1)
    params["hcc_kernel"].data = center
    tokens = np.random.default_rng(12).standard_normal((1, 8))
    hidden = np.random.default_rng(13).standard_normal((1, 4))
    _, attn = soatten_pass(tokens, hidden, layer, orthogonal_init(8, 3, seed=4))
    np.testing.assert_allclose(attn.pre_hcc.weights, np.ones((2, 1, 1)), atol=0)
    np.testing.assert_allclose(
        attn.final.weights, np.array([[[1.1]], [[1.3]]]), atol=1e-12
    )


def test_soatten_composition_of_primitives():
    rng = np.random.default_rng(14)
    make, params = make_param_factory(seed=6)
    layer = SpectrumAttention(width=8, heads=2, tokens=3, bin_count=5,
                              make_param=make, kernel_size=3)
    for name in ("mss_q", "mss_k", "hcc_kernel"):
        params[name].data = rng.standard_normal(params[name].data.shape) * 0.5
    tokens = rng.standard_normal((3, 12))
    hidden = rng.standard_normal((3, 8))
    embed = orthogonal_init(12, 5, seed=15)
    out, attn = soatten_pass(tokens, hidden, layer, embed)

    source = naive_matmul(tokens, embed)
    q = np.stack([source * params["mss_q"].data[h] for h in range(2)])
    k = np.stack([source * params["mss_k"].data[h] for h in range(2)])
    ref_w, _ = naive_attention(q, k, np.zeros((2, 3, 1)), np.sqrt(5))
    coupled = np.maximum(naive_conv2d(ref_w, params["hcc_kernel"].data), 0.0)
    v_full = naive_matmul(hidden, params["wv"].data) + params["bv"].data
    v = np.stack([v_full[:, h * 4:(h + 1) * 4] for h in range(2)])
    ref_o = np.stack([naive_matmul(coupled[h], v[h]) for h in range(2)])
    merged = np.concatenate([ref_o[0], ref_o[1]], axis=1)
    expected = naive_matmul(merged, params["wo"].data) + params["bo"].data

    np.testing.assert_allclose(attn.pre_hcc.weights, ref_w, atol=1e-12)
    np.testing.assert_allclose(attn.final.weights, coupled, atol=1e-12)
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_spectrum_attention_requires_source():
    make, _ = make_param_factory()
    layer = SpectrumAttention(width=8, heads=2, tokens=3, bin_count=5,
                              make_param=make, kernel_size=3)
    with pytest.raises(ShapeError):
        layer.forward(nm.Tensor(np.zeros((3, 8))), None)


# ---------------------------------------------------------------------------
# conventional
# ---------------------------------------------------------------------------

def test_conventional_zero_projections_give_uniform_rows():
    make, params = make_param_factory(seed=7)
    layer = ConventionalAttention(8, 2, make)
    for p in params.values():
        p.data[...] = 0.0
    hidden = np.random.default_rng(16).standard_normal((5, 8))
    _, attn = run_layer(layer, hidden)
    np.testing.assert_allclose(attn.final.weights, np.full((2, 5, 5), 0.2), atol=1e-12)


def test_conventional_identity_projections_on_orthonormal_tokens():
    make, params = make_param_factory(seed=8)
    layer = ConventionalAttention(4, 1, make)
    for name in ("wq", "wk", "wv", "wo"):
        params[name].data = np.eye(4)
    for name in ("bq", "bk", "bv", "bo"):
        params[name].data[...] = 0.0
    hidden = np.eye(3, 4)
    _, attn = run_layer(layer, hidden)
    np.testing.assert_array_equal(np.argmax(attn.final.weights[0], axis=1), [0, 1, 2])


def test_conventional_matches_naive_oracle():
    rng = np.random.default_rng(17)
    make, params = make_param_factory(seed=9)
    layer = ConventionalAttention(8, 2, make)
    hidden = rng.standard_normal((4, 8))
    out, attn = run_layer(layer, hidden)

    def project(w, b):
        full = naive_matmul(hidden, params[w].data) + params[b].data
        return np.stack([full[:, h * 4:(h + 1) * 4] for h in range(2)])

    ref_w, ref_o = naive_attention(project("wq", "bq"), project("wk", "bk"),
                                   project("wv", "bv"), np.sqrt(4))
    merged = np.concatenate([ref_o[0], ref_o[1]], axis=1)
    expected = naive_matmul(merged, params["wo"].data) + params["bo"].data
    np.testing.assert_allclose(attn.final.weights, ref_w, atol=1e-12)
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_conventional_width_must_divide_heads():
    make, _ = make_param_factory()
    with pytest.raises(ConfigError):
        ConventionalAttention(9, 2, make)


# ---------------------------------------------------------------------------
# the one attention step against the path it replaced
# ---------------------------------------------------------------------------

LAYER_ARMS = {
    "variate-fsatten": dict(mechanism="fsatten"),
    "variate-soatten": dict(mechanism="soatten"),
    "variate-conventional": dict(mechanism="conventional"),
    "variate-fsatten-mss-off": dict(mechanism="fsatten", mss_enabled=False),
    "variate-soatten-mss-off": dict(mechanism="soatten", mss_enabled=False),
    "variate-soatten-hcc-off": dict(mechanism="soatten", hcc_enabled=False),
    "temporal-soatten": dict(architecture="temporal", mechanism="soatten"),
    "temporal-conventional": dict(architecture="temporal", mechanism="conventional"),
    "temporal-soatten-mss-off": dict(architecture="temporal", mechanism="soatten", mss_enabled=False),
}


@pytest.mark.parametrize("arm", sorted(LAYER_ARMS))
def test_attention_layer_matches_the_path_before_attend_bitwise(arm):
    """Each arm's `forward` through `_attend` against the `scaled_dot_attention`
    / `weigh_values` path in `tests/oracles.py`: the layer output, both
    captured stacks and every gradient agree bit for bit."""
    cfg = ModelConfig(C=4, L=16, T=4, P=4, S=4, H=2, D=8, layers=1, seed=23, **LAYER_ARMS[arm])
    model = ForecastModel(cfg)
    layer = model.layers[0].attn
    params = [p for name, p in model.params.items() if name.startswith("layers.0.attn.")]
    rng = np.random.default_rng(23)
    for p in params:  # off the all-ones / zero starts, so every path carries signal
        p.data = p.data + rng.standard_normal(p.data.shape) * 0.5
    lead = (3,) if cfg.architecture == "variate" else (3 * cfg.C,)
    hidden = rng.standard_normal(lead + (cfg.token_count, cfg.D))
    source = rng.standard_normal(lead + (cfg.token_count, cfg.resolved_f))
    cotangent = rng.standard_normal(hidden.shape)
    oracle = conventional_forward if cfg.mechanism == "conventional" else spectrum_forward

    def run(forward):
        for p in params:
            p.grad[...] = 0.0
        h, s = nm.Tensor(hidden, requires_grad=True), nm.Tensor(source, requires_grad=True)
        capture = []
        with nm.GradientTape() as tape:
            out = forward(h, s, capture)
            loss = sum_all(nm.mul(out, cotangent))
        nm.backward(tape, loss)
        (entry,) = capture
        assert (entry.final is entry.pre_hcc) == (layer.kernel is None)
        stacks = [entry.pre_hcc.weights, entry.final.weights]
        grads = [p.grad.copy() for p in params] + [h.grad, s.grad]
        return [out.data] + stacks + grads

    got = run(layer.forward)
    want = run(lambda h, s, capture: oracle(layer, h, s, capture))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is None:  # the conventional arm never reads the source
            assert g is None
        else:
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
