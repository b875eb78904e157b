"""Architectures: patching, normalization, encoder blocks, training, checkpoints."""

import json
import platform
import warnings
from dataclasses import replace

import numpy as np
import pytest

import spectral_attn.models as models_mod
from spectral_attn import numerics as nm
from spectral_attn.attention import dirac_kernel
from spectral_attn.cli import gradcheck_configs
from spectral_attn.data import split, synth_multisine, window_arrays
from spectral_attn.errors import ConfigError, DataError, FiniteInputError, FormatError, ShapeError
from spectral_attn.models import (
    ForecastModel,
    ModelConfig,
    config_from_dict,
    evaluate_on_split,
    evaluate_windows,
    instance_denormalize,
    instance_normalize,
    load_checkpoint,
    naive_repeat_forecast,
    patchify,
    save_checkpoint,
    train,
)

from oracles import PerParameterAdam, accumulating_backward, eager_create, naive_matmul


def micro_config(**overrides):
    base = dict(architecture="variate", mechanism="conventional", L=16, T=4, C=3,
                P=4, S=2, H=2, D=8, F=0, kernel_K=3, layers=1, dropout=0.0,
                seed=0, lr=1e-3, batch_size=4, epochs=2)
    base.update(overrides)
    return ModelConfig(**base)


def tiny_dataset(c=3, tlen=260, seed=0, period=32):
    tones = [[(3 + i, 1.0, 0.2 * i)] for i in range(c)]
    ds = synth_multisine(c, tlen, tones, noise_sigma=0.05, seed=seed, period=period)
    return split(ds, (0.6, 0.2))


# ---------------------------------------------------------------------------
# patchify / embedding / normalization
# ---------------------------------------------------------------------------

def test_patchify_count_formula():
    patches = patchify(np.arange(96.0), 16, 8)
    assert patches.shape == ((96 - 16) // 8 + 2, 16) == (12, 16)


def test_patchify_degenerate_single_window():
    x = np.arange(8.0)
    patches = patchify(x, 8, 8)
    assert len(patches) == 2
    np.testing.assert_array_equal(patches[0], x)
    np.testing.assert_array_equal(patches[1], np.full(8, 7.0))


def test_patchify_constant_series():
    patches = patchify(np.full(20, 3.5), 6, 3)
    np.testing.assert_array_equal(patches, np.full((len(patches), 6), 3.5))


def test_patchify_starts_and_end_replication():
    x = np.arange(10.0)
    patches = patchify(x, 4, 3)
    assert len(patches) == 4
    for j in range(4):
        expected = np.array([x[min(j * 3 + i, 9)] for i in range(4)])
        np.testing.assert_array_equal(patches[j], expected)


def test_patchify_validation():
    with pytest.raises(ConfigError):
        patchify(np.arange(5.0), 6, 1)
    with pytest.raises(ConfigError):
        patchify(np.arange(5.0), 3, 4)


def variate_embed(x, w):
    """The variate embedding `forward_batch` runs: one token per variate, (..., C, L) @ (L, D)."""
    return nm.matmul(nm.Tensor(x), nm.Tensor(w))


def test_variate_embed_zero_and_selector():
    x = np.random.default_rng(0).standard_normal((3, 2, 6))
    np.testing.assert_array_equal(variate_embed(x, np.zeros((6, 4))).data, np.zeros((3, 2, 4)))
    selector = np.zeros((6, 4))
    selector[2, 1] = 1.0
    np.testing.assert_array_equal(variate_embed(x, selector).data[..., 1], x[..., 2])


def test_variate_embed_matches_matmul_oracle():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 3, 6))
    w = rng.standard_normal((6, 4))
    for b in range(2):
        np.testing.assert_allclose(variate_embed(x, w).data[b], naive_matmul(x[b], w), atol=1e-12)


def test_instance_normalize_round_trip():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 40)) * 5 + 2
    xn, stats = instance_normalize(x)
    np.testing.assert_allclose(instance_denormalize(xn, stats), x, atol=1e-9)


def test_instance_normalize_standardized_input_unchanged():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 50))
    x = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
    xn, _ = instance_normalize(x)
    np.testing.assert_allclose(xn, x, atol=1e-9)


def test_instance_normalize_is_bitwise_numpy_mean_and_var():
    x = np.random.default_rng(9).standard_normal((4, 3, 96)) * 5 + 2
    mean = x.mean(axis=-1, keepdims=True)
    scale = np.maximum(np.sqrt(x.var(axis=-1, keepdims=True)), 1e-5)
    xn, stats = instance_normalize(x)
    assert stats.mean.tobytes() == mean.tobytes()
    assert stats.scale.tobytes() == scale.tobytes()
    assert xn.tobytes() == ((x - mean) / scale).tobytes()


@pytest.mark.parametrize("size", [1e160, 1e300, np.inf, np.nan])
def test_instance_normalize_rejects_a_window_whose_scale_is_not_finite(size):
    """The error is the only report: NumPy prints no overflow or invalid warning first."""
    x = np.random.default_rng(4).standard_normal((2, 3, 32))
    x[1, 2] *= size
    model = ForecastModel(micro_config())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FiniteInputError, match="instance_normalize: a window's standard deviation"):
            instance_normalize(x)
        with pytest.raises(FiniteInputError, match="instance_normalize"):
            model.predict(x[1, :, -model.config.L:])


def test_instance_normalize_constant_series():
    x = np.full((2, 10), 4.2)
    xn, stats = instance_normalize(x)
    np.testing.assert_allclose(xn, np.zeros((2, 10)), atol=1e-9)
    np.testing.assert_allclose(instance_denormalize(xn, stats), x, atol=1e-12)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_rejects_indivisible_width():
    with pytest.raises(ConfigError):
        micro_config(D=9).validate()


def test_config_rejects_fsatten_temporal():
    with pytest.raises(ConfigError):
        micro_config(mechanism="fsatten", architecture="temporal").validate()


def test_config_rejects_even_kernel_and_bad_dropout():
    with pytest.raises(ConfigError):
        micro_config(kernel_K=2).validate()
    with pytest.raises(ConfigError):
        micro_config(dropout=1.0).validate()


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), -float("inf")])
def test_config_rejects_nonfinite_lr(lr):
    """A NaN lr would build no optimizer and train nothing; infinity is no step size."""
    with pytest.raises(ConfigError, match="learning rate must be finite"):
        micro_config(lr=lr).validate()


@pytest.mark.parametrize("lr", [0.0, -0.0])
def test_config_rejects_a_zero_lr(lr):
    """Adam refuses a step size of zero, so the config does too."""
    with pytest.raises(ConfigError, match="learning rate must be finite and > 0"):
        micro_config(lr=lr).validate()


@pytest.mark.parametrize("make", [
    lambda: ModelConfig(D=15, H=4),
    lambda: ModelConfig(lr=0.0),
    lambda: replace(micro_config(), kernel_K=4),
], ids=["indivisible-width", "zero-lr", "replace-even-kernel"])
def test_config_is_checked_when_it_is_made(make):
    """No invalid ModelConfig exists, so no consumer has to remember to check one."""
    with pytest.raises(ConfigError):
        make()


@pytest.mark.parametrize("value, words", [
    ("15", "D must be int, got '15'"),
    (15, "hidden width D=15 must be divisible by heads H=4"),
], ids=["mistyped", "refused"])
def test_config_from_dict_names_its_source(value, words):
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"H": 4, "D": value}, source="run.json")
    assert str(exc.value) == f"run.json: {words}"


def test_fsatten_f_resolution():
    cfg = micro_config(mechanism="fsatten", L=96)
    assert cfg.resolved_f == 49
    with pytest.raises(ConfigError):
        micro_config(mechanism="fsatten", L=96, F=32).validate()
    assert micro_config(mechanism="soatten", F=0).resolved_f == 32
    assert micro_config(mechanism="soatten", F=17).resolved_f == 17


# ---------------------------------------------------------------------------
# encoder layer behavior
# ---------------------------------------------------------------------------

def test_encoder_layer_residual_pass_through_with_zero_weights():
    model = ForecastModel(micro_config())
    layer = model.layers[0]
    for name, param in model.params.items():
        if name.startswith("layers.0.") and "gamma" not in name:
            param.data[...] = 0.0
    rng = np.random.default_rng(4)
    hidden = rng.standard_normal((3, 8))
    out = layer.forward(nm.Tensor(hidden), None, False, model._dropout_rng)
    expected = nm.layer_norm(nm.Tensor(hidden), nm.Tensor(np.ones(8)), nm.Tensor(np.zeros(8)))
    # residual branches are zero, so out = LN(LN(h)); the two agree up to
    # the eps regularizer inside the variance
    np.testing.assert_allclose(out.data, expected.data, atol=5e-5)


def test_encoder_layer_single_token_attention_is_value_projection():
    model = ForecastModel(micro_config(C=1))
    attn = model.layers[0].attn
    hidden = np.random.default_rng(5).standard_normal((1, 8))
    out = attn.forward(nm.Tensor(hidden), None)
    expected = (hidden @ attn.wv.data + attn.bv.data) @ attn.wo.data + attn.bo.data
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# forecast
# ---------------------------------------------------------------------------

def test_forecast_zero_head_returns_input_mean():
    model = ForecastModel(micro_config())
    model.params["head.weight"].data[...] = 0.0
    model.params["head.bias"].data[...] = 0.0
    x = np.random.default_rng(6).standard_normal((3, 16)) * 4 + 7
    pred = model.predict(x)
    np.testing.assert_allclose(pred, np.tile(x.mean(axis=1, keepdims=True), (1, 4)), atol=1e-12)


def test_forecast_constant_input_with_zero_head():
    model = ForecastModel(micro_config(C=1))
    model.params["head.weight"].data[...] = 0.0
    model.params["head.bias"].data[...] = 0.0
    pred = model.predict(np.full((1, 16), 2.5))
    np.testing.assert_allclose(pred, np.full((1, 4), 2.5), atol=1e-12)


@pytest.mark.parametrize("mechanism,architecture", [
    ("conventional", "variate"),
    ("conventional", "temporal"),
    ("fsatten", "variate"),
    ("soatten", "variate"),
    ("soatten", "temporal"),
])
def test_forecast_output_shape(mechanism, architecture):
    f = 6 if mechanism == "soatten" else 0
    cfg = micro_config(mechanism=mechanism, architecture=architecture, F=f)
    model = ForecastModel(cfg)
    x = np.random.default_rng(7).standard_normal((cfg.C, cfg.L))
    assert model.predict(x).shape == (cfg.C, cfg.T)


def test_forecast_shape_property_random_configs():
    rng = np.random.default_rng(8)
    for _ in range(10):
        heads = int(rng.integers(1, 4))
        width = heads * int(rng.integers(1, 5))
        arch = ("variate", "temporal")[int(rng.integers(2))]
        length = int(rng.integers(8, 33))
        p = int(rng.integers(2, min(8, length) + 1))
        cfg = micro_config(
            architecture=arch, mechanism=("conventional", "soatten")[int(rng.integers(2))],
            L=length, T=int(rng.integers(1, 9)), C=int(rng.integers(1, 5)),
            P=p, S=int(rng.integers(1, p + 1)), H=heads, D=width,
            F=int(rng.integers(2, 9)), layers=int(rng.integers(1, 3)),
        )
        model = ForecastModel(cfg)
        x = rng.standard_normal((cfg.C, cfg.L))
        assert model.predict(x).shape == (cfg.C, cfg.T)


def test_forward_rejects_wrong_window_shape():
    model = ForecastModel(micro_config())
    with pytest.raises(ShapeError):
        model.predict(np.zeros((3, 15)))


def test_fsatten_amplitudes_computed_once_per_window(monkeypatch):
    cfg = micro_config(mechanism="fsatten", layers=3)
    model = ForecastModel(cfg)
    calls = {"n": 0}
    original = models_mod.amplitude_matrix

    def counting(series):
        calls["n"] += 1
        return original(series)

    monkeypatch.setattr(models_mod, "amplitude_matrix", counting)
    model.predict(np.random.default_rng(9).standard_normal((3, 16)))
    assert calls["n"] == 1


def test_attention_capture_has_layer_maps():
    cfg = micro_config(mechanism="soatten", F=6, layers=2)
    model = ForecastModel(cfg)
    capture = []
    model.predict(np.random.default_rng(10).standard_normal((3, 16)), capture=capture)
    assert len(capture) == cfg.layers
    for entry in capture:
        assert entry.pre_hcc.weights.shape == entry.final.weights.shape == (1, 2, 3, 3)
        assert not entry.pre_hcc.weights.flags.writeable
        assert not entry.final.weights.flags.writeable
        np.testing.assert_allclose(entry.pre_hcc.weights.sum(axis=-1), 1.0, atol=1e-9)
        assert (entry.final.weights >= 0).all()


# ---------------------------------------------------------------------------
# ablation arms
# ---------------------------------------------------------------------------

def expected_param_count(cfg):
    d, h, f, c = cfg.D, cfg.H, cfg.resolved_f, cfg.token_count
    total = cfg.qk_input_dim * d + d                     # embedding
    if cfg.mechanism == "soatten":
        total += cfg.qk_input_dim * f                    # orthogonal Q/K embedding
    per_layer = 2 * d * d + 2 * d                        # value + output mix
    per_layer += 4 * d                                   # two layer norms
    per_layer += d * 4 * d + 4 * d + 4 * d * d + d       # FFN
    if cfg.mechanism != "conventional":
        per_layer += 2 * h * (c * f if cfg.mss_enabled else f * f)
        if cfg.mechanism == "soatten" and cfg.hcc_enabled:
            per_layer += h * h * cfg.kernel_K ** 2
    else:
        per_layer += 2 * (d * d + d)                     # Q/K projections
    total += cfg.layers * per_layer
    head_in = d if cfg.architecture == "variate" else cfg.patch_count * d
    total += head_in * cfg.T + cfg.T
    return total


def test_ablation_arms_parameter_accounting():
    arms = {}
    for mss in (True, False):
        for hcc_on in (True, False):
            cfg = micro_config(mechanism="soatten", F=6, mss_enabled=mss, hcc_enabled=hcc_on)
            arms[(mss, hcc_on)] = ForecastModel(cfg).parameter_count()
            assert arms[(mss, hcc_on)] == expected_param_count(cfg)
    c, f, h, k = 3, 6, 2, 3
    assert arms[(False, True)] - arms[(True, True)] == 2 * h * (f * f - c * f)
    assert arms[(True, True)] - arms[(True, False)] == h * h * k * k
    # fsatten MSS-vs-linear arm differs by the same accounting
    f_fs = 9
    fs_mss = ForecastModel(micro_config(mechanism="fsatten")).parameter_count()
    fs_lin = ForecastModel(micro_config(mechanism="fsatten", mss_enabled=False)).parameter_count()
    assert fs_lin - fs_mss == 2 * h * (f_fs * f_fs - c * f_fs)


_LAYER_TAIL = "ln1.gamma ln1.beta ln2.gamma ln2.beta ffn.w1 ffn.b1 ffn.w2 ffn.b2"

# gradcheck config index, overrides, has qk_embed, attention leaves in order
PARAM_ORDER_CASES = {
    "conventional-variate": (0, {}, False, "wq bq wk bk wv bv wo bo"),
    "conventional-temporal": (1, {}, False, "wq bq wk bk wv bv wo bo"),
    "fsatten-variate": (2, {}, False, "mss_q mss_k wv bv wo bo"),
    "soatten-variate": (3, {}, True, "mss_q mss_k wv bv wo bo hcc_kernel"),
    "soatten-temporal": (4, {}, True, "mss_q mss_k wv bv wo bo hcc_kernel"),
    "fsatten-mss-off": (2, dict(mss_enabled=False), False, "lin_q lin_k wv bv wo bo"),
    "soatten-hcc-off": (3, dict(hcc_enabled=False), True, "mss_q mss_k wv bv wo bo"),
}


@pytest.mark.parametrize("case", sorted(PARAM_ORDER_CASES))
def test_parameter_order_is_pinned(case):
    # The order fixes the checkpoint layout and Adam's flat buffer layout.
    index, overrides, qk_embed, attn = PARAM_ORDER_CASES[case]
    cfg = replace(gradcheck_configs()[index], **overrides)
    expected = (["embed.weight", "embed.bias"] + ["qk_embed.weight"] * qk_embed
                + [f"layers.0.attn.{leaf}" for leaf in attn.split()]
                + [f"layers.0.{leaf}" for leaf in _LAYER_TAIL.split()]
                + ["head.weight", "head.bias"])
    assert list(ForecastModel(cfg).params) == expected


def test_hcc_off_equals_dirac_kernel_bitwise():
    cfg_on = micro_config(mechanism="soatten", F=6, layers=2, hcc_enabled=True)
    cfg_off = micro_config(mechanism="soatten", F=6, layers=2, hcc_enabled=False)
    with_hcc = ForecastModel(cfg_on)
    without = ForecastModel(cfg_off)
    for layer in with_hcc.layers:
        layer.attn.kernel.data = dirac_kernel(cfg_on.H, cfg_on.kernel_K)
    x = np.random.default_rng(11).standard_normal((3, 16))
    np.testing.assert_array_equal(with_hcc.predict(x), without.predict(x))


def test_linear_arm_is_dense_map_of_same_input():
    cfg = micro_config(mechanism="fsatten", mss_enabled=False)
    model = ForecastModel(cfg)
    attn = model.layers[0].attn
    assert attn.q_map.data.shape == (2, 9, 9)
    assert attn.q_map is model.params["layers.0.attn.lin_q"]
    assert "layers.0.attn.mss_q" not in model.params
    x = np.random.default_rng(12).standard_normal((3, 16))
    assert model.predict(x).shape == (3, 4)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_train_loss_decreases_on_learnable_task():
    ds = tiny_dataset(c=2, tlen=400)
    model = ForecastModel(micro_config(C=2, L=32, T=8, D=16, epochs=4, lr=3e-3))
    report = train(model, ds)
    assert report.best_epoch >= 1
    assert report.epochs[report.best_epoch - 1]["val_mse"] < report.epochs[0]["train_mse"]
    assert report.epochs[-1]["train_mse"] < report.epochs[0]["train_mse"]


def test_train_is_bit_deterministic():
    ds = tiny_dataset(c=2, tlen=300)
    cfg = micro_config(C=2, L=32, T=8, epochs=2, dropout=0.2)
    r1 = train(ForecastModel(cfg), ds)
    r2 = train(ForecastModel(cfg), ds)
    assert r1.to_dict() == r2.to_dict()


def test_train_best_validation_state_is_restored():
    """A run whose best validation epoch is not its last ends with that epoch's
    state: the trained model's validation loss is the best one, not the last."""
    ds = tiny_dataset()
    cfg = micro_config(mechanism="fsatten", layers=2, dropout=0.1, lr=3e-2, seed=4, epochs=3)
    model = ForecastModel(cfg)
    report = train(model, ds)
    assert report.best_epoch < cfg.epochs
    last = report.epochs[-1]["val_mse"]
    assert last > report.best_val_mse == report.epochs[report.best_epoch - 1]["val_mse"]
    val_x, val_y = window_arrays(ds, "val", cfg.L, cfg.T)
    assert float(model.batch_loss(val_x, val_y).data) == report.best_val_mse


# architecture, mechanism, F, lr, seed: each run's best validation epoch is 2 of 3
RESTORE_CASES = {
    "variate-fsatten": ("variate", "fsatten", 0, 3e-2, 4),
    "variate-soatten": ("variate", "soatten", 6, 2e-2, 5),
    "variate-conventional": ("variate", "conventional", 0, 5e-2, 3),
    "temporal-soatten": ("temporal", "soatten", 6, 3e-2, 2),
}


@pytest.mark.parametrize("case", sorted(RESTORE_CASES))
def test_restored_best_state_equals_a_run_that_stops_at_the_best_epoch(case):
    """Writing the best epoch's copy of Adam's buffer back leaves exactly the
    parameters and the test metrics of a fresh run of that many epochs: the
    shorter run draws the same shuffles and dropout masks up to its end."""
    architecture, mechanism, f, lr, seed = RESTORE_CASES[case]
    ds = tiny_dataset()
    cfg = micro_config(architecture=architecture, mechanism=mechanism, F=f, layers=2,
                       dropout=0.1, lr=lr, seed=seed, epochs=3)
    longer = ForecastModel(cfg)
    report = train(longer, ds)
    assert 1 <= report.best_epoch < cfg.epochs
    shorter = ForecastModel(replace(cfg, epochs=report.best_epoch))
    short_report = train(shorter, ds)
    for name, param in shorter.params.items():
        assert longer.params[name].data.tobytes() == param.data.tobytes(), name
    # Only the config hash differs: it covers `epochs`.
    assert report.test_metrics == replace(short_report.test_metrics,
                                          config_hash=report.test_metrics.config_hash)


def _one_epoch(model, dataset, replay, optimizer):
    """The minibatch steps of one `train` epoch, with the given backward and optimizer."""
    cfg = model.config
    x, y = window_arrays(dataset, "train", cfg.L, cfg.T)
    order = nm.substream(cfg.seed, "shuffle").permutation(len(x))
    losses = []
    for start in range(0, len(order), cfg.batch_size):
        batch = order[start:start + cfg.batch_size]
        with nm.GradientTape() as tape:
            loss = model.batch_loss(x[batch], y[batch], training=True)
        replay(tape, loss)
        optimizer.step()
        optimizer.zero_grad()
        losses.append(float(loss.data))
    return losses


@pytest.mark.parametrize("architecture, mechanism, f", [
    ("variate", "fsatten", 0),
    ("variate", "soatten", 6),
    ("variate", "conventional", 0),
    ("temporal", "soatten", 6),
    ("temporal", "conventional", 0),
])
def test_training_steps_match_per_parameter_oracle_bitwise(architecture, mechanism, f):
    """Moved adjoints and the flat Adam buffer change no bit of a training epoch
    against a zero-buffer backward and a per-parameter Adam."""
    ds = tiny_dataset()
    cfg = micro_config(architecture=architecture, mechanism=mechanism, F=f, layers=2,
                       dropout=0.1, lr=1e-2, epochs=1)
    engine, oracle = ForecastModel(cfg), ForecastModel(cfg)
    engine_losses = _one_epoch(engine, ds, nm.backward, nm.Adam(engine.parameters(), cfg.lr))
    oracle_losses = _one_epoch(oracle, ds, accumulating_backward,
                               PerParameterAdam(oracle.parameters(), cfg.lr))
    assert len(engine_losses) > 3
    assert engine_losses == oracle_losses
    trained = ForecastModel(cfg)
    train(trained, ds)  # one epoch: its best state is the state after the last step
    for name, param in oracle.params.items():
        assert engine.params[name].data.tobytes() == param.data.tobytes(), name
        assert trained.params[name].data.tobytes() == param.data.tobytes(), name


def test_train_stops_on_non_finite_loss_before_any_step():
    ds = tiny_dataset()
    model = ForecastModel(micro_config(epochs=2))
    model.head_b.data[1] = np.inf
    before = {name: p.data.copy() for name, p in model.params.items()}
    with pytest.raises(FiniteInputError, match="epoch 1, batch 1"):
        train(model, ds)
    for name, p in model.params.items():
        assert p.data.tobytes() == before[name].tobytes(), name


def test_train_stops_on_non_finite_gradient_before_the_step(monkeypatch):
    ds = tiny_dataset()
    model = ForecastModel(micro_config(epochs=2))
    before = {name: p.data.copy() for name, p in model.params.items()}
    replay = nm.backward

    def poisoned(tape, loss):
        replay(tape, loss)
        model.embed_w.grad[0, 0] = np.nan

    monkeypatch.setattr(nm, "backward", poisoned)
    with pytest.raises(FiniteInputError, match="gradient at epoch 1, batch 1"):
        train(model, ds)
    for name, p in model.params.items():
        assert p.data.tobytes() == before[name].tobytes(), name


def test_naive_repeat_forecast():
    x = np.array([[1.0, 2.0, 3.0], [5.0, 4.0, 2.0]])
    np.testing.assert_array_equal(
        naive_repeat_forecast(x, 2), [[3.0, 3.0], [2.0, 2.0]]
    )


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_is_lossless(tmp_path):
    ds = tiny_dataset(c=2, tlen=300)
    cfg = micro_config(C=2, L=32, T=8, mechanism="soatten", F=6, epochs=1)
    model = ForecastModel(cfg)
    train(model, ds)
    path = tmp_path / "ck.json"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    assert loaded.config == cfg
    for name, param in model.params.items():
        np.testing.assert_array_equal(param.data, loaded.params[name].data)
    x = np.random.default_rng(13).standard_normal((2, 32))
    np.testing.assert_array_equal(model.predict(x), loaded.predict(x))


def test_checkpoint_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "other", "config": {}, "params": {}}')
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_with_many_more_layers_fails_at_the_first_missing_one(tmp_path):
    path = tmp_path / "ck.json"
    save_checkpoint(path, ForecastModel(micro_config(layers=1)))
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["config"]["layers"] = 10**7
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(FormatError, match=r"layers\.1\.") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


# ---------------------------------------------------------------------------
# batched engine vs a stack of B = 1 passes
# ---------------------------------------------------------------------------

EQUIVALENCE_CONFIGS = {
    "variate-fsatten": dict(mechanism="fsatten"),
    "variate-soatten": dict(mechanism="soatten", F=6),
    "variate-conventional": dict(),
    "temporal-soatten": dict(architecture="temporal", mechanism="soatten", F=6),
    "temporal-conventional": dict(architecture="temporal"),
    "fsatten-mss-off": dict(mechanism="fsatten", mss_enabled=False),
    "soatten-mss-off": dict(mechanism="soatten", F=6, mss_enabled=False),
    "soatten-hcc-off": dict(mechanism="soatten", F=6, hcc_enabled=False),
    "temporal-soatten-hcc-off": dict(architecture="temporal", mechanism="soatten", F=6,
                                     hcc_enabled=False),
}


def assert_within(actual, expected, tol=1e-12):
    expected = np.asarray(expected)
    scale = max(1.0, float(np.abs(expected).max()))
    assert np.abs(np.asarray(actual) - expected).max() <= tol * scale


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_CONFIGS))
def test_forward_batch_matches_stack_of_single_window_passes(name):
    cfg = micro_config(layers=2, **EQUIVALENCE_CONFIGS[name])
    model = ForecastModel(cfg)
    rng = np.random.default_rng(40)
    for param in model.params.values():  # move off the all-ones / all-zeros initial values
        param.data = param.data + rng.standard_normal(param.data.shape) * 0.3
    batch = 5
    x = rng.standard_normal((batch, cfg.C, cfg.L)) * 3 + 1
    y = rng.standard_normal((batch, cfg.C, cfg.T))

    pred, stats = model.forward_batch(x)
    singles = [model.forward_window(window) for window in x]
    assert pred.shape == (batch, cfg.C, cfg.T)
    assert_within(pred.data, np.stack([p.data for p, _ in singles]))
    assert_within(stats.mean, np.stack([s.mean for _, s in singles]))
    assert_within(model.predict_batch(x), np.stack([model.predict(window) for window in x]))

    with nm.GradientTape() as tape:
        loss = model.batch_loss(x, y, training=True)
    nm.backward(tape, loss)
    batched = {n: p.grad.copy() for n, p in model.params.items()}
    for param in model.params.values():
        param.grad[...] = 0.0
    total = 0.0
    for window, target in zip(x, y):
        with nm.GradientTape() as tape:
            single = model.window_loss(window, target, training=True)
        nm.backward(tape, single)   # leaf gradients accumulate over windows
        total += float(single.data)
    assert_within(float(loss.data), total / batch)
    for n, param in model.params.items():
        assert_within(batched[n], param.grad / batch)


def test_forward_batch_rejects_wrong_batch_shape():
    model = ForecastModel(micro_config())
    with pytest.raises(ShapeError):
        model.forward_batch(np.zeros((3, 16)))
    with pytest.raises(ShapeError):
        model.forward_batch(np.zeros((2, 3, 15)))
    with pytest.raises(ShapeError):
        model.batch_loss(np.zeros((2, 3, 16)), np.zeros((3, 3, 4)))


def test_temporal_capture_is_layer_major_over_variates():
    cfg = micro_config(architecture="temporal", mechanism="soatten", F=6, layers=2)
    model = ForecastModel(cfg)
    x = np.random.default_rng(41).standard_normal((cfg.C, cfg.L))
    capture = []
    model.predict(x, capture=capture)
    assert len(capture) == cfg.layers
    n = cfg.patch_count
    for entry in capture:
        assert entry.pre_hcc.weights.shape == entry.final.weights.shape == (cfg.C, cfg.H, n, n)
        assert not entry.pre_hcc.weights.flags.writeable
        assert not entry.final.weights.flags.writeable
    # the variates of one layer are distinct inputs, so their maps differ
    assert not np.array_equal(capture[0].pre_hcc.weights[0], capture[0].pre_hcc.weights[1])
    # in a batch, variates are innermost: rows [b*C, (b+1)*C) belong to window b
    batched = []
    model.predict_batch(np.stack([x[::-1], x]), capture=batched)
    for got, want in zip(batched, capture):
        assert got.final.weights.shape == (2 * cfg.C, cfg.H, n, n)
        assert_within(got.pre_hcc.weights[cfg.C:], want.pre_hcc.weights)
        assert_within(got.final.weights[cfg.C:], want.final.weights)


def test_batched_capture_matches_single_window_captures():
    cfg = micro_config(mechanism="soatten", F=6, layers=2)
    model = ForecastModel(cfg)
    x = np.random.default_rng(42).standard_normal((3, cfg.C, cfg.L))
    batched = []
    model.predict_batch(x, capture=batched)
    assert len(batched) == cfg.layers
    singles = []
    for window in x:
        capture = []
        model.predict(window, capture=capture)
        assert len(capture) == cfg.layers
        singles.append(capture)
    for layer, got in enumerate(batched):
        assert got.pre_hcc.weights.shape == got.final.weights.shape == (3, cfg.H, cfg.C, cfg.C)
        assert not got.pre_hcc.weights.flags.writeable
        assert not got.final.weights.flags.writeable
        # slice b of the layer's stack is window b's own capture
        for b in range(3):
            want = singles[b][layer]
            assert_within(got.pre_hcc.weights[b], want.pre_hcc.weights[0])
            assert_within(got.final.weights[b], want.final.weights[0])


def test_patchify_batched_matches_per_sequence():
    x = np.random.default_rng(43).standard_normal((2, 3, 20))
    batched = patchify(x, 6, 4)
    assert batched.shape == (2, 3, (20 - 6) // 4 + 2, 6)
    for i in range(2):
        for c in range(3):
            np.testing.assert_array_equal(batched[i, c], patchify(x[i, c], 6, 4))


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs the glibc allocator")
def test_repeated_training_steps_do_not_page_fault():
    """Each 32-window temporal step allocates and frees tens of MB; once the
    first steps have grown the heap, later steps reuse it instead of
    page-faulting it in again (about 48000 faults over three steps when
    glibc trims the heap after every step)."""
    import resource

    cfg = ModelConfig(architecture="temporal", mechanism="soatten", L=96, T=24, C=4,
                      P=16, S=8, H=4, D=32, F=32, layers=2, dropout=0.2, seed=0)
    model = ForecastModel(cfg)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, cfg.C, cfg.L))
    y = rng.standard_normal((32, cfg.C, cfg.T))
    optimizer = nm.Adam(model.parameters(), cfg.lr)

    def step():
        with nm.GradientTape() as tape:
            loss = model.batch_loss(x, y, training=True)
        nm.backward(tape, loss)
        optimizer.step()
        optimizer.zero_grad()

    step()
    step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        step()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000


def test_backward_peak_memory_stays_near_the_forward_tape():
    """Adjoints are freed once used and taken over without zero buffers, so the
    backward pass of a 32-window temporal step adds little to its tape (a
    backward that keeps every adjoint peaks at about twice the forward)."""
    import tracemalloc

    cfg = ModelConfig(architecture="temporal", mechanism="soatten", L=96, T=24, C=4,
                      P=16, S=8, H=4, D=32, F=32, layers=2, dropout=0.2, seed=0)
    model = ForecastModel(cfg)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, cfg.C, cfg.L))
    y = rng.standard_normal((32, cfg.C, cfg.T))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with nm.GradientTape() as tape:
            loss = model.batch_loss(x, y, training=True)
        forward = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        nm.backward(tape, loss)
        backward = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert backward <= 1.3 * forward


def _tape_arrays(tape):
    """Every array a tape holds: its leaf inputs and the arrays (or tensors)
    its vjp closures capture, plus the bases those arrays view. The output
    and intermediate input nodes hold none."""
    found = []
    for node, inputs, vjp in tape._records:
        held = []
        for t in (node, *inputs):
            if isinstance(t, nm.Tensor):
                held.append(t.data)
            else:
                assert t is None or (isinstance(t, nm._Node) and t.grad is None)
        for cell in vjp.__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, nm.Tensor):
                value = value.data
            if isinstance(value, np.ndarray):
                held.append(value)
        for a in held:
            while a is not None:
                found.append(a)
                a = a.base if isinstance(a.base, np.ndarray) else None
    return found


def test_backward_releases_the_tape_as_it_replays_it():
    """The MSS scores are one record that keeps the shared source, not the
    (B*C, H, N, F) Q and K stacks, and backward pops each record as it
    replays it, so the same 32-window temporal step peaks within 1.1x of its
    forward tape (1.18x when Q and K were kept and the tape held until the
    end)."""
    import tracemalloc

    cfg = ModelConfig(architecture="temporal", mechanism="soatten", L=96, T=24, C=4,
                      P=16, S=8, H=4, D=32, F=32, layers=2, dropout=0.2, seed=0)
    model = ForecastModel(cfg)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, cfg.C, cfg.L))
    y = rng.standard_normal((32, cfg.C, cfg.T))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with nm.GradientTape() as tape:
            loss = model.batch_loss(x, y, training=True)
        forward = tracemalloc.get_traced_memory()[1] - base
        qk_shape = (32 * cfg.C, cfg.H, cfg.patch_count, cfg.resolved_f)
        assert all(a.shape != qk_shape for a in _tape_arrays(tape))
        tracemalloc.reset_peak()
        nm.backward(tape, loss)
        backward = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(tape) == 0
    assert backward <= 1.1 * forward


def test_forward_arrays_that_no_vjp_reads_are_freed_during_the_forward_pass(monkeypatch):
    """A record keeps its output's adjoint slot, not the output. So with the
    tape still alive after a temporal soatten training forward, the outputs
    of add, training dropout, conv2d and the `wo`, `ffn.w1` and `ffn.w2`
    linears are gone (gelu keeps its derivative factor, not its input),
    while those that a vjp reads (`ffn.w2` reads gelu's, and the MSS record
    keeps its softmax) are held."""
    import weakref

    outputs = []
    for name in ("add", "dropout", "conv2d", "linear", "gelu", "mss_attention_weights"):
        def traced(*args, _name=name, _op=getattr(nm, name)):
            out = _op(*args)
            weight = args[1] if _name == "linear" else None   # holding an input would keep it alive
            outputs.append((_name, weight, weakref.ref(out.data)))
            return out
        monkeypatch.setattr(nm, name, traced)
    cfg = ModelConfig(architecture="temporal", mechanism="soatten", L=32, T=8, C=3, P=8, S=4,
                      H=2, D=8, F=6, layers=2, dropout=0.2, seed=0)
    model = ForecastModel(cfg)
    rng = np.random.default_rng(0)
    with nm.GradientTape() as tape:
        loss = model.batch_loss(rng.standard_normal((4, cfg.C, cfg.L)),
                                rng.standard_normal((4, cfg.C, cfg.T)), training=True)
    assert len(tape) > 0 and loss.node is tape._records[-1][0]
    freed_weights = [w for layer in model.layers for w in (layer.attn.wo, layer.ffn_w1, layer.ffn_w2)]
    alive = {"freed": [], "held": []}
    for name, weight, ref in outputs:
        if name in ("add", "dropout", "conv2d") or any(weight is w for w in freed_weights):
            alive["freed"].append(ref() is not None)
        elif name in ("gelu", "mss_attention_weights"):
            alive["held"].append(ref() is not None)
    # two layers: 2 adds, 2 dropouts, 3 freed linears and 1 conv2d each; 1 gelu, 1 MSS record
    assert alive == {"freed": [False] * 16, "held": [True] * 4}


@pytest.mark.parametrize("architecture, mechanism, records", [
    ("variate", "fsatten", 35),
    ("variate", "soatten", 40),
    ("variate", "conventional", 43),
    ("temporal", "soatten", 41),
    ("temporal", "conventional", 44),
])
def test_training_loss_tape_records_stay_fused(architecture, mechanism, records):
    # Two layers with dropout and HCC. Each linear, head split or merge,
    # attention-weight chain and MSS score chain is one record; unfusing any
    # of them adds some.
    cfg = micro_config(architecture=architecture, mechanism=mechanism, layers=2, dropout=0.2,
                       F=6 if mechanism == "soatten" else 0)
    model = ForecastModel(cfg)
    rng = np.random.default_rng(5)
    with nm.GradientTape() as tape:
        model.batch_loss(rng.standard_normal((1, cfg.C, cfg.L)),
                         rng.standard_normal((1, cfg.C, cfg.T)), training=True)
    assert len(tape) == records


# ---------------------------------------------------------------------------
# initialization draws only what it uses; a checkpoint load draws nothing
# ---------------------------------------------------------------------------

def _record_streams(monkeypatch):
    """Log every call of the init entry points as (function name, second argument),
    which is the stream name for `substream` and `derive_seed`."""
    calls = []
    for module, name in ((nm, "substream"), (nm, "derive_seed"), (models_mod, "orthogonal_init")):
        def logged(*args, _name=name, _real=getattr(module, name)):
            calls.append((_name, args[1]))
            return _real(*args)
        monkeypatch.setattr(module, name, logged)
    return calls


@pytest.mark.parametrize("seed", [3, 905])
@pytest.mark.parametrize("name", sorted(EQUIVALENCE_CONFIGS))
def test_lazy_init_matches_eager_per_parameter_streams_bitwise(monkeypatch, name, seed):
    cfg = micro_config(seed=seed, **EQUIVALENCE_CONFIGS[name])
    model = ForecastModel(cfg)
    monkeypatch.setattr(ForecastModel, "_create", eager_create)
    eager = ForecastModel(cfg)
    assert list(model.params) == list(eager.params)
    for key, param in model.params.items():
        want = eager.params[key].data
        assert param.data.strides == want.strides
        assert param.data.tobytes() == want.tobytes(), key


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_CONFIGS))
def test_train_keeps_the_test_report_that_evaluate_on_split_gives(name):
    model = ForecastModel(micro_config(seed=5, dropout=0.1, **EQUIVALENCE_CONFIGS[name]))
    dataset = tiny_dataset()
    report = train(model, dataset)
    assert report.test_metrics.to_dict() == evaluate_on_split(model, dataset, "test").to_dict()
    assert (report.test_mse, report.test_mae) == (report.test_metrics.mse, report.test_metrics.mae)
    summary = report.to_dict()
    assert list(summary) == ["seed", "config_hash", "epochs", "best_epoch", "best_val_mse",
                             "test_mse", "test_mae"]
    assert (summary["test_mse"], summary["test_mae"]) == (report.test_mse, report.test_mae)


FIVE_ARMS = ["variate-fsatten", "variate-soatten", "variate-conventional",
             "temporal-soatten", "temporal-conventional"]


@pytest.mark.parametrize("name", FIVE_ARMS)
def test_chunked_forecasts_match_one_batch_bitwise(monkeypatch, name):
    """With chunks of one minibatch, the per-epoch validation losses, the
    forecasts and the MetricsReport equal those of one batch per split."""
    cfg = micro_config(seed=5, dropout=0.1, **EQUIVALENCE_CONFIGS[name])
    dataset = tiny_dataset()
    sizes = []
    forward_batch = ForecastModel.forward_batch

    def counted(model, x, training=False, capture=None):
        sizes.append(len(x))
        return forward_batch(model, x, training, capture)

    monkeypatch.setattr(ForecastModel, "forward_batch", counted)
    runs = []
    for chunk_bytes in (models_mod._FORECAST_CHUNK_BYTES, 1):
        monkeypatch.setattr(models_mod, "_FORECAST_CHUNK_BYTES", chunk_bytes)
        model = ForecastModel(cfg)
        report = train(model, dataset)
        x, y = window_arrays(dataset, "test", cfg.L, cfg.T)
        sizes.clear()
        forecasts = models_mod._chunked(model, lambda m, xs, _: m.predict_batch(xs), x, y)
        runs.append((list(sizes), report.to_dict(), forecasts.tobytes(), evaluate_windows(model, x, y)))
    (one_sizes, *one), (chunk_sizes, *chunked) = runs
    assert one_sizes == [len(x)] and len(x) > 2 * cfg.batch_size
    assert max(chunk_sizes) == cfg.batch_size and sum(chunk_sizes) == len(x)
    assert chunked == one


@pytest.mark.parametrize("name", FIVE_ARMS)
def test_evaluating_zero_windows_is_one_data_error(name):
    """No window has no mean error: `evaluate_windows` and `batch_loss` raise
    DataError, and `predict_batch` forecasts a (0, C, T) array, in every arm
    and with no warning on the way."""
    model = ForecastModel(micro_config(**EQUIVALENCE_CONFIGS[name]))
    cfg = model.config
    x, y = np.zeros((0, cfg.C, cfg.L)), np.zeros((0, cfg.C, cfg.T))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="evaluate_windows: no windows"):
            evaluate_windows(model, x, y)
        with pytest.raises(DataError, match="batch_loss: no windows"):
            model.batch_loss(x, y)
        assert model.predict_batch(x).shape == (0, cfg.C, cfg.T)


def _ragged(a):
    """The nested lists of `a` with its last row one value short."""
    if a.ndim > 2:
        return [_ragged(a[0])]
    return [*a[:-1].tolist(), a[-1, :-1].tolist()]


@pytest.mark.parametrize("name", FIVE_ARMS)
def test_complex_windows_and_targets_are_refused_by_name(name):
    """A complex window or target is a ShapeError naming the method called,
    not a forecast from its real part; so is a window or target of strings
    (even numeric ones), of `None` objects (not NaN), or a ragged nested list."""
    model = ForecastModel(micro_config(**EQUIVALENCE_CONFIGS[name]))
    cfg = model.config
    x, y = np.ones((cfg.C, cfg.L)), np.ones((cfg.C, cfg.T))
    calls = {
        "forward_batch": lambda x, y: model.forward_batch(x),
        "predict_batch": lambda x, y: model.predict_batch(x),
        "forward_window": lambda x, y: model.forward_window(x),
        "predict": lambda x, y: model.predict(x),
        "batch_loss": lambda x, y: model.batch_loss(x, y),
        "window_loss": lambda x, y: model.window_loss(x, y),
        "evaluate_windows": lambda x, y: evaluate_windows(model, x, y),
    }
    batched = ("forward_batch", "predict_batch", "batch_loss", "evaluate_windows")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for caller, call in calls.items():
            xs, ys = (x[None], y[None]) if caller in batched else (x, y)
            call(xs, ys)
            refused = [(xs + 1j, ys)]
            malformed = [(np.full(xs.shape, "1.0"), ys), (np.full(xs.shape, None), ys), (_ragged(xs), ys)]
            if caller in ("batch_loss", "window_loss", "evaluate_windows"):
                refused.append((xs, ys + 0j))
                malformed += [(xs, np.full(ys.shape, "1.0")), (xs, np.full(ys.shape, None)), (xs, _ragged(ys))]
            for args in refused:
                with pytest.raises(ShapeError, match=f"^{caller}: expected real values, got complex128"):
                    call(*args)
            for args in malformed:
                with pytest.raises(ShapeError, match=f"^{caller}: expected (an array of )?real values, got "):
                    call(*args)
        for metric in (models_mod.mse, models_mod.mae):
            with pytest.raises(ShapeError, match=f"^{metric.__name__}: expected real values"):
                metric(y, y + 0j)
            with pytest.raises(ShapeError, match=f"^{metric.__name__}: expected real values"):
                metric(y, np.full(y.shape, None))


def test_evaluate_windows_refuses_scalars_by_name():
    model = ForecastModel(micro_config())
    with pytest.raises(ShapeError, match=r"^evaluate_windows: expected a \(B, C, L\) stack of windows, got shape \(\)"):
        evaluate_windows(model, 1.0, 1.0)


def test_predict_batch_refuses_a_single_window_by_name():
    model = ForecastModel(micro_config())
    cfg = model.config
    want = rf"^predict_batch: expected shape \(B, {cfg.C}, {cfg.L}\), got \({cfg.C}, {cfg.L}\)"
    with pytest.raises(ShapeError, match=want):
        model.predict_batch(np.ones((cfg.C, cfg.L)))


def test_chunk_depends_on_the_config_only():
    """A chunk of about 16 MiB of the widest forward arrays, never below a
    minibatch: each benchmark split (up to 91 windows) is one chunk."""
    chunk = models_mod._chunk_windows
    assert chunk(ModelConfig(C=4)) == 4096
    assert chunk(ModelConfig(architecture="temporal", mechanism="soatten", C=4)) == 341
    assert chunk(ModelConfig(mechanism="fsatten", C=32)) == 512
    assert chunk(ModelConfig(mechanism="fsatten", C=321)) == 32
    assert chunk(ModelConfig(mechanism="fsatten", C=321, batch_size=7)) == 7


# Temporal soatten with a short horizon: a chunk's forward arrays dwarf the
# (n, C, T) forecasts, and chunks of one minibatch make short splits hold several.
MEMORY_CONFIG = dict(architecture="temporal", mechanism="soatten", L=32, T=2, C=8, P=8, S=4,
                     H=2, D=32, F=8, layers=1, dropout=0.1, batch_size=8, epochs=1)


def _peak_beyond_the_series(run, dataset, splits):
    """tracemalloc peak of `run()`, less what grows with the series: its
    standardized copy, the shuffle order, and four (n, C, T) forecast or
    error arrays for the longest of `splits`."""
    import tracemalloc

    cfg = ModelConfig(**MEMORY_CONFIG)
    counts = [len(window_arrays(dataset, which, cfg.L, cfg.T)[0]) for which in ("train", *splits)]
    series = 8 * (cfg.C * dataset.length + counts[0] + 4 * max(counts[1:]) * cfg.C * cfg.T)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base - series
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("run, splits", [
    (lambda model, dataset: evaluate_on_split(model, dataset, "test"), ["test"]),
    (train, ["val", "test"]),   # one epoch
], ids=["evaluate_on_split", "train_epoch"])
def test_peak_memory_does_not_grow_with_the_split(monkeypatch, run, splits):
    monkeypatch.setattr(models_mod, "_FORECAST_CHUNK_BYTES", 1, raising=False)
    cfg = ModelConfig(**MEMORY_CONFIG)
    peaks = []
    for tlen in (400, 1600):   # 4x longer splits
        dataset = tiny_dataset(c=cfg.C, tlen=tlen)
        model = ForecastModel(cfg)
        peaks.append(_peak_beyond_the_series(lambda: run(model, dataset), dataset, splits))
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_train_without_a_test_window_reports_none():
    dataset = split(tiny_dataset(tlen=200), (0.7, 0.3))
    report = train(ForecastModel(micro_config(epochs=1)), dataset)
    assert report.test_metrics is None
    assert (report.test_mse, report.test_mae) == (None, None)


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_CONFIGS))
def test_construction_opens_one_stream_per_drawing_parameter(monkeypatch, name):
    kinds = {}
    create = ForecastModel._create

    def recording_create(model, param, spec):
        kinds[param] = spec[0]
        return create(model, param, spec)

    monkeypatch.setattr(ForecastModel, "_create", recording_create)
    calls = _record_streams(monkeypatch)
    ForecastModel(micro_config(**EQUIVALENCE_CONFIGS[name]))
    drawing = [f"init/{p}" for p, kind in kinds.items() if kind in ("normal", "dirac_noise")]
    orthogonal = [f"init/{p}" for p, kind in kinds.items() if kind == "orthogonal"]
    assert sorted(n for f, n in calls if f == "substream") == sorted(["dropout"] + drawing)
    assert [n for f, n in calls if f == "derive_seed"] == orthogonal
    assert sum(f == "orthogonal_init" for f, _ in calls) == len(orthogonal)


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_CONFIGS))
def test_checkpoint_load_opens_only_the_dropout_stream(tmp_path, monkeypatch, name):
    path = tmp_path / "ck.json"
    save_checkpoint(path, ForecastModel(micro_config(**EQUIVALENCE_CONFIGS[name])))
    calls = _record_streams(monkeypatch)
    load_checkpoint(path)
    assert calls == [("substream", "dropout")]


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_CONFIGS))
def test_checkpoint_save_load_save_is_byte_identical(tmp_path, name):
    cfg = micro_config(seed=11, **EQUIVALENCE_CONFIGS[name])
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_checkpoint(first, ForecastModel(cfg))
    loaded = load_checkpoint(first)
    save_checkpoint(second, loaded)
    assert first.read_bytes() == second.read_bytes()
    x = np.random.default_rng(2).standard_normal((cfg.C, cfg.L))
    assert loaded.predict(x).tobytes() == ForecastModel(cfg).predict(x).tobytes()
