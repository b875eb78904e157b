"""Forecasting models: temporal (patch tokens) and variate (series tokens)
encoders around a configurable attention mechanism, plus training.

Both architectures instance-normalize each input window, run post-norm
residual encoder blocks, and invert the normalization after the linear
forecast head. The attention Q/K source (amplitude matrix or orthogonal
embedding) is derived once per window from the normalized input and shared
by every layer; values and the FFN work on the evolving hidden state.

One tape per minibatch: `ForecastModel.forward_batch` runs a whole
(B, C, L) batch through each op at once, and ops broadcast over leading
axes. The variate architecture carries (B, C, D) tokens; the temporal one
folds the variates into the batch and carries (B*C, N, D) patch tokens.
`forward_window`, `window_loss`, `predict` and `forecast` are its B = 1
wrappers for a single (C, L) window.

An attention `capture` list receives one LayerAttention per encoder layer,
in layer order, holding that layer's whole read-only weight stack: (B, H, C, C)
for the variate architecture, (B*C, H, N, N) for the temporal one.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import typing
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import numerics as nm
from .artifacts import atomic_open, read_text
from .attention import MECHANISMS, ConventionalAttention, SpectrumAttention, orthogonal_init
from .errors import ConfigError, DataError, FiniteInputError, FormatError, ShapeError
from .spectral import amplitude_matrix

ARCHITECTURES = ("temporal", "variate")

CHECKPOINT_FORMAT = "spectral-attn-checkpoint/1"


@dataclass(frozen=True)
class ModelConfig:
    """Every architectural and training hyperparameter of one model."""

    architecture: str = "variate"
    mechanism: str = "conventional"
    L: int = 96            # lookback length
    T: int = 24            # forecast horizon
    C: int = 0             # variate count (0 = fill in from the dataset)
    P: int = 16            # patch length (temporal architecture)
    S: int = 8             # patch stride
    H: int = 4             # attention heads
    D: int = 32            # hidden width
    F: int = 0             # Q/K space dimension (0 = resolve default)
    kernel_K: int = 3      # head-coupling convolution kernel size
    layers: int = 2
    dropout: float = 0.2
    mss_enabled: bool = True
    hcc_enabled: bool = True
    seed: int = 0
    lr: float = 1e-3
    batch_size: int = 32
    epochs: int = 10

    def validate(self):
        if self.architecture not in ARCHITECTURES:
            raise ConfigError(f"unknown architecture {self.architecture!r}")
        if self.mechanism not in MECHANISMS:
            raise ConfigError(f"unknown mechanism {self.mechanism!r}")
        if self.L < 2:
            raise ConfigError(f"lookback L must be >= 2, got {self.L}")
        if self.T < 1:
            raise ConfigError(f"horizon T must be >= 1, got {self.T}")
        if self.C < 0:
            raise ConfigError(f"variate count C must be >= 0, got {self.C}")
        if self.H < 1 or self.D < 1 or self.D % self.H != 0:
            raise ConfigError(f"hidden width D={self.D} must be divisible by heads H={self.H}")
        if not 1 <= self.P <= self.L:
            raise ConfigError(f"patch length P={self.P} must lie in [1, L={self.L}]")
        if self.S < 1:
            raise ConfigError(f"stride S must be >= 1, got {self.S}")
        if self.architecture == "temporal" and self.S > self.P:
            raise ConfigError(f"stride S={self.S} must not exceed patch length P={self.P}")
        if self.kernel_K < 1 or self.kernel_K % 2 == 0:
            raise ConfigError(f"kernel_K must be odd and positive, got {self.kernel_K}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.mechanism == "fsatten" and self.architecture != "variate":
            raise ConfigError("the fsatten mechanism applies only to the variate architecture")
        if self.mechanism == "fsatten" and self.F not in (0, self.L // 2 + 1):
            raise ConfigError(
                f"fsatten fixes F to L//2+1 = {self.L // 2 + 1}; got F={self.F}"
            )
        if self.F < 0:
            raise ConfigError(f"F must be >= 0, got {self.F}")
        if self.layers < 1:
            raise ConfigError(f"layers must be >= 1, got {self.layers}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.lr < 0:
            raise ConfigError(f"learning rate must be >= 0, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")

    @property
    def resolved_f(self):
        """Q/K space dimension: fsatten pins floor(L/2)+1, soatten defaults to 32."""
        if self.mechanism == "fsatten":
            return self.L // 2 + 1
        if self.mechanism == "soatten":
            return self.F if self.F > 0 else 32
        return self.D // self.H

    @property
    def patch_count(self):
        return (self.L - self.P) // self.S + 2

    @property
    def token_count(self):
        return self.C if self.architecture == "variate" else self.patch_count

    @property
    def qk_input_dim(self):
        return self.L if self.architecture == "variate" else self.P


def config_to_dict(config):
    return asdict(config)


CONFIG_TYPES = typing.get_type_hints(ModelConfig)  # field name -> str, int, float or bool


def config_from_dict(d, source="config"):
    """ModelConfig from decoded JSON; ConfigError for an unknown key or a mistyped value.

    A bool is not accepted where an int is expected; an int is accepted
    (and converted) where a float is; floats must be finite.
    """
    kwargs = {}
    for key, value in d.items():
        kind = CONFIG_TYPES.get(key)
        if kind is None:
            raise ConfigError(f"{source}: unknown config key {key!r}")
        if kind is float and type(value) is int:
            value = float(value)
        if type(value) is not kind or (kind is float and not math.isfinite(value)):
            raise ConfigError(f"{source}: {key} must be {kind.__name__}, got {value!r}")
        kwargs[key] = value
    return ModelConfig(**kwargs)


def config_hash(config):
    """Stable short hash of a config's canonical key=value rendering."""
    text = "\n".join(f"{k}={v!r}" for k, v in sorted(config_to_dict(config).items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# windowing helpers
# ---------------------------------------------------------------------------

def patchify(x, P, S):
    """Split each length-L sequence of x (..., L) into N = floor((L-P)/S) + 2 patches.

    Returns a read-only (..., N, P) array whose row j is the patch starting
    at j*S; the final patch is completed by repeating the last observed
    value. The patches are a `sliding_window_view` of the padded sequences,
    so no patch is copied.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 1 or x.shape[-1] == 0:
        raise ShapeError(f"patchify: expected nonempty (..., L) sequences, got shape {x.shape}")
    length = x.shape[-1]
    if not 1 <= P <= length:
        raise ConfigError(f"patchify: patch length {P} must lie in [1, {length}]")
    if not 1 <= S <= P:
        raise ConfigError(f"patchify: stride {S} must lie in [1, P={P}]")
    n = (length - P) // S + 2
    pad = (n - 1) * S + P - length
    extended = np.concatenate([x, np.repeat(x[..., -1:], pad, axis=-1)], axis=-1)
    return sliding_window_view(extended, P, axis=-1)[..., ::S, :]


@dataclass(frozen=True)
class InstanceStats:
    mean: np.ndarray   # (..., C, 1)
    scale: np.ndarray  # (..., C, 1)


def instance_normalize(x):
    """Per-variate standardization over the last axis of (..., C, L) windows.

    The denominator is max(std, 1e-5), so an already-standardized window
    passes through unchanged and a constant one maps to zeros.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] < 2:
        raise ShapeError(f"instance_normalize: expected (..., C, L >= 2), got shape {x.shape}")
    length = x.shape[-1]
    mean = x.sum(axis=-1, keepdims=True) / length  # bitwise equal to x.mean
    xc = x - mean
    scale = np.maximum(np.sqrt(np.square(xc).sum(axis=-1, keepdims=True) / length), 1e-5)
    return xc / scale, InstanceStats(mean=mean, scale=scale)


def instance_denormalize(x, stats):
    return np.asarray(x, dtype=np.float64) * stats.scale + stats.mean


# ---------------------------------------------------------------------------
# encoder blocks
# ---------------------------------------------------------------------------

class EncoderLayer:
    """Post-norm residual block: attention sublayer then a GELU FFN (D -> 4D -> D)."""

    def __init__(self, config, index, create_param):
        self.dropout = config.dropout
        width = config.D
        scoped = lambda leaf, spec: create_param(f"layers.{index}.{leaf}", spec)
        attn_param = lambda leaf, spec: scoped(f"attn.{leaf}", spec)
        if config.mechanism == "conventional":
            self.attn = ConventionalAttention(width, config.H, attn_param)
        else:
            kernel_size = None
            if config.mechanism == "soatten" and config.hcc_enabled:
                kernel_size = config.kernel_K
            self.attn = SpectrumAttention(
                config.mechanism, width, config.H, config.token_count, config.resolved_f,
                attn_param, mss_enabled=config.mss_enabled, kernel_size=kernel_size,
            )
        self.ln1_gamma = scoped("ln1.gamma", ("ones", (width,)))
        self.ln1_beta = scoped("ln1.beta", ("zeros", (width,)))
        self.ln2_gamma = scoped("ln2.gamma", ("ones", (width,)))
        self.ln2_beta = scoped("ln2.beta", ("zeros", (width,)))
        hidden = 4 * width
        self.ffn_w1 = scoped("ffn.w1", ("normal", 1.0 / math.sqrt(width), (width, hidden)))
        self.ffn_b1 = scoped("ffn.b1", ("zeros", (hidden,)))
        self.ffn_w2 = scoped("ffn.w2", ("normal", 1.0 / math.sqrt(hidden), (hidden, width)))
        self.ffn_b2 = scoped("ffn.b2", ("zeros", (width,)))

    def forward(self, hidden, qk_source, training, dropout_rng, capture=None):
        attn_out = self.attn.forward(hidden, qk_source, capture)
        h1 = nm.layer_norm(
            nm.add(hidden, nm.dropout(attn_out, self.dropout, dropout_rng, training)),
            self.ln1_gamma, self.ln1_beta,
        )
        ffn = nm.linear(nm.gelu(nm.linear(h1, self.ffn_w1, self.ffn_b1)), self.ffn_w2, self.ffn_b2)
        return nm.layer_norm(
            nm.add(h1, nm.dropout(ffn, self.dropout, dropout_rng, training)),
            self.ln2_gamma, self.ln2_beta,
        )


class ForecastModel:
    """A configured encoder with embedding and forecast head.

    Single-threaded per instance: the dropout stream and gradient buffers
    are stateful. Parameters are registered by name in creation order.
    """

    def __init__(self, config):
        config.validate()
        if config.C < 1:
            raise ConfigError("model construction requires a concrete variate count C >= 1")
        self.config = config
        self.params = {}
        self._dropout_rng = nm.substream(config.seed, "dropout")
        in_dim = config.qk_input_dim
        width = config.D
        self.embed_w = self._create("embed.weight", ("normal", 1.0 / math.sqrt(in_dim), (in_dim, width)))
        self.embed_b = self._create("embed.bias", ("zeros", (width,)))
        self.qk_embed = None
        if config.mechanism == "soatten":
            self.qk_embed = self._create("qk_embed.weight", ("orthogonal", in_dim, config.resolved_f))
        self.layers = [EncoderLayer(config, i, self._create) for i in range(config.layers)]
        head_in = width if config.architecture == "variate" else config.patch_count * width
        self.head_w = self._create("head.weight", ("normal", 1.0 / math.sqrt(head_in), (head_in, config.T)))
        self.head_b = self._create("head.bias", ("zeros", (config.T,)))

    def _create(self, name, spec):
        if name in self.params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        rng = nm.substream(self.config.seed, f"init/{name}")
        kind = spec[0]
        if kind == "normal":
            _, std, shape = spec
            data = rng.standard_normal(shape) * std
        elif kind == "zeros":
            data = np.zeros(spec[1])
        elif kind == "ones":
            data = np.ones(spec[1])
        elif kind == "dirac_noise":
            _, base, sigma = spec
            data = base + rng.standard_normal(base.shape) * sigma
        elif kind == "orthogonal":
            _, rows, cols = spec
            data = orthogonal_init(rows, cols, nm.derive_seed(self.config.seed, f"init/{name}"))
        else:
            raise ConfigError(f"unknown parameter init {kind!r}")
        param = nm.Parameter(data, name)
        self.params[name] = param
        return param

    def parameters(self):
        return list(self.params.values())

    def parameter_count(self):
        return sum(p.data.size for p in self.params.values())

    def forward_batch(self, x, training=False, capture=None):
        """Normalized-scale forecasts for a (B, C, L) batch of windows.

        Returns (prediction tensor (B, C, T) on the instance-normalized
        scale, InstanceStats of shape (B, C, 1) for inverting it).
        """
        cfg = self.config
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[1:] != (cfg.C, cfg.L):
            raise ShapeError(f"forward_batch: expected shape (B, {cfg.C}, {cfg.L}), got {x.shape}")
        batch = x.shape[0]
        xn, stats = instance_normalize(x)
        if cfg.architecture == "variate":
            tokens = nm.Tensor(xn)                                    # (B, C, L)
        else:
            patches = patchify(xn, cfg.P, cfg.S)                      # (B, C, N, P)
            tokens = nm.Tensor(patches.reshape(batch * cfg.C, cfg.patch_count, cfg.P))
        hidden = nm.linear(tokens, self.embed_w, self.embed_b)  # (B, C, D) or (B*C, N, D)
        qk_source = None
        if cfg.mechanism == "fsatten":
            amps = amplitude_matrix(xn.reshape(batch * cfg.C, cfg.L))
            qk_source = nm.Tensor(amps.reshape(batch, cfg.C, -1))
        elif cfg.mechanism == "soatten":
            qk_source = nm.matmul(tokens, self.qk_embed)
        for layer in self.layers:
            hidden = layer.forward(hidden, qk_source, training, self._dropout_rng, capture)
        if cfg.architecture == "temporal":
            hidden = nm.reshape(hidden, (batch, cfg.C, cfg.patch_count * cfg.D))
        pred = nm.linear(hidden, self.head_w, self.head_b)
        return pred, stats

    def _one(self, x, caller):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.config.C, self.config.L):
            raise ShapeError(
                f"{caller}: expected shape ({self.config.C}, {self.config.L}), got {x.shape}"
            )
        return x[None]

    def forward_window(self, x, training=False, capture=None):
        """Normalized-scale forecast for one (C, L) window.

        Returns (prediction tensor (C, T) on the instance-normalized scale,
        InstanceStats for inverting it).
        """
        pred, stats = self.forward_batch(self._one(x, "forward_window"), training, capture)
        cfg = self.config
        return nm.reshape(pred, (cfg.C, cfg.T)), InstanceStats(stats.mean[0], stats.scale[0])

    def predict_batch(self, x, capture=None):
        """Forecasts of a (B, C, L) batch on each window's native scale; shape (B, C, T)."""
        pred, stats = self.forward_batch(x, training=False, capture=capture)
        return instance_denormalize(pred.data, stats)

    def predict(self, x, capture=None):
        """Forecast on the window's native scale; output shape (C, T)."""
        return self.predict_batch(self._one(x, "predict"), capture=capture)[0]

    def batch_loss(self, x, y, training=False):
        """Mean squared error over a (B, C, L) -> (B, C, T) batch, normalized scale."""
        y = np.asarray(y, dtype=np.float64)
        expected = (len(x), self.config.C, self.config.T)
        if y.shape != expected:
            raise ShapeError(f"batch_loss: expected target shape {expected}, got {y.shape}")
        pred, stats = self.forward_batch(x, training=training)
        target = nm.Tensor((y - stats.mean) / stats.scale)
        diff = nm.sub(pred, target)
        return nm.mean_all(nm.mul(diff, diff))

    def window_loss(self, x, y, training=False):
        """Mean squared error on the instance-normalized scale."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.config.C, self.config.T):
            raise ShapeError(f"window_loss: expected target shape ({self.config.C}, {self.config.T}), got {y.shape}")
        return self.batch_loss(self._one(x, "window_loss"), y[None], training=training)

    def state_arrays(self):
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_state_arrays(self, state):
        if set(state) != set(self.params):
            missing = set(self.params) - set(state)
            extra = set(state) - set(self.params)
            raise FormatError(f"parameter names mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
        for name, arr in state.items():
            param = self.params[name]
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != param.data.shape:
                raise ShapeError(f"parameter {name!r}: shape {arr.shape} != {param.data.shape}")
            param.data[...] = arr  # in place: an optimizer's flat buffer keeps its views
            param.grad[...] = 0.0


def forecast(x, model, capture=None):
    """Predict T future values for a (C, L) window; output shape (C, T)."""
    return model.predict(x, capture=capture)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, model):
    """Write config + named parameter tensors; lossless at 64-bit precision."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "config": config_to_dict(model.config),
        "params": {
            name: {
                "shape": list(p.data.shape),
                "data": base64.b64encode(p.data.astype("<f8").tobytes()).decode("ascii"),
            }
            for name, p in sorted(model.params.items())
        },
    }
    with atomic_open(path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_checkpoint(path):
    """Model from a checkpoint file; FormatError or ConfigError if it is malformed."""
    source = f"checkpoint {path}"
    text = read_text(path)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{source}: invalid JSON ({exc})") from exc
    found = payload.get("format") if isinstance(payload, dict) else None
    if found != CHECKPOINT_FORMAT:
        raise FormatError(f"{source}: unknown format {found!r}")
    for key in ("config", "params"):
        if not isinstance(payload.get(key), dict):
            raise FormatError(f"{source}: {key!r} must be a JSON object, got {payload.get(key)!r:.60}")
    model = ForecastModel(config_from_dict(payload["config"], source))
    state = {name: _decode_param(source, name, entry) for name, entry in payload["params"].items()}
    model.load_state_arrays(state)
    return model


def _decode_param(source, name, entry):
    where = f"{source}: parameter {name!r}"
    shape = entry.get("shape") if isinstance(entry, dict) else None
    data = entry.get("data") if isinstance(entry, dict) else None
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise FormatError(f"{where}: 'shape' must be a list of nonnegative integers, got {shape!r:.60}")
    if not isinstance(data, str):
        raise FormatError(f"{where}: 'data' must be a base64 string, got {data!r:.60}")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError:
        raise FormatError(f"{where}: 'data' is not valid base64") from None
    if len(raw) != 8 * math.prod(shape):
        raise FormatError(f"{where}: {len(raw)} data bytes do not hold float64 shape {shape}")
    values = np.frombuffer(raw, dtype="<f8")
    finite = np.isfinite(values)
    if not finite.all():
        index = int(np.argmin(finite))  # the first non-finite value
        raise FormatError(f"{where}: value {values[index]} at flat index {index} is not finite")
    return values.reshape(shape)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class TrainReport:
    seed: int
    config_hash: str
    epochs: list          # [{"epoch", "train_mse", "val_mse"}]
    best_epoch: int
    best_val_mse: float
    test_mse: float | None
    test_mae: float | None

    def to_dict(self):
        return {
            "seed": self.seed,
            "config_hash": self.config_hash,
            "epochs": self.epochs,
            "best_epoch": self.best_epoch,
            "best_val_mse": self.best_val_mse,
            "test_mse": self.test_mse,
            "test_mae": self.test_mae,
        }


def train(model, dataset, config=None):
    """Minimize normalized-scale MSE with Adam; keep the best-validation state.

    Deterministic for a fixed (seed, config, data): shuffling, dropout, and
    initialization all draw from named substreams of the config seed. A
    non-finite minibatch loss or gradient raises FiniteInputError naming the
    epoch and batch before Adam steps, so the parameters keep their last
    finite values.
    """
    from .data import windows  # local import keeps data free of model deps

    cfg = model.config
    if config is not None and config != cfg:
        raise ConfigError("train: explicit config does not match the model's config")
    train_pairs = windows(dataset, "train", cfg.L, cfg.T)
    if not train_pairs:
        raise DataError("train: empty training split")
    train_x, train_y = _stack(train_pairs)
    val_x, val_y = _stack(windows(dataset, "val", cfg.L, cfg.T))
    shuffle_rng = nm.substream(cfg.seed, "shuffle")
    optimizer = nm.Adam(model.parameters(), cfg.lr) if cfg.lr > 0 else None

    records = []
    best_val = math.inf
    best_epoch = 0
    best_state = model.state_arrays()
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(len(train_pairs))
        total = 0.0
        for number, start in enumerate(range(0, len(order), cfg.batch_size), start=1):
            batch = order[start:start + cfg.batch_size]
            with nm.GradientTape() as tape:
                loss = model.batch_loss(train_x[batch], train_y[batch], training=True)
            value = float(loss.data)
            if not math.isfinite(value):
                raise FiniteInputError(f"train: loss is {value} at epoch {epoch}, batch {number}")
            if optimizer is not None:
                nm.backward(tape, loss)
                if not np.isfinite(optimizer.grad).all():
                    raise FiniteInputError(
                        f"train: non-finite gradient at epoch {epoch}, batch {number}"
                    )
                optimizer.step()
                optimizer.zero_grad()
            total += value * len(batch)
        train_mse = total / len(train_pairs)
        val_mse = float(model.batch_loss(val_x, val_y).data)
        records.append({"epoch": epoch, "train_mse": train_mse, "val_mse": val_mse})
        if val_mse < best_val:
            best_val = val_mse
            best_epoch = epoch
            best_state = model.state_arrays()
    model.load_state_arrays(best_state)

    test_mse = test_mae = None
    try:
        test_pairs = windows(dataset, "test", cfg.L, cfg.T)
    except DataError:
        test_pairs = []
    if test_pairs:
        test_x, test_y = _stack(test_pairs)
        err = model.predict_batch(test_x) - test_y
        test_mse = float(np.mean(err ** 2))
        test_mae = float(np.mean(np.abs(err)))
    return TrainReport(
        seed=cfg.seed,
        config_hash=config_hash(cfg),
        epochs=records,
        best_epoch=best_epoch,
        best_val_mse=best_val,
        test_mse=test_mse,
        test_mae=test_mae,
    )


def _stack(pairs):
    """Inputs (B, C, L) and targets (B, C, T) of a list of WindowPairs."""
    return np.stack([p.input for p in pairs]), np.stack([p.target for p in pairs])


def naive_repeat_forecast(x, horizon):
    """Last-value-repeat baseline: hold each variate's final observation."""
    x = np.asarray(x, dtype=np.float64)
    return np.repeat(x[:, -1:], horizon, axis=1)
