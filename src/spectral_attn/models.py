"""Forecasting models: temporal (patch tokens) and variate (series tokens)
encoders around a configurable attention mechanism, plus training.

Both architectures instance-normalize each input window, run post-norm
residual encoder blocks, and invert the normalization after the linear
forecast head. The attention Q/K source (amplitude matrix or orthogonal
embedding) is derived once per window from the normalized input and shared
by every layer; values and the FFN work on the evolving hidden state.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import numerics as nm
from .attention import MECHANISMS, ConventionalAttention, SpectrumAttention, orthogonal_init
from .errors import ConfigError, DataError, FormatError, ShapeError
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


_CONFIG_FIELDS = {f.name: f.type for f in fields(ModelConfig)}


def config_from_dict(d):
    kwargs = {}
    for key, value in d.items():
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        kwargs[key] = value
    return ModelConfig(**kwargs)


def config_hash(config):
    """Stable short hash of a config's canonical key=value rendering."""
    text = "\n".join(f"{k}={v!r}" for k, v in sorted(config_to_dict(config).items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# windowing helpers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PatchSet:
    """Patch matrix of one sequence: column j is the patch starting at j*S."""

    patches: np.ndarray  # (P, N)
    P: int
    S: int

    @property
    def count(self):
        return self.patches.shape[1]


def patchify(x, P, S):
    """Split a length-L sequence into N = floor((L-P)/S) + 2 patches.

    Patch j starts at j*S; the final patch is completed by repeating the
    last observed value.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ShapeError(f"patchify: expected a nonempty 1-D sequence, got shape {x.shape}")
    length = x.size
    if not 1 <= P <= length:
        raise ConfigError(f"patchify: patch length {P} must lie in [1, {length}]")
    if not 1 <= S <= P:
        raise ConfigError(f"patchify: stride {S} must lie in [1, P={P}]")
    n = (length - P) // S + 2
    pad = (n - 1) * S + P - length
    extended = np.concatenate([x, np.full(pad, x[-1])])
    columns = [extended[j * S:j * S + P] for j in range(n)]
    return PatchSet(patches=np.stack(columns, axis=1), P=P, S=S)


def variate_embed(x, w):
    """One D-dimensional token per variate: (C, L) @ (L, D)."""
    xt = x if isinstance(x, nm.Tensor) else nm.Tensor(x)
    wt = w if isinstance(w, nm.Tensor) else nm.Tensor(w)
    if xt.data.ndim != 2 or wt.data.ndim != 2 or xt.shape[1] != wt.shape[0]:
        raise ShapeError(f"variate_embed: incompatible shapes {xt.shape} @ {wt.shape}")
    return nm.matmul(xt, wt)


@dataclass(frozen=True)
class InstanceStats:
    mean: np.ndarray   # (C, 1)
    scale: np.ndarray  # (C, 1)


def instance_normalize(x):
    """Per-variate standardization of a (C, L) window.

    The denominator is max(std, 1e-5), so an already-standardized window
    passes through unchanged and a constant one maps to zeros.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ShapeError(f"instance_normalize: expected (C, L >= 2), got shape {x.shape}")
    mean = x.mean(axis=1, keepdims=True)
    scale = np.maximum(np.sqrt(x.var(axis=1, keepdims=True)), 1e-5)
    return (x - mean) / scale, InstanceStats(mean=mean, scale=scale)


def instance_denormalize(x, stats):
    return np.asarray(x, dtype=np.float64) * stats.scale + stats.mean


# ---------------------------------------------------------------------------
# encoder blocks
# ---------------------------------------------------------------------------

class EncoderLayer:
    """Post-norm residual block: attention sublayer then a GELU FFN (D -> 4D -> D)."""

    def __init__(self, config, index, create_param):
        self.index = index
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
        attn_out = self.attn.forward(hidden, qk_source, self.index, capture)
        h1 = nm.layer_norm(
            nm.add(hidden, nm.dropout(attn_out, self.dropout, dropout_rng, training)),
            self.ln1_gamma, self.ln1_beta,
        )
        ffn = nm.add(
            nm.matmul(nm.gelu(nm.add(nm.matmul(h1, self.ffn_w1), self.ffn_b1)), self.ffn_w2),
            self.ffn_b2,
        )
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

    def _qk_source_variate(self, xn):
        mech = self.config.mechanism
        if mech == "fsatten":
            return nm.Tensor(amplitude_matrix(xn))
        if mech == "soatten":
            return nm.matmul(nm.Tensor(xn), self.qk_embed)
        return None

    def forward_window(self, x, training=False, capture=None):
        """Normalized-scale forecast for one (C, L) window.

        Returns (prediction tensor (C, T) on the instance-normalized scale,
        InstanceStats for inverting it).
        """
        cfg = self.config
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (cfg.C, cfg.L):
            raise ShapeError(f"forward_window: expected shape ({cfg.C}, {cfg.L}), got {x.shape}")
        xn, stats = instance_normalize(x)
        if cfg.architecture == "variate":
            hidden = nm.add(variate_embed(xn, self.embed_w), self.embed_b)
            qk_source = self._qk_source_variate(xn)
            for layer in self.layers:
                hidden = layer.forward(hidden, qk_source, training, self._dropout_rng, capture)
            pred = nm.add(nm.matmul(hidden, self.head_w), self.head_b)
        else:
            rows = []
            n = cfg.patch_count
            for c in range(cfg.C):
                tokens = nm.Tensor(patchify(xn[c], cfg.P, cfg.S).patches.T)  # (N, P)
                hidden = nm.add(nm.matmul(tokens, self.embed_w), self.embed_b)
                qk_source = None
                if cfg.mechanism == "soatten":
                    qk_source = nm.matmul(tokens, self.qk_embed)
                for layer in self.layers:
                    hidden = layer.forward(hidden, qk_source, training, self._dropout_rng, capture)
                flat = nm.reshape(hidden, (1, n * cfg.D))
                rows.append(nm.add(nm.matmul(flat, self.head_w), self.head_b))
            pred = nm.concat_rows(rows)
        return pred, stats

    def predict(self, x, capture=None):
        """Forecast on the window's native scale; output shape (C, T)."""
        pred, stats = self.forward_window(x, training=False, capture=capture)
        return instance_denormalize(pred.data, stats)

    def window_loss(self, x, y, training=False):
        """Mean squared error on the instance-normalized scale."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.config.C, self.config.T):
            raise ShapeError(f"window_loss: expected target shape ({self.config.C}, {self.config.T}), got {y.shape}")
        pred, stats = self.forward_window(x, training=training)
        target = nm.Tensor((y - stats.mean) / stats.scale)
        diff = nm.sub(pred, target)
        return nm.mean_all(nm.mul(diff, diff))

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
            param.data = arr.copy()
            param.grad = np.zeros_like(param.data)


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_checkpoint(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"checkpoint {path}: invalid JSON ({exc})") from exc
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise FormatError(f"checkpoint {path}: unknown format {payload.get('format')!r}")
    model = ForecastModel(config_from_dict(payload["config"]))
    state = {}
    for name, entry in payload["params"].items():
        raw = base64.b64decode(entry["data"])
        state[name] = np.frombuffer(raw, dtype="<f8").reshape(entry["shape"])
    model.load_state_arrays(state)
    return model


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
    initialization all draw from named substreams of the config seed.
    """
    from .data import windows  # local import keeps data free of model deps

    cfg = model.config
    if config is not None and config != cfg:
        raise ConfigError("train: explicit config does not match the model's config")
    train_pairs = windows(dataset, "train", cfg.L, cfg.T)
    if not train_pairs:
        raise DataError("train: empty training split")
    val_pairs = windows(dataset, "val", cfg.L, cfg.T)
    shuffle_rng = nm.substream(cfg.seed, "shuffle")
    optimizer = nm.Adam(model.parameters(), cfg.lr) if cfg.lr > 0 else None

    records = []
    best_val = math.inf
    best_epoch = 0
    best_state = model.state_arrays()
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(len(train_pairs))
        total = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            if optimizer is None:
                losses = [
                    model.window_loss(pair.input, pair.target, training=True)
                    for pair in (train_pairs[i] for i in batch)
                ]
                batch_loss = sum(float(l.data) for l in losses) / len(batch)
            else:
                with nm.GradientTape() as tape:
                    acc = None
                    for i in batch:
                        pair = train_pairs[i]
                        loss_i = model.window_loss(pair.input, pair.target, training=True)
                        acc = loss_i if acc is None else nm.add(acc, loss_i)
                    loss = nm.scale(acc, 1.0 / len(batch))
                nm.backward(tape, loss)
                optimizer.step()
                optimizer.zero_grad()
                batch_loss = float(loss.data)
            total += batch_loss * len(batch)
        train_mse = total / len(train_pairs)
        val_mse = sum(
            float(model.window_loss(pair.input, pair.target).data) for pair in val_pairs
        ) / len(val_pairs)
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
        sq = ab = 0.0
        for pair in test_pairs:
            err = model.predict(pair.input) - pair.target
            sq += float(np.mean(err ** 2))
            ab += float(np.mean(np.abs(err)))
        test_mse = sq / len(test_pairs)
        test_mae = ab / len(test_pairs)
    return TrainReport(
        seed=cfg.seed,
        config_hash=config_hash(cfg),
        epochs=records,
        best_epoch=best_epoch,
        best_val_mse=best_val,
        test_mse=test_mse,
        test_mae=test_mae,
    )


def naive_repeat_forecast(x, horizon):
    """Last-value-repeat baseline: hold each variate's final observation."""
    x = np.asarray(x, dtype=np.float64)
    return np.repeat(x[:, -1:], horizon, axis=1)
