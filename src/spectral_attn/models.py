"""Forecasting models: temporal (patch tokens) and variate (series tokens)
encoders around a configurable attention mechanism, plus training and
evaluation: `train` keeps the MetricsReport of one forecast of its test split.

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
import contextlib
import hashlib
import json
import math
import operator
import os
import resource
import typing
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import numerics as nm
from .artifacts import read_text, write_json
from .attention import MECHANISMS, ConventionalAttention, SpectrumAttention, dirac_kernel, orthogonal_init
from .data import window_arrays
from .errors import ConfigError, DataError, FiniteInputError, FormatError, ShapeError
from .spectral import amplitude_matrix

ARCHITECTURES = ("temporal", "variate")

CHECKPOINT_FORMAT = "spectral-attn-checkpoint/1"


@dataclass(frozen=True)
class ModelConfig:
    """Every architectural and training hyperparameter of one model, checked when made: a bool
    only for a bool field, otherwise what `_FIELD_ACCEPTS` lists for the field's type, stored as
    that builtin type so `config_hash` and checkpoints ignore the spelling; then `validate`."""

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

    def __post_init__(self):
        for name, kind in CONFIG_TYPES.items():
            value, typed = getattr(self, name), None
            if (kind is bool) if isinstance(value, bool) else isinstance(value, _FIELD_ACCEPTS[kind]):
                with contextlib.suppress(OverflowError):   # an int beyond float range
                    typed = kind(value)
            if typed is None:
                raise ConfigError(f"{name} must be {kind.__name__}, got {value!r:.60}")
            object.__setattr__(self, name, typed)
        self.validate()

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
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"learning rate must be finite and > 0, got {self.lr}")
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


CONFIG_TYPES = typing.get_type_hints(ModelConfig)  # field name -> str, int, float or bool
_FIELD_ACCEPTS = {str: str, bool: np.bool_, int: (int, np.integer), float: (int, np.integer, float, np.floating)}


def config_from_dict(d, source="config"):
    """ModelConfig from a dict such as decoded JSON; each ConfigError names `source`."""
    if unknown := [key for key in d if key not in CONFIG_TYPES]:
        raise ConfigError(f"{source}: unknown config key {unknown[0]!r}")
    try:
        return ModelConfig(**d)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def config_hash(config):
    """Stable short hash of a config's canonical key=value rendering."""
    text = "\n".join(f"{k}={v!r}" for k, v in sorted(asdict(config).items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# windowing helpers
# ---------------------------------------------------------------------------

def patchify(x, P, S):
    """Split each length-L sequence of x (..., L) into N = floor((L-P)/S) + 2 patches.

    Returns a read-only (..., N, P) array whose row j is the patch starting
    at j*S; the final patch is completed by repeating the last observed
    value. The patches are a strided view of the padded sequences,
    so no patch is copied.
    """
    x = nm.real_array(x, "patchify")
    if x.ndim < 1 or x.shape[-1] == 0:
        raise ShapeError(f"patchify: expected nonempty (..., L) sequences, got shape {x.shape}")
    length = x.shape[-1]
    try:
        P, S = operator.index(P), operator.index(S)
    except TypeError:
        raise ConfigError(f"patchify: patch length and stride must be integers, got P={P!r}, S={S!r}") from None
    if not 1 <= P <= length:
        raise ConfigError(f"patchify: patch length {P} must lie in [1, {length}]")
    if not 1 <= S <= P:
        raise ConfigError(f"patchify: stride {S} must lie in [1, P={P}]")
    n = (length - P) // S + 2
    pad = (n - 1) * S + P - length
    extended = np.concatenate([x, np.repeat(x[..., -1:], pad, axis=-1)], axis=-1)
    *lead, step = extended.strides
    return as_strided(extended, extended.shape[:-1] + (n, P), (*lead, S * step, step),
                      writeable=False)


@dataclass(frozen=True)
class InstanceStats:
    mean: np.ndarray   # (..., C, 1)
    scale: np.ndarray  # (..., C, 1)


def instance_normalize(x):
    """Per-variate standardization over the last axis of (..., C, L) windows.

    The denominator is max(std, 1e-5), so an already-standardized window
    passes through unchanged and a constant one maps to zeros. A window
    whose scale is not finite (values near the float64 limit, or not
    finite themselves) raises FiniteInputError.
    """
    x = nm.real_array(x, "instance_normalize")
    if x.ndim < 2 or x.shape[-1] < 2:
        raise ShapeError(f"instance_normalize: expected (..., C, L >= 2), got shape {x.shape}")
    length = x.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite scale raises below
        mean = np.add.reduce(x, axis=-1, keepdims=True) / length  # bitwise equal to x.mean
        xc = x - mean
        scale = np.add.reduce(np.square(xc), axis=-1, keepdims=True) / length
    scale = np.maximum(np.sqrt(scale, out=scale), 1e-5, out=scale)
    nm.finite(scale, "instance_normalize: a window's standard deviation is not finite; "
                     "its values are not finite or overflow float64 when squared")
    xc /= scale
    return xc, InstanceStats(mean=mean, scale=scale)


def instance_denormalize(x, stats):
    """x * scale + mean for (..., C, T) forecasts on the normalized scale of `stats`, refused unless finite."""
    x = nm.real_array(x, "instance_denormalize", stats.scale.shape[:-1] + ("T",))
    with np.errstate(all="ignore"):
        return nm.finite(x * stats.scale + stats.mean, "instance_denormalize: a forecast is not finite")


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
            hcc_on = config.mechanism == "soatten" and config.hcc_enabled
            self.attn = SpectrumAttention(
                width, config.H, config.token_count, config.resolved_f, attn_param,
                mss_enabled=config.mss_enabled, kernel_size=config.kernel_K if hcc_on else None,
            )
        self.ln1_gamma = scoped("ln1.gamma", ("ones", (width,)))
        self.ln1_beta = scoped("ln1.beta", ("zeros", (width,)))
        self.ln2_gamma = scoped("ln2.gamma", ("ones", (width,)))
        self.ln2_beta = scoped("ln2.beta", ("zeros", (width,)))
        hidden = 4 * width
        self.ffn_w1 = scoped("ffn.w1", ("normal", (width, hidden), 1.0 / math.sqrt(width)))
        self.ffn_b1 = scoped("ffn.b1", ("zeros", (hidden,)))
        self.ffn_w2 = scoped("ffn.w2", ("normal", (hidden, width), 1.0 / math.sqrt(hidden)))
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
    Only "normal", "dirac_noise" and "orthogonal" initial values draw, each
    from its own named seed; given `_state` (a checkpoint's arrays), none draws.
    """

    def __init__(self, config, *, _state=None):
        if config.C < 1:
            raise ConfigError("model construction requires a concrete variate count C >= 1")
        self.config = config
        self.params = {}
        self._state = _state
        self._dropout_rng = nm.substream(config.seed, "dropout")
        in_dim = config.qk_input_dim
        width = config.D
        self.embed_w = self._create("embed.weight", ("normal", (in_dim, width), 1.0 / math.sqrt(in_dim)))
        self.embed_b = self._create("embed.bias", ("zeros", (width,)))
        self.qk_embed = None
        if config.mechanism == "soatten":
            self.qk_embed = self._create("qk_embed.weight", ("orthogonal", (in_dim, config.resolved_f)))
        self.layers = [EncoderLayer(config, 0, self._create)]
        layer_size = sum(p.data.size for name, p in self.params.items() if name.startswith("layers.0."))
        nbytes = 8 * layer_size * config.layers
        # Adam's flat buffer must be indexable (as in _create), and the values,
        # gradients and Adam's two moments, four copies, must fit in memory.
        if self._state is None and (nbytes > np.iinfo(np.intp).max or 4 * nbytes > _memory_limit()):
            raise MemoryError(f"{config.layers} layers of {layer_size} parameters each are too large for memory")
        self.layers += [EncoderLayer(config, i, self._create) for i in range(1, config.layers)]
        head_in = width if config.architecture == "variate" else config.patch_count * width
        self.head_w = self._create("head.weight", ("normal", (head_in, config.T), 1.0 / math.sqrt(head_in)))
        self.head_b = self._create("head.bias", ("zeros", (config.T,)))
        if _state:
            raise FormatError(f"unexpected parameters {sorted(_state)}")

    def _create(self, name, spec):
        """Register parameter `name` as `spec` = (kind, shape[, scale]) says, or as its
        array in `_state`, checked before anything is allocated. Only "normal" and
        "dirac_noise" open the `init/<name>` substream; "orthogonal" derives a seed.
        """
        if name in self.params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        kind, shape, *scale = spec
        draw = lambda: nm.substream(self.config.seed, f"init/{name}").standard_normal(shape) * scale[0]
        if self._state is not None:
            data = self._state.pop(name, None)
            if data is None:
                raise FormatError(f"parameter {name!r} is missing")
            if data.shape != shape:
                raise ShapeError(f"parameter {name!r}: shape {data.shape}, expected {shape}")
        elif 8 * math.prod(shape) > np.iinfo(np.intp).max:   # more bytes than NumPy can index
            raise MemoryError(f"parameter {name!r} of shape {shape} is too large for memory")
        elif kind == "normal":
            data = draw()
        elif kind == "zeros":
            data = np.zeros(shape)
        elif kind == "ones":
            data = np.ones(shape)
        elif kind == "dirac_noise":
            data = dirac_kernel(shape[0], shape[2]) + draw()
        elif kind == "orthogonal":
            data = orthogonal_init(*shape, nm.derive_seed(self.config.seed, f"init/{name}"))
        else:
            raise ConfigError(f"unknown parameter init {kind!r}")
        param = nm.Parameter(data, name)
        self.params[name] = param
        return param

    def parameters(self):
        return list(self.params.values())

    def forward_batch(self, x, training=False, capture=None):
        """Normalized-scale forecasts for a (B, C, L) batch of windows.

        Returns (prediction tensor (B, C, T) on the instance-normalized
        scale, InstanceStats of shape (B, C, 1) for inverting it).
        """
        cfg = self.config
        x = self._batch(x, "forward_batch")
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
            qk_source = nm.Tensor(amps.reshape(batch, cfg.C, cfg.L // 2 + 1))
        elif cfg.mechanism == "soatten":
            qk_source = nm.linear(tokens, self.qk_embed)
        for layer in self.layers:
            hidden = layer.forward(hidden, qk_source, training, self._dropout_rng, capture)
        if cfg.architecture == "temporal":
            hidden = nm.reshape(hidden, (batch, cfg.C, cfg.patch_count * cfg.D))
        pred = nm.linear(hidden, self.head_w, self.head_b)
        return pred, stats

    def _batch(self, x, caller):
        return nm.real_array(x, caller, ("B", self.config.C, self.config.L))

    def _one(self, x, caller):
        return nm.real_array(x, caller, (self.config.C, self.config.L))[None]

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
        pred, stats = self.forward_batch(self._batch(x, "predict_batch"), training=False, capture=capture)
        return instance_denormalize(pred.data, stats)

    def predict(self, x, capture=None):
        """Forecast on the window's native scale; output shape (C, T)."""
        return self.predict_batch(self._one(x, "predict"), capture=capture)[0]

    def batch_loss(self, x, y, training=False):
        """Mean squared error over a (B, C, L) -> (B, C, T) batch, normalized scale.

        DataError if the batch holds no window: its mean is undefined.
        """
        x = self._batch(x, "batch_loss")
        y = nm.real_array(y, "batch_loss", (len(x), self.config.C, self.config.T))
        if not len(y):
            raise DataError("batch_loss: no windows")
        pred, stats = self.forward_batch(x, training=training)
        with np.errstate(all="ignore"):   # so the loss cannot overflow on the targets' side
            target = (y - stats.mean) / stats.scale
            nm.finite(np.mean(target * target), "batch_loss: a normalized target is not finite when squared")
        diff = nm.sub(pred, nm.Tensor(target))
        return nm.mean_all(nm.mul(diff, diff))

    def window_loss(self, x, y, training=False):
        """Mean squared error on the instance-normalized scale."""
        y = nm.real_array(y, "window_loss", (self.config.C, self.config.T))
        return self.batch_loss(self._one(x, "window_loss"), y[None], training=training)


def _memory_limit():
    """Bytes this process may use: physical memory, or its address-space limit if lower."""
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    return physical if soft == resource.RLIM_INFINITY else min(physical, soft)


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
        "config": asdict(model.config),
        "params": {
            name: {
                "shape": list(p.data.shape),
                "data": base64.b64encode(p.data.astype("<f8").tobytes()).decode("ascii"),
            }
            for name, p in sorted(model.params.items())
        },
    }
    write_json(path, payload)


def load_checkpoint(path):
    """Model from a checkpoint file; FormatError or ConfigError if it is malformed.

    Each parameter is the file's array, so a config that disagrees with them
    fails before it allocates; only the dropout stream is opened.
    """
    source = f"checkpoint {path}"
    text = read_text(path)
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:   # JSONDecodeError, or a too-long int or too-deep nest
        raise FormatError(f"{source}: invalid JSON ({exc})") from exc
    found = payload.get("format") if isinstance(payload, dict) else None
    if found != CHECKPOINT_FORMAT:
        raise FormatError(f"{source}: unknown format {found!r}")
    for key in ("config", "params"):
        if not isinstance(payload.get(key), dict):
            raise FormatError(f"{source}: {key!r} must be a JSON object, got {payload.get(key)!r:.60}")
    config = config_from_dict(payload["config"], source)
    state = {name: _decode_param(source, name, entry) for name, entry in payload["params"].items()}
    try:
        return ForecastModel(config, _state=state)
    except (ConfigError, FormatError, ShapeError) as exc:
        raise type(exc)(f"{source}: {exc}") from None


def _decode_param(source, name, entry):
    where = f"{source}: parameter {name!r}"
    shape, data = (entry.get("shape"), entry.get("data")) if isinstance(entry, dict) else (None, None)
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
    values = np.frombuffer(bytearray(raw), dtype="<f8")  # writable, unshared
    finite = np.isfinite(values)
    if not finite.all():
        index = int(np.argmin(finite))  # the first non-finite value
        raise FormatError(f"{where}: value {values[index]} at flat index {index} is not finite")
    return values.reshape(shape)


# ---------------------------------------------------------------------------
# evaluation and training
# ---------------------------------------------------------------------------

def _error(pred, target, caller):
    """pred - target (real arrays, target at pred's shape), refused unless its squares have a finite mean."""
    pred = nm.real_array(pred, caller)
    with np.errstate(all="ignore"):
        err = pred - nm.real_array(target, caller, pred.shape)
        if not (err.size and math.isfinite(np.mean(err * err))):
            raise FiniteInputError(f"{caller}: the mean squared error of {err.size} values is not finite")
    return err


def mse(pred, target):
    """Mean squared error over all entries."""
    return float(np.mean(_error(pred, target, "mse") ** 2))


def mae(pred, target):
    """Mean absolute error over all entries."""
    return float(np.mean(np.abs(_error(pred, target, "mae"))))


@dataclass(frozen=True)
class MetricsReport:
    mse: float
    mae: float
    per_horizon: tuple   # ((t, mse, mae), ...) for t = 1..T
    config_hash: str
    seed: int

    def to_dict(self):
        per_horizon = [{"t": t, "mse": m, "mae": a} for t, m, a in self.per_horizon]
        return {**asdict(self), "per_horizon": per_horizon}


# A forecast of many windows runs in chunks of about this many bytes of its
# largest forward arrays, so a split of any length takes one chunk's memory.
# A chunk is never smaller than a minibatch, whose training step holds more.
_FORECAST_CHUNK_BYTES = 16 << 20


def _chunk_windows(cfg):
    """Windows per forecast chunk; it depends on the config alone.

    A window's widest forward arrays are its FFN hidden state (tokens x 4D)
    and its attention weights (tokens x H x row): tokens = row = C for the
    variate architecture, tokens = C*N and row = N for the temporal one.
    """
    row = cfg.C if cfg.architecture == "variate" else cfg.patch_count
    tokens = cfg.C if cfg.architecture == "variate" else cfg.C * row
    return max(cfg.batch_size, _FORECAST_CHUNK_BYTES // (8 * tokens * max(4 * cfg.D, cfg.H * row)))


def _chunked(model, error, inputs, targets):
    """`error(model, x, y)` over consecutive chunks of the windows, concatenated:
    the (n, C, T) array that one call on all windows returns, bit for bit."""
    step = _chunk_windows(model.config)
    return np.concatenate([error(model, inputs[i:i + step], targets[i:i + step])
                           for i in range(0, len(inputs), step)])


def _normalized_error(model, x, y):
    """Forecast minus target on the instance-normalized scale, as `batch_loss` forms it."""
    pred, stats = model.forward_batch(x)
    return pred.data - (y - stats.mean) / stats.scale


def evaluate_windows(model, inputs, targets):
    """Native-scale MSE/MAE, overall and per horizon step, of one forecast of `inputs` vs `targets`.

    The windows are forecast in chunks (`_chunk_windows`); the metrics reduce
    the concatenated errors once. DataError if there are no windows.
    """
    cfg = model.config
    inputs = nm.real_array(inputs, "evaluate_windows", ("B", cfg.C, cfg.L))
    targets = nm.real_array(targets, "evaluate_windows", (len(inputs), cfg.C, cfg.T))
    if len(inputs) == 0:
        raise DataError("evaluate_windows: no windows to forecast")
    err = _error(_chunked(model, lambda m, x, _: m.predict_batch(x), inputs, targets), targets, "evaluate_windows")
    squared, absolute = err ** 2, np.abs(err)
    # Each step reduces one contiguous (n, C) block: bit for bit mse(preds[:, :, t], targets[:, :, t]).
    by_step = lambda a: np.ascontiguousarray(np.moveaxis(a, -1, 0)).mean(axis=(1, 2)).tolist()
    return MetricsReport(
        mse=float(np.mean(squared)),
        mae=float(np.mean(absolute)),
        per_horizon=tuple(zip(range(1, cfg.T + 1), by_step(squared), by_step(absolute))),
        config_hash=config_hash(cfg),
        seed=cfg.seed,
    )


def evaluate_on_split(model, dataset, which="test"):
    """MetricsReport for one split: `evaluate_windows` on all of its windows."""
    cfg = model.config
    return evaluate_windows(model, *window_arrays(dataset, which, cfg.L, cfg.T))


@dataclass
class TrainReport:
    seed: int
    config_hash: str
    epochs: list          # [{"epoch", "train_mse", "val_mse"}]
    best_epoch: int
    best_val_mse: float
    test_metrics: MetricsReport | None   # of the retained state; None without a test window
    test_mse = property(lambda self: getattr(self.test_metrics, "mse", None))
    test_mae = property(lambda self: getattr(self.test_metrics, "mae", None))

    def to_dict(self):
        out = asdict(self)
        del out["test_metrics"]
        return {**out, "test_mse": self.test_mse, "test_mae": self.test_mae}


def train(model, dataset):
    """Minimize normalized-scale MSE with Adam; keep the best-validation state.

    Deterministic for a fixed (seed, config, data): shuffling, dropout, and
    initialization all draw from named substreams of the config seed. A
    non-finite minibatch loss or gradient raises FiniteInputError naming the
    epoch and batch before Adam steps, so the parameters keep their last
    finite values.
    """
    cfg = model.config
    train_x, train_y = window_arrays(dataset, "train", cfg.L, cfg.T)
    val_x, val_y = window_arrays(dataset, "val", cfg.L, cfg.T)
    shuffle_rng = nm.substream(cfg.seed, "shuffle")
    optimizer = nm.Adam(model.parameters(), cfg.lr)

    records = []
    best_val = math.inf
    best_epoch = 0
    best = optimizer.data.copy()   # every parameter's values: views of this one buffer
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(len(train_x))
        total = 0.0
        for number, start in enumerate(range(0, len(order), cfg.batch_size), start=1):
            batch = order[start:start + cfg.batch_size]
            with nm.GradientTape() as tape:
                loss = model.batch_loss(train_x[batch], train_y[batch], training=True)
            value = float(loss.data)
            nm.finite(value, f"train: loss is {value} at epoch {epoch}, batch {number}")
            nm.backward(tape, loss)
            nm.finite(optimizer.grad, f"train: non-finite gradient at epoch {epoch}, batch {number}")
            optimizer.step()
            optimizer.zero_grad()
            total += value * len(batch)
        train_mse = total / len(train_x)
        val_err = _chunked(model, _normalized_error, val_x, val_y)
        val_mse = float(np.mean(val_err * val_err))   # as batch_loss reduces one batch
        records.append({"epoch": epoch, "train_mse": train_mse, "val_mse": val_mse})
        if val_mse < best_val:
            best_val = val_mse
            best_epoch = epoch
            best = optimizer.data.copy()
    optimizer.data[...] = best

    try:
        test_metrics = evaluate_on_split(model, dataset, "test")
    except DataError:   # the test split holds no window
        test_metrics = None
    return TrainReport(
        seed=cfg.seed,
        config_hash=config_hash(cfg),
        epochs=records,
        best_epoch=best_epoch,
        best_val_mse=best_val,
        test_metrics=test_metrics,
    )


def naive_repeat_forecast(x, horizon):
    """Last-value-repeat baseline for one (C, L) window: each variate's final observation, (C, horizon)."""
    x = nm.real_array(x, "naive_repeat_forecast", ("C", "L"))
    return np.repeat(x[:, -1:], horizon, axis=1)
