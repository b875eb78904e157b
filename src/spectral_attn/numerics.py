"""Dense float64 tensors, a reverse-mode tape, Adam, and singular values.

The tape records coarse primitives (matmul, softmax, conv2d, elementwise
ops, ...) in execution order. `backward` replays the records in exact
reverse order and accumulates adjoints additively into every tensor that
requires gradients, so a value used twice receives the sum of both
contributions.

Values are never mutated between a forward pass and its backward replay;
the recorded adjoint closures capture the forward arrays by reference.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy.special import erf

from .errors import ConfigError, EmptyTapeError, FiniteInputError, ShapeError

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Tensor:
    """A dense float64 array plus an adjoint buffer filled in by backward()."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A named learnable tensor whose gradient buffer always matches its value shape."""

    __slots__ = ("name",)

    def __init__(self, data, name):
        super().__init__(data, requires_grad=True)
        self.name = str(name)
        self.grad = np.zeros_like(self.data)

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


class GradientTape:
    """Ordered record of primitive ops; replaying it backwards yields adjoints.

    Use as a context manager around the forward pass, then call
    `backward(tape, loss)`. A tape is single-use.
    """

    def __init__(self):
        self._records = []  # (out, inputs, vjp) in forward execution order

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPES.pop()
        assert popped is self
        return False

    def record(self, out, inputs, vjp):
        self._records.append((out, inputs, vjp))

    def __len__(self):
        return len(self._records)


_TAPES: list[GradientTape] = []


def _active_tape():
    return _TAPES[-1] if _TAPES else None


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _emit(out_data, inputs, vjp):
    requires = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=requires)
    tape = _active_tape()
    if requires and tape is not None:
        tape.record(out, inputs, vjp)
    return out


def backward(tape, loss):
    """Replay `tape` in reverse, writing d(loss)/d(leaf) into each leaf's .grad.

    Gradients accumulate additively across uses of a tensor. Raises
    EmptyTapeError if nothing was recorded (backward without forward).
    """
    if len(tape) == 0:
        raise EmptyTapeError("backward called on an empty tape; run a forward pass first")
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {getattr(loss, 'shape', None)}")
    recorded_outputs = {id(rec[0]) for rec in tape._records}
    if id(loss) not in recorded_outputs:
        raise EmptyTapeError("loss was not produced under this tape")
    # Clear stale intermediate adjoints (leaves keep theirs and accumulate).
    for out, _, _ in tape._records:
        out.grad = None
    loss.grad = np.ones_like(loss.data)
    for out, inputs, vjp in reversed(tape._records):
        g = out.grad
        if g is None:
            continue
        for t, gt in zip(inputs, vjp(g)):
            if gt is None or not t.requires_grad:
                continue
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            t.grad += gt


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def matmul(a, b):
    """C = A @ B for 2-D matrices or stacks of matrices with equal leading dim.

    Adjoints: dA = G @ Bᵀ, dB = Aᵀ @ G (transposes on the last two axes).
    """
    a, b = _as_tensor(a), _as_tensor(b)
    ok = (
        a.data.ndim == b.data.ndim
        and a.data.ndim in (2, 3)
        and a.shape[-1] == b.shape[-2]
        and (a.data.ndim == 2 or a.shape[0] == b.shape[0])
    )
    if not ok:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    out = a.data @ b.data

    def vjp(g):
        return (g @ b.data.swapaxes(-1, -2), a.data.swapaxes(-1, -2) @ g)

    return _emit(out, (a, b), vjp)


def add(a, b):
    """Elementwise sum; also accepts a trailing-axis bias vector for b."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape == b.shape:
        def vjp(g):
            return (g, g)
    elif b.data.ndim == 1 and a.data.ndim >= 1 and a.shape[-1] == b.shape[0]:
        def vjp(g):
            return (g, g.reshape(-1, b.shape[0]).sum(axis=0))
    else:
        raise ShapeError(f"add: incompatible shapes {a.shape} + {b.shape}")
    return _emit(a.data + b.data, (a, b), vjp)


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"sub: incompatible shapes {a.shape} - {b.shape}")

    def vjp(g):
        return (g, -g)

    return _emit(a.data - b.data, (a, b), vjp)


def mul(a, b):
    """Hadamard (elementwise) product of same-shape tensors."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} * {b.shape}")

    def vjp(g):
        return (g * b.data, g * a.data)

    return _emit(a.data * b.data, (a, b), vjp)


def scale(a, factor):
    """Multiply by a python scalar (not differentiated w.r.t. the scalar)."""
    a = _as_tensor(a)
    factor = float(factor)

    def vjp(g):
        return (g * factor,)

    return _emit(a.data * factor, (a,), vjp)


def relu(a):
    a = _as_tensor(a)
    mask = a.data > 0.0

    def vjp(g):
        return (g * mask,)

    return _emit(np.maximum(a.data, 0.0), (a,), vjp)


def gelu(a):
    """Gaussian error linear unit, exact erf form: x * Phi(x)."""
    a = _as_tensor(a)
    x = a.data
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))

    def vjp(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        return (g * (cdf + x * pdf),)

    return _emit(x * cdf, (a,), vjp)


def softmax_rows(s):
    """Softmax over the last axis (each row of each stacked matrix).

    Rows are shifted by their max before exponentiation, so arbitrarily large
    finite scores cannot overflow. Non-finite input raises FiniteInputError.
    """
    s = _as_tensor(s)
    if s.data.ndim < 2:
        raise ShapeError(f"softmax_rows: need at least 2 dims, got shape {s.shape}")
    if not np.isfinite(s.data).all():
        raise FiniteInputError("softmax_rows: input must be finite (no NaN/Inf)")
    z = s.data - s.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    return _emit(y, (s,), vjp)


def layer_norm(x, gamma, beta, eps=1e-5):
    """Per-row normalization of a 2-D tensor with learnable affine terms."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm: expected 2-D input, got shape {x.shape}")
    d = x.shape[1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm: affine shapes {gamma.shape}/{beta.shape} do not match width {d}"
        )
    mu = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = xhat * gamma.data + beta.data

    def vjp(g):
        dbeta = g.sum(axis=0)
        dgamma = (g * xhat).sum(axis=0)
        dxhat = g * gamma.data
        dx = inv * (
            dxhat
            - dxhat.mean(axis=1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
        )
        return (dx, dgamma, dbeta)

    return _emit(out, (x, gamma, beta), vjp)


def conv2d(x, kernel):
    """Same-size 2-D convolution with channel mixing, stride 1, zero padding.

    x: (C_in, N, M); kernel: (C_out, C_in, K, K) with K odd so symmetric
    padding of (K-1)/2 preserves the N x M plane.
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    if x.data.ndim != 3 or kernel.data.ndim != 4:
        raise ShapeError(f"conv2d: expected 3-D input and 4-D kernel, got {x.shape} / {kernel.shape}")
    c_out, c_in, kh, kw = kernel.shape
    if kh != kw:
        raise ShapeError(f"conv2d: kernel must be square, got {kernel.shape}")
    if kh % 2 == 0:
        raise ConfigError(f"conv2d: kernel size must be odd to preserve size, got {kh}")
    if c_in != x.shape[0]:
        raise ShapeError(f"conv2d: channel mismatch, input {x.shape} vs kernel {kernel.shape}")
    _, n, m = x.shape
    pad = (kh - 1) // 2
    xp = np.pad(x.data, ((0, 0), (pad, pad), (pad, pad)))
    kdat = kernel.data
    out = np.zeros((c_out, n, m))
    for a in range(kh):
        for b in range(kw):
            out += np.einsum("oc,cnm->onm", kdat[:, :, a, b], xp[:, a:a + n, b:b + m])

    def vjp(g):
        dxp = np.zeros_like(xp)
        dk = np.zeros_like(kdat)
        for a in range(kh):
            for b in range(kw):
                dxp[:, a:a + n, b:b + m] += np.einsum("oc,onm->cnm", kdat[:, :, a, b], g)
                dk[:, :, a, b] = np.einsum("onm,cnm->oc", g, xp[:, a:a + n, b:b + m])
        dx = dxp[:, pad:pad + n, pad:pad + m]
        return (dx, dk)

    return _emit(out, (x, kernel), vjp)


def transpose(a, axes=None):
    a = _as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.data.ndim)))
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def vjp(g):
        return (g.transpose(inverse),)

    return _emit(a.data.transpose(axes), (a,), vjp)


def reshape(a, shape):
    a = _as_tensor(a)
    in_shape = a.data.shape

    def vjp(g):
        return (g.reshape(in_shape),)

    return _emit(a.data.reshape(shape), (a,), vjp)


def plane(a, index):
    """Select one slab along axis 0 (e.g. a single head's matrix)."""
    a = _as_tensor(a)
    if a.data.ndim < 2:
        raise ShapeError(f"plane: need at least 2 dims, got shape {a.shape}")
    if not 0 <= index < a.shape[0]:
        raise ShapeError(f"plane: index {index} out of range for shape {a.shape}")

    def vjp(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return (full,)

    return _emit(a.data[index].copy(), (a,), vjp)


def tile_planes(a, count):
    """Broadcast a 2-D tensor to (count, *a.shape); adjoint sums over copies."""
    a = _as_tensor(a)
    if a.data.ndim != 2 or count < 1:
        raise ShapeError(f"tile_planes: expected 2-D input and count >= 1, got {a.shape} / {count}")
    out = np.broadcast_to(a.data, (count,) + a.data.shape).copy()

    def vjp(g):
        return (g.sum(axis=0),)

    return _emit(out, (a,), vjp)


def concat_rows(parts):
    """Stack 2-D tensors with equal widths along axis 0."""
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat_rows: empty input")
    width = parts[0].shape[-1]
    for p in parts:
        if p.data.ndim != 2 or p.shape[-1] != width:
            raise ShapeError(f"concat_rows: incompatible part shape {p.shape}")
    out = np.concatenate([p.data for p in parts], axis=0)
    sizes = [p.shape[0] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return _emit(out, tuple(parts), vjp)


def sum_all(a):
    a = _as_tensor(a)

    def vjp(g):
        return (np.full_like(a.data, float(g)),)

    return _emit(np.asarray(a.data.sum()), (a,), vjp)


def mean_all(a):
    a = _as_tensor(a)
    n = a.data.size

    def vjp(g):
        return (np.full_like(a.data, float(g) / n),)

    return _emit(np.asarray(a.data.mean()), (a,), vjp)


def dropout(a, p, rng, training):
    """Inverted dropout; identity when not training or p == 0."""
    a = _as_tensor(a)
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout: probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return a
    mask = (rng.random(a.data.shape) >= p) / (1.0 - p)

    def vjp(g):
        return (g * mask,)

    return _emit(a.data * mask, (a,), vjp)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class Adam:
    """Adam with bias correction; first/second moments persisted per parameter."""

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8):
        if lr <= 0:
            raise ConfigError(f"Adam: learning rate must be positive, got {lr}")
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ConfigError(f"Adam: betas must lie in [0, 1), got {betas}")
        if eps <= 0:
            raise ConfigError(f"Adam: eps must be positive, got {eps}")
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(b1)
        self.beta2 = float(b2)
        self.eps = float(eps)
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def zero_grad(self):
        for p in self.params:
            p.grad[...] = 0.0


# ---------------------------------------------------------------------------
# singular values
# ---------------------------------------------------------------------------

def svd_singular_values(a):
    """Singular values of a real nonempty finite matrix, nonincreasing (LAPACK)."""
    A = np.asarray(a, dtype=np.float64)
    if A.ndim != 2 or A.size == 0:
        raise ShapeError(f"svd_singular_values: expected a nonempty matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise FiniteInputError("svd_singular_values: matrix must be finite")
    return np.linalg.svd(A, compute_uv=False)


# ---------------------------------------------------------------------------
# deterministic named RNG substreams
# ---------------------------------------------------------------------------

def substream(seed, name):
    """A numpy Generator deterministically derived from (seed, name).

    Distinct names yield independent streams, so adding or removing one
    consumer never shifts the draws seen by another.
    """
    seed = int(seed)
    if seed < 0:
        raise ConfigError(f"substream: seed must be nonnegative, got {seed}")
    key = int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([seed, key]))


def derive_seed(seed, name):
    """A stable 63-bit integer seed derived from (seed, name)."""
    payload = f"{int(seed)}/{name}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little") >> 1
