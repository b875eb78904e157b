"""Attention mechanisms: conventional multi-head, frequency-spectrum (fsatten),
scaled-orthogonal (soatten), head-coupling convolution, orthogonal init.

The mechanisms differ only in how they build the softmax weights from Q and
K; `_SharedAttention._attend` runs every step after them: head-coupling
convolution, the value projection and product, the capture and the output
projection.

Heads are carried as stacked (..., H, N, d) tensors: any leading axes (the
windows of a minibatch, or windows times variates) ride along in every op.
Pre-convolution attention weights are row-stochastic; after head-coupling
convolution only nonnegativity is guaranteed (no renormalization is
applied).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ConfigError, ShapeError

MECHANISMS = ("conventional", "fsatten", "soatten")


@dataclass(frozen=True)
class AttentionTensor:
    """Read-only (..., H, N, N) attention weights of one encoder layer."""

    weights: np.ndarray


@dataclass(frozen=True)
class LayerAttention:
    """Attention of one encoder layer pass, for the whole batch at once.

    `pre_hcc` is the row-stochastic softmax output; `final` is what actually
    multiplies the values (the same object as `pre_hcc` unless a head-coupling
    convolution was applied). Each holds the forward's own weight stack,
    marked read-only: (B, H, C, C) for the variate architecture and
    (B*C, H, N, N), variates innermost, for the temporal one.
    """

    pre_hcc: AttentionTensor
    final: AttentionTensor


def orthogonal_init(in_dim, out_dim, seed):
    """Deterministic orthogonal matrix of shape (in_dim, out_dim).

    Columns are orthonormal when in_dim >= out_dim, rows otherwise; built by
    QR of a seeded standard-normal draw with sign correction so the result
    is unique for a given seed.
    """
    if in_dim < 1 or out_dim < 1:
        raise ShapeError(f"orthogonal_init: dimensions must be positive, got {in_dim}x{out_dim}")
    rng = np.random.default_rng(int(seed))
    transpose = in_dim < out_dim
    rows, cols = (out_dim, in_dim) if transpose else (in_dim, out_dim)
    gauss = rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(r))
    return q.T.copy() if transpose else q


def hcc(weights, kernel):
    """Head-coupling convolution: H->H conv over the N x N plane, then ReLU.

    weights: (..., H, N, N); kernel: (H, H, K, K).

    Stride 1, zero padding (K-1)/2 keeps the weight matrix size; K must be
    odd. Output is nonnegative but rows are not renormalized.
    """
    w = weights if isinstance(weights, nm.Tensor) else nm.Tensor(weights)
    k = kernel if isinstance(kernel, nm.Tensor) else nm.Tensor(kernel)
    if k.data.ndim != 4 or k.shape[0] != k.shape[1]:
        raise ShapeError(f"hcc: kernel must be (H, H, K, K), got shape {k.shape}")
    if k.shape[2] != k.shape[3] or k.shape[2] % 2 == 0:
        raise ConfigError(f"hcc: kernel size must be odd and square, got {k.shape[2]}x{k.shape[3]}")
    if w.data.ndim < 3 or w.shape[-3] != k.shape[1]:
        raise ShapeError(f"hcc: weights {w.shape} do not match kernel {k.shape}")
    return nm.relu(nm.conv2d(w, k))


def dirac_kernel(heads, size):
    """Identity kernel for hcc: each head passes through unchanged."""
    if size % 2 == 0:
        raise ConfigError(f"dirac_kernel: size must be odd, got {size}")
    k = np.zeros((heads, heads, size, size))
    k[range(heads), range(heads), size // 2, size // 2] = 1.0
    return k


class _SharedAttention:
    """The attention step every mechanism shares, from the weights on.

    A subclass creates its Q/K parameters before calling `__init__` (which adds
    wv, bv, wo, bo), and its `forward` builds the (..., H, N, N) softmax
    weights and returns `self._attend(weights, hidden, capture)`.
    """

    kernel = None   # head-coupling kernel (H, H, K, K), or None for plain softmax

    def __init__(self, width, heads, make_param):
        if width % heads != 0:
            raise ConfigError(f"attention width {width} not divisible by {heads} heads")
        self.heads = heads
        std = 1.0 / math.sqrt(width)
        self.wv = make_param("wv", ("normal", (width, width), std))
        self.bv = make_param("bv", ("zeros", (width,)))
        self.wo = make_param("wo", ("normal", (width, width), std))
        self.bo = make_param("bo", ("zeros", (width,)))

    def _attend(self, weights, hidden, capture):
        """Output of the layer: the weights, coupled by `hcc` if the layer has
        a kernel, times the values, then the output projection. Appends the
        read-only weight stacks to `capture` if given."""
        effective = hcc(weights, self.kernel) if self.kernel is not None else weights
        v = nm.split_heads(nm.linear(hidden, self.wv, self.bv), self.heads)
        out = nm.matmul(effective, v)
        if capture is not None:
            for t in (weights, effective):
                t.data.setflags(write=False)
            pre = AttentionTensor(weights.data)
            final = pre if effective is weights else AttentionTensor(effective.data)
            capture.append(LayerAttention(pre_hcc=pre, final=final))
        return nm.linear(nm.merge_heads(out), self.wo, self.bo)


class ConventionalAttention(_SharedAttention):
    """Multi-head self-attention with Q/K linear in the hidden state (scale sqrt(D/H))."""

    def __init__(self, width, heads, make_param):
        std = 1.0 / math.sqrt(width)
        self.wq = make_param("wq", ("normal", (width, width), std))
        self.bq = make_param("bq", ("zeros", (width,)))
        self.wk = make_param("wk", ("normal", (width, width), std))
        self.bk = make_param("bk", ("zeros", (width,)))
        super().__init__(width, heads, make_param)
        self.head_dim = width // heads

    def forward(self, hidden, qk_source, capture=None):
        q = nm.split_heads(nm.linear(hidden, self.wq, self.bq), self.heads)
        k = nm.split_heads(nm.linear(hidden, self.wk, self.bk), self.heads)
        return self._attend(nm.attention_weights(q, k, 1.0 / math.sqrt(self.head_dim)), hidden, capture)


class SpectrumAttention(_SharedAttention):
    """Q/K from a shared (..., tokens, F) source via per-head spectrum scaling.

    Covers both the frequency-spectrum mechanism (source = amplitude matrix)
    and the scaled-orthogonal mechanism (source = orthogonally-initialized
    embedding, optionally with head-coupling convolution on the weights).
    Q and K are the source times (H, tokens, F) MSS scales, fused with the
    softmax into one `nm.mss_attention_weights` record, or, with
    `mss_enabled` off, the source (given a head axis of size 1) times
    (H, F, F) dense maps (`nm.matmul`, the linear ablation arm); scores are
    scaled by sqrt(F).
    """

    def __init__(self, width, heads, tokens, bin_count, make_param,
                 mss_enabled=True, kernel_size=None):
        self.tokens = tokens
        self.bin_count = bin_count
        if mss_enabled:
            # All-ones start: untrained scores are raw source correlation.
            self.q_map = make_param("mss_q", ("ones", (heads, tokens, bin_count)))
            self.k_map = make_param("mss_k", ("ones", (heads, tokens, bin_count)))
        else:
            dense = ("normal", (heads, bin_count, bin_count), 1.0 / math.sqrt(bin_count))
            self.q_map = make_param("lin_q", dense)
            self.k_map = make_param("lin_k", dense)
        self.mss_enabled = mss_enabled
        super().__init__(width, heads, make_param)
        if kernel_size is not None:
            # identity coupling (`dirac_kernel`) plus noise of std 0.01
            self.kernel = make_param("hcc_kernel", ("dirac_noise", (heads, heads, kernel_size, kernel_size), 0.01))

    def forward(self, hidden, qk_source, capture=None):
        if qk_source is None:
            raise ShapeError("SpectrumAttention: missing Q/K source matrix")
        shape = qk_source.shape
        if len(shape) < 2 or shape[-2:] != (self.tokens, self.bin_count):
            raise ShapeError(
                f"SpectrumAttention: source shape {shape} does not match "
                f"(..., {self.tokens}, {self.bin_count})"
            )
        factor = 1.0 / math.sqrt(self.bin_count)
        if self.mss_enabled:
            weights = nm.mss_attention_weights(qk_source, self.q_map, self.k_map, factor)
        else:
            shared = nm.reshape(qk_source, shape[:-2] + (1,) + shape[-2:])
            weights = nm.attention_weights(nm.matmul(shared, self.q_map), nm.matmul(shared, self.k_map), factor)
        return self._attend(weights, hidden, capture)
