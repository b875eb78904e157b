"""Dense float64 tensors, a reverse-mode tape, Adam, and singular values.

The tape records coarse primitives (matmul, softmax, conv2d, elementwise
ops, ...) in execution order. A record is (output node, input nodes, vjp):
a taped output's node is an adjoint slot that holds no forward array, a
leaf or Parameter is its own node, and an input that needs no gradient is
recorded as None. Each vjp captures only the arrays it reads (`add` its
shapes, `concat_rows` its offsets, `dropout` its boolean keep-mask, `gelu`
the derivative factor its forward formed), so a forward array that no vjp
reads is freed as soon as the forward code drops it. `backward` replays
the records in exact reverse order and accumulates adjoints additively
into every node, so a value used twice receives the sum of both
contributions. Each record is popped off the tape as it is replayed, so a
forward array is freed once the last vjp that reads it has run. Adjoints
are moved, not copied: an intermediate takes its first adjoint as a
C-contiguous array (a view is copied, so every later matrix product sees
the same operand layout) and later ones out of place, and its adjoint is
freed as soon as its own record has been replayed. Only leaves keep
`.grad` after `backward`; a Parameter adds into its own buffer.

Ops broadcast over leading axes, so one tape covers a whole minibatch:
`matmul`, `add` and `mul` follow NumPy broadcasting and sum their adjoints
back over the broadcast axes; `layer_norm`, `softmax_rows` and `conv2d`
act on the trailing axes of any stack.

At desk scale (a handful of tokens, width 32) an op costs microseconds of
Python around far less arithmetic, so the engine is bound by per-op
latency, not compute. The encoder's fixed chains are therefore fused
primitives, one record and one hand-written vjp each, with the same
arithmetic as the chain: `linear` (matmul + optional bias add), `split_heads`
(reshape + axis swap), `merge_heads` (axis swap + reshape),
`attention_weights` (transpose + matmul + scale + softmax, Q and K with the
same leading axes) and `mss_attention_weights` (head axis + two MSS scalings
+ `attention_weights`), both through one score step whose `_softmax` works in
the scores it owns. The MSS record keeps the source and the scales and
rebuilds Q and K, one multiply each, in its vjp.

What is left of a batch-1 forecast is Python per primitive against the
floor of one NumPy call each. So `_emit` loops over its inputs, `Tensor`
keeps a float64 array as it is, reductions call the ufuncs' `reduce` rather
than the `sum`/`max` method wrappers, elementwise chains finish in place, and
`_im2col` copies one strided view; the arithmetic and its order are those of
the plainer formulations in `tests/oracles.py`, bit for bit.

Values are never mutated between a forward pass and its backward replay;
the recorded adjoint closures capture the forward arrays by reference.
Only an array that a record alone holds is written in place by its vjp
(`gelu`'s derivative factor).

A training step allocates its minibatch's tape and frees it again. Under
glibc's default policy that memory goes back to the kernel after every
minibatch and is page-faulted in again on the next one, so each step would
pay for kernel page zeroing, a cost that swings with the load of the
machine. Importing this module therefore tells glibc to keep freed heap
memory (`_retain_freed_memory`). CHANGES.md records the measured peaks and
times of each change to this design.

`real_array` is the package's one array contract: each public function of
`models`, `analysis` and `spectral` that takes an array, and
`svd_singular_values`, converts it there, so a complex, string, object,
ragged or misshapen array is a ShapeError naming that function.

GELU's erf is SciPy's own ufunc, but `scipy.special`'s package init loads
about 300 modules with it: with SciPy 1.17, 20 MB of the 55 MB peak of
importing this package, and 0.3 s. So `_load_erf` runs only the compiled
module that defines the ufunc, `scipy/special/_special_ufuncs<suffix>`,
which imports nothing else from SciPy, under its own dotted name: a later
`import scipy.special` finds it in `sys.modules` and returns the same `erf`
object. SciPy releases without that file, or without `erf` in it, get
`from scipy.special import erf`.

That erf (cephes) begins with `if (x < 0) return -erf(-x)`, a branch that
GELU's mixed-sign inputs mispredict about half the time: on N(0, 0.49)
values erf costs 1.6 times as much per element as on values of one sign
(SciPy 1.17, 2-core Xeon). So `gelu` hands erf |x|/√2, which equals |x/√2|
because correctly rounded division is symmetric in sign, and restores x's
sign with `np.copysign`, which is exact and keeps -0.0. The result is
erf(x/√2) bit for bit as long as SciPy's erf is odd bit for bit;
`test_erf_is_odd_bit_for_bit` pins that on the installed SciPy.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.machinery
import importlib.util
import math
import os

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, EmptyTapeError, FiniteInputError, ShapeError

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_F64 = np.dtype(np.float64)

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _retain_freed_memory():
    """Keep freed memory in the process heap instead of returning it to the kernel.

    glibc only: arrays up to 32 MiB (its largest mmap threshold) come from the
    heap rather than from fresh mappings, and up to 1 GiB of free memory at
    the top of the heap stays mapped. Without glibc this is a no-op.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


_retain_freed_memory()


def _load_erf():
    """`scipy.special.erf`, loaded without `scipy.special`'s package init."""
    package = importlib.util.find_spec("scipy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES if package else ():
        path = os.path.join(package.submodule_search_locations[0], "special", "_special_ufuncs" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location("scipy.special._special_ufuncs", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            if hasattr(module, "erf"):
                return module.erf
            break
    from scipy.special import erf
    return erf


erf = _load_erf()


class Tensor:
    """A dense float64 array plus an adjoint buffer filled in by backward().

    A tensor that a taped op produced has a `node`, its adjoint slot on the
    tape; a leaf has none, and is recorded as its own node.
    """

    __slots__ = ("data", "grad", "requires_grad", "node")

    def __init__(self, data, requires_grad=False):
        if type(data) is not np.ndarray or data.dtype is not _F64:
            data = real_array(data, "Tensor")
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.node = None

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

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


class _Node:
    """The adjoint slot of a taped op's output; it holds no forward array."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad = None


class GradientTape:
    """Ordered record of primitive ops; replaying it backwards yields adjoints.

    Use as a context manager around the forward pass, then call
    `backward(tape, loss)`, which empties it. A tape is single-use.
    """

    def __init__(self):
        # (output node, input nodes, vjp) in forward execution order; an input
        # node is the input's `node`, the leaf itself, or None if it needs no adjoint
        self._records = []

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


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _emit(out_data, inputs, vjp):
    for t in inputs:
        if t.requires_grad:
            out = Tensor(out_data, True)
            if _TAPES:
                out.node = _Node()
                _TAPES[-1].record(out.node, tuple([(t.node or t) if t.requires_grad else None
                                                   for t in inputs]), vjp)
            return out
    return Tensor(out_data)


def backward(tape, loss):
    """Replay `tape` in reverse, writing d(loss)/d(leaf) into each leaf's .grad.

    Gradients accumulate additively across uses of a tensor. Each record is
    popped off the tape as it is replayed, and its node's adjoint dropped
    once its vjp has run, so a forward array is freed as soon as the last
    vjp that reads it is done; afterwards only leaves hold a `.grad` and the
    tape is empty. Raises EmptyTapeError if nothing was recorded (backward
    without forward, or a second backward on the same tape).
    """
    if len(tape) == 0:
        raise EmptyTapeError("backward called on an empty tape; run a forward pass first")
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {getattr(loss, 'shape', None)}")
    records = tape._records
    if loss.node is None or not any(rec[0] is loss.node for rec in reversed(records)):
        raise EmptyTapeError("loss was not produced under this tape")
    # Clear stale intermediate adjoints, such as a nested or later tape's backward
    # leaves on a tensor made here (leaves keep theirs and accumulate).
    for node, _, _ in records:
        node.grad = None
    loss.node.grad = np.ones_like(loss.data)
    while records:
        node, inputs, vjp = records.pop()
        g, node.grad = node.grad, None
        if g is None:
            continue
        for t, gt in zip(inputs, vjp(g)):
            if gt is None or t is None:
                continue
            if isinstance(t, Parameter):
                t.grad += gt
            elif t.grad is None:
                t.grad = gt if gt.flags.c_contiguous else gt.copy()
            else:
                t.grad = t.grad + gt
        del t, gt  # the last adjoint handed over is not held through the next vjp


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def _unbroadcast(g, shape):
    """Sum an adjoint over the axes that broadcasting added or stretched."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, n in enumerate(shape) if n == 1 and g.shape[lead + i] != 1
    )
    return g.sum(axis=axes).reshape(shape)


def matmul(a, b):
    """C = A @ B over the last two axes; leading axes broadcast.

    dA = G @ Bᵀ and dB = Aᵀ @ G are summed back over the broadcast axes, and
    neither is formed for an operand that needs none. A 2-D weight goes
    through `linear`.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    try:
        out = a.data @ b.data
    except ValueError:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}") from None
    a_shape, b_shape = a.data.shape, b.data.shape
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def vjp(g):
        return (
            _unbroadcast(g @ bd.swapaxes(-1, -2), a_shape) if bd is not None else None,
            _unbroadcast(ad.swapaxes(-1, -2) @ g, b_shape) if ad is not None else None,
        )

    return _emit(out, (a, b), vjp)


def linear(x, w, b=None):
    """x @ W, plus b if given, for a 2-D weight W (in, out) and a bias b (out,).

    One record for the matmul and the bias add, with the same arithmetic:
    x's leading axes fold into the rows of one GEMM, and the bias adjoint
    sums over them. No adjoint is formed for an x or W that needs none.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    inputs = (x, w) if b is None else (x, w, _as_tensor(b))
    xs, ws, bs = x.data.shape, w.data.shape, inputs[-1].data.shape
    if len(xs) < 2 or len(ws) != 2 or xs[-1] != ws[0] or (b is not None and bs != ws[1:]):
        raise ShapeError(f"linear: incompatible shapes {xs} x {ws}" + ("" if b is None else f" + {bs}"))
    rows = x.data.reshape(-1, xs[-1])
    out = (rows @ w.data).reshape(xs[:-1] + ws[1:])
    if b is not None:
        out += inputs[2].data
    wd = w.data if x.requires_grad else None
    if not w.requires_grad:
        rows = None
    has_bias = b is not None

    def vjp(g):
        g2 = g.reshape(-1, g.shape[-1])
        dx = (g2 @ wd.T).reshape(xs) if wd is not None else None
        dw = rows.T @ g2 if rows is not None else None
        return (dx, dw, _unbroadcast(g, bs)) if has_bias else (dx, dw)

    return _emit(out, inputs, vjp)


def add(a, b):
    """Elementwise sum with NumPy broadcasting (e.g. a trailing-axis bias)."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: incompatible shapes {a.shape} + {b.shape}") from None
    a_shape, b_shape = a.data.shape, b.data.shape

    def vjp(g):
        return (_unbroadcast(g, a_shape), _unbroadcast(g, b_shape))

    return _emit(out, (a, b), vjp)


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"sub: incompatible shapes {a.shape} - {b.shape}")

    def vjp(g):
        return (g, -g)

    return _emit(a.data - b.data, (a, b), vjp)


def mul(a, b):
    """Hadamard (elementwise) product with NumPy broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: incompatible shapes {a.shape} * {b.shape}") from None
    a_shape, b_shape = a.data.shape, b.data.shape
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def vjp(g):
        return (_unbroadcast(g * bd, a_shape) if bd is not None else None,
                _unbroadcast(g * ad, b_shape) if ad is not None else None)

    return _emit(out, (a, b), vjp)


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
    """Gaussian error linear unit, exact erf form: x * Phi(x).

    Phi(x) is built in one buffer, which then becomes the output; erf runs on
    |x|/√2 and copysign puts x's sign back, with erf(x/√2)'s bits (see the
    module docstring). Under a tape the forward also forms the derivative
    factor cdf + x * pdf(x), the record's one array, and the record holds
    neither x nor Phi(x).
    """
    a = _as_tensor(a)
    x = a.data
    out = np.abs(x)
    out /= math.sqrt(2.0)
    erf(out, out=out)
    np.copysign(out, x, out=out)
    out += 1.0
    out *= 0.5   # Phi(x)
    d = None
    if a.requires_grad and _TAPES:
        # cdf + x * pdf, with pdf = exp(-0.5 * x * x) / sqrt(2 pi), in one buffer
        d = np.multiply(x, -0.5)
        d *= x
        np.exp(d, out=d)
        d *= _INV_SQRT_2PI
        d *= x
        d += out
    out *= x

    def vjp(g):
        return (np.multiply(d, g, out=d),)

    return _emit(out, (a,), vjp)


def _softmax(s, op):
    """Softmax of array `s` over its nonempty last axis, in `s` itself, each row shifted by its max
    so that no finite score overflows; ShapeError or FiniteInputError names `op`."""
    if not s.shape[-1]:
        raise ShapeError(f"{op}: no entries to normalize over, got shape {s.shape}")
    finite(s, f"{op}: input must be finite (no NaN/Inf)")
    s -= np.maximum.reduce(s, axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= np.add.reduce(s, axis=-1, keepdims=True)
    return s


def _softmax_vjp(y, g, factor=1.0):
    """`factor` times the adjoint of the scores, given the softmax output y and its adjoint g, in one array."""
    gs = np.subtract(g, np.add.reduce(g * y, axis=-1, keepdims=True))
    gs *= y
    gs *= factor
    return gs


def softmax_rows(s):
    """Softmax over the last axis (each row of each stacked matrix).

    Non-finite input raises FiniteInputError.
    """
    s = _as_tensor(s)
    if s.data.ndim < 2:
        raise ShapeError(f"softmax_rows: need at least 2 dims, got shape {s.shape}")
    y = _softmax(s.data.copy(), "softmax_rows")   # the input is not this op's to overwrite

    def vjp(g):
        return (_softmax_vjp(y, g),)

    return _emit(y, (s,), vjp)


def _attention_scores(operands, op):
    """(softmax(Q Kᵀ / √d), 1/√d) for the (..., N, d) and (..., M, d) stacks (Q, K) = operands(),
    which runs under the same overflow guard as the product: both attention primitives' score step.
    Their vjps form dK as (Qᵀ G)ᵀ, as the chain does; OpenBLAS' Gᵀ Q differs in last bits at N = 321."""
    with np.errstate(over="ignore", invalid="ignore"):   # `_softmax` refuses non-finite scores
        q, k = operands()
        scores = q @ k.swapaxes(-1, -2)
    factor = 1.0 / math.sqrt(q.shape[-1])
    scores *= factor
    return _softmax(scores, op), factor


def attention_weights(q, k):
    """softmax(Q Kᵀ / √d) over the last axis.

    q: (..., N, d) queries, k: (..., M, d) keys with the same leading axes,
    d >= 1; returns (..., N, M) row-stochastic weights. One record for the
    transpose, matmul, scale and softmax chain, with the same arithmetic.
    Non-finite scores raise FiniteInputError.
    """
    q, k = _as_tensor(q), _as_tensor(k)
    qd, kd = q.data, k.data
    qs, ks = qd.shape, kd.shape
    if len(qs) < 2 or len(ks) != len(qs) or qs[:-2] != ks[:-2] or not qs[-1] == ks[-1] > 0:
        raise ShapeError(f"attention_weights: incompatible shapes {qs} x {ks}")
    y, factor = _attention_scores(lambda: (qd, kd), "attention_weights")

    def vjp(g):
        gs = _softmax_vjp(y, g, factor)
        return gs @ kd, (qd.swapaxes(-1, -2) @ gs).swapaxes(-1, -2)

    return _emit(y, (q, k), vjp)


def mss_attention_weights(source, scale_q, scale_k):
    """softmax((A⊙S_q)(A⊙S_k)ᵀ / √F) over the last axis, per head.

    source A: (..., N, F), F >= 1, shared by every head; scale_q, scale_k: (H, N, F)
    multi-head spectrum scales; returns (..., H, N, N) row-stochastic
    weights. One record for the chain `attention_weights(A' * S_q, A' * S_k)`
    with A' = A reshaped to (..., 1, N, F), and the same arithmetic. The
    record keeps A and the scales, not Q and K: its vjp rebuilds them with
    one multiply each. The source adjoint is K's part plus Q's part, the
    order in which the chain's replay adds them. Non-finite scores raise
    FiniteInputError.
    """
    source, scale_q, scale_k = _as_tensor(source), _as_tensor(scale_q), _as_tensor(scale_k)
    src_shape, hs = source.data.shape, scale_q.data.shape
    if len(src_shape) < 2 or len(hs) != 3 or hs[1:] != src_shape[-2:] or scale_k.data.shape != hs or not hs[2]:
        raise ShapeError(
            f"mss_attention_weights: incompatible shapes {src_shape} with scales {hs} / {scale_k.data.shape}"
        )
    shared = source.data.reshape(src_shape[:-2] + (1,) + src_shape[-2:])
    sq, sk = scale_q.data, scale_k.data
    needs = source.requires_grad, scale_q.requires_grad, scale_k.requires_grad
    y, factor = _attention_scores(lambda: (shared * sq, shared * sk), "mss_attention_weights")

    def vjp(g):
        gs = _softmax_vjp(y, g, factor)
        dq = gs @ (shared * sk)
        dk = (shared * sq).swapaxes(-1, -2) @ gs
        del gs   # Q and the score adjoint go before dK's copy
        # C-contiguous, so the broadcast products below need no buffer for a transposed operand
        dk = np.ascontiguousarray(dk.swapaxes(-1, -2))
        dsq = _unbroadcast(dq * shared, hs) if needs[1] else None
        dsk = _unbroadcast(dk * shared, hs) if needs[2] else None
        if not needs[0]:
            return (None, dsq, dsk)
        da = _unbroadcast(dk * sk, shared.shape)
        da = da + _unbroadcast(dq * sq, shared.shape)
        return (da.reshape(src_shape), dsq, dsk)

    return _emit(y, (source, scale_q, scale_k), vjp)


def layer_norm(x, gamma, beta):
    """Normalization over the last axis, with learnable affine terms.

    x: (..., D) with any number of leading axes; gamma, beta: (D,). The
    variance is regularized by 1e-5.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if x.data.ndim < 1:
        raise ShapeError(f"layer_norm: expected at least 1-D input, got shape {x.shape}")
    xd, d = x.data, x.data.shape[-1]
    if not d:
        raise ShapeError(f"layer_norm: no entries to normalize over, got shape {x.shape}")
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError(
            f"layer_norm: affine shapes {gamma.data.shape}/{beta.data.shape} do not match width {d}"
        )
    xc = xd - np.add.reduce(xd, axis=-1, keepdims=True) / d  # bitwise equal to x.mean
    inv = np.add.reduce(np.square(xc), axis=-1, keepdims=True) / d  # bitwise equal to x.var
    inv += 1e-5
    np.divide(1.0, np.sqrt(inv, out=inv), out=inv)
    xhat = xc * inv
    gd = gamma.data
    out = xhat * gd
    out += beta.data

    def vjp(g):
        dbeta = np.add.reduce(g.reshape(-1, d), axis=0)
        dgamma = np.add.reduce((g * xhat).reshape(-1, d), axis=0)
        dxhat = g * gd
        dx = inv * (
            dxhat
            - np.add.reduce(dxhat, axis=-1, keepdims=True) / d
            - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d)
        )
        return (dx, dgamma, dbeta)

    return _emit(out, (x, gamma, beta), vjp)


def _im2col(x, size):
    """(..., C, N, M) zero-padded by (size-1)/2 -> (..., C*size*size, N*M) patch rows."""
    *lead, c, n, m = x.shape
    pad = (size - 1) // 2
    padded = np.zeros((*lead, c, n + 2 * pad, m + 2 * pad))
    padded[..., pad:pad + n, pad:pad + m] = x
    *lead_strides, row, col = padded.strides
    patches = as_strided(padded, (*lead, c, size, size, n, m), (*lead_strides, row, col, row, col))
    return patches.reshape(*lead, c * size * size, n * m)


# conv2d builds patch rows for about this many bytes of planes at a time, so
# each group's rows stay cache-resident and no stack-sized patch matrix is
# held. Timing forward plus backward on (32, 4, 32, 32) and (128, 4, 12, 12)
# stacks for 128 KiB to 4 MiB, and for the whole stack at once, found
# 512 KiB to 1 MiB fastest (2-core Xeon, 2 MiB L2 per core).
_CONV_GROUP_BYTES = 1 << 20


def conv2d(x, kernel):
    """Same-size 2-D convolution with channel mixing, stride 1, zero padding.

    x: (..., C_in, N, M) with any number of leading batch axes; kernel:
    (C_out, C_in, K, K) with K odd so symmetric padding of (K-1)/2 preserves
    the N x M plane. Forward and both adjoints are matrix products with
    im2col patch rows, built for one group of planes at a time (about 1 MiB
    of rows per group) and written into one preallocated result. The record
    keeps only the input: the kernel adjoint rebuilds each group's patch
    rows from it, and the input adjoint is the same correlation of the
    output adjoint with the flipped, channel-transposed kernel.
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    if x.data.ndim < 3 or kernel.data.ndim != 4:
        raise ShapeError(f"conv2d: expected (..., C_in, N, M) input and 4-D kernel, got {x.shape} / {kernel.shape}")
    c_out, c_in, kh, kw = kernel.shape
    if kh != kw:
        raise ShapeError(f"conv2d: kernel must be square, got {kernel.shape}")
    if kh % 2 == 0:
        raise ConfigError(f"conv2d: kernel size must be odd to preserve size, got {kh}")
    if c_in != x.shape[-3]:
        raise ShapeError(f"conv2d: channel mismatch, input {x.shape} vs kernel {kernel.shape}")
    n, m = x.shape[-2:]
    x_shape, kd = x.data.shape, kernel.data
    planes = x.data.reshape(-1, c_in, n, m)
    step = max(1, _CONV_GROUP_BYTES // max(1, max(c_in, c_out) * kh * kw * n * m * 8))
    groups = [slice(i, i + step) for i in range(0, len(planes), step)]
    w_rows = kd.reshape(c_out, -1)
    out = np.empty((len(planes), c_out, n * m))
    for s in groups:
        np.matmul(w_rows, _im2col(planes[s], kh), out=out[s])

    def vjp(g):
        g = g.reshape(-1, c_out, n, m)
        flipped = kd.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1].reshape(c_in, -1)
        dx = np.empty((len(g), c_in, n * m))
        dk = np.empty((len(g), c_out, c_in * kh * kw))
        for s in groups:
            np.matmul(flipped, _im2col(g[s], kh), out=dx[s])
            np.matmul(g[s].reshape(-1, c_out, n * m), _im2col(planes[s], kh).swapaxes(-1, -2), out=dk[s])
        return dx.reshape(x_shape), dk.sum(axis=0).reshape(kd.shape)

    return _emit(out.reshape(x_shape[:-3] + (c_out, n, m)), (x, kernel), vjp)


def transpose(a, axes=None):
    a = _as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.data.ndim)))
    axes = tuple(axes)
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))

    def vjp(g):
        return (g.transpose(inverse),)

    return _emit(a.data.transpose(axes), (a,), vjp)


def split_heads(x, heads):
    """(..., N, D) -> (..., H, N, D/H); head h gets the h-th contiguous column block.

    One record for the reshape and the swap of the N and H axes; the output
    is a view of x.
    """
    x = _as_tensor(x)
    if x.data.ndim < 2:
        raise ShapeError(f"split_heads: expected (..., N, D) input, got shape {x.shape}")
    in_shape = x.shape
    d = in_shape[-1]
    if d % heads != 0:
        raise ConfigError(f"split_heads: width {d} not divisible by {heads} heads")

    def vjp(g):
        return (g.swapaxes(-3, -2).reshape(in_shape),)

    return _emit(x.data.reshape(in_shape[:-1] + (heads, d // heads)).swapaxes(-3, -2), (x,), vjp)


def merge_heads(x):
    """(..., H, N, d) -> (..., N, H*d), inverse of split_heads; one record."""
    x = _as_tensor(x)
    if x.data.ndim < 3:
        raise ShapeError(f"merge_heads: expected (..., H, N, d) input, got shape {x.shape}")
    *lead, h, n, d = x.shape

    def vjp(g):
        return (g.reshape((*lead, n, h, d)).swapaxes(-3, -2),)

    return _emit(x.data.swapaxes(-3, -2).reshape((*lead, n, h * d)), (x,), vjp)


def reshape(a, shape):
    a = _as_tensor(a)
    in_shape = a.data.shape

    def vjp(g):
        return (g.reshape(in_shape),)

    return _emit(a.data.reshape(shape), (a,), vjp)


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
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(offsets) - 1))

    return _emit(out, tuple(parts), vjp)


def mean_all(a):
    a = _as_tensor(a)
    shape, n = a.data.shape, a.data.size
    if not n:
        raise ShapeError(f"mean_all: no entries to average, got shape {shape}")

    def vjp(g):
        return (np.full(shape, float(g) / n),)

    return _emit(np.asarray(a.data.mean()), (a,), vjp)


def dropout(a, p, rng, training):
    """Inverted dropout; identity when not training or p == 0.

    The record keeps the boolean keep-mask, an eighth of a float mask, and its
    vjp forms `keep / (1 - p)` again, the forward's own division.
    """
    a = _as_tensor(a)
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout: probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return a
    keep = rng.random(a.data.shape) >= p

    def vjp(g):
        d = keep / (1.0 - p)
        d *= g
        return (d,)

    return _emit(a.data * (keep / (1.0 - p)), (a,), vjp)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class Adam:
    """Adam with bias correction over one flat buffer.

    The optimizer owns one flat value buffer and one flat gradient buffer.
    It copies its parameters into them and points each Parameter's `.data`
    and `.grad` at a view, so `step` and `zero_grad` are a few whole-buffer
    operations and the first/second moments are flat arrays alongside.
    Parameters keep those views: write new values in place
    (`param.data[...] = ...`) for the optimizer to keep stepping them.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr):
        if not 0 < lr < math.inf:
            raise ConfigError(f"Adam: learning rate must be positive and finite, got {lr}")
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ConfigError("Adam: a parameter is listed more than once")
        self.lr = float(lr)
        self.t = 0
        total = sum(p.data.size for p in self.params)
        self.data = np.empty(total)
        self.grad = np.empty(total)
        offset = 0
        for p in self.params:
            end = offset + p.data.size
            data = self.data[offset:end].reshape(p.shape)
            grad = self.grad[offset:end].reshape(p.shape)
            data[...] = p.data
            grad[...] = p.grad
            p.data, p.grad = data, grad
            offset = end
        self._m = np.zeros(total)
        self._v = np.zeros(total)

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        g, m, v = self.grad, self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * (g * g)
        self.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def zero_grad(self):
        self.grad[...] = 0.0


# ---------------------------------------------------------------------------
# real arrays, finite values and singular values
# ---------------------------------------------------------------------------

def real_array(a, caller, shape=None):
    """`a` as a float64 array; ShapeError naming `caller` unless its values are
    bool, integer or real floats (not complex, str, object or ragged) and,
    given a `shape` pattern, it has that rank and each `int` entry's length.
    A `str` entry ("B", "rows") matches any length and prints as written."""
    try:
        a = np.asarray(a)
    except ValueError:
        raise ShapeError(f"{caller}: expected an array of real values, got a ragged sequence") from None
    if a.dtype.kind not in "biuf":
        raise ShapeError(f"{caller}: expected real values, got {a.dtype}")
    if shape is not None and (a.ndim != len(shape) or any(
            n != want for n, want in zip(a.shape, shape) if type(want) is not str)):
        raise ShapeError(f"{caller}: expected shape ({', '.join(map(str, shape))}), got {a.shape}")
    return np.asarray(a, dtype=np.float64)


def finite(a, message):
    """`a`, refused with FiniteInputError(message) if any of its values is NaN or inf."""
    if not np.isfinite(a).all():
        raise FiniteInputError(message)
    return a


def svd_singular_values(a):
    """Singular values of a real nonempty finite matrix, nonincreasing (LAPACK), refused if they overflow."""
    A = real_array(a, "svd_singular_values", ("m", "n"))
    if A.size == 0:
        raise ShapeError(f"svd_singular_values: expected a nonempty matrix, got shape {A.shape}")
    values = np.linalg.svd(finite(A, "svd_singular_values: matrix must be finite"), compute_uv=False)
    return finite(values, "svd_singular_values: singular values overflow float64")


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
