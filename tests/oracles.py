"""Independent reference implementations used to check the package.

Everything here is deliberately naive (explicit loops, direct definitions)
and never shares code with the implementation under test. The exceptions:
the `unfused_*` chains rebuild each fused tape primitive from the
elementary primitives it replaced in the model, so the two can be compared
bitwise, forward and backward; the `method_*`, `loop_im2col` and
`sliding_window_patchify` functions are plainer formulations of the same
arithmetic as hot-path code, which must agree bitwise; `one_shot_conv2d` is
the convolution that built its patch rows for the whole stack at once and
kept them for the kernel adjoint; `weight_matmul` is
the 2-D-weight product that `numerics.matmul` carried before `linear` took
over that job; `eager_create` is the parameter initializer that opened an
init stream for every parameter, drawing or not; `cellwise_load_csv` and
`fieldwise_save_csv` are the CSV reader and writer that parsed and wrote
one cell at a time, which the package's must match bit for bit and byte for
byte; `loop_metrics` is the split evaluation's per-horizon loop, one
MSE/MAE pair per step; `two_array_gelu` is the GELU whose record kept its
input and Phi(x) and formed the derivative in its vjp; `scaled_dot_attention`,
`weigh_values`, `conventional_forward` and `spectrum_forward` are the
attention layer's path before `_SharedAttention._attend` took every step
after the weights; and `sum_all` records a scalar loss on the package's tape.
"""

import csv
import io
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

from spectral_attn import numerics as nm
from spectral_attn.artifacts import atomic_open, read_text
from spectral_attn.attention import AttentionTensor, LayerAttention, dirac_kernel, hcc, orthogonal_init
from spectral_attn.data import SeriesDataset, _check_time_order
from spectral_attn.errors import ConfigError, DataError, FormatError, ParseError, ShapeError


def naive_matmul(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def naive_softmax_rows(s):
    s = np.asarray(s, dtype=np.float64)
    out = np.zeros_like(s)
    for i in range(s.shape[0]):
        shifted = [math.exp(v - max(s[i])) for v in s[i]]
        total = sum(shifted)
        out[i] = [v / total for v in shifted]
    return out


def naive_conv2d(x, k):
    """Channel-mixing same-size convolution by four explicit loops."""
    x = np.asarray(x, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    c_out, c_in, kh, kw = k.shape
    _, n, m = x.shape
    pad = (kh - 1) // 2
    out = np.zeros((c_out, n, m))
    for o in range(c_out):
        for i in range(n):
            for j in range(m):
                acc = 0.0
                for c in range(c_in):
                    for a in range(kh):
                        for b in range(kw):
                            ii = i + a - pad
                            jj = j + b - pad
                            if 0 <= ii < n and 0 <= jj < m:
                                acc += k[o, c, a, b] * x[c, ii, jj]
                out[o, i, j] = acc
    return out


def naive_attention(q, k, v, scale):
    """Per-head loop: softmax(q @ kT / scale) @ v."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    heads, n, _ = q.shape
    weights = np.zeros((heads, n, n))
    out = np.zeros((heads, n, v.shape[2]))
    for h in range(heads):
        scores = naive_matmul(q[h], k[h].T) / scale
        weights[h] = naive_softmax_rows(scores)
        out[h] = naive_matmul(weights[h], v[h])
    return weights, out


def jacobi_eigenvalues(sym, sweeps=100, tol=1e-14):
    """Eigenvalues of a symmetric matrix by classical two-sided Jacobi.

    Each rotation A <- JᵀAJ touches only rows/columns p and q, which keeps
    the oracle usable up to a few hundred dimensions.
    """
    a = np.array(sym, dtype=np.float64, copy=True)
    n = a.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(a[p, q]))
        if off <= tol * max(1.0, abs(a).max()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c = math.cos(theta)
                s = math.sin(theta)
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
    return np.sort(np.diag(a))[::-1]


def dft_naive(x):
    """Full complex spectrum of a real sequence by direct evaluation.

    X[k] = sum_t x[t] * exp(-i 2 pi k t / L) for k = 0..L-1, each bin
    computed as an explicit inner product against its Fourier basis row.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ShapeError(f"dft_naive: expected a nonempty 1-D sequence, got shape {x.shape}")
    length = x.size
    t = np.arange(length)
    out = np.empty(length, dtype=np.complex128)
    for k in range(length):
        out[k] = np.sum(x * np.exp(-2j * np.pi * k * t / length))
    return out


def recursive_fft(x):
    """Full complex spectrum by recursive decimation in time; direct sum at odd lengths."""
    x = np.asarray(x, dtype=np.complex128)
    length = x.size
    if length % 2 == 1:
        if length == 1:
            return x.copy()
        t = np.arange(length)
        basis = np.exp(-2j * np.pi * np.outer(t, t) / length)
        return basis @ x
    even = recursive_fft(x[0::2])
    odd = recursive_fft(x[1::2])
    twiddle = np.exp(-2j * np.pi * np.arange(length // 2) / length) * odd
    return np.concatenate([even + twiddle, even - twiddle])


def recursive_amplitudes(x):
    """One-sided amplitude row of a real sequence from `recursive_fft`."""
    x = np.asarray(x, dtype=np.float64)
    bins = recursive_fft(x)[: x.size // 2 + 1]
    bins[0] = complex(bins[0].real, 0.0)
    if x.size % 2 == 0:
        bins[-1] = complex(bins[-1].real, 0.0)
    return np.sqrt(bins.real ** 2 + bins.imag ** 2)


def jacobi_singular_values(a, max_sweeps=60, tol=1e-15):
    """Singular values, nonincreasing, by one-sided Jacobi.

    Columns are pairwise orthogonalized with plane rotations until every pair
    is orthogonal to relative tolerance `tol`; the column norms are then the
    singular values.
    """
    m = np.array(a, dtype=np.float64)
    if m.shape[0] < m.shape[1]:
        m = m.T.copy()
    n = m.shape[1]
    for _ in range(max_sweeps):
        rotated = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                ci = m[:, i]
                cj = m[:, j]
                gamma = float(ci @ cj)
                alpha = float(ci @ ci)
                beta = float(cj @ cj)
                limit = tol * math.sqrt(alpha * beta)
                if alpha == 0.0 or beta == 0.0 or abs(gamma) <= limit:
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                new_i = c * ci - s * cj
                new_j = s * ci + c * cj
                m[:, i] = new_i
                m[:, j] = new_j
        if not rotated:
            break
    values = np.sqrt(np.sum(m * m, axis=0))
    return np.sort(values)[::-1]


def finite_difference_gradient(f, x, step=1e-5):
    """Central finite differences of scalar f at array x, entry by entry."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        up = f(x)
        flat[i] = original - step
        down = f(x)
        flat[i] = original
        gflat[i] = (up - down) / (2.0 * step)
    return grad


def max_rel_error(analytic, numeric, floor=1e-5, abs_tol=1e-9):
    """Worst relative disagreement; near-zero pairs must agree absolutely."""
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    assert a.shape == n.shape
    worst = 0.0
    for ai, ni in zip(a, n):
        scale = max(abs(ai), abs(ni))
        if scale < floor:
            if abs(ai - ni) > abs_tol:
                worst = max(worst, abs(ai - ni) / max(scale, 1e-300))
        else:
            worst = max(worst, abs(ai - ni) / scale)
    return worst


def accumulating_backward(tape, loss):
    """Tape replay that gives every adjoint a fresh zero buffer, adds each
    contribution in place and keeps every intermediate adjoint on its node."""
    for node, _, _ in tape._records:
        node.grad = None
    loss.node.grad = np.ones_like(loss.data)
    for node, inputs, vjp in reversed(tape._records):
        g = node.grad
        if g is None:
            continue
        for t, gt in zip(inputs, vjp(g)):
            if gt is None or t is None:
                continue
            if t.grad is None:
                t.grad = np.zeros(gt.shape)
            t.grad += gt


class PerParameterAdam:
    """Adam with bias correction, one moment pair and one update per parameter."""

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1, self.beta2 = (float(b) for b in betas)
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


def _swap(ndim, first, second):
    """Axis order of an `ndim` array with axes `first` and `second` exchanged."""
    axes = list(range(ndim))
    axes[first], axes[second] = axes[second], axes[first]
    return tuple(axes)


def weight_matmul(a, b):
    """A @ W for a 2-D weight W: every row of A in one GEMM, as numerics.matmul once did.

    The adjoint of W folds A's leading axes into rows, and neither adjoint
    is formed for an operand that needs none.
    """
    a, b = nm._as_tensor(a), nm._as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim != 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"weight_matmul: incompatible shapes {a.shape} x {b.shape}")
    rows = a.data.reshape(-1, a.shape[-1])
    out = (rows @ b.data).reshape(a.shape[:-1] + b.shape[-1:])

    def vjp(g):
        g2 = g.reshape(-1, g.shape[-1])
        da = (g2 @ b.data.T).reshape(a.shape) if a.requires_grad else None
        return (da, rows.T @ g2 if b.requires_grad else None)

    return nm._emit(out, (a, b), vjp)


def unfused_linear(x, w, b):
    """weight product then bias add: the chain numerics.linear fuses."""
    return nm.add(weight_matmul(x, w), b)


def unfused_split_heads(x, heads):
    """reshape to (..., N, H, d) then swap N and H: the chain numerics.split_heads fuses."""
    split = nm.reshape(x, x.shape[:-1] + (heads, x.shape[-1] // heads))
    return nm.transpose(split, _swap(len(split.shape), -3, -2))


def unfused_merge_heads(x):
    """swap H and N then reshape to (..., N, H*d): the chain numerics.merge_heads fuses."""
    *lead, h, n, d = x.shape
    return nm.reshape(nm.transpose(x, _swap(len(x.shape), -3, -2)), (*lead, n, h * d))


def unfused_attention_weights(q, k):
    """transpose, matmul, scale by 1/sqrt(d), softmax: the chain numerics.attention_weights fuses."""
    k_t = nm.transpose(k, _swap(len(k.shape), -2, -1))
    return nm.softmax_rows(nm.scale(nm.matmul(q, k_t), 1.0 / math.sqrt(q.shape[-1])))


def unfused_mss_attention_weights(source, scale_q, scale_k):
    """head axis, Q and K scaling, attention weights: the chain numerics.mss_attention_weights fuses."""
    shape = source.shape
    shared = nm.reshape(source, shape[:-2] + (1,) + shape[-2:])
    return nm.attention_weights(nm.mul(shared, scale_q), nm.mul(shared, scale_k))


def scaled_dot_attention(q, k, v, hcc_kernel=None):
    """(pre-HCC weights, effective weights, effective @ v) of softmax(Q Kᵀ / sqrt(d))."""
    q = q if isinstance(q, nm.Tensor) else nm.Tensor(q)
    k = k if isinstance(k, nm.Tensor) else nm.Tensor(k)
    v = v if isinstance(v, nm.Tensor) else nm.Tensor(v)
    qs, ks, vs = q.data.shape, k.data.shape, v.data.shape
    if len(qs) < 3 or len(ks) < 3 or len(vs) < 3:
        raise ShapeError(f"scaled_dot_attention: expected (..., H, N, d) stacks, got {qs}/{ks}/{vs}")
    if qs != ks or qs[:-1] != vs[:-1]:
        raise ShapeError(f"scaled_dot_attention: inconsistent head shapes {qs}/{ks}/{vs}")
    return weigh_values(nm.attention_weights(q, k), v, hcc_kernel)


def weigh_values(weights, v, hcc_kernel):
    """(weights, effective weights, effective @ v), with HCC applied if a kernel is given."""
    effective = hcc(weights, hcc_kernel) if hcc_kernel is not None else weights
    return weights, effective, nm.matmul(effective, v)


def _layer_values(layer, hidden):
    return nm.split_heads(nm.linear(hidden, layer.wv, layer.bv), layer.heads)


def _layer_output(layer, attended, capture):
    weights, effective, out = attended
    if capture is not None:
        for t in (weights, effective):
            t.data.setflags(write=False)
        pre = AttentionTensor(weights.data)
        final = pre if effective is weights else AttentionTensor(effective.data)
        capture.append(LayerAttention(pre_hcc=pre, final=final))
    return nm.linear(nm.merge_heads(out), layer.wo, layer.bo)


def conventional_forward(layer, hidden, qk_source, capture=None):
    """ConventionalAttention.forward through `scaled_dot_attention`."""
    q = nm.split_heads(nm.linear(hidden, layer.wq, layer.bq), layer.heads)
    k = nm.split_heads(nm.linear(hidden, layer.wk, layer.bk), layer.heads)
    attended = scaled_dot_attention(q, k, _layer_values(layer, hidden))
    return _layer_output(layer, attended, capture)


def spectrum_forward(layer, hidden, qk_source, capture=None):
    """SpectrumAttention.forward through `weigh_values` (MSS) or `scaled_dot_attention` (dense maps)."""
    shape = qk_source.shape
    if layer.mss_enabled:
        weights = nm.mss_attention_weights(qk_source, layer.q_map, layer.k_map)
        attended = weigh_values(weights, _layer_values(layer, hidden), layer.kernel)
    else:
        shared = nm.reshape(qk_source, shape[:-2] + (1,) + shape[-2:])
        q, k = nm.matmul(shared, layer.q_map), nm.matmul(shared, layer.k_map)
        attended = scaled_dot_attention(q, k, _layer_values(layer, hidden), hcc_kernel=layer.kernel)
    return _layer_output(layer, attended, capture)


def sum_all(a):
    """Sum of every element as a taped scalar (a loss for the tape tests)."""
    a = a if isinstance(a, nm.Tensor) else nm.Tensor(a)

    def vjp(g):
        return (np.full_like(a.data, float(g)),)

    return nm._emit(np.asarray(a.data.sum()), (a,), vjp)


def loop_im2col(x, size):
    """numerics._im2col by one slice assignment per kernel offset."""
    *lead, c, n, m = x.shape
    pad = (size - 1) // 2
    padded = np.zeros((*lead, c, n + 2 * pad, m + 2 * pad))
    padded[..., pad:pad + n, pad:pad + m] = x
    cols = np.empty((*lead, c, size, size, n, m))
    for a in range(size):
        for b in range(size):
            cols[..., a, b, :, :] = padded[..., a:a + n, b:b + m]
    return cols.reshape(*lead, c * size * size, n * m)


def one_shot_conv2d(x, kernel):
    """numerics.conv2d as it was with patch rows for the whole stack at once:
    the forward's rows kept for the kernel adjoint, one product per result."""
    x, kernel = nm._as_tensor(x), nm._as_tensor(kernel)
    c_out, c_in, kh, kw = kernel.shape

    def correlate(cols, shape, k):
        rows = k.reshape(k.shape[0], -1) @ cols
        return rows.reshape(shape[:-3] + k.shape[:1] + shape[-2:])

    cols = loop_im2col(x.data, kh)
    out = correlate(cols, x.shape, kernel.data)

    def vjp(g):
        flipped = kernel.data.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
        dx = correlate(loop_im2col(g, kh), g.shape, flipped)
        g_rows = g.reshape(g.shape[:-2] + (-1,))
        dk = g_rows @ cols.swapaxes(-1, -2)
        return (dx, dk.reshape(-1, c_out, c_in * kh * kw).sum(axis=0).reshape(kernel.shape))

    return nm._emit(out, (x, kernel), vjp)


def two_array_gelu(a):
    """numerics.gelu as it was when its record kept x and Phi(x), two arrays,
    and its vjp formed the derivative factor cdf + x * pdf(x)."""
    a = nm._as_tensor(a)
    x = a.data
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))

    def vjp(g):
        d = np.multiply(x, -0.5)
        d *= x
        np.exp(d, out=d)
        d *= 1.0 / math.sqrt(2.0 * math.pi)
        d *= x
        d += cdf
        d *= g
        return (d,)

    return nm._emit(x * cdf, (a,), vjp)


def sliding_window_patchify(x, P, S):
    """models.patchify as every S-th window of a sliding_window_view."""
    length = x.shape[-1]
    n = (length - P) // S + 2
    pad = (n - 1) * S + P - length
    extended = np.concatenate([x, np.repeat(x[..., -1:], pad, axis=-1)], axis=-1)
    return sliding_window_view(extended, P, axis=-1)[..., ::S, :]


def method_softmax(s):
    """numerics._softmax with ndarray max/sum methods and out-of-place steps."""
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def method_layer_norm(x, gamma, beta):
    """Forward value of numerics.layer_norm with ndarray sum methods."""
    d = x.shape[-1]
    xc = x - x.sum(axis=-1, keepdims=True) / d
    var = np.square(xc).sum(axis=-1, keepdims=True) / d
    return xc * (1.0 / np.sqrt(var + 1e-5)) * gamma + beta


def method_layer_norm_vjp(x, gamma, g):
    """numerics.layer_norm's (dx, dgamma, dbeta) with ndarray mean/sum methods."""
    d = x.shape[-1]
    xc = x - x.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(np.square(xc).sum(axis=-1, keepdims=True) / d + 1e-5)
    xhat = xc * inv
    dxhat = g * gamma
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)


def method_softmax_vjp(y, g):
    """numerics._softmax_vjp with the ndarray sum method."""
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def method_instance_normalize(x):
    """models.instance_normalize's (normalized, mean, scale) with ndarray sum methods."""
    length = x.shape[-1]
    mean = x.sum(axis=-1, keepdims=True) / length
    xc = x - mean
    scale = np.maximum(np.sqrt(np.square(xc).sum(axis=-1, keepdims=True) / length), 1e-5)
    return xc / scale, mean, scale


def eager_create(model, name, spec):
    """ForecastModel._create as it was when every parameter opened its
    `init/<name>` substream up front, whether its init kind drew from it or not."""
    if name in model.params:
        raise ConfigError(f"duplicate parameter name {name!r}")
    rng = nm.substream(model.config.seed, f"init/{name}")
    kind, shape, *scale = spec
    if kind == "normal":
        data = rng.standard_normal(shape) * scale[0]
    elif kind == "zeros":
        data = np.zeros(shape)
    elif kind == "ones":
        data = np.ones(shape)
    elif kind == "dirac_noise":
        data = dirac_kernel(shape[0], shape[2]) + rng.standard_normal(shape) * scale[0]
    elif kind == "orthogonal":
        data = orthogonal_init(*shape, nm.derive_seed(model.config.seed, f"init/{name}"))
    else:
        raise ConfigError(f"unknown parameter init {kind!r}")
    param = nm.Parameter(data, name)
    model.params[name] = param
    return param


def cellwise_load_csv(path):
    """data.load_csv as it was when every cell went through float() and
    math.isfinite() on its own."""
    rows = list(csv.reader(io.StringIO(read_text(path), newline="")))
    if not rows:
        raise FormatError(f"{path}: empty file")
    header = rows[0]
    if len(header) < 2:
        raise FormatError(f"{path}: header must have a date column plus at least one variate")
    width = len(header)
    if len(rows) < 2:
        raise FormatError(f"{path}: no data rows")
    timestamps = []
    columns = [[] for _ in range(width - 1)]
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise FormatError(f"{path}: row {r} has {len(row)} cells, expected {width}")
        timestamps.append(row[0])
        for c, cell in enumerate(row[1:], start=1):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: non-numeric cell at row {r}, column {header[c]!r}: {cell!r}"
                ) from None
            if not math.isfinite(value):
                raise ParseError(f"{path}: non-finite cell at row {r}, column {header[c]!r}: {cell!r}")
            columns[c - 1].append(value)
    _check_time_order(path, timestamps)   # the row-order rule, which this reader shares
    base = str(path).replace("\\", "/").rsplit("/", 1)[-1]
    try:   # SeriesDataset refuses a repeated variate name
        return SeriesDataset(
            name=base.rsplit(".", 1)[0] if "." in base else base,
            values=np.array(columns, dtype=np.float64),
            timestamps=tuple(timestamps),
            variate_names=tuple(header[1:]),
        )
    except DataError as exc:
        raise FormatError(f"{path}: {exc}") from None


def fieldwise_save_csv(path, dataset):
    """data.save_csv as it was when csv.writer wrote every value's repr as its own field,
    with `load_csv`'s time-order rule applied first, as `save_csv` applies it."""
    stamps = dataset.timestamps or tuple(str(i) for i in range(dataset.length))
    _check_time_order(path, stamps)
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        names = dataset.variate_names or tuple(f"v{i}" for i in range(dataset.variates))
        writer.writerow(("date",) + tuple(names))
        writer.writerows([t, *map(repr, row)] for t, row in zip(stamps, dataset.values.T.tolist(), strict=True))


def loop_metrics(preds, targets):
    """(mse, mae, ((t, mse, mae), ...)) of (n, C, T) forecasts as the split
    evaluation computed them before: overall, then one step t at a time."""
    mse = lambda p, q: float(np.mean((p - q) ** 2))
    mae = lambda p, q: float(np.mean(np.abs(p - q)))
    per_horizon = tuple(
        (t + 1, mse(preds[:, :, t], targets[:, :, t]), mae(preds[:, :, t], targets[:, :, t]))
        for t in range(preds.shape[-1])
    )
    return mse(preds, targets), mae(preds, targets), per_horizon
