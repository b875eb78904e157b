"""The hot path's thin primitives, forward and backward, against plainer formulations.

`_im2col`, `patchify`, `layer_norm` and its vjp, `_softmax`, `_softmax_vjp`
and `instance_normalize` spend as few Python and NumPy calls as they can;
each must agree bit for bit with the plainer formulation of the same
arithmetic kept in `tests/oracles.py`, at batch 1 and batched. So must
`mss_attention_weights`, which keeps less on the tape than the chain it
fuses and rebuilds Q and K in its vjp, and `gelu`, whose record keeps its
derivative factor instead of its input and Phi(x).
"""

import math

import numpy as np
import pytest

from spectral_attn import numerics as nm
from spectral_attn.models import ForecastModel, ModelConfig, instance_normalize, patchify

from oracles import (
    loop_im2col,
    method_instance_normalize,
    method_layer_norm,
    method_layer_norm_vjp,
    method_softmax,
    method_softmax_vjp,
    sliding_window_patchify,
    two_array_gelu,
    unfused_attention_weights,
    unfused_mss_attention_weights,
)


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def _im2col(plane, size):
    def case(rng, batch):
        x = rng.standard_normal((batch, 4, plane, plane))
        assert_bitwise(nm._im2col(x, size), loop_im2col(x, size))
    return case


def _patchify(rng, batch):
    x = rng.standard_normal((batch, 3, 96))
    for P, S in ((16, 8), (5, 3), (96, 1), (1, 1)):
        got = patchify(x, P, S)
        assert not got.flags.writeable
        assert_bitwise(got, sliding_window_patchify(x, P, S))


def _layer_norm(rng, batch):
    x = rng.standard_normal((batch, 4, 32)) * 3.0 + 1.5
    x[0, 0] = 2.0  # a constant row: variance 0, only eps remains
    gamma, beta = rng.standard_normal(32), rng.standard_normal(32)
    assert_bitwise(nm.layer_norm(x, gamma, beta).data, method_layer_norm(x, gamma, beta))


def _layer_norm_vjp(rng, batch):
    x = rng.standard_normal((batch, 4, 24)) * 3.0 + 1.5  # 1/24, unlike 1/32, is inexact
    x[0, 0] = 2.0
    gamma, beta = rng.standard_normal(24), rng.standard_normal(24)
    g = rng.standard_normal(x.shape)
    with nm.GradientTape() as tape:
        nm.layer_norm(nm.Tensor(x, requires_grad=True), gamma, beta)
    (_, _, vjp), = tape._records
    for got, want in zip(vjp(g), method_layer_norm_vjp(x, gamma, g)):
        assert_bitwise(got, want)


def _softmax(rng, batch):
    s = rng.standard_normal((batch, 4, 7, 7)) * 40.0
    s[0, 0, 0] = 1e300  # huge finite scores must not overflow
    assert_bitwise(nm._softmax(s.copy(), "test"), method_softmax(s))


def _softmax_vjp(rng, batch):
    y = nm._softmax(rng.standard_normal((batch, 4, 7, 7)) * 4.0, "test")
    g = rng.standard_normal(y.shape)
    assert_bitwise(nm._softmax_vjp(y, g), method_softmax_vjp(y, g))


def _instance_normalize(rng, batch):
    x = rng.standard_normal((batch, 4, 96)) * 5.0 - 2.0
    x[0, 1] = 7.0  # a constant variate: the 1e-5 floor applies
    xn, stats = instance_normalize(x)
    want = method_instance_normalize(x)
    for got, expected in zip((xn, stats.mean, stats.scale), want):
        assert_bitwise(got, expected)


REWRITES = {
    "im2col-4x4-K3": _im2col(4, 3),
    "im2col-4x4-K1": _im2col(4, 1),
    "im2col-12x12-K3": _im2col(12, 3),
    "im2col-12x12-K5": _im2col(12, 5),
    "im2col-32x32-K3": _im2col(32, 3),
    "patchify": _patchify,
    "layer_norm": _layer_norm,
    "layer_norm_vjp": _layer_norm_vjp,
    "softmax": _softmax,
    "softmax_vjp": _softmax_vjp,
    "instance_normalize": _instance_normalize,
}


@pytest.mark.parametrize("batch", [1, 6])
@pytest.mark.parametrize("name", sorted(REWRITES))
def test_rewritten_primitive_matches_earlier_formulation_bitwise(name, batch):
    REWRITES[name](np.random.default_rng(batch * 1000 + len(name)), batch)


def _gelu_inputs(rng, batch):
    """Normal values, and in the first row the edges of erf(x/√2), each with
    both signs: ±0, the smallest subnormal, 1e-300, Phi's saturated tail at
    40, x/√2 at erf's switch to erfc at 1 and at erfc's at 8 and three ulps
    either side of each, and inf."""
    x = rng.standard_normal((batch, 4, 128)) * 3.0
    switches = np.array([1.0, 8.0]) * math.sqrt(2.0)
    near = (switches.view(np.int64)[:, None] + np.arange(-3, 4)).view(np.float64).ravel()
    edges = np.concatenate([[0.0, 5e-324, 1e-300, 40.0, np.inf], switches, near])
    edges = np.concatenate([edges, -edges])
    x[0, 0, :edges.size] = edges
    return x


@pytest.mark.parametrize("taped", [True, False], ids=["tape", "no-tape"])
@pytest.mark.parametrize("batch", [1, 32])
def test_gelu_matches_the_two_array_formulation_bitwise(batch, taped):
    """Forward output and input adjoint, with the record holding one array
    (the derivative factor) in place of the two the oracle keeps. At -inf
    both form -inf * 0, a NaN, whose invalid-value warning is ignored."""
    rng = np.random.default_rng(batch)
    x = _gelu_inputs(rng, batch)
    g = rng.standard_normal(x.shape)
    results = []
    for op in (nm.gelu, two_array_gelu):
        inp = nm.Tensor(x, requires_grad=True)
        with np.errstate(invalid="ignore"):
            if not taped:
                results.append([op(inp).data, op(nm.Tensor(x)).data])
                continue
            with nm.GradientTape() as tape:
                out = op(inp)
            (_, _, vjp), = tape._records
            results.append([out.data, vjp(g.copy())[0]])
    for got, want in zip(*results):
        assert_bitwise(got, want)


def test_gelu_hands_erf_only_values_without_a_sign_bit(monkeypatch):
    """erf runs on |x|/√2, so SciPy's erf never takes its negative-argument
    branch; -0.0 and -inf reach it as +0.0 and +inf."""
    seen, erf = [], nm.erf

    def recording(u, out=None):
        seen.append(np.signbit(u).any())
        return erf(u, out=out)

    monkeypatch.setattr(nm, "erf", recording)
    x = _gelu_inputs(np.random.default_rng(3), 2)
    with np.errstate(invalid="ignore"):
        nm.gelu(x)
        with nm.GradientTape():
            nm.gelu(nm.Tensor(x, requires_grad=True))
    assert seen == [False, False]


@pytest.mark.parametrize("architecture, mechanism", [
    ("variate", "fsatten"), ("variate", "soatten"), ("variate", "conventional"),
    ("temporal", "soatten"), ("temporal", "conventional"),
])
def test_every_tape_record_goes_through_gradient_tape_record(monkeypatch, architecture, mechanism):
    """The benchmark's tracer times each vjp by wrapping GradientTape.record."""
    calls = []
    original = nm.GradientTape.record

    def counting(self, out, inputs, vjp):
        calls.append(out)
        return original(self, out, inputs, vjp)

    monkeypatch.setattr(nm.GradientTape, "record", counting)
    config = ModelConfig(architecture=architecture, mechanism=mechanism, C=3, L=16, T=4,
                         P=4, S=2, H=2, D=8, F=4 if mechanism == "soatten" else 0, layers=2)
    model = ForecastModel(config)
    rng = np.random.default_rng(0)
    with nm.GradientTape() as tape:
        loss = model.batch_loss(rng.standard_normal((2, 3, 16)), rng.standard_normal((2, 3, 4)),
                                training=True)
    assert len(calls) == len(tape) > 0
    assert calls[-1] is loss.node


# case -> (source shape, heads): a variate (B, C, F) source, temporal
# (B*C, N, F) ones, and the 32-window temporal minibatch of the benchmark
MSS_SOURCES = {
    "variate": ((6, 5, 8), 3),
    "temporal": ((24, 12, 8), 4),
    "temporal-minibatch": ((128, 12, 32), 4),
}


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("source_needs_grad", [True, False], ids=["soatten", "fsatten"])
@pytest.mark.parametrize("case", sorted(MSS_SOURCES))
def test_mss_attention_weights_matches_the_chain_it_fuses_bitwise(case, source_needs_grad, layers):
    """Output, both scale adjoints and the source adjoint (summed over `layers`
    records that share the source, as the encoder's layers do) equal those of
    reshape -> mul -> mul -> attention_weights bit for bit."""
    shape, heads = MSS_SOURCES[case]
    rng = np.random.default_rng(len(case) * 10 + layers)
    source = rng.standard_normal(shape)
    scales = [1.0 + 0.3 * rng.standard_normal((heads,) + shape[1:]) for _ in range(2 * layers)]
    probes = [rng.standard_normal(shape[:1] + (heads,) + shape[1:2] * 2) for _ in range(layers)]
    results = []
    for build in (nm.mss_attention_weights, unfused_mss_attention_weights):
        src = nm.Tensor(source, requires_grad=source_needs_grad)
        params = [nm.Parameter(s, f"s{i}") for i, s in enumerate(scales)]
        with nm.GradientTape() as tape:
            outs = [build(src, params[2 * i], params[2 * i + 1]) for i in range(layers)]
            losses = [nm.mean_all(nm.mul(out, probe)) for out, probe in zip(outs, probes)]
            loss = losses[0] if layers == 1 else nm.add(losses[0], losses[1])
        nm.backward(tape, loss)
        results.append([out.data for out in outs] + [p.grad for p in params] + [src.grad])
    fused, chain = results
    if not source_needs_grad:
        assert fused.pop() is None and chain.pop() is None
    for got, want in zip(fused, chain):
        assert_bitwise(got, want)


def test_mss_attention_weights_is_one_record_holding_no_q_or_k():
    source = nm.Tensor(np.ones((4, 5, 6)), requires_grad=True)
    scales = [nm.Parameter(np.ones((3, 5, 6)), name) for name in ("q", "k")]
    with nm.GradientTape() as tape:
        out = nm.mss_attention_weights(source, *scales)
    (rec_out, inputs, vjp), = tape._records
    assert rec_out is out.node and out.shape == (4, 3, 5, 5)
    assert inputs == (source, *scales)
    held = [cell.cell_contents for cell in vjp.__closure__]
    assert all(getattr(a, "shape", None) != (4, 3, 5, 6) for a in held)


@pytest.mark.parametrize("source, scale_q, scale_k", [
    ((5,), (3, 1, 5), (3, 1, 5)),          # source without a token axis
    ((4, 5, 6), (5, 6), (5, 6)),           # scales without a head axis
    ((4, 5, 6), (3, 5, 7), (3, 5, 7)),     # F differs
    ((4, 5, 6), (3, 4, 6), (3, 4, 6)),     # token count differs
    ((4, 5, 6), (3, 5, 6), (2, 5, 6)),     # Q and K scales differ
])
def test_mss_attention_weights_rejects_mismatched_shapes(source, scale_q, scale_k):
    from spectral_attn.errors import ShapeError

    with pytest.raises(ShapeError, match="mss_attention_weights: incompatible shapes"):
        nm.mss_attention_weights(np.ones(source), np.ones(scale_q), np.ones(scale_k))


def test_attention_adjoints_keep_the_chain_bits_at_the_electricity_width():
    """At N = 321 tokens and F = 49 bins (Electricity at L = 96) OpenBLAS forms
    Gᵀ Q with other last bits than (Qᵀ G)ᵀ, the product of the chain's matmul
    and transpose; both primitives must keep the chain's bits there too."""
    rng = np.random.default_rng(321)
    source = rng.standard_normal((1, 321, 49))
    scales = [1.0 + 0.3 * rng.standard_normal((2, 321, 49)) for _ in range(2)]
    probe = rng.standard_normal((1, 2, 321, 321))
    cases = [((nm.mss_attention_weights, unfused_mss_attention_weights), [source] + scales),
             ((nm.attention_weights, unfused_attention_weights), [source * s for s in scales])]
    for builds, arrays in cases:
        results = []
        for build in builds:
            tensors = [nm.Tensor(a, requires_grad=True) for a in arrays]
            with nm.GradientTape() as tape:
                out = build(*tensors)
                loss = nm.mean_all(nm.mul(out, probe))
            nm.backward(tape, loss)
            results.append([out.data] + [t.grad for t in tensors])
        for got, want in zip(*results):
            assert_bitwise(got, want)
