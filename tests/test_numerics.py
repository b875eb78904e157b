"""Tensor engine: op semantics, tape gradients vs finite differences, Adam, SVD."""

import importlib.machinery
import importlib.util
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from spectral_attn import numerics as nm
from spectral_attn.attention import orthogonal_init
from spectral_attn.errors import ConfigError, EmptyTapeError, FiniteInputError, ShapeError

from oracles import (
    accumulating_backward,
    finite_difference_gradient,
    jacobi_eigenvalues,
    jacobi_singular_values,
    max_rel_error,
    naive_conv2d,
    naive_matmul,
    one_shot_conv2d,
    sum_all,
    unfused_attention_weights,
    unfused_linear,
    unfused_merge_heads,
    unfused_split_heads,
    weight_matmul,
)

GRAD_TOL = 1e-4
FD_STEP = 1e-5


def tape_gradient(build, *arrays):
    """Analytic gradients of a scalar loss w.r.t. each input array."""
    tensors = [nm.Tensor(a, requires_grad=True) for a in arrays]
    with nm.GradientTape() as tape:
        loss = build(*tensors)
    nm.backward(tape, loss)
    return [t.grad for t in tensors]


def check_gradients(build, *arrays):
    analytic = tape_gradient(build, *arrays)
    for idx, arr in enumerate(arrays):
        def loss_at(x):
            replaced = list(arrays)
            replaced[idx] = x
            return float(build(*[nm.Tensor(a) for a in replaced]).data)

        numeric = finite_difference_gradient(loss_at, arr.copy(), step=FD_STEP)
        err = max_rel_error(analytic[idx], numeric)
        assert err < GRAD_TOL, f"input {idx}: max relative error {err}"


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def test_matmul_identity():
    rng = np.random.default_rng(0)
    b = rng.standard_normal((3, 5))
    out = nm.matmul(np.eye(3), b)
    np.testing.assert_array_equal(out.data, b)


def test_matmul_annihilator():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 3))
    out = nm.matmul(a, np.zeros((3, 2)))
    np.testing.assert_array_equal(out.data, np.zeros((4, 2)))


def test_matmul_known_product():
    out = nm.matmul([[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]])
    expected = naive_matmul([[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_array_equal(expected, [[19.0, 22.0], [43.0, 50.0]])
    np.testing.assert_allclose(out.data, expected, rtol=0, atol=0)


def test_matmul_vs_naive_oracle():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 6))
    b = rng.standard_normal((6, 3))
    np.testing.assert_allclose(nm.matmul(a, b).data, naive_matmul(a, b), atol=1e-12)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        nm.matmul(np.zeros((2, 3)), np.zeros((2, 3)))


def test_matmul_associativity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((5, 6))
        c = rng.standard_normal((6, 3))
        left = nm.matmul(nm.matmul(a, b), c).data
        right = nm.matmul(a, nm.matmul(b, c)).data
        denom = max(np.abs(left).max(), 1.0)
        assert np.abs(left - right).max() / denom < 1e-10


def test_matmul_batched_matches_per_plane():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 4, 5))
    b = rng.standard_normal((3, 5, 2))
    out = nm.matmul(a, b).data
    for h in range(3):
        np.testing.assert_allclose(out[h], naive_matmul(a[h], b[h]), atol=1e-12)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def test_softmax_uniform_on_zero_matrix():
    out = nm.softmax_rows(np.zeros((2, 3)))
    np.testing.assert_allclose(out.data, np.full((2, 3), 1.0 / 3.0), atol=1e-15)


def test_softmax_large_scores_do_not_overflow():
    out = nm.softmax_rows(np.array([[1000.0, 1000.0]]))
    np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)


def test_softmax_closed_form_row():
    out = nm.softmax_rows(np.array([[0.0, np.log(3.0)]]))
    np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)


def test_softmax_rejects_nan():
    with pytest.raises(FiniteInputError):
        nm.softmax_rows(np.array([[np.nan, 1.0]]))


def test_softmax_rows_properties():
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = rng.standard_normal((4, 6)) * 10
        y = nm.softmax_rows(s).data
        assert (y >= 0).all() and (y <= 1).all()
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_array_equal(np.argmax(y, axis=1), np.argmax(s, axis=1))


# ---------------------------------------------------------------------------
# backward / tape
# ---------------------------------------------------------------------------

def test_backward_sum_gives_ones():
    w = nm.Parameter(np.arange(6.0).reshape(2, 3), "w")
    with nm.GradientTape() as tape:
        loss = sum_all(w)
    nm.backward(tape, loss)
    np.testing.assert_array_equal(w.grad, np.ones((2, 3)))


def test_backward_quadratic():
    w = nm.Parameter(np.array([[2.0]]), "w")
    with nm.GradientTape() as tape:
        loss = sum_all(nm.mul(w, w))
    nm.backward(tape, loss)
    np.testing.assert_array_equal(w.grad, np.array([[4.0]]))


def test_backward_empty_tape_raises():
    tape = nm.GradientTape()
    with pytest.raises(EmptyTapeError):
        nm.backward(tape, nm.Tensor(0.0))


def test_backward_accumulates_across_uses():
    w = nm.Parameter(np.array([[1.0, 2.0]]), "w")
    with nm.GradientTape() as tape:
        loss = sum_all(nm.add(w, w))
    nm.backward(tape, loss)
    np.testing.assert_array_equal(w.grad, np.full((1, 2), 2.0))


def test_backward_frees_intermediate_adjoints_and_keeps_leaf_grads():
    w = nm.Parameter(np.arange(6.0).reshape(2, 3), "w")
    x = nm.Tensor(np.ones((3, 2)), requires_grad=True)
    with nm.GradientTape() as tape:
        product = nm.matmul(w, x)
        h = nm.relu(product)
        square = nm.mul(h, h)
        loss = nm.mean_all(square)
    nm.backward(tape, loss)
    assert len(tape) == 0
    assert product.grad is None and h.grad is None and square.grad is None and loss.grad is None
    assert all(t.node.grad is None for t in (product, h, square, loss))
    assert w.grad.any() and x.grad is not None and x.grad.any()


def _reads_across(needs):
    """matmul, mul and linear: x's adjoint reads W's data, and W's reads x's."""
    return {1 - i for i in (0, 1) if needs[i]}


# primitive -> (call on its input tensors, input shapes, the inputs whose data
# its vjp reads, given which inputs need an adjoint)
CLOSURE_CASES = {
    "matmul": (nm.matmul, [(2, 3, 4), (4, 5)], _reads_across),
    "linear": (nm.linear, [(2, 3, 4), (4, 5), (5,)], _reads_across),
    "add": (nm.add, [(3, 4), (4,)], lambda needs: set()),
    "sub": (nm.sub, [(3, 4), (3, 4)], lambda needs: set()),
    "mul": (nm.mul, [(3, 4), (4,)], _reads_across),
    "scale": (lambda a: nm.scale(a, 2.0), [(3, 4)], lambda needs: set()),
    "relu": (nm.relu, [(3, 4)], lambda needs: set()),
    "gelu": (nm.gelu, [(3, 4)], lambda needs: set()),
    "softmax_rows": (nm.softmax_rows, [(3, 4)], lambda needs: set()),
    "attention_weights": (lambda q, k: nm.attention_weights(q, k), [(2, 3, 4), (2, 5, 4)],
                          lambda needs: {0, 1}),
    "mss_attention_weights": (lambda a, sq, sk: nm.mss_attention_weights(a, sq, sk),
                              [(2, 3, 4), (2, 3, 4), (2, 3, 4)], lambda needs: {0, 1, 2}),
    "layer_norm": (nm.layer_norm, [(3, 4), (4,), (4,)], lambda needs: {1}),
    "conv2d": (nm.conv2d, [(2, 2, 4, 4), (2, 2, 3, 3)], lambda needs: {0, 1}),
    "transpose": (nm.transpose, [(3, 4)], lambda needs: set()),
    "split_heads": (lambda x: nm.split_heads(x, 2), [(3, 4)], lambda needs: set()),
    "merge_heads": (nm.merge_heads, [(2, 3, 4)], lambda needs: set()),
    "reshape": (lambda a: nm.reshape(a, (12,)), [(3, 4)], lambda needs: set()),
    "tile_planes": (lambda a: nm.tile_planes(a, 2), [(3, 4)], lambda needs: set()),
    "concat_rows": (lambda a, b: nm.concat_rows([a, b]), [(3, 4), (2, 4)], lambda needs: set()),
    "mean_all": (nm.mean_all, [(3, 4)], lambda needs: set()),
    "dropout": (lambda a: nm.dropout(a, 0.5, np.random.default_rng(0), True), [(3, 4)],
                lambda needs: set()),
}


def test_closure_cases_cover_every_taped_primitive():
    emitting = {name for name, f in vars(nm).items()
                if callable(f) and "_emit" in getattr(getattr(f, "__code__", None), "co_names", ())}
    assert emitting == set(CLOSURE_CASES)


def _closure_values(vjp):
    """Everything a vjp closure holds, looking inside lists and tuples."""
    pending = [cell.cell_contents for cell in vjp.__closure__ or ()]
    while pending:
        value = pending.pop()
        if isinstance(value, (list, tuple)):
            pending.extend(value)
        else:
            yield value


@pytest.mark.parametrize("name, constant", [
    pytest.param(name, constant, id=f"{name}-{'all-need-grad' if constant is None else f'{constant}-constant'}")
    for name, (_, shapes, _) in sorted(CLOSURE_CASES.items())
    for constant in [None] + (list(range(len(shapes))) if len(shapes) > 1 else [])
])
def test_vjp_closure_holds_no_tensor_and_only_the_input_data_it_reads(name, constant):
    """A record is (output node, input nodes, vjp). The output node holds no
    array, an input that needs no adjoint is recorded as None and a leaf as
    itself, and the vjp captures arrays, not tensors: of the inputs' data it
    holds only what it reads. So a forward array that no vjp reads is freed
    as soon as the forward code drops it."""
    op, shapes, reads = CLOSURE_CASES[name]
    rng = np.random.default_rng(3)
    needs = [i != constant for i in range(len(shapes))]
    inputs = [nm.Tensor(rng.standard_normal(s), requires_grad=n) for s, n in zip(shapes, needs)]
    with nm.GradientTape() as tape:
        out = op(*inputs)
    (node, recorded, vjp), = tape._records
    assert node is out.node and isinstance(node, nm._Node) and node.grad is None
    assert recorded == tuple(t if n else None for t, n in zip(inputs, needs))
    held = list(_closure_values(vjp))
    assert not any(isinstance(v, (nm.Tensor, nm._Node)) for v in held)
    arrays = [v for v in held if isinstance(v, np.ndarray)]
    kept = {i for i, t in enumerate(inputs) if any(np.shares_memory(t.data, a) for a in arrays)}
    assert kept == reads(needs)


def test_second_backward_on_the_same_tape_raises_empty_tape_error():
    w = nm.Parameter(np.arange(6.0).reshape(2, 3), "w")
    with nm.GradientTape() as tape:
        loss = nm.mean_all(nm.mul(w, w))
    nm.backward(tape, loss)
    first = w.grad.copy()
    with pytest.raises(EmptyTapeError, match="empty tape"):
        nm.backward(tape, loss)
    np.testing.assert_array_equal(w.grad, first)


@pytest.mark.parametrize("nested", [True, False], ids=["nested", "one-after-the-other"])
def test_backward_ignores_the_adjoint_another_tape_left_on_its_intermediate(nested):
    """x is made under one tape and used under another. The other tape's
    backward writes an adjoint into x's node; this tape's backward must not
    add it to its own, so p's gradient is the one a single tape gives."""
    p = nm.Parameter(np.array([2.0]), "p")
    with nm.GradientTape() as tape:
        x = nm.mul(p, p)
        if nested:
            with nm.GradientTape() as inner:
                y = nm.mean_all(nm.scale(x, 3.0))
        loss = nm.mean_all(x)
    if not nested:
        with nm.GradientTape() as inner:
            y = nm.mean_all(nm.scale(x, 3.0))
    nm.backward(inner, y)
    assert p.grad[0] == 0.0
    nm.backward(tape, loss)
    np.testing.assert_array_equal(p.grad, [4.0])


def test_backward_through_a_scalar_intermediate_keeps_its_shape():
    """A 0-d intermediate adjoint stays 0-d (`np.ascontiguousarray` would make
    it 1-d, which `mean_all`'s vjp cannot take)."""
    x = nm.Tensor(np.arange(3.0), requires_grad=True)
    with nm.GradientTape() as tape:
        loss = nm.mean_all(nm.add(nm.mean_all(x), nm.mean_all(nm.mul(x, x))))
    nm.backward(tape, loss)
    np.testing.assert_allclose(x.grad, (1.0 + 2.0 * np.arange(3.0)) / 3.0, rtol=1e-15)


def test_backward_stores_a_transposed_view_adjoint_c_contiguous():
    x = nm.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with nm.GradientTape() as tape:
        loss = sum_all(nm.mul(nm.transpose(x), np.arange(6.0).reshape(3, 2)))
    nm.backward(tape, loss)  # transpose's vjp hands x a transposed view
    assert x.grad.flags.c_contiguous
    np.testing.assert_array_equal(x.grad, np.arange(6.0).reshape(3, 2).T)


def test_backward_matches_accumulating_oracle_bitwise():
    rng = np.random.default_rng(7)
    w = nm.Parameter(rng.standard_normal((4, 5)), "w")
    b = nm.Parameter(rng.standard_normal(5), "b")
    leaf = nm.Tensor(rng.standard_normal((3, 2, 4)), requires_grad=True)
    grads = []
    for replay in (nm.backward, accumulating_backward):
        w.grad[...] = 0.0
        b.grad[...] = 0.0
        leaf.grad = None
        with nm.GradientTape() as tape:
            h = nm.gelu(nm.add(nm.matmul(leaf, w), b))
            s = nm.softmax_rows(nm.matmul(h, nm.transpose(h, (0, 2, 1))))
            loss = nm.mean_all(nm.mul(nm.add(s, nm.layer_norm(s, np.ones(2), np.zeros(2))), s))
        replay(tape, loss)
        grads.append([w.grad.copy(), b.grad.copy(), leaf.grad.copy()])
    for engine, oracle in zip(*grads):
        assert engine.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("seed", range(20))
def test_composite_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 5))
    k = rng.standard_normal((2, 2, 3, 3)) * 0.5

    def build(at, bt, kt):
        prod = nm.matmul(at, bt)
        soft = nm.softmax_rows(prod)
        act = nm.relu(nm.sub(soft, nm.scale(prod, 0.01)))
        stack = nm.tile_planes(act, 2)
        conv = nm.conv2d(stack, kt)
        return nm.mean_all(nm.mul(conv, conv))

    check_gradients(build, a, b, k)


@pytest.mark.parametrize("op_name", [
    "add", "add_bias", "sub", "mul", "scale", "relu", "gelu", "softmax",
    "layer_norm", "transpose", "reshape", "tile", "concat", "mean",
    "linear", "linear_3d", "attention_weights", "split_heads", "merge_heads",
    "mss_attention_weights",
])
@pytest.mark.parametrize("seed", range(20))
def test_per_op_gradients(op_name, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 4))
    if op_name == "relu":
        x = np.where(np.abs(x) < 0.05, 0.2, x)  # keep clear of the kink

    builders = {
        "add": lambda t: nm.mean_all(nm.mul(nm.add(t, t), t)),
        "sub": lambda t: nm.mean_all(nm.mul(nm.sub(t, nm.scale(t, 0.3)), t)),
        "mul": lambda t: nm.mean_all(nm.mul(t, t)),
        "scale": lambda t: sum_all(nm.scale(t, -1.7)),
        "relu": lambda t: nm.mean_all(nm.mul(nm.relu(t), t)),
        "gelu": lambda t: nm.mean_all(nm.mul(nm.gelu(t), t)),
        "softmax": lambda t: nm.mean_all(nm.mul(nm.softmax_rows(t), t)),
        "transpose": lambda t: nm.mean_all(nm.mul(nm.transpose(t), nm.transpose(t))),
        "reshape": lambda t: nm.mean_all(nm.mul(nm.reshape(t, (2, 6)), nm.reshape(t, (2, 6)))),
        "tile": lambda t: nm.mean_all(nm.mul(nm.tile_planes(t, 3), nm.tile_planes(t, 3))),
        "mean": lambda t: nm.mean_all(nm.mul(t, t)),
    }
    if op_name == "add_bias":
        bias = rng.standard_normal(4)
        check_gradients(lambda t, bt: nm.mean_all(nm.mul(nm.add(t, bt), t)), x, bias)
        return
    if op_name == "layer_norm":
        gamma = rng.standard_normal(4) + 1.0
        beta = rng.standard_normal(4)
        check_gradients(
            lambda t, g, b: nm.mean_all(nm.mul(nm.layer_norm(t, g, b), t)), x, gamma, beta
        )
        return
    if op_name in ("linear", "linear_3d"):
        if op_name == "linear_3d":
            x = rng.standard_normal((2, 3, 4))
        w = rng.standard_normal((4, 5))
        bias = rng.standard_normal(5)

        def build(t, wt, bt):
            out = nm.linear(t, wt, bt)
            return nm.mean_all(nm.mul(out, out))

        check_gradients(build, x, w, bias)
        return
    if op_name == "attention_weights":
        keys = rng.standard_normal((5, 4))
        probe = rng.standard_normal((3, 5))
        check_gradients(
            lambda q, k: nm.mean_all(nm.mul(nm.attention_weights(q, k), probe)), x, keys
        )
        return
    if op_name == "mss_attention_weights":
        # a (B, N, F) = (2, 3, 4) source and two (H, N, F) = (2, 3, 4) scales
        source = rng.standard_normal((2, 3, 4))
        scale_q, scale_k = rng.standard_normal((2, 2, 3, 4))
        probe = rng.standard_normal((2, 2, 3, 3))
        check_gradients(
            lambda a, sq, sk: nm.mean_all(nm.mul(nm.mss_attention_weights(a, sq, sk), probe)),
            source, scale_q, scale_k,
        )
        return
    if op_name in ("split_heads", "merge_heads"):
        # a fixed random probe makes the loss depend on where each entry lands
        if op_name == "split_heads":
            op = lambda t: nm.split_heads(t, 2)  # noqa: E731
        else:
            op, x = nm.merge_heads, x.reshape(2, 3, 2)
        probe = rng.standard_normal(op(x).shape)
        check_gradients(lambda t: nm.mean_all(nm.mul(op(t), probe)), x)
        return
    if op_name == "concat":
        top = rng.standard_normal((2, 4))
        bottom = rng.standard_normal((3, 4))
        check_gradients(
            lambda a, b: nm.mean_all(nm.mul(nm.concat_rows([a, b]), nm.concat_rows([a, b]))),
            top, bottom,
        )
        return
    check_gradients(builders[op_name], x)


# ---------------------------------------------------------------------------
# broadcasting over leading axes
# ---------------------------------------------------------------------------

def test_matmul_batch_by_weight_gradients():
    rng = np.random.default_rng(30)
    a = rng.standard_normal((3, 4, 5))
    w = rng.standard_normal((5, 2))
    out = nm.matmul(a, w).data
    for i in range(3):
        np.testing.assert_allclose(out[i], naive_matmul(a[i], w), atol=1e-12)
    check_gradients(lambda at, wt: nm.mean_all(nm.mul(nm.matmul(at, wt), nm.matmul(at, wt))), a, w)


def test_matmul_head_broadcast_gradients():
    # (B, 1, N, F) @ (H, F, F): the linear Q/K arm on a minibatch
    rng = np.random.default_rng(31)
    src = rng.standard_normal((2, 1, 3, 4))
    maps = rng.standard_normal((3, 4, 4))
    out = nm.matmul(src, maps).data
    assert out.shape == (2, 3, 3, 4)
    for b in range(2):
        for h in range(3):
            np.testing.assert_allclose(out[b, h], naive_matmul(src[b, 0], maps[h]), atol=1e-12)
    check_gradients(lambda st, mt: nm.mean_all(nm.mul(nm.matmul(st, mt), nm.matmul(st, mt))), src, maps)


def test_add_bias_on_batch_gradients():
    rng = np.random.default_rng(32)
    x = rng.standard_normal((2, 3, 4))
    bias = rng.standard_normal(4)
    check_gradients(lambda t, bt: nm.mean_all(nm.mul(nm.add(t, bt), t)), x, bias)


def test_mul_head_broadcast_gradients():
    # (B, 1, N, F) * (H, N, F): spectrum scaling of a minibatch's sources
    rng = np.random.default_rng(33)
    src = rng.standard_normal((2, 1, 3, 4))
    scales = rng.standard_normal((3, 3, 4))
    out = nm.mul(src, scales).data
    assert out.shape == (2, 3, 3, 4)
    np.testing.assert_array_equal(out[1, 2], src[1, 0] * scales[2])
    check_gradients(lambda st, wt: nm.mean_all(nm.mul(nm.mul(st, wt), nm.mul(st, wt))), src, scales)


def test_layer_norm_3d_gradients():
    rng = np.random.default_rng(34)
    x = rng.standard_normal((2, 3, 4))
    gamma = rng.standard_normal(4) + 1.0
    beta = rng.standard_normal(4)
    out = nm.layer_norm(x, gamma, beta).data
    for i in range(2):
        np.testing.assert_allclose(out[i], nm.layer_norm(x[i], gamma, beta).data, atol=1e-15)
    check_gradients(
        lambda t, g, b: nm.mean_all(nm.mul(nm.layer_norm(t, g, b), t)), x, gamma, beta
    )


def test_conv2d_batch_axis_gradients():
    rng = np.random.default_rng(35)
    x = rng.standard_normal((2, 2, 4, 4))
    k = rng.standard_normal((3, 2, 3, 3)) * 0.5
    out = nm.conv2d(x, k).data
    assert out.shape == (2, 3, 4, 4)
    for i in range(2):
        np.testing.assert_allclose(out[i], naive_conv2d(x[i], k), atol=1e-12)
    check_gradients(lambda t, kt: nm.mean_all(nm.mul(nm.conv2d(t, kt), nm.conv2d(t, kt))), x, k)


def _conv_group(c, size, plane):
    """Planes per group of patch rows for (c, plane, plane) inputs and a size-K kernel."""
    return max(1, nm._CONV_GROUP_BYTES // (c * size * size * plane * plane * 8))


# case -> (leading axes, C_in, C_out, plane side, K); plane counts are set
# relative to the group that conv2d builds patch rows for
CONV_GROUP_CASES = {
    "one-plane-K3": lambda: ((1,), 4, 4, 32, 3),
    "one-group-K3": lambda: ((_conv_group(4, 3, 32),), 4, 4, 32, 3),
    "group-plus-one-K3": lambda: ((_conv_group(4, 3, 32) + 1,), 4, 4, 32, 3),
    "groups-and-remainder-K3": lambda: ((2 * _conv_group(4, 3, 32) + 2,), 4, 4, 32, 3),
    "groups-and-remainder-K1": lambda: ((2 * _conv_group(4, 1, 32) + 5,), 4, 4, 32, 1),
    "groups-and-remainder-K5": lambda: ((2 * _conv_group(4, 5, 32) + 1,), 4, 4, 32, 5),
    "two-leading-axes": lambda: ((2, _conv_group(4, 3, 32) + 1), 4, 4, 32, 3),
    "no-leading-axis": lambda: ((), 4, 4, 32, 3),
    "channels-widen": lambda: ((2 * _conv_group(6, 3, 32) + 1,), 2, 6, 32, 3),
    "small-planes": lambda: ((7, 3), 4, 4, 5, 3),
}


@pytest.mark.parametrize("name", sorted(CONV_GROUP_CASES))
def test_conv2d_matches_one_shot_oracle_bitwise(name):
    lead, c_in, c_out, plane, size = CONV_GROUP_CASES[name]()
    rng = np.random.default_rng(43)
    x = rng.standard_normal((*lead, c_in, plane, plane))
    kernel = rng.standard_normal((c_out, c_in, size, size))
    probe = rng.standard_normal((*lead, c_out, plane, plane))
    results = []
    for conv in (nm.conv2d, one_shot_conv2d):
        tensors = [nm.Tensor(x, requires_grad=True), nm.Tensor(kernel, requires_grad=True)]
        with nm.GradientTape() as tape:
            out = conv(*tensors)
            loss = nm.mean_all(nm.mul(out, probe))
        nm.backward(tape, loss)
        results.append([out.data] + [t.grad for t in tensors])
    for got, want in zip(*results):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_conv2d_record_keeps_no_patch_rows():
    """The tape keeps the input and output of a conv2d, not its 9x patch rows."""
    rng = np.random.default_rng(44)
    x = nm.Tensor(rng.standard_normal((32, 4, 32, 32)), requires_grad=True)
    kernel = nm.Tensor(rng.standard_normal((4, 4, 3, 3)), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with nm.GradientTape() as tape:
            out = nm.conv2d(x, kernel)
        kept = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert len(tape) == 1
    assert kept <= out.data.nbytes


@pytest.mark.parametrize("op, left, right", [
    (nm.matmul, (2, 3, 4), (3, 4, 5)),
    (nm.matmul, (3, 4), (5,)),
    (nm.add, (2, 3), (4,)),
    (nm.add, (2, 3, 4), (3, 3, 4)),
    (nm.mul, (2, 1, 3, 4), (3, 4, 4)),
])
def test_incompatible_broadcast_raises_shape_error(op, left, right):
    with pytest.raises(ShapeError, match="incompatible shapes"):
        op(np.zeros(left), np.zeros(right))


# fused primitive -> (fused op, the unfused chain it replaced, input shapes)
FUSED_CHAINS = {
    "linear_2d": (nm.linear, unfused_linear, [(3, 4), (4, 5), (5,)]),
    "linear_3d": (nm.linear, unfused_linear, [(2, 3, 4), (4, 5), (5,)]),
    "split_heads": (lambda x: nm.split_heads(x, 2), lambda x: unfused_split_heads(x, 2),
                    [(2, 3, 6)]),
    "merge_heads": (nm.merge_heads, unfused_merge_heads, [(2, 3, 4, 2)]),
    "attention_weights": (lambda q, k: nm.attention_weights(q, k),
                          lambda q, k: unfused_attention_weights(q, k),
                          [(2, 3, 4, 5), (2, 3, 4, 5)]),
}


@pytest.mark.parametrize("name", sorted(FUSED_CHAINS))
def test_fused_op_matches_unfused_chain_bitwise(name):
    fused, chain, shapes = FUSED_CHAINS[name]
    rng = np.random.default_rng(41)
    arrays = [rng.standard_normal(shape) for shape in shapes]
    probe = rng.standard_normal(fused(*arrays).shape)
    results = []
    for build in (fused, chain):
        tensors = [nm.Tensor(a, requires_grad=True) for a in arrays]
        with nm.GradientTape() as tape:
            out = build(*tensors)
            loss = nm.mean_all(nm.mul(out, probe))
        nm.backward(tape, loss)
        results.append([out.data] + [t.grad for t in tensors])
    for got, want in zip(*results):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_fused_ops_record_once():
    x = nm.Tensor(np.ones((2, 3, 4)), requires_grad=True)
    with nm.GradientTape() as tape:
        heads = nm.split_heads(nm.linear(x, np.ones((4, 4)), np.zeros(4)), 2)
        nm.merge_heads(heads)
        nm.attention_weights(heads, heads)
    assert len(tape) == 4


# op -> (left shape, right shape): fsatten's constant amplitude source times
# its MSS scales or, in the linear arm, its dense Q/K maps, and soatten's
# constant patch tokens times qk_embed
NO_ADJOINT_CASES = {
    "mul": (nm.mul, (2, 1, 3, 4), (2, 3, 4)),
    "matmul_weight": (nm.matmul, (2, 5, 6), (6, 3)),
    "matmul_linear_arm": (nm.matmul, (2, 1, 3, 4), (3, 4, 4)),
    "linear_no_bias": (nm.linear, (2, 5, 6), (6, 3)),
}


@pytest.mark.parametrize("constant_side", [0, 1])
@pytest.mark.parametrize("name", sorted(NO_ADJOINT_CASES))
def test_vjp_forms_no_adjoint_for_an_input_that_needs_none(name, constant_side):
    op, left, right = NO_ADJOINT_CASES[name]
    rng = np.random.default_rng(5)
    arrays = [rng.standard_normal(left), rng.standard_normal(right)]
    tensors = [nm.Tensor(a, requires_grad=i != constant_side) for i, a in enumerate(arrays)]
    with nm.GradientTape() as tape:
        out = op(*tensors)
    (_, _, vjp), = tape._records
    g = rng.standard_normal(out.shape)
    adjoints = vjp(g)
    assert adjoints[constant_side] is None
    # the other adjoint is what the op gives when both inputs need one
    both = [nm.Tensor(a, requires_grad=True) for a in arrays]
    with nm.GradientTape() as tape:
        op(*both)
    (_, _, full_vjp), = tape._records
    kept = 1 - constant_side
    assert adjoints[kept].tobytes() == full_vjp(g)[kept].tobytes()


@pytest.mark.parametrize("x_needs_grad", [True, False])
@pytest.mark.parametrize("x_shape", [(5, 6), (2, 5, 6), (2, 1, 5, 6)])
def test_linear_without_bias_matches_weight_matmul_bitwise(x_shape, x_needs_grad):
    """`linear(x, W)` is the 2-D-weight product `matmul` used to carry, forward and backward."""
    rng = np.random.default_rng(17)
    x, w = rng.standard_normal(x_shape), rng.standard_normal((6, 3))
    probe = rng.standard_normal(x_shape[:-1] + (3,))
    results = []
    for op in (nm.linear, weight_matmul):
        xt, wt = nm.Tensor(x, requires_grad=x_needs_grad), nm.Tensor(w, requires_grad=True)
        with nm.GradientTape() as tape:
            out = op(xt, wt)
            loss = nm.mean_all(nm.mul(out, probe))
        nm.backward(tape, loss)
        results.append((out.data, xt.grad, wt.grad))
    (out, dx, dw), (ref_out, ref_dx, ref_dw) = results
    assert out.tobytes() == ref_out.tobytes() and dw.tobytes() == ref_dw.tobytes()
    assert (dx is None and ref_dx is None) if not x_needs_grad else dx.tobytes() == ref_dx.tobytes()


def test_fused_ops_reject_bad_input():
    with pytest.raises(FiniteInputError, match="attention_weights: input must be finite"):
        nm.attention_weights(np.array([[np.inf, 1.0]]), np.ones((3, 2)))
    with pytest.raises(ShapeError, match="incompatible shapes"):
        nm.attention_weights(np.ones((2, 3)), np.ones((2, 4)))
    with pytest.raises(ShapeError, match="incompatible shapes"):
        nm.attention_weights(np.ones((2, 2, 3)), np.ones((3, 2, 3)))
    with pytest.raises(ShapeError, match="incompatible shapes"):
        nm.linear(np.ones((2, 3)), np.ones((3, 4)), np.ones(3))
    with pytest.raises(ShapeError, match=r"incompatible shapes \(2, 3\) x \(4, 4\)$"):
        nm.linear(np.ones((2, 3)), np.ones((4, 4)))
    with pytest.raises(ConfigError, match="not divisible"):
        nm.split_heads(np.ones((2, 3, 4)), 3)
    with pytest.raises(ShapeError):
        nm.merge_heads(np.ones((3, 4)))


def test_layer_norm_variance_is_bitwise_numpy_var():
    x = np.random.default_rng(8).standard_normal((4, 3, 32)) * 5 + 2
    gamma, beta = np.full(32, 1.5), np.full(32, -0.25)
    xhat = (x - x.mean(axis=-1, keepdims=True)) * (1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5))
    assert nm.layer_norm(x, gamma, beta).data.tobytes() == (xhat * gamma + beta).tobytes()


def test_layer_norm_and_conv2d_shape_errors():
    with pytest.raises(ShapeError):
        nm.layer_norm(np.zeros((2, 3, 4)), np.ones(3), np.zeros(3))
    with pytest.raises(ShapeError):
        nm.conv2d(np.zeros((2, 3, 4, 4)), np.zeros((2, 2, 3, 3)))


def test_dropout_identity_when_not_training():
    x = nm.Tensor(np.ones((3, 3)), requires_grad=True)
    rng = nm.substream(0, "dropout")
    assert nm.dropout(x, 0.5, rng, training=False) is x
    assert nm.dropout(x, 0.0, rng, training=True) is x


def test_dropout_mask_and_gradient():
    x = nm.Parameter(np.ones((64, 64)), "x")
    rng = nm.substream(1, "dropout")
    with nm.GradientTape() as tape:
        out = nm.dropout(x, 0.25, rng, training=True)
        loss = sum_all(out)
    nm.backward(tape, loss)
    kept = out.data != 0
    np.testing.assert_allclose(out.data[kept], 1.0 / 0.75)
    np.testing.assert_allclose(x.grad[kept], 1.0 / 0.75)
    np.testing.assert_allclose(x.grad[~kept], 0.0)
    assert 0.6 < kept.mean() < 0.9


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_leaves_parameter():
    p = nm.Parameter(np.array([1.0, -2.0]), "p")
    opt = nm.Adam([p], lr=0.1)
    before = p.data.copy()
    opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_adam_descends_against_constant_gradient():
    p = nm.Parameter(np.array([0.0]), "p")
    opt = nm.Adam([p], lr=0.01)
    for _ in range(50):
        p.grad[...] = 3.0
        opt.step()
    assert p.data[0] < -0.1


def test_adam_single_step_hand_evaluation():
    # m1 = 0.1, v1 = 1e-3; bias-corrected both become 1 -> step = -lr/(1+eps)
    p = nm.Parameter(np.array([0.0]), "p")
    opt = nm.Adam([p], lr=0.1)
    p.grad[...] = 1.0
    opt.step()
    assert abs(p.data[0] - (-0.1)) < 1e-8


def test_adam_rejects_a_parameter_listed_twice():
    p = nm.Parameter(np.zeros(2), "p")
    q = nm.Parameter(np.zeros(3), "q")
    with pytest.raises(ConfigError, match="more than once"):
        nm.Adam([p, q, p], lr=1e-3)


def test_adam_parameters_view_one_flat_buffer():
    p = nm.Parameter(np.arange(6.0).reshape(2, 3), "p")
    q = nm.Parameter(np.array([7.0]), "q")
    p.grad[...] = 1.0
    opt = nm.Adam([p, q], lr=1e-3)
    np.testing.assert_array_equal(opt.data, [0, 1, 2, 3, 4, 5, 7])
    np.testing.assert_array_equal(opt.grad, [1, 1, 1, 1, 1, 1, 0])
    assert np.shares_memory(p.data, opt.data) and np.shares_memory(q.grad, opt.grad)
    opt.step()
    assert (p.data < np.arange(6.0).reshape(2, 3)).all() and q.data[0] == 7.0
    opt.zero_grad()
    assert not p.grad.any()


def test_adam_rejects_nonpositive_lr():
    p = nm.Parameter(np.zeros(1), "p")
    with pytest.raises(ConfigError):
        nm.Adam([p], lr=0.0)
    with pytest.raises(ConfigError):
        nm.Adam([p], lr=-1e-3)


@pytest.mark.parametrize("lr", [float("nan"), float("inf")])
def test_adam_rejects_nonfinite_lr(lr):
    with pytest.raises(ConfigError, match="positive and finite"):
        nm.Adam([nm.Parameter(np.zeros(1), "p")], lr=lr)


# ---------------------------------------------------------------------------
# SVD
# ---------------------------------------------------------------------------

def test_svd_identity():
    np.testing.assert_allclose(nm.svd_singular_values(np.eye(4)), np.ones(4), atol=1e-12)


def test_svd_diagonal():
    np.testing.assert_allclose(
        nm.svd_singular_values(np.diag([3.0, 1.0])), [3.0, 1.0], atol=1e-12
    )


def test_svd_matches_jacobi_eigen_oracle():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((5, 5))
    values = nm.svd_singular_values(a)
    expected = np.sqrt(np.clip(jacobi_eigenvalues(a.T @ a), 0.0, None))
    np.testing.assert_allclose(values, expected, rtol=1e-8)


@pytest.mark.parametrize("matrix", [np.full((2, 2), 1e308), np.full((3, 1), -1.5e308)])
def test_svd_refuses_singular_values_that_overflow(matrix):
    """LAPACK returned inf for sigma_max, which read as rank 0."""
    with pytest.raises(FiniteInputError, match="^svd_singular_values: singular values overflow float64$"):
        nm.svd_singular_values(matrix)


def test_svd_nonincreasing_and_rectangular():
    rng = np.random.default_rng(12)
    for shape in [(7, 3), (3, 7), (6, 6)]:
        values = nm.svd_singular_values(rng.standard_normal(shape))
        assert len(values) == min(shape)
        assert all(values[i] >= values[i + 1] for i in range(len(values) - 1))
        assert (values >= 0).all()


def test_svd_empty_matrix_rejected():
    with pytest.raises(ShapeError):
        nm.svd_singular_values(np.zeros((0, 3)))


def _row_stochastic(rng, n):
    scores = rng.standard_normal((n, n))
    weights = np.exp(scores - scores.max(axis=1, keepdims=True))
    return weights / weights.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("kind, shape", [
    ("square", (1, 1)), ("square", (2, 2)), ("square", (5, 5)), ("square", (12, 12)),
    ("square", (32, 32)),
    ("rectangular", (7, 3)), ("rectangular", (3, 7)), ("rectangular", (32, 5)),
    ("rectangular", (17, 32)),
    ("stochastic", (4, 4)), ("stochastic", (12, 12)), ("stochastic", (32, 32)),
])
def test_svd_matches_one_sided_jacobi_oracle(kind, shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    if kind == "stochastic":
        a = _row_stochastic(rng, shape[0])
    else:
        a = rng.standard_normal(shape)
    values = nm.svd_singular_values(a)
    expected = jacobi_singular_values(a)
    assert values.shape == expected.shape
    assert np.max(np.abs(values - expected)) <= 1e-12 * expected[0]


def test_svd_rejects_non_finite():
    with pytest.raises(FiniteInputError):
        nm.svd_singular_values(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_svd_invariant_under_orthogonal_factor():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((6, 6))
    q = orthogonal_init(6, 6, seed=99)
    base = nm.svd_singular_values(a)
    rotated = nm.svd_singular_values(q @ a)
    np.testing.assert_allclose(base, rotated, rtol=1e-8)


# ---------------------------------------------------------------------------
# substreams
# ---------------------------------------------------------------------------

def test_substreams_are_deterministic_and_distinct():
    a1 = nm.substream(42, "init/x").standard_normal(8)
    a2 = nm.substream(42, "init/x").standard_normal(8)
    b = nm.substream(42, "init/y").standard_normal(8)
    np.testing.assert_array_equal(a1, a2)
    assert not np.allclose(a1, b)


def test_substream_rejects_negative_seed():
    with pytest.raises(ConfigError):
        nm.substream(-1, "init")


# ---------------------------------------------------------------------------
# erf: SciPy's compiled ufunc without scipy.special's package init
# ---------------------------------------------------------------------------

HELP = """
import runpy, sys
sys.argv = ["spectral_attn", "--help"]
try:
    runpy.run_module("spectral_attn", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""


@pytest.mark.parametrize("entry", ["import spectral_attn", HELP], ids=["import", "cli-help"])
def test_package_and_cli_help_leave_scipy_special_unloaded(entry):
    """In a fresh interpreter, so no other test's import counts. Any
    module-level `scipy.special` import in the package fails this."""
    src = str(Path(nm.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = entry + "\nimport sys\nprint('scipy.special' in sys.modules)\n"
    done = subprocess.run([sys.executable, "-W", "error", "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_erf_is_scipy_specials_own_ufunc():
    import scipy.special
    assert nm.erf is scipy.special.erf


def test_erf_matches_scipy_bitwise_at_zeros_subnormals_tails_and_non_finites():
    import scipy.special
    magnitudes = [0.0, 5e-324, 1e-300, 0.5, 1.0, 5.9, 6.0, 27.0, 1e308, np.inf]
    grid = np.array(magnitudes + [-m for m in magnitudes])
    np.testing.assert_array_equal(nm.erf(grid).view(np.int64), scipy.special.erf(grid).view(np.int64))
    assert np.isnan(nm.erf(np.nan)) and np.isnan(scipy.special.erf(np.nan))


def _ulps_around(center, count):
    """The `count` floats on each side of `center`, and `center` itself."""
    return (np.array([center]).view(np.int64) + np.arange(-count, count + 1)).view(np.float64)


def test_erf_is_odd_bit_for_bit():
    """`gelu` runs erf on |x|/√2 and copies x's sign back, which keeps every
    bit only while erf(-u) is -erf(u) byte for byte: at ±0, subnormals, both
    sides of erf's |u| = 1 switch to erfc and erfc's own switches at 8 and
    near 26 (where erfc underflows), and at the huge and infinite tails."""
    magnitudes = np.concatenate([
        np.linspace(0.0, 30.0, 300_001),
        np.logspace(-323, 308, 20_001),
        [0.0, 5e-324, 1e-310, np.nextafter(2.2250738585072014e-308, 0.0), 2.2250738585072014e-308],
        _ulps_around(1.0, 256), _ulps_around(8.0, 256), _ulps_around(26.0, 256),
        _ulps_around(26.5, 256), [1e300, np.finfo(np.float64).max, np.inf],
    ])
    u = np.concatenate([magnitudes, -magnitudes])
    odd = nm.erf(-u).view(np.int64) == (-nm.erf(u)).view(np.int64)
    assert odd.all(), (f"erf(-u) != -erf(u) at u = {u[~odd][:5].tolist()}: GELU's sign-symmetric erf "
                       f"(erf on |x|/√2, then copysign) no longer keeps bits on this SciPy")


@pytest.mark.parametrize("case", ["no-module", "module-without-erf", "no-spec"])
def test_erf_loader_falls_back_to_scipy_special(tmp_path, monkeypatch, case):
    """No installed SciPy takes this path, so the lookup is pointed at a
    directory whose `special` holds no compiled module, or (as a `.py`
    suffix) a module that defines no erf, or finds no spec at all (where
    the fallback import is what names the missing package)."""
    import scipy.special
    if case == "module-without-erf":
        (tmp_path / "special").mkdir()
        (tmp_path / "special" / "_special_ufuncs.py").write_text("", encoding="utf-8")
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".py"])
    spec = None if case == "no-spec" else SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, package=None: spec if name == "scipy" else find_spec(name, package))
    assert nm._load_erf() is scipy.special.erf


# ---------------------------------------------------------------------------
# refusals of the primitives, each by name
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("call, error, words", [
    (lambda: nm.sub(np.ones((2, 3)), np.ones(3)), ShapeError, "sub: incompatible shapes (2, 3) - (3,)"),
    (lambda: nm.softmax_rows(np.ones(3)), ShapeError, "softmax_rows: need at least 2 dims, got shape (3,)"),
    (lambda: nm.softmax_rows(np.ones((2, 0))), ShapeError,
     "softmax_rows: no entries to normalize over, got shape (2, 0)"),
    (lambda: nm.layer_norm(np.float64(1.0), np.ones(1), np.ones(1)), ShapeError,
     "layer_norm: expected at least 1-D input, got shape ()"),
    (lambda: nm.split_heads(np.ones(4), 2), ShapeError, "split_heads: expected (..., N, D) input, got shape (4,)"),
    (lambda: nm.tile_planes(np.ones(3), 2), ShapeError,
     "tile_planes: expected 2-D input and count >= 1, got (3,) / 2"),
    (lambda: nm.tile_planes(np.ones((2, 3)), 0), ShapeError,
     "tile_planes: expected 2-D input and count >= 1, got (2, 3) / 0"),
    (lambda: nm.concat_rows([]), ShapeError, "concat_rows: empty input"),
    (lambda: nm.concat_rows([np.ones((2, 3)), np.ones((2, 4))]), ShapeError,
     "concat_rows: incompatible part shape (2, 4)"),
    (lambda: nm.dropout(np.ones(3), 1.0, nm.substream(0, "dropout"), True), ConfigError,
     "dropout: probability must be in [0, 1), got 1.0"),
    (lambda: nm.mean_all(np.ones((2, 0))), ShapeError, "mean_all: no entries to average, got shape (2, 0)"),
    (lambda: nm.layer_norm(np.ones((3, 0)), np.ones(0), np.ones(0)), ShapeError,
     "layer_norm: no entries to normalize over, got shape (3, 0)"),
    (lambda: nm.attention_weights(np.ones((1, 2, 3)), np.ones((4, 2, 3))), ShapeError,
     "attention_weights: incompatible shapes (1, 2, 3) x (4, 2, 3)"),
    (lambda: nm.attention_weights(np.ones((2, 3)), np.ones(3)), ShapeError,
     "attention_weights: incompatible shapes (2, 3) x (3,)"),
    (lambda: nm.attention_weights(np.ones((2, 0)), np.ones((3, 0))), ShapeError,
     "attention_weights: incompatible shapes (2, 0) x (3, 0)"),
    (lambda: nm.attention_weights(np.ones((2, 1)), np.ones((0, 1))), ShapeError,
     "attention_weights: no entries to normalize over, got shape (2, 0)"),
    (lambda: nm.mss_attention_weights(np.ones((2, 3, 0)), np.ones((1, 3, 0)), np.ones((1, 3, 0))), ShapeError,
     "mss_attention_weights: incompatible shapes (2, 3, 0) with scales (1, 3, 0) / (1, 3, 0)"),
    (lambda: nm.mss_attention_weights(np.ones((2, 0, 1)), np.ones((1, 0, 1)), np.ones((1, 0, 1))), ShapeError,
     "mss_attention_weights: no entries to normalize over, got shape (2, 1, 0, 0)"),
    (lambda: nm.attention_weights(np.ones((2, 2)) + 1j, np.ones((2, 2))), ShapeError,
     "Tensor: expected real values, got complex128"),
    (lambda: nm.attention_weights(np.full((1, 1), 1e308), np.full((1, 1), 2.0)), FiniteInputError,
     "attention_weights: input must be finite (no NaN/Inf)"),
    (lambda: nm.mss_attention_weights(np.full((1, 1), 1e308), np.full((1, 1, 1), 1e308), np.ones((1, 1, 1))),
     FiniteInputError, "mss_attention_weights: input must be finite (no NaN/Inf)"),
], ids=["sub", "softmax-rank", "softmax-no-columns", "layer-norm-scalar", "split-heads-rank", "tile-planes-rank",
        "tile-planes-count", "concat-rows-empty", "concat-rows-width", "dropout-p", "mean-all-empty",
        "layer-norm-zero-width", "attention-broadcast-lead", "attention-one-dim-keys", "attention-zero-width",
        "attention-no-keys", "mss-zero-bins", "mss-no-tokens", "complex-operand", "attention-overflow",
        "mss-overflow"])
def test_a_primitive_refuses_bad_input_by_name_with_no_warning(call, error, words):
    """The last six are new refusals: a zero-width Q/K or F = 0 returned uniform
    weights, an empty key axis or a complex operand raised NumPy's own error or
    warning, and scores that overflow raised a RuntimeWarning before the refusal.
    So are `mean_all` of no entries and `layer_norm` of width 0, which returned
    NaN with a RuntimeWarning, and Q and K whose leading axes only broadcast,
    which `attention_weights` broadcast although no model path needs it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=f"^{re.escape(words)}$"):
            call()


def test_attention_scales_by_the_width_of_its_operands():
    """softmax(Q Kᵀ / √d): with Q = I and K = 5·I (d = 4) each row puts
    e^(5/2) on its own key and 1 on each other one."""
    q, k = np.eye(4), 5.0 * np.eye(4)
    diagonal = math.exp(2.5) / (math.exp(2.5) + 3.0)
    want = np.where(np.eye(4) == 1, diagonal, 1.0 / (math.exp(2.5) + 3.0))
    np.testing.assert_allclose(nm.attention_weights(q, k).data, want, rtol=1e-14)
    source, ones = np.eye(4)[None], np.ones((1, 4, 4))
    np.testing.assert_allclose(nm.mss_attention_weights(source, ones, 5.0 * ones).data[0, 0], want, rtol=1e-14)


@pytest.mark.parametrize("loss_shape, words", [
    ((2,), "backward expects a scalar loss, got shape (2,)"),
    (None, "loss was not produced under this tape"),
])
def test_backward_refuses_a_loss_it_cannot_replay(loss_shape, words):
    p = nm.Parameter(np.ones(2), "p")
    with nm.GradientTape() as tape:
        out = nm.mul(p, p)
    if loss_shape is None:
        with nm.GradientTape():
            loss = nm.mean_all(out)   # recorded on another tape
        error = EmptyTapeError
    else:
        loss, error = out, ShapeError
    with pytest.raises(error, match=f"^{re.escape(words)}$"):
        nm.backward(tape, loss)


def test_backward_skips_a_record_whose_output_never_reaches_the_loss():
    p = nm.Parameter(np.array([1.5, -2.0]), "p")
    with nm.GradientTape() as tape:
        nm.mul(p, p)   # recorded, but the loss does not read it
        loss = nm.mean_all(p)
    nm.backward(tape, loss)
    np.testing.assert_array_equal(p.grad, [0.5, 0.5])


# (B, H, N, F): one (B, H, N, N) stack of scores is 1 MiB, an F-wide Q or K a quarter of that
B, H, N, F = 8, 4, 64, 16
# primitive -> (operand shapes, N × N stacks of Q and K that it builds itself,
#               its vjp's peak when each primitive had its own score step)
ATTENTION_PEAKS = {
    "attention_weights": ([(B, H, N, F)] * 2, 0.0, 1.50),
    "mss_attention_weights": ([(B, N, F), (H, N, F), (H, N, F)], 2 * F / N, 1.75),
}


def _record_peaks(build, arrays):
    """Peak traced memory of `build`'s forward and of its vjp, over what was held
    before each call, in (B, H, N, N) stacks; outputs and adjoints included."""
    tensors = [nm.Tensor(a, requires_grad=True) for a in arrays]
    g = np.random.default_rng(1).standard_normal((B, H, N, N))
    tracemalloc.start()
    try:
        with nm.GradientTape() as tape:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            build(*tensors)
            forward = tracemalloc.get_traced_memory()[1] - base
        (_, _, vjp), = tape._records
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        adjoints = vjp(g)
        adjoint = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(adjoints) == len(arrays)
    return forward / g.nbytes, adjoint / g.nbytes


@pytest.mark.parametrize("name", sorted(ATTENTION_PEAKS))
def test_the_score_step_softmaxes_the_scores_it_owns(name):
    """Beyond the Q and K it builds, a forward holds one N × N stack, the scores
    that become its output, and the finite check's bool mask (an eighth); a
    softmax into a fresh stack peaked at 2.08. Each vjp peaks no higher than
    before, up to the (..., N, 1) row sums."""
    shapes, built, adjoint_bound = ATTENTION_PEAKS[name]
    rng = np.random.default_rng(0)
    forward, adjoint = _record_peaks(getattr(nm, name), [rng.standard_normal(s) for s in shapes])
    assert forward - built <= 1.25
    assert adjoint <= adjoint_bound + 1 / N


def test_tensor_and_parameter_reprs_show_their_shape():
    assert repr(nm.Tensor(np.ones((2, 3)), requires_grad=True)) == "Tensor(shape=(2, 3), requires_grad=True)"
    assert repr(nm.Parameter(np.ones(4), "w")) == "Parameter('w', shape=(4,))"


def test_retain_freed_memory_does_nothing_without_glibc(monkeypatch):
    def no_libc(name):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(nm.ctypes, "CDLL", no_libc)
    assert nm._retain_freed_memory() is None
