"""Op-level property test: tape gradients of the broadcasting primitives on
drawn leading and broadcast shapes agree with finite differences.

Shapes are drawn; values come from a drawn seed. Each pair of operands is
built from one common shape by dropping leading axes and setting axes to 1,
so every draw is a valid broadcast.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from spectral_attn import numerics as nm  # noqa: E402

from test_numerics import check_gradients  # noqa: E402

PROPERTY = settings(max_examples=50, derandomize=True, deadline=None, database=None)
DIM = st.integers(1, 3)
LEAD = st.lists(DIM, max_size=2).map(tuple)
SEED = st.integers(0, 2**32 - 1)


@st.composite
def partner(draw, shape):
    """A shape that broadcasts to `shape`: leading axes dropped, some axes set to 1."""
    keep = draw(st.integers(0, len(shape)))
    return tuple(1 if draw(st.booleans()) else n for n in shape[len(shape) - keep:])


def squared_mean(op):
    """A scalar loss that depends on every output entry nonlinearly."""
    def build(*tensors):
        out = op(*tensors)
        return nm.mean_all(nm.mul(out, out))
    return build


@PROPERTY
@given(data=st.data(), lead=LEAD, m=DIM, k=DIM, n=DIM, seed=SEED)
def test_matmul_gradients_on_broadcast_shapes(data, lead, m, k, n, seed):
    # an empty right-hand lead is a 2-D weight, which `linear` takes in the model
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(data.draw(partner(lead)) + (m, k))
    b = rng.standard_normal(data.draw(partner(lead)) + (k, n))
    check_gradients(squared_mean(nm.matmul), a, b)


@PROPERTY
@given(lead=st.lists(DIM, min_size=1, max_size=3).map(tuple), k=DIM, n=DIM, seed=SEED)
def test_linear_gradients_on_leading_shapes(lead, k, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(lead + (k,))
    check_gradients(squared_mean(nm.linear), x, rng.standard_normal((k, n)), rng.standard_normal(n))


@pytest.mark.parametrize("op", [nm.add, nm.mul], ids=["add", "mul"])
@PROPERTY
@given(data=st.data(), shape=st.lists(DIM, min_size=1, max_size=4).map(tuple), seed=SEED)
def test_elementwise_gradients_on_broadcast_shapes(op, data, shape, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(data.draw(partner(shape)))
    b = rng.standard_normal(data.draw(partner(shape)))
    check_gradients(squared_mean(op), a, b)


@PROPERTY
@given(lead=LEAD, d=st.integers(2, 5), seed=SEED)
def test_layer_norm_gradients_on_leading_shapes(lead, d, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(lead + (d,))
    gamma = rng.standard_normal(d) + 1.0
    check_gradients(squared_mean(nm.layer_norm), x, gamma, rng.standard_normal(d))


@PROPERTY
@given(lead=st.lists(DIM, max_size=1).map(tuple), c_in=DIM, c_out=DIM, n=DIM, m=DIM,
       size=st.sampled_from([1, 3]), seed=SEED)
def test_conv2d_gradients_on_leading_shapes(lead, c_in, c_out, n, m, size, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(lead + (c_in, n, m))
    kernel = rng.standard_normal((c_out, c_in, size, size)) * 0.5
    check_gradients(squared_mean(nm.conv2d), x, kernel)
