"""The forecast path's thin primitives against plainer formulations.

`_im2col`, `patchify`, `layer_norm`, `_softmax` and `instance_normalize`
spend as few Python and NumPy calls as they can; each must agree bit for
bit with the plainer formulation of the same arithmetic kept in
`tests/oracles.py`, at batch 1 and batched.
"""

import numpy as np
import pytest

from spectral_attn import numerics as nm
from spectral_attn.models import ForecastModel, ModelConfig, instance_normalize, patchify

from oracles import (
    loop_im2col,
    method_instance_normalize,
    method_layer_norm,
    method_softmax,
    sliding_window_patchify,
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


def _softmax(rng, batch):
    s = rng.standard_normal((batch, 4, 7, 7)) * 40.0
    s[0, 0, 0] = 1e300  # huge finite scores must not overflow
    assert_bitwise(nm._softmax(s, "test"), method_softmax(s))


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
    "softmax": _softmax,
    "instance_normalize": _instance_normalize,
}


@pytest.mark.parametrize("batch", [1, 6])
@pytest.mark.parametrize("name", sorted(REWRITES))
def test_rewritten_primitive_matches_earlier_formulation_bitwise(name, batch):
    REWRITES[name](np.random.default_rng(batch * 1000 + len(name)), batch)


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
    assert calls[-1] is loss
