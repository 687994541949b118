"""Adam: the blocked in-place update against the whole-tensor expressions."""

import re

import numpy as np
import pytest

from dgzsl.errors import ConfigError, DgzslError
from dgzsl.networks import init_model
from dgzsl.optim import _BLOCK, Adam


class OracleAdam:
    """The per-tensor update as plain whole-array expressions."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m, self.v, self.t = {}, {}, 0

    def step(self, arrays, grads):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        out = {}
        for name, value in arrays.items():
            g = np.asarray(grads[name], dtype=np.float64)
            m, v = self.m.get(name), self.v.get(name)
            m = (1.0 - self.beta1) * g if m is None else self.beta1 * m + (1.0 - self.beta1) * g
            v = (1.0 - self.beta2) * g * g if v is None else self.beta2 * v + (1.0 - self.beta2) * g * g
            self.m[name], self.v[name] = m, v
            out[name] = value + self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        return out


def make_model():
    # enc.h0.w and dec.out.w hold 40·530 = 21,200 entries: two full blocks
    # plus a ragged tail; biases and prior maps are smaller than one block
    return init_model(np.random.default_rng(0), 40, 3, 5, (530,))


def make_grads(model, rng, transpose=()):
    grads = {}
    for name, a in model.named_arrays().items():
        shape = np.shape(a)
        if name in transpose:
            g = rng.normal(size=shape[::-1]).T  # a backward's gout.T: not contiguous
        else:
            g = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=shape)
            g[rng.random(shape) < 0.05] = 0.0
            g[rng.random(shape) < 0.05] = -0.0
        grads[name] = g
    return grads


@pytest.mark.parametrize(
    "name, transpose, blocks",
    [
        ("enc.h0.w", (), 3),  # two full blocks and a ragged tail
        ("prior.mean_w", (), 1),  # smaller than one block
        ("dec.out.w", ("dec.out.w",), 3),  # gradient arrives as gout.T
    ],
    ids=["multi-block", "sub-block", "non-contiguous-grad"],
)
def test_step_matches_whole_tensor_expression(name, transpose, blocks):
    model = make_model()
    size = np.size(model.named_arrays()[name])
    assert -(-size // _BLOCK) == blocks and size % _BLOCK != 0
    rng = np.random.default_rng(1)
    opt, oracle = Adam(lr=0.05), OracleAdam(lr=0.05)
    expected = model.named_arrays()
    for _ in range(4):
        grads = make_grads(model, rng, transpose)
        if transpose:
            assert not grads[name].flags.c_contiguous
        model = opt.step(model, grads)
        expected = oracle.step(expected, grads)
        got = model.named_arrays()
        assert got[name].tobytes() == expected[name].tobytes()
        assert all(got[k].shape == expected[k].shape for k in expected)
        assert all(got[k].tobytes() == expected[k].tobytes() for k in expected)


def test_step_leaves_model_and_grads_untouched():
    model = make_model()
    rng = np.random.default_rng(2)
    opt = Adam(lr=0.05)
    for _ in range(3):
        grads = make_grads(model, rng, ("dec.out.w",))
        before = {k: a.copy() for k, a in model.named_arrays().items()}
        grads_before = {k: g.copy() for k, g in grads.items()}
        new = opt.step(model, grads)
        for k, a in model.named_arrays().items():
            assert a.tobytes() == before[k].tobytes()
            assert not np.shares_memory(a, new.named_arrays()[k])
        for k, g in grads.items():
            assert g.tobytes() == grads_before[k].tobytes()
        model = new


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf/inf in the update
@pytest.mark.parametrize(
    "name, index, bad",
    [("enc.h0.w", -1, np.nan), ("prior.logvar_w", 0, np.inf)],
    ids=["nan-in-ragged-tail", "inf-in-sub-block"],
)
def test_non_finite_update_names_the_step_and_tensor(name, index, bad):
    model = make_model()
    grads = make_grads(model, np.random.default_rng(3))
    grads[name].reshape(-1)[index] = bad
    with pytest.raises(DgzslError, match=rf"step 1: '{re.escape(name)}'"):
        Adam(lr=0.05).step(model, grads)


@pytest.mark.parametrize("lr", [0.0, -1e-3])
def test_non_positive_learning_rate_rejected(lr):
    with pytest.raises(ConfigError):
        Adam(lr=lr)
