"""Adam: the blocked in-place update against the whole-tensor expressions."""

import re

import numpy as np
import pytest

from dgzsl import optim
from dgzsl.errors import ConfigError, DgzslError
from dgzsl.networks import init_model
from dgzsl.optim import Adam


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
        for name, value in arrays.items():  # in the dtype of each tensor
            g = np.asarray(grads[name], dtype=value.dtype)
            m, v = self.m.get(name), self.v.get(name)
            m = (1.0 - self.beta1) * g if m is None else self.beta1 * m + (1.0 - self.beta1) * g
            v = (1.0 - self.beta2) * g * g if v is None else self.beta2 * v + (1.0 - self.beta2) * g * g
            self.m[name], self.v[name] = m, v
            out[name] = value + self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        return out


def make_model(dtype=np.float64):
    # enc.h0.w and dec.out.w hold 40·530 = 21,200 entries: two full blocks of
    # 8,192 entries plus a ragged tail; biases and prior maps are smaller
    # than one block
    return init_model(np.random.default_rng(0), 40, 3, 5, (530,), dtype=dtype)


class FlatGrad(dict):
    """Named views of one flat gradient vector, as ``model.layout.views``
    gives them; numpy (and so ``Adam.step``) sees the vector itself."""

    def __init__(self, model, vec):
        super().__init__(model.layout.views(vec))
        self.vec = vec

    def __array__(self, dtype=None, copy=None):
        return self.vec


def make_grads(model, rng, transpose=()):
    grads = FlatGrad(model, np.zeros_like(model.flat))
    for name, g in grads.items():
        shape = g.shape
        if name in transpose:
            # a backward's gout.T, copied into its slice as backward does
            np.copyto(g, rng.normal(size=shape[::-1]).T)
        else:
            g[...] = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=shape)
            g[rng.random(shape) < 0.05] = 0.0
            g[rng.random(shape) < 0.05] = -0.0
    return grads


CASES = [
    ("enc.h0.w", (), 3, "multi-block"),  # two full blocks and a ragged tail
    ("prior.mean_w", (), 1, "sub-block"),  # smaller than one block
    ("dec.out.w", ("dec.out.w",), 3, "non-contiguous-grad"),  # gradient arrives as gout.T
]


@pytest.mark.parametrize(
    "name, transpose, blocks, dtype",
    [
        pytest.param(*case, dtype, id=case_id if dtype is np.float64 else f"{case_id}-float32")
        for dtype in (np.float64, np.float32)
        for *case, case_id in CASES
    ],
)
def test_step_matches_whole_tensor_expression(monkeypatch, name, transpose, blocks, dtype):
    # a block of 8,192 entries in either dtype keeps each case's block count
    monkeypatch.setattr(optim, "_BLOCK_BYTES", 8192 * np.dtype(dtype).itemsize)
    model = make_model(dtype)
    size = np.size(model.named_arrays()[name])
    assert -(-size // 8192) == blocks and size % 8192 != 0
    rng = np.random.default_rng(1)
    opt, oracle = Adam(lr=0.05), OracleAdam(lr=0.05)
    expected = {k: a.copy() for k, a in model.named_arrays().items()}
    for _ in range(4):
        grads = make_grads(model, rng, transpose)
        assert np.signbit(grads.vec[grads.vec == 0.0]).any()  # ±0 entries
        opt.step(model, grads.vec)
        expected = oracle.step(expected, grads)
        got = model.named_arrays()
        assert got[name].dtype == expected[name].dtype == dtype
        assert got[name].tobytes() == expected[name].tobytes()
        assert all(got[k].shape == expected[k].shape for k in expected)
        assert all(got[k].tobytes() == expected[k].tobytes() for k in expected)


def test_step_updates_model_in_place_and_leaves_grads_untouched():
    model = make_model()
    flat, arrays = model.flat, model.named_arrays()
    rng = np.random.default_rng(2)
    opt = Adam(lr=0.05)
    for _ in range(3):
        grads = make_grads(model, rng, ("dec.out.w",))
        before = {k: a.copy() for k, a in arrays.items()}
        grad_before = grads.vec.copy()
        assert opt.step(model, grads.vec) is None
        assert model.flat is flat
        for k, a in model.named_arrays().items():
            assert a is arrays[k]
            assert np.shares_memory(a, flat)
            assert a.tobytes() != before[k].tobytes()
        assert grads.vec.tobytes() == grad_before.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf/inf in the update
@pytest.mark.parametrize(
    "name, index, bad",
    [("enc.h0.w", -1, np.nan), ("prior.logvar_w", 0, np.inf)],
    ids=["nan-in-ragged-tail", "inf-in-sub-block"],
)
def test_non_finite_update_names_the_step_and_tensor(monkeypatch, name, index, bad):
    monkeypatch.setattr(optim, "_BLOCK_BYTES", 8192 * 8)  # enc.h0.w ends in a ragged tail
    model = make_model()
    grads = make_grads(model, np.random.default_rng(3))
    grads[name].reshape(-1)[index] = bad
    with pytest.raises(DgzslError, match=rf"step 1: '{re.escape(name)}'"):
        Adam(lr=0.05).step(model, grads)


@pytest.mark.parametrize("lr", [0.0, -1e-3])
def test_non_positive_learning_rate_rejected(lr):
    with pytest.raises(ConfigError):
        Adam(lr=lr)
