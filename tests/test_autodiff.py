"""Tape, ops, and the finite-difference checker."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgzsl import autodiff as ad
from dgzsl.autodiff import Tape, Var
from dgzsl.errors import DgzslError, ShapeError
from dgzsl.networks import init_model

finite = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


def leafs(tape, *arrays):
    return tuple(tape.leaf(np.asarray(a, dtype=np.float64)) for a in arrays)


# ---------------------------------------------------------------- basic ops


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(10, 10)), rng.normal(size=(10, 10))
    tape = Tape()
    va, vb = leafs(tape, a, b)
    got = ad.matmul(va, vb).value
    want = np.zeros((10, 10))
    for i in range(10):
        for j in range(10):
            for k in range(10):
                want[i, j] += a[i, k] * b[k, j]
    assert np.abs(got - want).max() < 1e-12


def test_matmul_requires_2d():
    tape = Tape()
    (v,) = leafs(tape, np.ones(3))
    with pytest.raises(ShapeError):
        ad.matmul(v, v)


def test_matmul_inner_dim_mismatch():
    tape = Tape()
    a, b = leafs(tape, np.ones((2, 3)), np.ones((4, 2)))
    with pytest.raises(ShapeError):
        ad.matmul(a, b)


def test_dense_reports_both_shapes():
    tape = Tape()
    x, w, b = leafs(tape, np.ones((2, 3)), np.ones((4, 5)), np.zeros(5))
    with pytest.raises(ShapeError) as e:
        ad.dense(x, w, b)
    assert "(2, 3)" in str(e.value) and "(4, 5)" in str(e.value)


def unfused_dense(x, w, b, relu=False, mask=None):
    # the elementwise composition ad.dense replaces, kept as its oracle
    h = ad.matmul(x, w) + b
    if relu:
        h = ad.relu(h)
    return h if mask is None else h * mask


@pytest.mark.parametrize("relu,masked", [(False, False), (True, False), (True, True)])
def test_dense_matches_the_unfused_composition_bit_for_bit(relu, masked):
    rng = np.random.default_rng(7)
    x, w = rng.normal(size=(6, 5)), rng.normal(size=(5, 5))
    b, b2 = rng.normal(size=5), rng.normal(size=5)
    mask = (rng.random((6, 5)) < 0.7) / 0.7 if masked else None
    weights = rng.normal(size=(6, 5))
    runs = []
    for layer in (ad.dense, unfused_dense):
        tape = Tape()
        leaves = leafs(tape, x, w, b, b2)
        vx, vw, vb, vb2 = leaves
        # the same weight matrix feeds both layers, so its gradient accumulates
        h = layer(vx, vw, vb, relu=relu, mask=mask)
        out = layer(h, vw, vb2)
        tape.backward(ad.sum(out * weights))
        runs.append([h.value, out.value] + [v.grad for v in leaves])
    for fused, composed in zip(*runs):
        assert fused.tobytes() == composed.tobytes()
    plain = ad.dense(ad.dense(x, w, b, relu=relu, mask=mask), w, b2)
    assert plain.tobytes() == runs[0][1].tobytes()


def test_dense_records_one_node():
    tape = Tape()
    x, w, b = leafs(tape, np.ones((2, 3)), np.ones((3, 4)), np.zeros(4))
    ad.dense(x, w, b, relu=True, mask=np.ones((2, 4)))
    assert [n.op for n in tape.nodes] == ["leaf"] * 3 + ["dense"]


def test_relu_clip_exp_log_values():
    tape = Tape()
    (v,) = leafs(tape, np.array([-2.0, 0.0, 3.0]))
    assert np.array_equal(ad.relu(v).value, [0.0, 0.0, 3.0])
    assert np.array_equal(ad.clip(v, -1.0, 1.0).value, [-1.0, 0.0, 1.0])
    (w,) = leafs(tape, np.array([0.0, 1.0]))
    assert np.allclose(ad.exp(w).value, [1.0, np.e])
    assert np.allclose(ad.log(ad.exp(w)).value, [0.0, 1.0])


def test_sum_and_mean_shapes():
    tape = Tape()
    (v,) = leafs(tape, np.arange(6.0).reshape(2, 3))
    assert float(ad.sum(v)) == 15.0
    assert ad.sum(v, axis=1, keepdims=True).shape == (2, 1)
    assert ad.sum(v, axis=0).shape == (3,)
    assert float(ad.mean(v)) == 2.5


def test_ndarray_left_operand_defers_to_var():
    # __array_ufunc__ = None makes numpy hand the op back to Var.__radd__
    tape = Tape()
    (v,) = leafs(tape, np.ones(3))
    out = np.full(3, 2.0) + v
    assert isinstance(out, Var)
    assert np.array_equal(out.value, [3.0, 3.0, 3.0])
    out = np.full(3, 2.0) * v - np.ones(3)
    assert isinstance(out, Var)
    assert np.array_equal(out.value, [1.0, 1.0, 1.0])


def test_float_conversion_is_scalar_only():
    tape = Tape()
    (v,) = leafs(tape, np.ones((2, 2)))
    with pytest.raises(ShapeError):
        float(v)


def test_value_and_grad_frees_its_tape_without_the_cycle_collector():
    # a Tape <-> node reference cycle would leave every step's tape, with all
    # of its intermediates, to the cyclic collector
    model = init_model(np.random.default_rng(0), 4, 2, 2, (3,))
    tapes = []

    def fn(bound):
        w = bound.prior.mean_weights
        tapes.append(weakref.ref(w.tape))
        return ad.sum(w * w), None

    enabled = gc.isenabled()
    gc.disable()
    try:
        ad.value_and_grad(fn, model)
        assert tapes[0]() is None
    finally:
        if enabled:
            gc.enable()


# ----------------------------------------------------------------- backward


def test_backward_requires_scalar_output():
    tape = Tape()
    (v,) = leafs(tape, np.ones(3))
    with pytest.raises(ShapeError):
        tape.backward(v + v)


def test_unused_leaf_gets_zero_gradient():
    tape = Tape()
    a, b = leafs(tape, np.ones(2), np.ones(3))
    grads = ad.backward_grad(tape, ad.sum(a * a))
    # unnamed leaves key by node index
    assert np.array_equal(grads[1], np.zeros(3))
    assert np.array_equal(grads[0], 2 * np.ones(2))


def test_broadcast_add_gradient_unbroadcasts():
    tape = Tape()
    a, b = leafs(tape, np.ones((4, 3)), np.ones(3))
    tape.backward(ad.sum(a + b))
    assert a.grad.shape == (4, 3)
    assert b.grad.shape == (3,)
    assert np.array_equal(b.grad, [4.0, 4.0, 4.0])


def test_clip_gradient_is_zero_outside_interval():
    tape = Tape()
    (v,) = leafs(tape, np.array([-5.0, 0.5, 5.0]))
    tape.backward(ad.sum(ad.clip(v, -1.0, 1.0)))
    assert np.array_equal(v.grad, [0.0, 1.0, 0.0])


def test_shared_subexpression_accumulates():
    tape = Tape()
    (v,) = leafs(tape, np.array([3.0]))
    out = ad.sum(v * v + v)
    tape.backward(out)
    assert v.grad[0] == pytest.approx(7.0)


def test_matmul_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    params = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))}

    def fn(p):
        return ad.sum(ad.relu(ad.matmul(p["a"], p["b"])))

    assert ad.grad_check(fn, params) < 1e-6


def test_composite_expression_gradients():
    rng = np.random.default_rng(2)
    params = {
        "w": rng.normal(size=(5, 4)),
        "b": rng.normal(size=4),
        "x": rng.normal(size=(6, 5)),
    }

    def fn(p):
        h = ad.dense(p["x"], p["w"], p["b"], relu=True)
        scores = ad.exp(ad.clip(h, -3.0, 3.0)) * 0.1
        return ad.sum(ad.log(scores + 1.0))

    assert ad.grad_check(fn, params) < 1e-6


def test_quadratic_gradcheck_is_exact_to_roundoff():
    params = {"w": np.array([1.0, -2.0, 3.0])}

    def fn(p):
        return ad.sum(p["w"] * p["w"])

    assert ad.grad_check(fn, params) < 1e-8


# --------------------------------------------------------------- logsumexp


@given(st.lists(finite, min_size=1, max_size=12), finite)
def test_logsumexp_shift_invariance(values, c):
    v = np.array(values)
    assert ad.logsumexp(v + c) == pytest.approx(ad.logsumexp(v) + c, abs=1e-12)


def test_logsumexp_is_stable_at_extremes():
    assert ad.logsumexp(np.array([1000.0, 1000.0])) == pytest.approx(
        1000.0 + np.log(2.0)
    )
    assert ad.logsumexp(np.array([-1000.0, -1000.0])) == pytest.approx(
        -1000.0 + np.log(2.0)
    )


@given(
    st.integers(2, 6),
    st.integers(2, 6),
    st.integers(0, 2**32 - 1),
    finite,
)
def test_logsumexp_rows_shift_invariance(rows, cols, seed, c):
    x = np.random.default_rng(seed).normal(size=(rows, cols))
    a = ad.logsumexp_rows(x)
    b = ad.logsumexp_rows(x + c)
    assert np.abs((a + c) - b).max() < 1e-9


def test_logsumexp_rows_with_mask_matches_submatrix():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 5))
    mask = np.zeros((4, 5), dtype=bool)
    mask[:, [1, 3]] = True
    got = ad.logsumexp_rows(x, mask=mask)
    want = np.log(np.exp(x[:, [1, 3]]).sum(axis=1, keepdims=True))
    assert np.allclose(got, want, atol=1e-12)


def test_logsumexp_rows_rejects_empty_mask_row():
    x = np.zeros((2, 3))
    mask = np.array([[True, True, True], [False, False, False]])
    with pytest.raises(DgzslError):
        ad.logsumexp_rows(x, mask=mask)


def test_masked_logsumexp_gradients():
    rng = np.random.default_rng(4)
    mask = rng.random((3, 5)) < 0.6
    mask[:, 0] = True  # keep every row non-empty
    params = {"x": rng.normal(size=(3, 5))}

    def fn(p):
        return ad.sum(ad.logsumexp_rows(p["x"], mask=mask))

    assert ad.grad_check(fn, params) < 1e-6


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grad_check_flags_nan_gradients():
    params = {"x": np.array([0.0])}

    def fn(p):
        return ad.sum(ad.log(p["x"]))  # log(0) -> -inf

    assert ad.grad_check(fn, params) == np.inf
