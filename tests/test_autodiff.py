"""Tape, ops, and the finite-difference checker."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgzsl import autodiff as ad
from dgzsl.autodiff import Tape
from dgzsl.config import TrainConfig
from dgzsl.errors import DgzslError, ShapeError
from dgzsl.inductive import inductive_value
from dgzsl.inference import predict_batch
from dgzsl.networks import init_model, make_dropout_masks
from dgzsl.optim import Adam
from dgzsl.train import train_model
from dgzsl.transductive import sharpen, soft_assign, transductive_value

import oracles as op
from oracles import logsumexp, matmul

finite = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


def leafs(tape, *arrays):
    return tuple(tape.leaf(np.asarray(a, dtype=np.float64)) for a in arrays)


# ---------------------------------------------------------------- basic ops


def test_dense_reports_both_shapes():
    tape = Tape()
    x, w, b = leafs(tape, np.ones((2, 3)), np.ones((4, 5)), np.zeros(5))
    with pytest.raises(ShapeError) as e:
        ad.dense(x, w, b)
    assert "(2, 3)" in str(e.value) and "(4, 5)" in str(e.value)


def unfused_dense(x, w, b, relu=False, mask=None):
    # the elementwise composition ad.dense replaces, kept as its oracle; its
    # ReLU is the relu op dense replaced, whose gradient is 0 at 0 (a clip to
    # [0, inf) would pass it there)
    h = op.add(matmul(x, w), b)
    if relu:
        h = op.relu(h)
    return h if mask is None else op.mul(h, mask)


def _ties(rng, dtype):
    """(x, w, b, mask) whose pre-activations hold exact zeros where the mask
    keeps them: a zero feature row with a zero bias (init_model starts every
    bias at zero) gives +0.0, and the smallest subnormal times weights in
    (-0.5, 0) rounds to -0.0 where BLAS fuses its multiply-adds, which a
    -0.0 bias keeps. The mask drops some positive pre-activations."""
    x, w = rng.normal(size=(6, 5)), rng.normal(size=(5, 5))
    x[0], x[1] = 0.0, np.finfo(dtype).smallest_subnormal
    w[:, 0] = -rng.uniform(0.1, 0.4, size=5)
    b = np.zeros(5)
    b[0] = -0.0
    mask = (rng.random((6, 5)) < 0.7) / 0.7
    mask[:2] = 1 / 0.7
    return x, w, b, mask


@pytest.mark.parametrize(
    "relu,masked,dtype",
    [(False, False, np.float64), (True, False, np.float64), (True, True, np.float64)]
    + [(True, "ties", np.float32), (True, "ties", np.float64)],
    ids=["False-False", "True-False", "True-True", "ties-float32", "ties-float64"],
)
def test_dense_matches_the_unfused_composition_bit_for_bit(relu, masked, dtype):
    rng = np.random.default_rng(7)
    x, w = rng.normal(size=(6, 5)), rng.normal(size=(5, 5))
    b, b2 = rng.normal(size=5), rng.normal(size=5)
    mask = (rng.random((6, 5)) < 0.7) / 0.7 if masked else None
    weights = rng.normal(size=(6, 5))
    if masked == "ties":
        x, w, b, mask = _ties(rng, dtype)
    x, w, b, b2, weights = (a.astype(dtype) for a in (x, w, b, b2, weights))
    mask = None if mask is None else mask.astype(dtype)
    if masked == "ties":
        pre = x @ w + b
        assert (pre[0] == 0).all() and ((pre > 0) & (mask == 0)).any()
    runs = []
    for layer in (ad.dense, unfused_dense):
        tape = Tape()
        leaves = tuple(tape.leaf(a) for a in (x, w, b, b2))
        vx, vw, vb, vb2 = leaves
        # the same weight matrix feeds both layers, so its gradient accumulates
        h = layer(vx, vw, vb, relu=relu, mask=mask)
        out = layer(h, vw, vb2)
        tape.backward(op.sum(op.mul(out, weights)))
        runs.append([h.value, out.value] + [v.grad for v in leaves])
    for fused, composed in zip(*runs):
        assert fused.tobytes() == composed.tobytes()
    plain = ad.dense(ad.dense(x, w, b, relu=relu, mask=mask), w, b2)
    assert plain.tobytes() == runs[0][1].tobytes()


@pytest.mark.parametrize("same_input", [False, True], ids=["two-layers", "weight-as-input"])
def test_dense_weight_gradient_written_in_its_slice_matches_a_plain_leaf(same_input):
    # the last use computes its weight gradient in the leaf's ``out`` and the
    # first adds to it; a weight that is also the last use's input gets its
    # input gradient first, so nothing is written there ahead of it
    rng = np.random.default_rng(8)
    x, w, b = rng.normal(size=(5, 5)), rng.normal(size=(5, 5)), rng.normal(size=5)
    weights = rng.normal(size=(5, 5))
    grads = []
    for out in (np.zeros((5, 5)), None):
        tape = Tape()
        vx, vb = leafs(tape, x, b)
        vw = tape.leaf(w, name="w", out=out)
        h = ad.dense(vx, vw, vb, relu=True)
        tape.backward(op.sum(op.mul(ad.dense(vw if same_input else h, vw, vb), weights)))
        grads.append(vw.grad)
    assert grads[0] is not None and grads[0].tobytes() == grads[1].tobytes()


def test_dense_records_one_node():
    tape = Tape()
    x, w, b = leafs(tape, np.ones((2, 3)), np.ones((3, 4)), np.zeros(4))
    ad.dense(x, w, b, relu=True, mask=np.ones((2, 4)))
    assert [n.op for n in tape.nodes] == ["leaf"] * 3 + ["dense"]


def test_clip_and_exp_values():
    tape = Tape()
    (v,) = leafs(tape, np.array([-2.0, 0.0, 3.0]))
    assert np.array_equal(ad.clip(v, -1.0, 1.0).value, [-1.0, 0.0, 1.0])
    (w,) = leafs(tape, np.array([0.0, 1.0]))
    assert np.allclose(op.exp(w).value, [1.0, np.e])


def test_sum_and_mean_shapes():
    tape = Tape()
    (v,) = leafs(tape, np.arange(6.0).reshape(2, 3))
    assert float(op.sum(v)) == 15.0
    assert op.sum(v, axis=1, keepdims=True).shape == (2, 1)
    assert op.sum(v, axis=0).shape == (3,)
    assert float(op.mean(v)) == 2.5


def test_ndarray_left_operand_defers_to_var():
    # __array_ufunc__ = None makes numpy hand the op back to Var, which has
    # no arithmetic, so Python raises instead of numpy building object arrays
    tape = Tape()
    (v,) = leafs(tape, np.ones(3))
    with pytest.raises(TypeError):
        np.full(3, 2.0) + v
    with pytest.raises(TypeError):
        np.full(3, 2.0) * v


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
        w = bound["prior.mean_w"]
        tapes.append(weakref.ref(w.tape))
        return op.sum(op.mul(w, w)), None

    enabled = gc.isenabled()
    gc.disable()
    try:
        ad.value_and_grad(fn, model)
        assert tapes[0]() is None
    finally:
        if enabled:
            gc.enable()


# ------------------------------------------------------ flat model gradient


def per_leaf_value_and_grad(fn, model):
    """The gradient path before the flat vector, kept as the oracle: leaves
    without a gradient destination, each gradient its own array, later
    contributions summed out of place (node.grad + g)."""
    tape = Tape()
    value, aux = fn(model.bind(tape))
    return float(value), ad.backward_grad(tape, value), aux


def objective_case(kind):
    rng = np.random.default_rng(7)
    model = init_model(rng, 8, 7, 4, (16, 16), keep_prob=0.8)
    model.flat += 0.05 * rng.normal(size=model.flat.size)
    attrs = rng.uniform(-1, 1, (7, 7))
    feats, unlab = rng.normal(size=(5, 8)), rng.normal(size=(6, 8))
    labels = np.array([0, 1, 3, 2, 0])
    noise_l, noise_u = rng.normal(size=(5, 4)), rng.normal(size=(6, 4))
    masks = [*make_dropout_masks(rng, model, 5), *make_dropout_masks(rng, model, 6)]
    if kind == "transductive":
        target = sharpen(soft_assign(unlab, attrs[4:], model)).values

        def fn(m):
            return transductive_value(
                m, feats, labels, unlab, target, attrs,
                margin_class_ids=np.arange(4), unseen_class_ids=np.arange(4, 7),
                noise=noise_l, noise_unlabeled=noise_u,
                enc_masks=masks[0], dec_masks=masks[1],
                enc_masks_unlab=masks[2], dec_masks_unlab=masks[3],
            )
    else:
        def fn(m):
            return inductive_value(
                m, feats, labels, attrs, noise=noise_l, margin_class_ids=np.arange(4),
                enc_masks=masks[0], dec_masks=masks[1], include_recon=kind != "no-recon",
            )
    return model, fn


@pytest.mark.parametrize("kind", ["inductive", "no-recon", "transductive"])
def test_flat_gradient_equals_per_leaf_gradients_bit_for_bit(kind, monkeypatch):
    model, fn = objective_case(kind)
    value, old, _ = per_leaf_value_and_grad(fn, model)
    arrivals = []  # (leaf name, contribution is C-contiguous) per _accum
    accum = ad._accum

    def spy(node, g):
        if node.op == "leaf":
            arrivals.append((node.name, g.flags.c_contiguous))
        accum(node, g)

    monkeypatch.setattr(ad, "_accum", spy)
    flat_value, grad, _ = ad.value_and_grad(fn, model)
    monkeypatch.undo()
    assert flat_value == value
    assert grad.shape == model.flat.shape and grad.flags.c_contiguous
    views = model.layout.views(grad)
    assert list(views) == list(old)
    for name, g in old.items():
        assert views[name].shape == g.shape, name
        assert views[name].tobytes() == g.tobytes(), name
    # class_prior's prior node passes prior.mean_w the transpose (attrsᵀ·g)ᵀ
    assert ("prior.mean_w", False) in arrivals
    names = [name for name, _ in arrivals]
    if kind == "transductive":
        # the encoder runs on the labeled and on the unlabeled batch
        assert names.count("enc.h0.w") >= 2
    if kind == "no-recon":
        # the decoder is never run: its slices stay +0.0
        assert not any(name.startswith("dec.") for name in names)
        dec = np.concatenate([g.ravel() for k, g in views.items() if k.startswith("dec.")])
        assert dec.tobytes() == np.zeros(dec.size).tobytes()


@pytest.mark.parametrize("kind", ["inductive", "no-recon", "transductive"])
def test_objective_tapes_are_freed_without_the_cycle_collector(kind):
    # a backward closure that holds a Var holds its tape: the cycle would keep
    # every step's intermediates until the cyclic collector runs
    model, fn = objective_case(kind)
    tapes = []

    def traced(m):
        tapes.append(weakref.ref(m["enc.h0.w"].tape))
        return fn(m)

    enabled = gc.isenabled()
    gc.disable()
    try:
        ad.value_and_grad(traced, model)
        assert tapes[0]() is None
    finally:
        if enabled:
            gc.enable()


def test_weight_gradients_are_computed_in_their_flat_gradient_slices():
    # enc.h0.w and dec.out.w (1000×64, 512 KB each) are the largest tensors;
    # a weight gradient made apart and then copied in would alone reach the
    # bound, while the batch's activations are 32 KB each
    rng = np.random.default_rng(3)
    model = init_model(rng, 1000, 5, 4, (64,), keep_prob=0.8)
    weight = model["enc.h0.w"]
    assert max(a.nbytes for a in model.named_arrays().values()) == weight.nbytes
    feats, attrs = rng.normal(size=(4, 1000)), rng.uniform(-1, 1, (5, 5))
    masks = make_dropout_masks(rng, model, 4)
    tape, grad = Tape(), np.empty_like(model.flat)
    value, _ = inductive_value(
        model.bind(tape, grad), feats, np.array([0, 1, 2, 0]), attrs, noise=rng.normal(size=(4, 4)),
        margin_class_ids=np.arange(3), enc_masks=masks[0], dec_masks=masks[1],
    )
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        ad.backward_grad(tape, value)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < weight.nbytes
    assert np.any(model.layout.views(grad)["enc.h0.w"] != 0.0)


@pytest.mark.parametrize("uses", [1, 2])
def test_gradient_destination_keeps_signed_zeros(uses):
    # a zero-filled destination plus every contribution would turn -0.0 into
    # +0.0; the first contribution is copied instead
    c = np.array([-0.0, 0.0, -0.0, 2.0])

    def leaf_grad(out):
        tape = Tape()
        x = tape.leaf(np.ones(4), name="x", out=out)
        total = op.sum(op.mul(x, c))
        for _ in range(uses - 1):
            total = op.add(total, op.sum(op.mul(x, c)))
        return ad.backward_grad(tape, total)["x"]

    out = np.zeros(4)
    got, expected = leaf_grad(out), leaf_grad(None)
    assert got is out
    assert got.tobytes() == expected.tobytes()
    assert np.signbit(got).tolist() == [True, False, True, False]


def test_a_float32_model_computes_in_float32_throughout():
    # float64 is fixed where a model or a dataset enters; the numeric core
    # follows its inputs, so a float32 model with float32 data stays float32
    f32 = np.float32
    rng = np.random.default_rng(12)
    model = init_model(rng, 8, 7, 4, (16, 16), keep_prob=0.8, dtype=f32)
    attrs = rng.uniform(-1, 1, (7, 7)).astype(f32)
    feats, unlab = rng.normal(size=(5, 8)).astype(f32), rng.normal(size=(6, 8)).astype(f32)
    labels = np.array([0, 1, 3, 2, 0])
    noise_l, noise_u = rng.normal(size=(5, 4)).astype(f32), rng.normal(size=(6, 4)).astype(f32)
    masks = [*make_dropout_masks(rng, model, 5), *make_dropout_masks(rng, model, 6)]
    assignments = soft_assign(unlab, attrs[4:], model)
    target = sharpen(assignments).values
    for a in (*sum(masks, []), assignments, target):
        assert a.dtype == f32

    def inductive(m):
        return inductive_value(
            m, feats, labels, attrs, noise=noise_l, margin_class_ids=np.arange(4),
            enc_masks=masks[0], dec_masks=masks[1],
        )

    def transductive(m):
        return transductive_value(
            m, feats, labels, unlab, target, attrs,
            margin_class_ids=np.arange(4), unseen_class_ids=np.arange(4, 7),
            noise=noise_l, noise_unlabeled=noise_u,
            enc_masks=masks[0], dec_masks=masks[1],
            enc_masks_unlab=masks[2], dec_masks_unlab=masks[3],
        )

    opt = Adam()
    for fn in (inductive, transductive):
        tape = Tape()
        value, _ = fn(model.bind(tape))
        ad.backward_grad(tape, value)
        for node in tape.nodes:
            assert node.value.dtype == f32 and node.grad.dtype == f32, node.op
        _, grad, _ = ad.value_and_grad(fn, model)
        assert grad.dtype == f32
        opt.step(model, grad)
        assert model.flat.dtype == opt._m.dtype == opt._v.dtype == f32
    _, scores, _ = predict_batch(feats, np.arange(4, 7), attrs, model)
    assert scores.dtype == f32


def test_dtype_float32_runs_every_regime_in_float32(tiny_dataset, monkeypatch):
    # the float64 dataset is cast where it enters train_model, and nothing
    # after that widens: every tape node of every step stays float32
    nodes = []
    record = Tape._record

    def keep(self, *args, **kwargs):
        var = record(self, *args, **kwargs)
        nodes.append(self.nodes[-1])
        return var

    monkeypatch.setattr(Tape, "_record", keep)
    small = dict(latent_dim=4, hidden_dims=(8, 8), batch_size=64, epochs=3, dtype="float32")
    for cfg in (
        TrainConfig(regime="inductive", **small),
        TrainConfig(regime="transductive", pretrain_epochs=1, **small),
        TrainConfig(
            regime="fewshot", k=2, fewshot_epochs=2, transductive_fewshot=True, transductive_epochs=2, **small
        ),
    ):
        nodes.clear()
        result = train_model(tiny_dataset, cfg)
        assert result.model.flat.dtype == np.float32
        ops = {n.op for n in nodes}
        assert {"dense", "prior", "kl_matrix", "leaf"} <= ops, (cfg.regime, ops)
        wide = {
            (n.op, str(n.value.dtype), str(getattr(n.grad, "dtype", None)))
            for n in nodes
            if n.value.dtype != np.float32 or n.grad is not None and n.grad.dtype != np.float32
        }
        assert not wide, (cfg.regime, wide)


# ----------------------------------------------------------------- backward


def test_backward_requires_scalar_output():
    tape = Tape()
    (v,) = leafs(tape, np.ones(3))
    with pytest.raises(ShapeError):
        tape.backward(op.add(v, v))


def test_unused_leaf_gets_zero_gradient():
    tape = Tape()
    a, b = leafs(tape, np.ones(2), np.ones(3))
    grads = ad.backward_grad(tape, op.sum(op.mul(a, a)))
    # unnamed leaves key by node index
    assert np.array_equal(grads[1], np.zeros(3))
    assert np.array_equal(grads[0], 2 * np.ones(2))


def test_broadcast_add_gradient_unbroadcasts():
    tape = Tape()
    a, b = leafs(tape, np.ones((4, 3)), np.ones(3))
    tape.backward(op.sum(op.add(a, b)))
    assert a.grad.shape == (4, 3)
    assert b.grad.shape == (3,)
    assert np.array_equal(b.grad, [4.0, 4.0, 4.0])


def test_clip_gradient_is_zero_outside_interval():
    tape = Tape()
    (v,) = leafs(tape, np.array([-5.0, 0.5, 5.0]))
    tape.backward(op.sum(ad.clip(v, -1.0, 1.0)))
    assert np.array_equal(v.grad, [0.0, 1.0, 0.0])


def test_shared_subexpression_accumulates():
    tape = Tape()
    (v,) = leafs(tape, np.array([3.0]))
    out = op.sum(op.add(op.mul(v, v), v))
    tape.backward(out)
    assert v.grad[0] == pytest.approx(7.0)


def test_composite_expression_gradients():
    rng = np.random.default_rng(2)
    params = {
        "w": rng.normal(size=(5, 4)),
        "b": rng.normal(size=4),
        "x": rng.normal(size=(6, 5)),
    }

    def fn(p):
        h = ad.dense(p["x"], p["w"], p["b"], relu=True)
        scores = op.mul(op.exp(ad.clip(h, -3.0, 3.0)), 0.1)
        return op.sum(op.exp(op.mul(op.add(scores, 1.0), -0.5)))

    assert ad.grad_check(fn, params) < 1e-6


def test_quadratic_gradcheck_is_exact_to_roundoff():
    params = {"w": np.array([1.0, -2.0, 3.0])}

    def fn(p):
        return op.sum(op.mul(p["w"], p["w"]))

    assert ad.grad_check(fn, params) < 1e-8


# --------------------------------------------------------------- logsumexp


@given(st.lists(finite, min_size=1, max_size=12), finite)
def test_logsumexp_shift_invariance(values, c):
    v = np.array(values)
    assert logsumexp(v + c) == pytest.approx(logsumexp(v) + c, abs=1e-12)


def test_logsumexp_is_stable_at_extremes():
    assert logsumexp(np.array([1000.0, 1000.0])) == pytest.approx(
        1000.0 + np.log(2.0)
    )
    assert logsumexp(np.array([-1000.0, -1000.0])) == pytest.approx(
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
    a = op.logsumexp_rows(x)
    b = op.logsumexp_rows(x + c)
    assert np.abs((a + c) - b).max() < 1e-9


def test_logsumexp_rows_with_mask_matches_submatrix():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 5))
    mask = np.zeros((4, 5), dtype=bool)
    mask[:, [1, 3]] = True
    got = op.logsumexp_rows(x, mask=mask)
    want = np.log(np.exp(x[:, [1, 3]]).sum(axis=1, keepdims=True))
    assert np.allclose(got, want, atol=1e-12)


def test_logsumexp_rows_rejects_empty_mask_row():
    x = np.zeros((2, 3))
    mask = np.array([[True, True, True], [False, False, False]])
    with pytest.raises(DgzslError):
        op.logsumexp_rows(x, mask=mask)


def test_masked_logsumexp_gradients():
    rng = np.random.default_rng(4)
    mask = rng.random((3, 5)) < 0.6
    mask[:, 0] = True  # keep every row non-empty
    params = {"x": rng.normal(size=(3, 5))}

    def fn(p):
        return op.sum(op.logsumexp_rows(p["x"], mask=mask))

    assert ad.grad_check(fn, params) < 1e-6


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grad_check_flags_nan_gradients():
    params = {"x": np.array([1000.0])}

    def fn(p):
        return op.sum(op.exp(p["x"]))  # exp(1000) overflows to inf

    assert ad.grad_check(fn, params) == np.inf
