"""Encoder, decoder, attribute prior: shapes, init, dropout, round trips."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgzsl import autodiff as ad
from dgzsl.autodiff import Tape, Var
from dgzsl.errors import DataFormatError, ShapeError
from dgzsl.gaussian import DiagGaussian
from dgzsl.networks import (
    LOGVAR_MAX,
    LOGVAR_MIN,
    class_prior,
    decode,
    encode,
    glorot,
    init_model,
    make_dropout_masks,
    model_from_shapes,
)
from dgzsl.serialize import save_checkpoint
from dgzsl.train import load_model, save_model

from conftest import prior_model
import oracles as op
from oracles import dropout_masks, matmul, transpose


def zeroed(model):
    out = model.copy()
    out.flat[:] = 0.0
    return out


@pytest.fixture()
def model():
    return init_model(np.random.default_rng(0), 8, 3, 4, (16, 16), keep_prob=0.8)


def shapes(model, **changes):
    """The model's tensor shapes as a checkpoint reports them (a bias as a
    1×n row), name -> shape, with some of them replaced."""
    return {**{name: a.shape if a.ndim == 2 else (1, *a.shape) for name, a in model.named_arrays().items()}, **changes}


def rebuild(model, **changes):
    """model_from_shapes on the model's tensor shapes with some of them replaced."""
    return model_from_shapes(shapes(model, **changes))


def load_crafted(path, model, **changes):
    """load_model of a checkpoint at ``path`` that holds the model's tensors
    with some of them replaced by zero arrays of the given shapes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(path, {**model.named_arrays(), **{k: np.zeros(v) for k, v in changes.items()}})
    return load_model(path)


# ------------------------------------------------------------ shape rule


def test_affine_validates_shapes(model, tmp_path):
    # a 1-D weight is stored as a 1×8 row, so its layer reads as 1 → 8 wide
    with pytest.raises(DataFormatError, match=r"'enc.h0.b' has shape \(1, 16\), expected \(8,\)"):
        load_crafted(tmp_path / "m.ckpt", model, **{"enc.h0.w": (8,)})
    with pytest.raises(DataFormatError, match=r"'dec.h1.b' has shape \(1, 9\), expected \(16,\)"):
        rebuild(model, **{"dec.h1.b": (1, 9)})  # bias must match out dim


def test_mlp_chain_validation(model):
    with pytest.raises(DataFormatError, match=r"'enc.h1.w' has shape \(15, 16\), expected \(16, 16\)"):
        rebuild(model, **{"enc.h1.w": (15, 16)})
    with pytest.raises(DataFormatError, match=r"'dec.out.w' has shape \(16, 9\), expected \(16, 8\)"):
        rebuild(model, **{"dec.out.w": (16, 9)})


def test_keep_prob_bounds(model):
    for bad in (0.0, -0.1, 1.5, float("nan")):
        with pytest.raises(DataFormatError, match="keep_prob must be in"):
            model_from_shapes(shapes(model), keep_prob=bad)
    assert model_from_shapes(shapes(model), keep_prob=1.0).keep_prob == 1.0


def test_prior_params_validation(model):
    with pytest.raises(DataFormatError, match=r"'prior.logvar_w' has shape \(3, 4\), expected \(4, 3\)"):
        rebuild(model, **{"prior.logvar_w": (3, 4)})
    nan_prior = prior_model(np.array([[np.nan]]), np.array([[0.0]]))
    with pytest.raises(ShapeError, match="^prior mean has a non-finite entry in row 0$"):
        class_prior(np.ones((2, 1)), nan_prior)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_overflowing_posterior_names_its_map_field_and_first_row():
    # float32 overflows near 3.4e38, so scores of a huge model stop here
    model = init_model(np.random.default_rng(0), 6, 3, 4, (8,), keep_prob=1.0, dtype=np.float32)
    model["enc.mean.w"][...] *= np.float32(1e38)
    x = np.zeros((4, 6), np.float32)
    x[2:] = 100.0  # rows 0 and 1 reach the mean head as zeros and stay finite
    with pytest.raises(ShapeError, match="^posterior mean has a non-finite entry in row 2$"):
        encode(x, model)
    assert np.isfinite(encode(x[:2], model).mean).all()


def test_loader_errors_name_the_file(model, tmp_path):
    path = tmp_path / "run" / "model.ckpt"
    with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: tensor 'enc.mean.w' has shape \(1, 4\)"):
        load_crafted(path, model, **{"enc.mean.w": (4,)})


# ------------------------------------------------------------------- init


def test_init_shapes_and_zero_logvar_heads(model):
    named = model.named_arrays()
    assert named["enc.h0.w"].shape == (8, 16)
    assert named["enc.mean.w"].shape == (16, 4)
    assert named["dec.out.w"].shape == (16, 8)
    assert named["prior.mean_w"].shape == (4, 3)
    # unit variances at step zero
    assert np.array_equal(named["enc.logvar.w"], np.zeros((16, 4)))
    assert np.array_equal(named["prior.logvar_w"], np.zeros((4, 3)))
    for key, arr in named.items():
        if key.endswith(".b"):
            assert np.array_equal(arr, np.zeros_like(arr))


def test_glorot_respects_fan_bound():
    rng = np.random.default_rng(1)
    w = glorot(rng, 30, 50)
    s = np.sqrt(6.0 / 80.0)
    assert w.shape == (30, 50)
    assert np.abs(w).max() <= s
    assert np.abs(w).max() > 0.5 * s  # actually fills the interval


def test_model_dims(model):
    assert model.layout.feature_dim == 8
    assert model.layout.latent_dim == 4
    assert model.layout.attr_dim == 3
    assert model.layout.hidden_dims == (16, 16)


def test_layout_lists_every_tensor_in_checkpoint_order(model):
    layout = model.layout
    names = [name for name, _, _ in layout.entries]
    assert names == [
        "enc.h0.w", "enc.h0.b", "enc.h1.w", "enc.h1.b",
        "enc.logvar.w", "enc.logvar.b", "enc.mean.w", "enc.mean.b",
        "dec.h0.w", "dec.h0.b", "dec.h1.w", "dec.h1.b", "dec.out.w", "dec.out.b",
        "prior.mean_w", "prior.logvar_w",
    ]
    assert list(model.named_arrays()) == names
    offsets = np.cumsum([0] + [int(np.prod(shape)) for _, shape, _ in layout.entries])
    assert [off for _, _, off in layout.entries] == offsets[:-1].tolist()
    assert layout.size == offsets[-1] == model.flat.size


# ---------------------------------------------------------------- forward


def test_zero_model_encodes_to_standard_normal(model):
    z = zeroed(model)
    q = encode(np.random.default_rng(2).normal(size=(1, 8)), z)
    assert np.array_equal(q.mean, np.zeros((1, 4)))
    assert np.array_equal(q.logvar, np.zeros((1, 4)))


def test_encode_eval_mode_is_deterministic(model):
    x = np.random.default_rng(3).normal(size=(1, 8))
    a = encode(x, model)
    b = encode(x, model)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.logvar, b.logvar)


def test_encode_dimension_mismatch(model):
    with pytest.raises(ShapeError):
        encode(np.zeros((2, 9)), model)


@pytest.mark.parametrize("fn, width", [(encode, 8), (decode, 4), (class_prior, 3)])
def test_forward_functions_reject_a_single_vector(model, fn, width):
    with pytest.raises(ShapeError, match=rf"rows of {width} values, got shape \({width},\)"):
        fn(np.zeros(width), model)


def test_zero_decoder_outputs_zero(model):
    out = decode(np.ones((1, 4)), zeroed(model))
    assert np.array_equal(out, np.zeros((1, 8)))


def test_identity_decoder_passes_through():
    model = init_model(np.random.default_rng(0), 4, 1, 4, (), keep_prob=1.0)
    model["dec.out.w"][...] = np.eye(4)
    z = np.array([[0.5, -1.0, 2.0, 0.0]])
    assert np.array_equal(decode(z, model), z)


def test_class_prior_zero_attribute_is_standard_normal(model):
    g = class_prior(np.zeros((1, 3)), model)
    assert np.array_equal(g.mean, np.zeros((1, 4)))
    assert np.array_equal(g.logvar, np.zeros((1, 4)))


def test_class_prior_identity_weights():
    prior = prior_model(np.eye(3), np.zeros((3, 3)))
    a = np.array([[0.2, -0.7, 1.1]])
    g = class_prior(a, prior)
    assert np.allclose(g.mean, a)
    assert np.array_equal(g.logvar, np.zeros((1, 3)))


def test_class_prior_distinct_attributes_distinct_means():
    rng = np.random.default_rng(5)
    prior = prior_model(rng.normal(size=(4, 3)), np.zeros((4, 3)))
    g = class_prior(rng.uniform(-1, 1, (2, 3)), prior)
    assert np.abs(g.mean[0] - g.mean[1]).max() > 1e-6


@given(
    st.floats(-2, 2, allow_nan=False),
    st.floats(-2, 2, allow_nan=False),
    st.integers(0, 2**32 - 1),
)
def test_class_prior_is_linear(alpha, beta, seed):
    rng = np.random.default_rng(seed)
    # small weights keep the logvar clamp inactive, so linearity is exact
    prior = prior_model(0.1 * rng.normal(size=(4, 3)), 0.1 * rng.normal(size=(4, 3)))
    a1, a2 = rng.uniform(-1, 1, (1, 3)), rng.uniform(-1, 1, (1, 3))
    combo = class_prior(alpha * a1 + beta * a2, prior)
    g1, g2 = class_prior(a1, prior), class_prior(a2, prior)
    assert np.abs(combo.mean - (alpha * g1.mean + beta * g2.mean)).max() < 1e-12
    assert np.abs(combo.logvar - (alpha * g1.logvar + beta * g2.logvar)).max() < 1e-12


def unfused_class_prior(attrs, model):
    # the matmul-under-transpose composition class_prior's prior nodes replace
    mean = matmul(attrs, transpose(model["prior.mean_w"]))
    logvar = ad.clip(matmul(attrs, transpose(model["prior.logvar_w"])), LOGVAR_MIN, LOGVAR_MAX)
    return DiagGaussian(mean, logvar)


def test_class_prior_matches_the_unfused_composition_bit_for_bit():
    rng = np.random.default_rng(11)
    # logvar weights large enough that the clamp cuts some entries
    model = prior_model(rng.normal(size=(4, 5)), 5.0 * rng.normal(size=(4, 5)))
    attrs = rng.uniform(-1, 1, (6, 5))
    weights = rng.normal(size=(2, 6, 4))
    runs = []
    for prior in (class_prior, unfused_class_prior):
        tape = Tape()
        g = prior(attrs, model.bind(tape))
        ops = [node.op for node in tape.nodes if node.op != "leaf"]
        grads = ad.backward_grad(tape, op.add(op.sum(op.mul(g.mean, weights[0])), op.sum(op.mul(g.logvar, weights[1]))))
        runs.append((ops, [g.mean.value, g.logvar.value, grads["prior.mean_w"], grads["prior.logvar_w"]]))
    (ops, fused), (unfused_ops, composed) = runs
    assert ops == ["prior", "prior", "clip"]
    assert unfused_ops == ["transpose", "matmul", "transpose", "matmul", "clip"]
    assert np.abs(composed[1]).max() == LOGVAR_MAX
    for a, b in zip(fused, composed):
        assert a.tobytes() == b.tobytes()


def test_logvar_outputs_are_clamped():
    prior = prior_model(np.zeros((2, 1)), np.array([[1000.0], [-1000.0]]))
    g = class_prior(np.array([[1.0]]), prior)
    assert g.logvar[0, 0] == LOGVAR_MAX
    assert g.logvar[0, 1] == LOGVAR_MIN


@settings(max_examples=25)
@given(
    st.integers(2, 64),
    st.integers(2, 64),
    st.integers(2, 64),
    st.integers(0, 2**32 - 1),
)
def test_shapes_hold_across_dimensions(feature_dim, latent_dim, attr_dim, seed):
    rng = np.random.default_rng(seed)
    model = init_model(rng, feature_dim, attr_dim, latent_dim, (7, 5), keep_prob=1.0)
    x = rng.normal(size=(3, feature_dim))
    q = encode(x, model)
    assert q.mean.shape == (3, latent_dim)
    assert decode(q.mean, model).shape == (3, feature_dim)
    g = class_prior(rng.uniform(-1, 1, (2, attr_dim)), model)
    assert g.mean.shape == (2, latent_dim)


# ---------------------------------------------------------------- dropout


def test_no_masks_when_keep_prob_is_one():
    model = init_model(np.random.default_rng(6), 4, 2, 3, (8,), keep_prob=1.0)
    assert make_dropout_masks(np.random.default_rng(0), model, 5) == (None, None)


def test_dropout_zero_fraction_matches_keep_prob(model):
    rng = np.random.default_rng(7)
    enc_masks, dec_masks = make_dropout_masks(rng, model, 10_000)
    assert len(enc_masks) == len(dec_masks) == 2
    for m in enc_masks + dec_masks:
        assert m.shape == (10_000, 16)
        zeros = float(np.mean(m == 0.0))
        # binomial 3-sigma band around the 20% drop rate
        sigma = np.sqrt(0.2 * 0.8 / m.size)
        assert abs(zeros - 0.2) < 3 * sigma
        kept = m[m != 0.0]
        assert np.allclose(kept, 1.0 / 0.8)


def test_dropout_masks_draw_the_encoder_first(model):
    enc_masks, dec_masks = make_dropout_masks(np.random.default_rng(8), model, 6)
    rng = np.random.default_rng(8)
    for m in enc_masks + dec_masks:
        assert np.array_equal(m, (rng.random((6, 16)) < 0.8) / 0.8)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("keep", [0.8, 0.5, 0.3])
def test_dropout_masks_match_the_float64_quotient_cast_bit_for_bit(dtype, keep):
    model = init_model(np.random.default_rng(0), 8, 3, 4, (16, 9), keep_prob=keep, dtype=dtype)
    got = make_dropout_masks(np.random.default_rng(8), model, 50)
    expected = dropout_masks(np.random.default_rng(8), model, 50)
    for g, e in zip(got[0] + got[1], expected[0] + expected[1]):
        assert g.dtype == e.dtype == dtype
        assert g.shape == e.shape and g.tobytes() == e.tobytes()
    assert 0.0 < np.mean(got[0][0] == 0.0) < 1.0


def test_dropout_masks_change_training_output(model):
    rng = np.random.default_rng(8)
    x = rng.normal(size=(6, 8))
    masks, _ = make_dropout_masks(rng, model, 6)
    train_q = encode(x, model, masks)
    eval_q = encode(x, model)
    assert not np.allclose(train_q.mean, eval_q.mean)


@pytest.mark.parametrize("train_mode", [False, True], ids=["eval", "dropout"])
def test_plain_forward_matches_taped_bit_for_bit(model, train_mode):
    rng = np.random.default_rng(9)
    model.flat[:] = rng.normal(size=model.flat.size)
    x = rng.normal(size=(5, 8))
    z = rng.normal(size=(5, 4))
    enc_m, dec_m = make_dropout_masks(rng, model, 5) if train_mode else (None, None)
    before = [a.copy() for a in (x, z, *model.named_arrays().values(), *(enc_m or []), *(dec_m or []))]

    q = encode(x, model, enc_m)
    out = decode(z, model, dec_m)
    bound = model.bind(Tape())
    q_taped = encode(x, bound, enc_m)
    out_taped = decode(z, bound, dec_m)

    assert q.mean.tobytes() == q_taped.mean.value.tobytes()
    assert q.logvar.tobytes() == q_taped.logvar.value.tobytes()
    assert out.tobytes() == out_taped.value.tobytes()
    after = (x, z, *model.named_arrays().values(), *(enc_m or []), *(dec_m or []))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))


# ------------------------------------------------------------ named round trip


def test_named_arrays_round_trip(model, tmp_path):
    # a checkpoint holds float32 tensors and meta values
    save_model(tmp_path / "m.ckpt", model)
    rebuilt = load_model(tmp_path / "m.ckpt")
    for key, arr in model.named_arrays().items():
        assert np.array_equal(rebuilt.named_arrays()[key], np.float32(arr)), key
    assert rebuilt.keep_prob == np.float32(0.8)
    assert rebuilt.layout.entries == model.layout.entries


def test_round_trip_accepts_row_shaped_biases(model, tmp_path):
    model["enc.h0.b"][...] = np.arange(16)
    named = {k: (v[None, :] if v.ndim == 1 else v) for k, v in model.named_arrays().items()}
    save_checkpoint(tmp_path / "m.ckpt", named)
    rebuilt = load_model(tmp_path / "m.ckpt")
    assert np.array_equal(rebuilt.named_arrays()["enc.h0.b"], model.named_arrays()["enc.h0.b"])


def test_round_trip_rejects_missing_tensor(model, tmp_path):
    named = model.named_arrays()
    named.pop("dec.out.w")
    save_checkpoint(tmp_path / "m.ckpt", named)
    with pytest.raises(DataFormatError, match="missing tensor 'dec.out.w'"):
        load_model(tmp_path / "m.ckpt")


def test_round_trip_rejects_extra_tensor(model, tmp_path):
    named = model.named_arrays()
    named["mystery"] = np.zeros((2, 2))
    save_checkpoint(tmp_path / "m.ckpt", named)
    with pytest.raises(DataFormatError, match="unexpected tensors"):
        load_model(tmp_path / "m.ckpt")


def test_copy_is_independent(model):
    clone = model.copy()
    clone["enc.h0.w"][0, 0] += 100.0
    assert model["enc.h0.w"][0, 0] != clone["enc.h0.w"][0, 0]


# ---------------------------------------------------------------- flat layout


def assert_flat_layout(model):
    """Every tensor is a C-contiguous float64 view into model.flat, in
    named_arrays() order, with no gaps."""
    flat = model.flat
    assert flat.dtype == np.float64 and flat.ndim == 1 and flat.flags.c_contiguous
    base = flat.__array_interface__["data"][0]
    offset = 0
    for name, a in model.named_arrays().items():
        assert a.dtype == np.float64 and a.flags.c_contiguous, name
        assert np.shares_memory(a, flat), name
        assert a.__array_interface__["data"][0] - base == 8 * offset, name
        offset += a.size
    assert offset == flat.size


def flat_sources(model, tmp_path):
    path = tmp_path / "model.ckpt"
    save_model(path, model)
    return {"init_model": model, "checkpoint": load_model(path), "copy": model.copy()}


def test_the_dtype_asked_for_holds_the_same_draws_and_tensors(model, tmp_path):
    narrow = init_model(np.random.default_rng(0), 8, 3, 4, (16, 16), keep_prob=0.8, dtype=np.float32)
    assert narrow.flat.dtype == np.float32
    assert narrow.flat.tobytes() == model.flat.astype(np.float32).tobytes()
    for source in (narrow, model):
        save_model(tmp_path / "m.ckpt", source)
        loaded = load_model(tmp_path / "m.ckpt")
        assert loaded.flat.dtype == source.flat.dtype
        assert loaded.flat.astype(np.float32).tobytes() == narrow.flat.tobytes()


@pytest.mark.parametrize("source", ["init_model", "checkpoint", "copy"])
def test_tensors_are_views_of_one_flat_vector(model, tmp_path, source):
    built = flat_sources(model, tmp_path)[source]
    assert_flat_layout(built)
    if source != "init_model":
        assert not np.shares_memory(built.flat, model.flat)
    for name, a in model.named_arrays().items():
        expected = np.float32(a) if source == "checkpoint" else a
        assert np.array_equal(built.named_arrays()[name], expected), name


def test_bind_yields_var_leaves_with_gradient_slices(model):
    tape = Tape()
    grad = np.zeros(model.flat.size)
    bound = model.bind(tape, grad)
    assert bound.flat is None and bound.layout is model.layout
    views = model.layout.views(grad)
    for name, v in bound.named_arrays().items():
        assert isinstance(v, Var), name
        node = tape.nodes[v.index]
        assert node.op == "leaf" and node.name == name
        assert np.shares_memory(node.value, model.flat), name
        assert node.out.shape == v.shape and np.shares_memory(node.out, views[name])
    assert isinstance(model.bind(Tape())["enc.h0.w"], Var)

