"""Encoder, decoder, attribute prior: shapes, init, dropout, round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgzsl.autodiff import Tape
from dgzsl.errors import DataFormatError, DgzslError, ShapeError
from dgzsl.gaussian import DiagGaussian
from dgzsl.networks import (
    LOGVAR_MAX,
    LOGVAR_MIN,
    Affine,
    MlpParams,
    ModelParams,
    PriorParams,
    class_prior,
    decode,
    encode,
    glorot,
    init_model,
    make_dropout_masks,
    model_from_named,
)


def zeroed(model):
    return model.map_arrays(lambda name, a: np.zeros_like(a))


@pytest.fixture()
def model():
    return init_model(np.random.default_rng(0), 8, 3, 4, (16, 16), keep_prob=0.8)


# ------------------------------------------------------------------ types


def test_affine_validates_shapes():
    with pytest.raises(ShapeError):
        Affine(np.ones(3), np.zeros(3))  # weights must be 2-D
    with pytest.raises(ShapeError):
        Affine(np.ones((2, 3)), np.zeros(4))  # bias must match out dim


def test_mlp_chain_validation():
    good = MlpParams(
        [Affine(np.ones((3, 5)), np.zeros(5))],
        heads={"out": Affine(np.ones((5, 2)), np.zeros(2))},
        keep_prob=1.0,
    )
    assert good.in_dim == 3
    with pytest.raises(ShapeError):
        MlpParams(
            [Affine(np.ones((3, 5)), np.zeros(5))],
            heads={"out": Affine(np.ones((4, 2)), np.zeros(2))},
            keep_prob=1.0,
        )


def test_keep_prob_bounds():
    layers = [Affine(np.ones((3, 5)), np.zeros(5))]
    heads = {"out": Affine(np.ones((5, 2)), np.zeros(2))}
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(DgzslError):
            MlpParams(layers, heads=heads, keep_prob=bad)


def test_prior_params_validation():
    with pytest.raises(ShapeError):
        PriorParams(np.ones((4, 3)), np.ones((3, 4)))
    nan_prior = PriorParams(np.array([[np.nan]]), np.array([[0.0]]))
    with pytest.raises(ShapeError, match="DiagGaussian entries must be finite"):
        class_prior(np.ones((2, 1)), nan_prior)


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
    assert model.feature_dim == 8
    assert model.latent_dim == 4
    assert model.attr_dim == 3


# ---------------------------------------------------------------- forward


def test_zero_model_encodes_to_standard_normal(model):
    z = zeroed(model)
    q = encode(np.random.default_rng(2).normal(size=8), z.encoder)
    assert np.array_equal(q.mean, np.zeros(4))
    assert np.array_equal(q.logvar, np.zeros(4))


def test_encode_eval_mode_is_deterministic(model):
    x = np.random.default_rng(3).normal(size=8)
    a = encode(x, model.encoder)
    b = encode(x, model.encoder)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.logvar, b.logvar)


def test_encode_batch_and_vector_agree(model):
    x = np.random.default_rng(4).normal(size=(5, 8))
    batch = encode(x, model.encoder)
    single = encode(x[2], model.encoder)
    assert np.allclose(batch.mean[2], single.mean)
    assert np.allclose(batch.logvar[2], single.logvar)


def test_encode_dimension_mismatch(model):
    with pytest.raises(ShapeError):
        encode(np.zeros(9), model.encoder)


def test_zero_decoder_outputs_zero(model):
    out = decode(np.ones(4), zeroed(model).decoder)
    assert np.array_equal(out, np.zeros(8))


def test_identity_decoder_passes_through():
    mlp = MlpParams([], heads={"out": Affine(np.eye(4), np.zeros(4))}, keep_prob=1.0)
    z = np.array([0.5, -1.0, 2.0, 0.0])
    assert np.array_equal(decode(z, mlp), z)


def test_class_prior_zero_attribute_is_standard_normal(model):
    g = class_prior(np.zeros(3), model.prior)
    assert np.array_equal(g.mean, np.zeros(4))
    assert np.array_equal(g.logvar, np.zeros(4))


def test_class_prior_identity_weights():
    prior = PriorParams(np.eye(3), np.zeros((3, 3)))
    a = np.array([0.2, -0.7, 1.1])
    g = class_prior(a, prior)
    assert np.allclose(g.mean, a)
    assert np.array_equal(g.logvar, np.zeros(3))


def test_class_prior_distinct_attributes_distinct_means():
    rng = np.random.default_rng(5)
    prior = PriorParams(rng.normal(size=(4, 3)), np.zeros((4, 3)))
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
    prior = PriorParams(0.1 * rng.normal(size=(4, 3)), 0.1 * rng.normal(size=(4, 3)))
    a1, a2 = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
    combo = class_prior(alpha * a1 + beta * a2, prior)
    g1, g2 = class_prior(a1, prior), class_prior(a2, prior)
    assert np.abs(combo.mean - (alpha * g1.mean + beta * g2.mean)).max() < 1e-12
    assert np.abs(combo.logvar - (alpha * g1.logvar + beta * g2.logvar)).max() < 1e-12


def test_logvar_outputs_are_clamped():
    prior = PriorParams(np.zeros((2, 1)), np.array([[1000.0], [-1000.0]]))
    g = class_prior(np.array([1.0]), prior)
    assert g.logvar[0] == LOGVAR_MAX
    assert g.logvar[1] == LOGVAR_MIN


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
    q = encode(x, model.encoder)
    assert q.mean.shape == (3, latent_dim)
    assert decode(q.mean, model.decoder).shape == (3, feature_dim)
    g = class_prior(rng.uniform(-1, 1, (2, attr_dim)), model.prior)
    assert g.mean.shape == (2, latent_dim)


# ---------------------------------------------------------------- dropout


def test_no_masks_when_keep_prob_is_one():
    model = init_model(np.random.default_rng(6), 4, 2, 3, (8,), keep_prob=1.0)
    assert make_dropout_masks(np.random.default_rng(0), model.encoder, 5) is None


def test_dropout_zero_fraction_matches_keep_prob(model):
    rng = np.random.default_rng(7)
    masks = make_dropout_masks(rng, model.encoder, 10_000)
    assert len(masks) == 2
    for m in masks:
        zeros = float(np.mean(m == 0.0))
        # binomial 3-sigma band around the 20% drop rate
        sigma = np.sqrt(0.2 * 0.8 / m.size)
        assert abs(zeros - 0.2) < 3 * sigma
        kept = m[m != 0.0]
        assert np.allclose(kept, 1.0 / 0.8)


def test_dropout_masks_change_training_output(model):
    rng = np.random.default_rng(8)
    x = rng.normal(size=(6, 8))
    masks = make_dropout_masks(rng, model.encoder, 6)
    train_q = encode(x, model.encoder, masks)
    eval_q = encode(x, model.encoder)
    assert not np.allclose(train_q.mean, eval_q.mean)


@pytest.mark.parametrize("train_mode", [False, True], ids=["eval", "dropout"])
def test_plain_forward_matches_taped_bit_for_bit(model, train_mode):
    rng = np.random.default_rng(9)
    model = model.map_arrays(lambda name, a: rng.normal(size=np.shape(a)))
    x = rng.normal(size=(5, 8))
    z = rng.normal(size=(5, 4))
    enc_m = make_dropout_masks(rng, model.encoder, 5) if train_mode else None
    dec_m = make_dropout_masks(rng, model.decoder, 5) if train_mode else None
    before = [a.copy() for a in (x, z, *model.named_arrays().values(), *(enc_m or []), *(dec_m or []))]

    q = encode(x, model.encoder, enc_m)
    out = decode(z, model.decoder, dec_m)
    bound = model.bind(Tape())
    q_taped = encode(x, bound.encoder, enc_m)
    out_taped = decode(z, bound.decoder, dec_m)

    assert q.mean.tobytes() == q_taped.mean.value.tobytes()
    assert q.logvar.tobytes() == q_taped.logvar.value.tobytes()
    assert out.tobytes() == out_taped.value.tobytes()
    after = (x, z, *model.named_arrays().values(), *(enc_m or []), *(dec_m or []))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))


# ------------------------------------------------------------ named round trip


def test_named_arrays_round_trip(model):
    rebuilt = model_from_named(model.named_arrays(), keep_prob=0.8)
    for key, arr in model.named_arrays().items():
        assert np.array_equal(rebuilt.named_arrays()[key], arr), key
    assert rebuilt.encoder.keep_prob == 0.8


def test_round_trip_accepts_row_shaped_biases(model):
    named = {
        k: (v[None, :] if v.ndim == 1 else v) for k, v in model.named_arrays().items()
    }
    rebuilt = model_from_named(named)
    assert np.array_equal(rebuilt.named_arrays()["enc.h0.b"], model.named_arrays()["enc.h0.b"])


def test_round_trip_rejects_missing_tensor(model):
    named = model.named_arrays()
    named.pop("dec.out.w")
    with pytest.raises(DataFormatError):
        model_from_named(named)


def test_round_trip_rejects_extra_tensor(model):
    named = model.named_arrays()
    named["mystery"] = np.zeros((2, 2))
    with pytest.raises(DataFormatError):
        model_from_named(named)


def test_copy_is_independent(model):
    clone = model.copy()
    clone.encoder.hidden[0].weights[0, 0] += 100.0
    assert model.encoder.hidden[0].weights[0, 0] != clone.encoder.hidden[0].weights[0, 0]


def test_map_arrays_sees_every_tensor(model):
    seen = []
    mapped = model.map_arrays(lambda name, a: (seen.append(name), a)[1])
    assert seen == list(model.named_arrays())
    assert mapped.encoder.keep_prob == mapped.decoder.keep_prob == 0.8
