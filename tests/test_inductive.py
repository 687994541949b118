"""Supervised objective: per-class lower bound, margin term, batch assembly."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgzsl import autodiff as ad
from dgzsl.errors import DgzslError, ShapeError
from dgzsl.gaussian import LOG_2PI, DiagGaussian, sample_reparam
from dgzsl.inductive import inductive_objective, inductive_value, one_hot
from dgzsl.networks import ModelParams, class_prior, decode, encode, init_model, make_dropout_masks

from conftest import perturbed_model
from oracles import class_conditional_elbo, gauss_loglik, kl_diag, margin_term, unfused_inductive_value


@pytest.fixture()
def setup():
    rng = np.random.default_rng(40)
    model = perturbed_model(40)
    attrs = rng.uniform(-1, 1, (6, 3))  # 4 seen + 2 unseen
    feats = rng.normal(size=(5, 8))
    labels = np.array([0, 2, 1, 3, 0])
    noise = rng.normal(size=(5, 4))
    return model, attrs, feats, labels, noise


def test_one_hot_basic():
    hot = one_hot(np.array([1, 0, 2]), 4)
    assert hot.shape == (3, 4)
    assert np.array_equal(hot.sum(axis=1), np.ones(3))
    assert hot[0, 1] == 1.0 and hot[2, 2] == 1.0


def test_one_hot_range_checked():
    with pytest.raises(DgzslError):
        one_hot(np.array([0, 4]), 4)
    with pytest.raises(DgzslError):
        one_hot(np.array([[0, 1]]), 4)


# ------------------------------------------------------- per-example bound


def test_elbo_perfect_fit_value():
    # zero maps: decoder reproduces x=0 exactly and posterior equals prior
    model = perturbed_model(1)
    model.flat[:] = 0.0
    x, a = np.zeros(8), np.zeros(3)
    value, bd = class_conditional_elbo(x, a, model, noise=np.zeros(4))
    assert value == pytest.approx(-(8 / 2) * LOG_2PI)
    assert bd.kl_true_class == 0.0
    assert bd.reconstruction == pytest.approx(value)


def test_elbo_kl_contribution_unit_shift():
    # posterior N(0, I); prior mean pushed to 1 in the single latent dim
    model = perturbed_model(2, feature_dim=3, attr_dim=1, latent_dim=1)
    model.flat[:] = 0.0
    model["prior.mean_w"][...] = 1.0
    x = np.zeros(3)
    value, bd = class_conditional_elbo(x, np.array([1.0]), model, noise=np.zeros(1))
    assert bd.kl_true_class == pytest.approx(0.5)
    assert value == pytest.approx(bd.reconstruction - 0.5)


def test_elbo_matches_independent_composition(setup):
    model, attrs, feats, labels, noise = setup
    x, a, eps = feats[0], attrs[labels[0]], noise[0]
    value, bd = class_conditional_elbo(x, a, model, noise=eps)
    q = encode(x[None], model)
    z = sample_reparam(q, eps[None])
    recon = gauss_loglik(x[None], decode(z, model))
    kl = kl_diag(q, class_prior(a[None], model))
    assert value == pytest.approx(recon - kl, abs=1e-12)
    assert bd.reconstruction == pytest.approx(recon, abs=1e-12)
    assert bd.kl_true_class == pytest.approx(kl, abs=1e-12)


# ------------------------------------------------------------ margin term


def test_margin_single_class_equals_kl(setup):
    model, attrs, _, _, _ = setup
    q = DiagGaussian(np.array([[0.3, -0.2, 0.8, 0.0]]), np.array([[0.1, 0.0, -0.4, 0.2]]))
    kl = kl_diag(q, class_prior(attrs[:1], model))
    assert margin_term(q, attrs[:1], model) == pytest.approx(kl, abs=1e-10)


def test_margin_two_equal_classes():
    model = perturbed_model(3)
    a = np.random.default_rng(4).uniform(-1, 1, 3)
    rows = np.stack([a, a])  # duplicated class attribute -> equal KLs
    q = DiagGaussian(np.zeros((1, 4)), np.zeros((1, 4)))
    k = kl_diag(q, class_prior(a[None], model))
    assert margin_term(q, rows, model) == pytest.approx(k - np.log(2.0), abs=1e-10)


def test_margin_empty_class_set_rejected(setup):
    model, attrs, _, _, _ = setup
    q = DiagGaussian(np.zeros(4), np.zeros(4))
    with pytest.raises(DgzslError):
        margin_term(q, attrs[:0], model)


@given(st.integers(0, 2**32 - 1))
def test_margin_bounded_by_minimum_kl(seed):
    rng = np.random.default_rng(seed)
    model = perturbed_model(rng.integers(2**31))
    attrs = rng.uniform(-1, 1, (10, 3))
    q = DiagGaussian(rng.normal(size=(1, 4)), rng.uniform(-1, 1, (1, 4)))
    kls = [kl_diag(q, class_prior(attrs[c : c + 1], model)) for c in range(10)]
    r = margin_term(q, attrs, model)
    assert min(kls) - np.log(10.0) - 1e-9 <= r <= min(kls) + 1e-9


# --------------------------------------------------------- batch objective


def test_labels_must_be_inside_margin_set(setup):
    model, attrs, feats, labels, noise = setup
    with pytest.raises(DgzslError):
        inductive_value(
            model,
            feats,
            np.array([0, 2, 1, 4, 0]),  # class 4 is not a margin class
            attrs,
            noise=noise,
            margin_class_ids=np.arange(4),
        )


def test_empty_margin_set_rejected(setup):
    model, attrs, feats, labels, noise = setup
    with pytest.raises(DgzslError):
        inductive_value(
            model, feats, labels, attrs, noise=noise, margin_class_ids=np.array([], int)
        )


def labeled_case(dtype, batch=5):
    """A model with dropout masks and one labeled batch, all in ``dtype``."""
    rng = np.random.default_rng(41)
    model = init_model(rng, 8, 3, 4, (16, 16), keep_prob=0.8, dtype=dtype)
    model.flat += (0.05 * rng.normal(size=model.flat.size)).astype(dtype)
    enc_masks, dec_masks = make_dropout_masks(rng, model, batch)
    return model, dict(
        features=rng.normal(size=(batch, 8)).astype(dtype),
        labels=rng.integers(0, 4, batch),
        attr_rows=rng.uniform(-1, 1, (6, 3)).astype(dtype),
        noise=rng.normal(size=(batch, 4)).astype(dtype),
        margin_class_ids=np.arange(4),
        enc_masks=enc_masks,
        dec_masks=dec_masks,
    )


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("margin_weight,include_recon", [(1.0, True), (0.3, False), (0.0, True)])
def test_labeled_node_matches_the_unfused_composition_bit_for_bit(dtype, margin_weight, include_recon):
    model, case = labeled_case(dtype)
    case.update(margin_weight=margin_weight, include_recon=include_recon)
    (value, grad, bd), (unfused, unfused_grad, unfused_bd) = (
        ad.value_and_grad(lambda m: fn(m, **case), model) for fn in (inductive_value, unfused_inductive_value)
    )
    assert value == unfused and bd == unfused_bd
    assert grad.dtype == dtype and grad.tobytes() == unfused_grad.tobytes()
    assert float(inductive_value(model, **case)[0]) == value  # the plain-array path


def test_an_inductive_step_records_one_node_per_fused_op():
    model, case = labeled_case(np.float64)
    tape = ad.Tape()
    inductive_value(model.bind(tape), **case)
    encode_ops = ["dense"] * 4 + ["clip"]
    decode_ops = ["dense"] * 3
    assert [n.op for n in tape.nodes] == ["leaf"] * 16 + encode_ops + ["sample"] + decode_ops + [
        "loglik", "prior", "prior", "clip", "kl_matrix", "labeled"
    ]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_no_recon_step_records_no_sample_decoder_or_loglik_node(dtype):
    model, case = labeled_case(dtype)
    tape = ad.Tape()
    value, _ = inductive_value(model.bind(tape), **case, include_recon=False)
    encode_ops = ["dense"] * 4 + ["clip"]
    assert [n.op for n in tape.nodes] == ["leaf"] * 16 + encode_ops + ["prior", "prior", "clip", "kl_matrix", "labeled"]
    # every op left on the tape feeds the value; of the leaves, the decoder's do not
    ad.backward_grad(tape, value)
    assert all(n.grad is not None for n in tape.nodes if n.op != "leaf")
    assert [n.name for n in tape.nodes if n.grad is None] == [n for n in model.named_arrays() if n.startswith("dec.")]


def test_a_no_recon_step_still_checks_the_noise_shape(setup):
    model, attrs, feats, labels, noise = setup
    with pytest.raises(ShapeError, match=re.escape("sample_reparam noise: shape (5, 4) != shape (5, 3)")):
        inductive_value(
            model, feats, labels, attrs, noise=noise[:, :3], margin_class_ids=np.arange(4), include_recon=False
        )


def test_weight_zero_reduces_to_mean_elbo(setup):
    model, attrs, feats, labels, noise = setup
    _, _, bd = inductive_objective(
        model,
        feats,
        labels,
        attrs,
        noise=noise,
        margin_class_ids=np.arange(4),
        margin_weight=0.0,
    )
    singles = [
        class_conditional_elbo(feats[i], attrs[labels[i]], model, noise=noise[i])[0]
        for i in range(5)
    ]
    assert bd.total == pytest.approx(np.mean(singles), abs=1e-9)


def test_objective_is_affine_in_margin_weight(setup):
    model, attrs, feats, labels, noise = setup

    def total_at(w):
        _, _, bd = inductive_objective(
            model,
            feats,
            labels,
            attrs,
            noise=noise,
            margin_class_ids=np.arange(4),
            margin_weight=w,
        )
        return bd.total, bd.margin

    base, slope = total_at(0.0)
    for w in (0.5, 1.0, 2.0):
        value, margin = total_at(w)
        assert margin == pytest.approx(slope, abs=1e-12)
        assert value == pytest.approx(base + w * slope, abs=1e-9)


def test_breakdown_identity(setup):
    model, attrs, feats, labels, noise = setup
    _, _, bd = inductive_objective(
        model, feats, labels, attrs, noise=noise, margin_class_ids=np.arange(4)
    )
    assert bd.total == pytest.approx(
        bd.reconstruction - bd.kl_true_class + bd.margin_weight * bd.margin, abs=1e-12
    )


def test_no_recon_flag_zeroes_reconstruction(setup):
    model, attrs, feats, labels, noise = setup
    _, _, bd = inductive_objective(
        model,
        feats,
        labels,
        attrs,
        noise=noise,
        margin_class_ids=np.arange(4),
        include_recon=False,
    )
    assert bd.reconstruction == 0.0
    assert bd.total == pytest.approx(-bd.kl_true_class + bd.margin, abs=1e-12)


def test_negative_margin_weight_rejected(setup):
    model, attrs, feats, labels, noise = setup
    with pytest.raises(DgzslError):
        inductive_objective(
            model,
            feats,
            labels,
            attrs,
            noise=noise,
            margin_class_ids=np.arange(4),
            margin_weight=-0.5,
        )


def test_gradients_cover_every_tensor_and_are_finite(setup):
    model, attrs, feats, labels, noise = setup
    _, grad, _ = inductive_objective(
        model, feats, labels, attrs, noise=noise, margin_class_ids=np.arange(4)
    )
    assert grad.shape == model.flat.shape
    grads = model.layout.views(grad)
    assert set(grads) == set(model.named_arrays())
    for key, g in grads.items():
        assert g.shape == model.named_arrays()[key].shape, key
        assert np.all(np.isfinite(g)), key


def test_small_model_gradient_check(setup):
    model, attrs, feats, labels, noise = setup
    params = model.named_arrays()

    def fn(p):
        return inductive_value(
            ModelParams(model.layout, tensors=p),
            feats[:2],
            labels[:2],
            attrs,
            noise=noise[:2],
            margin_class_ids=np.arange(4),
        )[0]

    assert ad.grad_check(fn, params) < 1e-4


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 40.0))
def test_objective_stays_finite_under_extreme_parameters(seed, scale):
    rng = np.random.default_rng(seed)
    model = perturbed_model(rng.integers(2**31))
    for a in model.named_arrays().values():
        a[...] = a * scale if rng.random() < 0.5 else a - scale
    attrs = rng.uniform(-1, 1, (3, 3))
    value, _, bd = inductive_objective(
        model,
        rng.normal(size=(2, 8)),
        np.array([0, 2]),
        attrs,
        noise=rng.normal(size=(2, 4)),
        margin_class_ids=np.arange(3),
    )
    assert np.isfinite(value)
    for term in (bd.reconstruction, bd.kl_true_class, bd.margin):
        assert np.isfinite(term)
