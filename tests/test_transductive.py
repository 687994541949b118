"""Soft assignments, target sharpening, and the combined objective."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgzsl import autodiff as ad
from dgzsl.errors import DgzslError, ShapeError
from dgzsl.gaussian import gauss_loglik_rows, sample_reparam, softmin_rows
from dgzsl.inductive import inductive_objective, inductive_value
from dgzsl.networks import decode, encode, init_model, make_dropout_masks
from dgzsl.transductive import (
    assignment_logits,
    sharpen,
    soft_assign,
    transductive_objective,
    transductive_value,
)

from conftest import perturbed_model
from oracles import target_assignment_kl, unfused_transductive_value


def stochastic_rows(rows, cols, seed):
    return np.random.default_rng(seed).dirichlet(np.ones(cols), size=rows)


@pytest.fixture()
def setup():
    rng = np.random.default_rng(50)
    model = perturbed_model(50)
    attrs = rng.uniform(-1, 1, (7, 3))
    seen, unseen = np.arange(4), np.arange(4, 7)
    feats = rng.normal(size=(5, 8))
    labels = np.array([0, 1, 3, 2, 0])
    unlab = rng.normal(size=(4, 8))
    noise_l = rng.normal(size=(5, 4))
    noise_u = rng.normal(size=(4, 4))
    return model, attrs, seen, unseen, feats, labels, unlab, noise_l, noise_u


# ------------------------------------------------------------- soft assign


def test_soft_assign_uniform_when_priors_coincide(setup):
    model, attrs, *_ = setup
    # zero prior weights collapse every class prior to N(0, I)
    model["prior.mean_w"][...] = model["prior.logvar_w"][...] = 0.0
    q = soft_assign(np.random.default_rng(0).normal(size=(6, 8)), attrs[4:], model)
    assert np.abs(q - 1.0 / 3.0).max() < 1e-12


def test_soft_assign_dominant_class(setup):
    model, attrs, *_ = setup
    # zero encoder -> posterior N(0, I); one prior at the posterior, the other
    # far away -> the near class soaks up all the mass
    for name, a in model.named_arrays().items():
        if name.startswith("enc."):
            a[...] = 0.0
    model["prior.mean_w"][...] = 40.0
    rows = np.stack([np.zeros(3), np.ones(3)])
    q = soft_assign(np.zeros((1, 8)), rows, model)
    assert q[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert q[0, 1] < 1e-12
    assert q[0].sum() == pytest.approx(1.0, abs=1e-9)


def test_soft_assign_matches_naive_softmax(setup):
    model, attrs, _, unseen, _, _, unlab, _, _ = setup
    from dgzsl.gaussian import kl_matrix
    from dgzsl.networks import class_prior

    q = soft_assign(unlab, attrs[unseen], model)
    kls = kl_matrix(encode(unlab, model), class_prior(attrs[unseen], model))
    naive = np.exp(-kls) / np.exp(-kls).sum(axis=1, keepdims=True)
    assert np.abs(q - naive).max() < 1e-12


def test_soft_assign_needs_two_classes(setup):
    model, attrs, *_ = setup
    with pytest.raises(DgzslError):
        soft_assign(np.zeros((2, 8)), attrs[:1], model)


@given(st.integers(2, 6), st.integers(1, 5), st.integers(0, 2**32 - 1), st.floats(-30, 30))
def test_row_softmax_shift_invariance(cols, rows, seed, shift):
    # the normalizer behind soft_assign: adding a constant to every KL in a
    # row leaves that row's assignment unchanged
    logits = np.random.default_rng(seed).normal(size=(rows, cols))
    def softmax(kl):
        neg, lse, _ = softmin_rows(kl)
        return np.exp(neg - lse)

    a, b = softmax(-logits), softmax(-(logits + shift))
    assert np.abs(a - b).max() < 1e-12


def test_assignment_rows_always_stochastic(setup):
    model, attrs, _, unseen, _, _, unlab, _, _ = setup
    q = soft_assign(unlab, attrs[unseen], model)
    assert np.abs(q.sum(axis=1) - 1.0).max() <= 1e-9
    assert q.min() >= 0.0


# --------------------------------------------------------------- sharpen


def test_sharpen_hand_worked_example():
    q = np.array([[0.9, 0.1], [0.5, 0.5]])
    p = sharpen(q).values
    assert p[1] == pytest.approx([0.3, 0.7], abs=1e-12)
    assert p[0] == pytest.approx([0.9720, 0.0280], abs=5e-5)


def test_sharpen_single_row_is_exact_identity():
    row = np.array([[0.37, 0.41, 0.22]])
    p = sharpen(row).values
    assert np.array_equal(p, row)
    assert p is not row  # a copy, not an alias


def test_sharpen_one_hot_rows_are_exact_fixed_points():
    eye = np.eye(4)
    q = eye[[0, 2, 2, 3, 0]]
    assert np.array_equal(sharpen(q).values, q)


def test_sharpen_identical_rows_fixed_point():
    row = np.array([0.6, 0.3, 0.1])
    q = np.tile(row, (5, 1))
    assert np.abs(sharpen(q).values - row).max() < 1e-12


def test_sharpen_shifts_mass_toward_smaller_classes():
    q = np.array([[0.9, 0.1], [0.5, 0.5]])
    p = sharpen(q).values
    # second class has the smaller marginal (0.6 vs 1.4); the ambivalent row
    # moves toward it
    assert p[1, 1] > q[1, 1]


def test_sharpen_zero_marginal_column_stays_zero():
    q = np.array([[0.5, 0.5, 0.0], [0.6, 0.4, 0.0]])
    p = sharpen(q).values
    assert np.array_equal(p[:, 2], np.zeros(2))
    assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-9


@given(st.integers(2, 6), st.integers(2, 40), st.integers(0, 2**32 - 1))
def test_sharpen_rows_stay_stochastic(cols, rows, seed):
    p = sharpen(stochastic_rows(rows, cols, seed)).values
    assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-9
    assert p.min() >= 0.0 and p.max() <= 1.0


# ----------------------------------------------------------- target KL


def test_target_kl_zero_for_identical():
    q = stochastic_rows(6, 4, 1)
    assert target_assignment_kl(q, q) == 0.0


def test_target_kl_one_hot_fixed_point_gives_zero():
    q = np.eye(3)[[0, 1, 2, 1]]
    assert target_assignment_kl(sharpen(q).values, q) == 0.0


def test_target_kl_hand_value():
    p = np.array([[0.75, 0.25]])
    q = np.array([[0.5, 0.5]])
    want = 0.75 * np.log(1.5) + 0.25 * np.log(0.5)
    assert target_assignment_kl(p, q) == pytest.approx(want, abs=1e-9)
    assert target_assignment_kl(p, q) == pytest.approx(0.130812, abs=1e-6)


def test_target_kl_zero_target_mass_is_ignored():
    p = np.array([[1.0, 0.0]])
    q = np.array([[0.5, 0.5]])
    assert target_assignment_kl(p, q) == pytest.approx(np.log(2.0))


def test_target_kl_infinite_divergence_rejected():
    p = np.array([[0.5, 0.5]])
    q = np.array([[1.0, 0.0]])
    with pytest.raises(DgzslError):
        target_assignment_kl(p, q)


def test_target_kl_shape_mismatch():
    p = np.array([[0.5, 0.5]])
    q = stochastic_rows(2, 3, 2)
    with pytest.raises(ShapeError):
        target_assignment_kl(p, q)


@given(st.integers(2, 5), st.integers(1, 20), st.integers(0, 2**32 - 1))
def test_target_kl_nonnegative_and_separating(cols, rows, seed):
    p = stochastic_rows(rows, cols, seed)
    q = stochastic_rows(rows, cols, seed + 1)
    kl = target_assignment_kl(p, q)
    assert kl >= -1e-12
    if kl <= 1e-12:
        # Pinsker: tiny divergence forces the matrices together
        assert np.abs(p - q).max() < 1e-5


# --------------------------------------------------- combined objective


def test_combined_value_matches_manual_composition(setup):
    model, attrs, seen, unseen, feats, labels, unlab, noise_l, noise_u = setup
    target = sharpen(soft_assign(unlab, attrs[unseen], model)).values
    value, grad, parts = transductive_objective(
        model,
        feats,
        labels,
        unlab,
        target,
        attrs,
        margin_class_ids=seen,
        unseen_class_ids=unseen,
        noise=noise_l,
        noise_unlabeled=noise_u,
    )

    # labeled side: batch-sum of the supervised objective
    _, _, bd = inductive_objective(
        model, feats, labels, attrs, noise=noise_l, margin_class_ids=seen
    )
    assert parts.labeled_total == pytest.approx(bd.total * feats.shape[0], abs=1e-8)

    # unlabeled side: reconstruction sum minus KL(target || assignments)
    q = encode(unlab, model)
    z = sample_reparam(q, noise_u)
    recon = float(np.sum(gauss_loglik_rows(decode(z, model), unlab)))
    assignments = soft_assign(unlab, attrs[unseen], model)
    klpq = target_assignment_kl(target, assignments)
    assert parts.unlabeled_recon == pytest.approx(recon, abs=1e-9)
    assert parts.target_kl == pytest.approx(klpq, abs=1e-9)
    assert parts.unlabeled_total == pytest.approx(recon - klpq, abs=1e-9)
    assert value == pytest.approx(parts.labeled_total + parts.unlabeled_total, abs=1e-9)
    assert parts.total == parts.labeled_total + parts.unlabeled_total
    assert grad.shape == model.flat.shape


def test_empty_unlabeled_batch_gives_the_labeled_sum(setup):
    model, attrs, seen, unseen, feats, labels, _, noise_l, _ = setup
    value, grads, parts = transductive_objective(
        model,
        feats,
        labels,
        np.zeros((0, 8)),
        np.zeros((0, 3)),
        attrs,
        margin_class_ids=seen,
        unseen_class_ids=unseen,
        noise=noise_l,
        noise_unlabeled=np.zeros((0, 4)),
    )
    mean_value, mean_grads, bd = inductive_objective(
        model, feats, labels, attrs, noise=noise_l, margin_class_ids=seen
    )
    batch = feats.shape[0]
    # the sum of the objective of each example alone
    labeled_sum = 0.0
    for i in range(batch):
        row = slice(i, i + 1)
        one, _ = inductive_value(model, feats[row], labels[row], attrs, noise=noise_l[row], margin_class_ids=seen)
        labeled_sum += float(one)
    assert value == parts.labeled_total == parts.total
    assert value == pytest.approx(labeled_sum, rel=1e-12)
    assert value == pytest.approx(batch * mean_value, rel=1e-12)
    assert parts.unlabeled_total == parts.unlabeled_recon == parts.target_kl == 0.0
    assert parts.labeled_breakdown == bd
    np.testing.assert_allclose(grads, batch * mean_grads, rtol=1e-12, atol=0)


def test_recon_only_flag_drops_the_assignment_term(setup):
    model, attrs, seen, unseen, feats, labels, unlab, noise_l, noise_u = setup
    target = sharpen(soft_assign(unlab, attrs[unseen], model)).values
    kwargs = dict(
        margin_class_ids=seen,
        unseen_class_ids=unseen,
        noise=noise_l,
        noise_unlabeled=noise_u,
    )
    _, grads_star, parts_star = transductive_objective(
        model, feats, labels, unlab, target, attrs, recon_only_unlabeled=True, **kwargs
    )
    assert parts_star.target_kl == 0.0
    assert parts_star.unlabeled_total == parts_star.unlabeled_recon
    _, grads_full, parts_full = transductive_objective(
        model, feats, labels, unlab, target, attrs, **kwargs
    )
    assert parts_full.target_kl > 0.0
    assert not np.allclose(grads_star, grads_full)


def test_no_recon_flag_zeroes_labeled_reconstruction(setup):
    model, attrs, seen, unseen, feats, labels, unlab, noise_l, noise_u = setup
    target = sharpen(soft_assign(unlab, attrs[unseen], model)).values
    _, _, parts = transductive_objective(
        model,
        feats,
        labels,
        unlab,
        target,
        attrs,
        margin_class_ids=seen,
        unseen_class_ids=unseen,
        noise=noise_l,
        noise_unlabeled=noise_u,
        include_recon=False,
    )
    assert parts.labeled_breakdown.reconstruction == 0.0


def test_target_shape_must_match_batch(setup):
    model, attrs, seen, unseen, feats, labels, unlab, noise_l, noise_u = setup
    # target rows are one array: the TargetMatrix itself has no rows
    targets = {(2, 3): np.full((2, 3), 1.0 / 3.0), (): sharpen(soft_assign(unlab, attrs[unseen], model))}
    for shape, target in targets.items():
        with pytest.raises(ShapeError, match=re.escape(f"target rows shape {shape} does not match (4, 3)")):
            transductive_objective(
                model,
                feats,
                labels,
                unlab,
                target,
                attrs,
                margin_class_ids=seen,
                unseen_class_ids=unseen,
                noise=noise_l,
                noise_unlabeled=noise_u,
            )


def test_transductive_value_on_an_empty_unlabeled_batch(setup):
    model, attrs, seen, unseen, feats, labels, _, noise_l, _ = setup
    kwargs = dict(
        margin_class_ids=seen,
        unseen_class_ids=unseen,
        noise=noise_l,
        noise_unlabeled=np.zeros((0, 4)),
    )
    empty = (np.zeros((0, 8)), np.zeros((0, 3)))
    value, parts = transductive_value(model, feats, labels, *empty, attrs, **kwargs)
    _, bd = inductive_value(model, feats, labels, attrs, noise=noise_l, margin_class_ids=seen)
    assert float(value) == parts.total == parts.labeled_total
    assert parts.labeled_total == pytest.approx(feats.shape[0] * bd.total, rel=1e-12)
    assert parts.unlabeled_total == parts.unlabeled_recon == parts.target_kl == 0.0
    _, recon_only = transductive_value(
        model, feats, labels, *empty, attrs, recon_only_unlabeled=True, **kwargs
    )
    assert recon_only == parts


def test_assignment_logits_are_log_softmax(setup):
    model, attrs, _, unseen, _, _, unlab, _, _ = setup
    _, logits, q = assignment_logits(unlab, attrs[unseen], model)
    assert np.abs(np.exp(logits).sum(axis=1) - 1.0).max() < 1e-12
    assert np.abs(q - np.exp(logits)).max() < 1e-12


def transductive_case(dtype, unlabeled):
    """A model with dropout masks, a labeled and an unlabeled batch and the
    unlabeled batch's sharpened targets, all in ``dtype``."""
    rng = np.random.default_rng(51)
    model = init_model(rng, 8, 3, 4, (16, 16), keep_prob=0.8, dtype=dtype)
    model.flat += (0.05 * rng.normal(size=model.flat.size)).astype(dtype)
    attrs = rng.uniform(-1, 1, (7, 3)).astype(dtype)
    unlab = rng.normal(size=(unlabeled, 8)).astype(dtype)
    masks = [*make_dropout_masks(rng, model, 5), *make_dropout_masks(rng, model, unlabeled)]
    return model, dict(
        lab_features=rng.normal(size=(5, 8)).astype(dtype),
        lab_labels=rng.integers(0, 4, 5),
        unlab_features=unlab,
        target_rows=sharpen(soft_assign(unlab, attrs[4:], model)).values,
        attr_rows=attrs,
        margin_class_ids=np.arange(4),
        unseen_class_ids=np.arange(4, 7),
        noise=rng.normal(size=(5, 4)).astype(dtype),
        noise_unlabeled=rng.normal(size=(unlabeled, 4)).astype(dtype),
        enc_masks=masks[0],
        dec_masks=masks[1],
        enc_masks_unlab=masks[2],
        dec_masks_unlab=masks[3],
    )


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "unlabeled,margin_weight,include_recon,recon_only_unlabeled",
    [(4, 1.0, True, False), (4, 0.3, False, False), (4, 1.0, True, True), (0, 0.5, True, False)],
    ids=["default", "weighted-no-recon", "recon-only", "empty-unlabeled"],
)
def test_transductive_nodes_match_the_unfused_composition_bit_for_bit(
    dtype, unlabeled, margin_weight, include_recon, recon_only_unlabeled
):
    model, case = transductive_case(dtype, unlabeled)
    case.update(
        margin_weight=margin_weight, include_recon=include_recon, recon_only_unlabeled=recon_only_unlabeled
    )
    (value, grad, parts), (unfused, unfused_grad, unfused_parts) = (
        ad.value_and_grad(lambda m: fn(m, **case), model)
        for fn in (transductive_value, unfused_transductive_value)
    )
    assert value == unfused and parts == unfused_parts
    assert grad.dtype == dtype and grad.tobytes() == unfused_grad.tobytes()
    assert float(transductive_value(model, **case)[0]) == value  # the plain-array path


def test_a_transductive_step_records_one_node_per_fused_op():
    model, case = transductive_case(np.float64, 4)
    tape = ad.Tape()
    transductive_value(model.bind(tape), **case)
    encode_ops = ["dense"] * 4 + ["clip"]
    recon_ops = encode_ops + ["sample"] + ["dense"] * 3 + ["loglik"]
    prior_ops = ["prior", "prior", "clip"]
    assert [n.op for n in tape.nodes] == ["leaf"] * 16 + recon_ops + prior_ops + ["kl_matrix", "labeled"] + (
        recon_ops + prior_ops + encode_ops + ["kl_matrix", "unlabeled"]
    )
