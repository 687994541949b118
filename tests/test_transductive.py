"""Soft assignments, target sharpening, and the combined objective."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgzsl import autodiff as ad
from dgzsl.errors import DgzslError, ShapeError
from dgzsl.gaussian import gauss_loglik_rows, sample_reparam
from dgzsl.inductive import inductive_objective, inductive_terms, inductive_value, per_example
from dgzsl.networks import decode, encode
from dgzsl.transductive import (
    AssignmentMatrix,
    TargetMatrix,
    assignment_logits,
    sharpen,
    soft_assign,
    target_assignment_kl,
    transductive_objective,
    transductive_value,
)

from conftest import perturbed_model


def stochastic_rows(rows, cols, seed):
    return np.random.default_rng(seed).dirichlet(np.ones(cols), size=rows)


def assignment(values):
    values = np.asarray(values, dtype=np.float64)
    return AssignmentMatrix(values, values.sum(axis=0))


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
    flat = model.map_arrays(
        lambda n, a: np.zeros_like(a) if n.startswith("prior.") else a
    )
    q = soft_assign(np.random.default_rng(0).normal(size=(6, 8)), attrs[4:], flat)
    assert np.abs(q.values - 1.0 / 3.0).max() < 1e-12


def test_soft_assign_dominant_class(setup):
    model, attrs, *_ = setup
    # zero encoder -> posterior N(0, I); one prior at the posterior, the other
    # far away -> the near class soaks up all the mass
    zero_enc = model.map_arrays(
        lambda n, a: np.zeros_like(a) if n.startswith("enc.") else a
    )
    strong = zero_enc.map_arrays(
        lambda n, a: 40.0 * np.ones_like(a) if n == "prior.mean_w" else a
    )
    rows = np.stack([np.zeros(3), np.ones(3)])
    q = soft_assign(np.zeros((1, 8)), rows, strong)
    assert q.values[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert q.values[0, 1] < 1e-12
    assert q.values[0].sum() == pytest.approx(1.0, abs=1e-9)


def test_soft_assign_matches_naive_softmax(setup):
    model, attrs, _, unseen, _, _, unlab, _, _ = setup
    from dgzsl.gaussian import kl_matrix
    from dgzsl.networks import class_prior

    q = soft_assign(unlab, attrs[unseen], model)
    kls = kl_matrix(encode(unlab, model.encoder), class_prior(attrs[unseen], model.prior))
    naive = np.exp(-kls) / np.exp(-kls).sum(axis=1, keepdims=True)
    assert np.abs(q.values - naive).max() < 1e-12


def test_soft_assign_needs_two_classes(setup):
    model, attrs, *_ = setup
    with pytest.raises(DgzslError):
        soft_assign(np.zeros((2, 8)), attrs[:1], model)


@given(st.integers(2, 6), st.integers(1, 5), st.integers(0, 2**32 - 1), st.floats(-30, 30))
def test_row_softmax_shift_invariance(cols, rows, seed, shift):
    # the normalizer behind soft_assign: adding a constant to every KL in a
    # row leaves that row's assignment unchanged
    logits = np.random.default_rng(seed).normal(size=(rows, cols))
    a = np.exp(logits - ad.logsumexp_rows(logits))
    b = np.exp((logits + shift) - ad.logsumexp_rows(logits + shift))
    assert np.abs(a - b).max() < 1e-12


def test_assignment_rows_always_stochastic(setup):
    model, attrs, _, unseen, _, _, unlab, _, _ = setup
    q = soft_assign(unlab, attrs[unseen], model)
    assert np.abs(q.values.sum(axis=1) - 1.0).max() <= 1e-9
    assert q.values.min() >= 0.0
    assert np.allclose(q.class_marginals, q.values.sum(axis=0))


# --------------------------------------------------------------- sharpen


def test_sharpen_hand_worked_example():
    q = assignment([[0.9, 0.1], [0.5, 0.5]])
    p = sharpen(q).values
    assert p[1] == pytest.approx([0.3, 0.7], abs=1e-12)
    assert p[0] == pytest.approx([0.9720, 0.0280], abs=5e-5)


def test_sharpen_single_row_is_exact_identity():
    row = np.array([[0.37, 0.41, 0.22]])
    p = sharpen(assignment(row)).values
    assert np.array_equal(p, row)
    assert p is not row  # a copy, not an alias


def test_sharpen_one_hot_rows_are_exact_fixed_points():
    eye = np.eye(4)
    q = assignment(eye[[0, 2, 2, 3, 0]])
    assert np.array_equal(sharpen(q).values, q.values)


def test_sharpen_identical_rows_fixed_point():
    row = np.array([0.6, 0.3, 0.1])
    q = assignment(np.tile(row, (5, 1)))
    assert np.abs(sharpen(q).values - row).max() < 1e-12


def test_sharpen_shifts_mass_toward_smaller_classes():
    q = assignment([[0.9, 0.1], [0.5, 0.5]])
    p = sharpen(q).values
    # second class has the smaller marginal (0.6 vs 1.4); the ambivalent row
    # moves toward it
    assert p[1, 1] > q.values[1, 1]


def test_sharpen_zero_marginal_column_stays_zero():
    q = assignment([[0.5, 0.5, 0.0], [0.6, 0.4, 0.0]])
    p = sharpen(q).values
    assert np.array_equal(p[:, 2], np.zeros(2))
    assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-9


@given(st.integers(2, 6), st.integers(2, 40), st.integers(0, 2**32 - 1))
def test_sharpen_rows_stay_stochastic(cols, rows, seed):
    p = sharpen(assignment(stochastic_rows(rows, cols, seed))).values
    assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-9
    assert p.min() >= 0.0 and p.max() <= 1.0


# ----------------------------------------------------------- target KL


def test_target_kl_zero_for_identical():
    q = assignment(stochastic_rows(6, 4, 1))
    assert target_assignment_kl(TargetMatrix(q.values), q) == 0.0


def test_target_kl_one_hot_fixed_point_gives_zero():
    q = assignment(np.eye(3)[[0, 1, 2, 1]])
    assert target_assignment_kl(sharpen(q), q) == 0.0


def test_target_kl_hand_value():
    p = TargetMatrix(np.array([[0.75, 0.25]]))
    q = assignment(np.array([[0.5, 0.5]]))
    want = 0.75 * np.log(1.5) + 0.25 * np.log(0.5)
    assert target_assignment_kl(p, q) == pytest.approx(want, abs=1e-9)
    assert target_assignment_kl(p, q) == pytest.approx(0.130812, abs=1e-6)


def test_target_kl_zero_target_mass_is_ignored():
    p = TargetMatrix(np.array([[1.0, 0.0]]))
    q = assignment(np.array([[0.5, 0.5]]))
    assert target_assignment_kl(p, q) == pytest.approx(np.log(2.0))


def test_target_kl_infinite_divergence_rejected():
    p = TargetMatrix(np.array([[0.5, 0.5]]))
    q = AssignmentMatrix(np.array([[1.0, 0.0]]), np.array([1.0, 0.0]))
    with pytest.raises(DgzslError):
        target_assignment_kl(p, q)


def test_target_kl_shape_mismatch():
    p = TargetMatrix(np.array([[0.5, 0.5]]))
    q = assignment(stochastic_rows(2, 3, 2))
    with pytest.raises(ShapeError):
        target_assignment_kl(p, q)


@given(st.integers(2, 5), st.integers(1, 20), st.integers(0, 2**32 - 1))
def test_target_kl_nonnegative_and_separating(cols, rows, seed):
    p = stochastic_rows(rows, cols, seed)
    q = stochastic_rows(rows, cols, seed + 1)
    kl = target_assignment_kl(TargetMatrix(p), assignment(q))
    assert kl >= -1e-12
    if kl <= 1e-12:
        # Pinsker: tiny divergence forces the matrices together
        assert np.abs(p - q).max() < 1e-5


# --------------------------------------------------- combined objective


def test_combined_value_matches_manual_composition(setup):
    model, attrs, seen, unseen, feats, labels, unlab, noise_l, noise_u = setup
    target = sharpen(soft_assign(unlab, attrs[unseen], model)).values
    value, grads, parts = transductive_objective(
        model,
        feats,
        labels,
        unlab,
        target,
        attrs,
        margin_class_ids=seen,
        unseen_class_ids=unseen,
        noise_labeled=noise_l,
        noise_unlabeled=noise_u,
    )

    # labeled side: batch-sum of the supervised objective
    _, _, bd = inductive_objective(
        model, feats, labels, attrs, noise=noise_l, margin_class_ids=seen
    )
    assert parts.labeled_total == pytest.approx(bd.total * feats.shape[0], abs=1e-8)

    # unlabeled side: reconstruction sum minus KL(target || assignments)
    q = encode(unlab, model.encoder)
    z = sample_reparam(q, noise_u)
    recon = float(np.sum(gauss_loglik_rows(decode(z, model.decoder), unlab)))
    assignments = soft_assign(unlab, attrs[unseen], model)
    klpq = target_assignment_kl(TargetMatrix(target), assignments)
    assert parts.unlabeled_recon == pytest.approx(recon, abs=1e-9)
    assert parts.target_kl == pytest.approx(klpq, abs=1e-9)
    assert parts.unlabeled_total == pytest.approx(recon - klpq, abs=1e-9)
    assert value == pytest.approx(parts.labeled_total + parts.unlabeled_total, abs=1e-9)
    assert parts.total == parts.labeled_total + parts.unlabeled_total
    assert set(grads) == set(model.named_arrays())


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
        noise_labeled=noise_l,
        noise_unlabeled=np.zeros((0, 4)),
    )
    mean_value, mean_grads, bd = inductive_objective(
        model, feats, labels, attrs, noise=noise_l, margin_class_ids=seen
    )
    batch = feats.shape[0]
    cols = inductive_terms(model, feats, labels, attrs, noise=noise_l, margin_class_ids=seen)
    labeled_sum = float(np.sum(per_example(cols, 1.0)))
    assert value == parts.labeled_total == parts.total
    assert value == pytest.approx(labeled_sum, rel=1e-12)
    assert value == pytest.approx(batch * mean_value, rel=1e-12)
    assert parts.unlabeled_total == parts.unlabeled_recon == parts.target_kl == 0.0
    assert parts.labeled_breakdown == bd
    for key in mean_grads:
        np.testing.assert_allclose(grads[key], batch * mean_grads[key], rtol=1e-12, atol=0)


def test_recon_only_flag_drops_the_assignment_term(setup):
    model, attrs, seen, unseen, feats, labels, unlab, noise_l, noise_u = setup
    target = sharpen(soft_assign(unlab, attrs[unseen], model)).values
    kwargs = dict(
        margin_class_ids=seen,
        unseen_class_ids=unseen,
        noise_labeled=noise_l,
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
    changed = any(
        not np.allclose(grads_star[k], grads_full[k]) for k in grads_full
    )
    assert changed


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
        noise_labeled=noise_l,
        noise_unlabeled=noise_u,
        include_recon=False,
    )
    assert parts.labeled_breakdown.reconstruction == 0.0


def test_target_shape_must_match_batch(setup):
    model, attrs, seen, unseen, feats, labels, unlab, noise_l, noise_u = setup
    with pytest.raises(ShapeError):
        transductive_objective(
            model,
            feats,
            labels,
            unlab,
            np.full((2, 3), 1.0 / 3.0),
            attrs,
            margin_class_ids=seen,
            unseen_class_ids=unseen,
            noise_labeled=noise_l,
            noise_unlabeled=noise_u,
        )


def test_transductive_value_on_an_empty_unlabeled_batch(setup):
    model, attrs, seen, unseen, feats, labels, _, noise_l, _ = setup
    kwargs = dict(
        margin_class_ids=seen,
        unseen_class_ids=unseen,
        noise_labeled=noise_l,
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
    logits = assignment_logits(unlab, attrs[unseen], model)
    assert np.abs(np.exp(logits).sum(axis=1) - 1.0).max() < 1e-12
