"""Unlabeled-data regularizer for the transductive setting.

Unlabeled test inputs get soft class assignments (softmax over negated KLs to
the unseen-class priors). A sharpened target distribution — squared
assignments normalized by class marginals — is refreshed periodically and
held fixed; training then maximizes unlabeled reconstruction minus the KL
between that fixed target and the current assignments, alongside the usual
supervised objective summed over the labeled batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Array
from .errors import DgzslError, ShapeError
from .gaussian import gauss_loglik_rows, kl_matrix, sample_reparam
from .inductive import ObjectiveBreakdown, breakdown_of, inductive_terms, per_example
from .networks import ModelParams, class_prior, decode, encode

@dataclass(frozen=True)
class AssignmentMatrix:
    """Row-stochastic soft assignments (one row per unlabeled input) plus the
    per-class marginals (column sums). Row-stochastic by construction in
    ``soft_assign``, not re-checked."""

    values: Array
    class_marginals: Array


@dataclass(frozen=True)
class TargetMatrix:
    """Row-stochastic sharpened targets, same shape as the assignments.
    Row-stochastic by construction in ``sharpen``, not re-checked."""

    values: Array


def assignment_logits(features, unseen_attr_rows, model: ModelParams):
    """Log of the soft assignments: −KL − logsumexp(−KL), row-wise.

    Generic over tape variables; this is the differentiable core behind
    soft_assign and the transductive regularizer.
    """
    priors = class_prior(unseen_attr_rows, model.prior)
    neg_kl = -1.0 * kl_matrix(encode(features, model.encoder), priors)
    return neg_kl - ad.logsumexp_rows(neg_kl)


def soft_assign(features, unseen_attr_rows, model: ModelParams) -> AssignmentMatrix:
    """Soft class assignments of unlabeled inputs over the unseen classes."""
    rows = np.asarray(unseen_attr_rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise DgzslError(
            f"soft assignment needs at least 2 candidate classes, got "
            f"{0 if rows.ndim != 2 else rows.shape[0]}"
        )
    values = np.exp(assignment_logits(features, rows, model))
    return AssignmentMatrix(values, values.sum(axis=0))


def sharpen(assignments: AssignmentMatrix) -> TargetMatrix:
    """Squared assignments normalized by class marginals, then row-normalized.

    Classes with zero marginal contribute zero columns and are excluded from
    the normalization. A single-row matrix is returned unchanged (the algebra
    cancels exactly, so the identity is applied rather than recomputed).
    """
    q = assignments.values
    if q.shape[0] == 1:
        return TargetMatrix(q.copy())
    g = assignments.class_marginals
    weights = np.where(g > 0, q * q / np.where(g > 0, g, 1.0), 0.0)
    row_sums = weights.sum(axis=1, keepdims=True)
    if (row_sums == 0).any():
        raise DgzslError("sharpening produced an all-zero row")
    return TargetMatrix(weights / row_sums)


def _values_of(m) -> Array:
    return np.asarray(m.values if hasattr(m, "values") else m, dtype=np.float64)


def target_assignment_kl(target, assignments) -> float:
    """Σ_rows Σ_classes p·log(p/q) between target p and assignment q rows.

    Zero target entries contribute nothing; a positive target against a zero
    assignment is an error (infinite divergence).
    """
    p, q = _values_of(target), _values_of(assignments)
    if p.shape != q.shape:
        raise ShapeError(f"target shape {p.shape} != assignment shape {q.shape}")
    if ((p > 0) & (q == 0)).any():
        raise DgzslError("target puts mass where the assignment has none")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * (np.log(p) - np.log(q)), 0.0)
    return float(terms.sum())


@dataclass(frozen=True)
class TransductiveParts:
    """Logged components; total == labeled_total + unlabeled_total exactly."""

    labeled_total: float
    unlabeled_total: float
    unlabeled_recon: float
    target_kl: float
    total: float
    labeled_breakdown: ObjectiveBreakdown


def transductive_value(
    model: ModelParams,
    lab_features,
    lab_labels,
    unlab_features,
    target_rows,
    attr_rows,
    *,
    margin_class_ids,
    unseen_class_ids,
    noise_labeled,
    noise_unlabeled,
    margin_weight: float = 1.0,
    enc_masks_lab=None,
    dec_masks_lab=None,
    enc_masks_unlab=None,
    dec_masks_unlab=None,
    exclude_true_class: bool = False,
    include_recon: bool = True,
    recon_only_unlabeled: bool = False,
):
    """Combined objective value: Σ labeled supervised terms + unlabeled term.

    ``target_rows`` are the sharpened-target rows aligned with the unlabeled
    batch, produced by sharpen() at the last refresh; they are constants (no
    gradient flows through the target). An empty unlabeled batch contributes
    a zero unlabeled term. Works on plain and tape-bound models; returns
    (value, TransductiveParts) where the value is a tape variable when the
    model is bound. Sums, not means.
    """
    unlab = np.asarray(unlab_features, dtype=np.float64)
    unseen_ids = np.asarray(unseen_class_ids)
    if unseen_ids.size < 2:
        raise DgzslError("transductive objective needs at least 2 unseen classes")
    p = _values_of(target_rows)
    if p.shape != (unlab.shape[0], unseen_ids.size):
        raise ShapeError(
            f"target rows shape {p.shape} does not match "
            f"({unlab.shape[0]}, {unseen_ids.size})"
        )

    cols = inductive_terms(
        model,
        lab_features,
        lab_labels,
        attr_rows,
        noise=noise_labeled,
        margin_class_ids=margin_class_ids,
        enc_masks=enc_masks_lab,
        dec_masks=dec_masks_lab,
        exclude_true_class=exclude_true_class,
    )
    labeled_sum = ad.sum(per_example(cols, margin_weight, include_recon=include_recon))

    q_u = encode(unlab, model.encoder, enc_masks_unlab)
    z_u = sample_reparam(q_u, noise_unlabeled)
    recon_col = gauss_loglik_rows(decode(z_u, model.decoder, dec_masks_unlab), unlab)
    unlab_term = ad.sum(recon_col)
    recon_val = float(unlab_term)
    kl_pq_val = 0.0
    if not recon_only_unlabeled:
        # target entries are constants: only the log-assignment side carries
        # gradient, which is exactly the no-gradient-through-target rule
        logq = assignment_logits(unlab, np.asarray(attr_rows)[unseen_ids], model)
        with np.errstate(divide="ignore", invalid="ignore"):
            self_info = float(np.where(p > 0, p * np.log(p), 0.0).sum())
        kl_pq = self_info - ad.sum(p * logq)
        kl_pq_val = float(kl_pq)
        unlab_term = unlab_term - kl_pq

    total = labeled_sum + unlab_term
    lab_val, unlab_val = float(labeled_sum), float(unlab_term)
    parts = TransductiveParts(
        labeled_total=lab_val,
        unlabeled_total=unlab_val,
        unlabeled_recon=recon_val,
        target_kl=kl_pq_val,
        total=lab_val + unlab_val,
        labeled_breakdown=breakdown_of(cols, margin_weight, include_recon=include_recon),
    )
    return total, parts


def transductive_objective(model: ModelParams, *args, **kwargs):
    """transductive_value with gradients for every model tensor.

    Returns (value, gradient dict, TransductiveParts).
    """
    return ad.value_and_grad(lambda m: transductive_value(m, *args, **kwargs), model)
