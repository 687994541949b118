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
from .gaussian import gauss_loglik_rows, kl_matrix, sample_reparam, softmin_rows
from .inductive import ObjectiveBreakdown, inductive_value
from .networks import ModelParams, class_prior, decode, encode

@dataclass(frozen=True)
class TargetMatrix:
    """Row-stochastic sharpened targets, same shape as the assignments.
    Row-stochastic by construction in ``sharpen``, not re-checked."""

    values: Array


def assignment_logits(features, unseen_attr_rows, model: ModelParams):
    """(KL, log q, q) of the soft assignments: the KL of each row's posterior
    to each unseen-class prior (a tape variable on a bound model), then on
    plain arrays log q = −KL − logsumexp(−KL) and q, its row softmax, row-wise;
    the forward of the ``unlabeled`` node's assignment side."""
    priors = class_prior(unseen_attr_rows, model)
    kl = kl_matrix(encode(features, model), priors)
    neg, lse, q = softmin_rows(ad._value(kl))
    return kl, neg - lse, q


def soft_assign(features, unseen_attr_rows, model: ModelParams) -> Array:
    """The N×K soft assignments of N unlabeled inputs over K unseen classes:
    the q of assignment_logits."""
    rows = np.asarray(unseen_attr_rows)
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise DgzslError(
            f"soft assignment needs at least 2 candidate classes, got "
            f"{0 if rows.ndim != 2 else rows.shape[0]}"
        )
    return assignment_logits(features, rows, model)[2]


def sharpen(q: Array) -> TargetMatrix:
    """Squared assignments ``q`` normalized by the class marginals (its
    column sums), then row-normalized.

    Classes with zero marginal contribute zero columns and are excluded from
    the normalization. A single-row matrix is returned unchanged (the algebra
    cancels exactly, so the identity is applied rather than recomputed).
    """
    if q.shape[0] == 1:
        return TargetMatrix(q.copy())
    g = q.sum(axis=0)
    weights = np.where(g > 0, q * q / np.where(g > 0, g, 1.0), 0.0)
    row_sums = weights.sum(axis=1, keepdims=True)
    if (row_sums == 0).any():
        raise DgzslError("sharpening produced an all-zero row")
    return TargetMatrix(weights / row_sums)


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
    unseen_class_ids,
    noise_unlabeled,
    enc_masks_unlab=None,
    dec_masks_unlab=None,
    recon_only_unlabeled: bool = False,
    **labeled,
):
    """Combined objective value: Σ labeled supervised terms + unlabeled term.

    ``target_rows`` is the array of sharpened-target rows aligned with the
    unlabeled batch, ``sharpen(...).values`` at the last refresh; they are
    constants (no gradient flows through the target). An empty unlabeled
    batch contributes a zero unlabeled term. After the networks and
    ``kl_matrix``, the target KL, the reconstruction sum and the labeled sum
    are one ``unlabeled`` node. Works on plain and tape-bound models; returns
    (value, TransductiveParts) where the value is a tape variable when the
    model is bound. Sums, not means: ``labeled`` holds inductive_value's
    options for the labeled batch (``noise``, ``margin_class_ids``, its masks
    and the rest), which it is called with, with ``mean=False``.
    """
    unlab = np.asarray(unlab_features)
    unseen_ids = np.asarray(unseen_class_ids)
    if unseen_ids.size < 2:
        raise DgzslError("transductive objective needs at least 2 unseen classes")
    p = np.asarray(target_rows)
    if p.shape != (unlab.shape[0], unseen_ids.size):
        raise ShapeError(
            f"target rows shape {p.shape} does not match "
            f"({unlab.shape[0]}, {unseen_ids.size})"
        )

    lab_sum, lab_parts = inductive_value(model, lab_features, lab_labels, attr_rows, mean=False, **labeled)
    q_u = encode(unlab, model, enc_masks_unlab)
    recon = gauss_loglik_rows(decode(sample_reparam(q_u, noise_unlabeled), model, dec_masks_unlab), unlab)
    recon_col = ad._value(recon)  # the backward holds no Var, so no tape cycle
    recon_sum = np.asarray(np.sum(recon_col))
    unlab_total, kl_pq, operands = recon_sum, 0.0, (lab_sum, recon)
    if not recon_only_unlabeled:
        # target entries are constants: only the log-assignment side carries
        # gradient, which is exactly the no-gradient-through-target rule
        kl_u, log_q, soft = assignment_logits(unlab, np.asarray(attr_rows)[unseen_ids], model)
        with np.errstate(divide="ignore", invalid="ignore"):
            self_info = float(np.where(p > 0, p * np.log(p), 0.0).sum())
        kl_pq = self_info - np.asarray(np.sum(p * log_q))
        unlab_total = recon_sum - kl_pq
        operands += (kl_u,)
    lab_val, unlab_val = float(ad._value(lab_sum)), float(unlab_total)

    def vjp(gout, wanted):
        # the elementwise composition's products and sums in its order, so
        # the bytes match it (the signs of zero sums too)
        grads = [gout, np.broadcast_to(gout, recon_col.shape)]
        if not recon_only_unlabeled:
            g_logq = gout * p
            grads.append((g_logq + (-g_logq).sum(axis=1, keepdims=True) * soft) * -1.0)
        return grads

    total = ad.record("unlabeled", ad._value(lab_sum) + unlab_total, operands, vjp)
    return total, TransductiveParts(
        labeled_total=lab_val, unlabeled_total=unlab_val, unlabeled_recon=float(recon_sum),
        target_kl=float(kl_pq), total=lab_val + unlab_val, labeled_breakdown=lab_parts,
    )


def transductive_objective(model: ModelParams, *args, out=None, **kwargs):
    """transductive_value with gradients for every model tensor.

    Returns (value, gradient vector as in inductive_objective,
    TransductiveParts).
    """
    return ad.value_and_grad(lambda m: transductive_value(m, *args, **kwargs), model, out)
