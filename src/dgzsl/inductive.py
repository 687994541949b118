"""Supervised training objective: class-prior ELBO plus a margin term.

Per labeled example the objective is

    reconstruction − KL(posterior ‖ true-class prior) + weight · margin

where the margin term is the negated log-sum-exp of negated KLs against the
allowed class set. Maximizing it pulls the posterior toward the true class
prior while pushing it away from the nearest competing prior. The batch value
is the arithmetic mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Array
from .errors import DgzslError, ShapeError
from .gaussian import gauss_loglik_rows, kl_matrix, sample_reparam
from .networks import ModelParams, class_prior, decode, encode


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """Batch-mean value of each objective term, stored so each is testable.

    Identity: total == reconstruction − kl_true_class + margin_weight · margin.
    """

    reconstruction: float
    kl_true_class: float
    margin: float
    margin_weight: float
    total: float


def one_hot(labels, num_classes: int) -> Array:
    """The B×C boolean indicator of integer labels: row b is True only at
    column labels[b]. Multiplying it into a float array keeps that array's
    dtype."""
    lab = np.asarray(labels)
    if lab.ndim != 1:
        raise ShapeError(f"labels must be 1-D, got shape {lab.shape}")
    if lab.size and (lab.min() < 0 or lab.max() >= num_classes):
        raise DgzslError(
            f"label out of range: saw {int(lab.min())}..{int(lab.max())} "
            f"with {num_classes} classes"
        )
    out = np.zeros((lab.size, num_classes), dtype=bool)
    out[np.arange(lab.size), lab] = True
    return out


class ObjectiveColumns(NamedTuple):
    """Per-example (B×1) terms; tape variables when the model is bound."""

    reconstruction: object
    kl_true_class: object
    margin: object


def inductive_terms(
    model: ModelParams,
    features,
    labels,
    attr_rows,
    *,
    noise,
    margin_class_ids,
    enc_masks=None,
    dec_masks=None,
    exclude_true_class: bool = False,
) -> ObjectiveColumns:
    """Per-example objective columns for a labeled batch.

    ``attr_rows`` is the full (num_classes × M) attribute matrix indexed by
    class id; ``margin_class_ids`` selects which classes the margin term sums
    over, and every label must belong to that set.
    """
    num_classes = np.asarray(attr_rows).shape[0]
    hot = one_hot(labels, num_classes)
    margin_ids = np.asarray(margin_class_ids)
    if margin_ids.size == 0:
        raise DgzslError("margin class set is empty")
    allowed = np.zeros(num_classes, dtype=bool)
    allowed[margin_ids] = True
    bad = ~allowed[np.asarray(labels)]
    if bad.any():
        raise DgzslError(
            f"labels outside the training class set: {sorted(np.unique(np.asarray(labels)[bad]).tolist())}"
        )
    mask = np.broadcast_to(allowed, hot.shape)
    if exclude_true_class:
        mask = mask & ~hot

    q = encode(features, model, enc_masks)
    z = sample_reparam(q, noise)
    recon = gauss_loglik_rows(decode(z, model, dec_masks), features)
    kl_all = kl_matrix(q, class_prior(attr_rows, model))  # B × num_classes
    kl_true = ad.sum(kl_all * hot, axis=1, keepdims=True)
    margin = -1.0 * ad.logsumexp_rows(-1.0 * kl_all, mask=mask)
    return ObjectiveColumns(recon, kl_true, margin)


def per_example(cols: ObjectiveColumns, margin_weight: float, *, include_recon: bool = True):
    """B×1 labeled objective: margin_weight · margin − kl (+ reconstruction)."""
    if margin_weight < 0:
        raise DgzslError(f"margin weight must be ≥ 0, got {margin_weight}")
    out = margin_weight * cols.margin - cols.kl_true_class
    return out + cols.reconstruction if include_recon else out


def assemble(cols: ObjectiveColumns, margin_weight: float, *, include_recon: bool = True):
    """Mean objective over the batch from per-example columns."""
    return ad.mean(per_example(cols, margin_weight, include_recon=include_recon))


def breakdown_of(cols: ObjectiveColumns, margin_weight: float, *, include_recon: bool = True) -> ObjectiveBreakdown:
    recon = float(np.mean(ad._value(cols.reconstruction))) if include_recon else 0.0
    kl = float(np.mean(ad._value(cols.kl_true_class)))
    margin = float(np.mean(ad._value(cols.margin)))
    return ObjectiveBreakdown(recon, kl, margin, margin_weight, recon - kl + margin_weight * margin)


def inductive_value(
    model: ModelParams,
    features,
    labels,
    attr_rows,
    *,
    margin_weight: float = 1.0,
    include_recon: bool = True,
    **terms,
):
    """Batch-mean objective of a labeled batch; ``terms`` go to inductive_terms.

    Works on plain and tape-bound models; returns (value, ObjectiveBreakdown)
    where the value is a tape variable when the model is bound.
    """
    cols = inductive_terms(model, features, labels, attr_rows, **terms)
    value = assemble(cols, margin_weight, include_recon=include_recon)
    return value, breakdown_of(cols, margin_weight, include_recon=include_recon)


def inductive_objective(model: ModelParams, *args, out=None, **kwargs):
    """inductive_value with gradients for every model tensor.

    Returns (value, gradient vector laid out like ``model.flat``, written
    into ``out`` when given, ObjectiveBreakdown). The trainer ascends it.
    """
    return ad.value_and_grad(lambda m: inductive_value(m, *args, **kwargs), model, out)
