"""Supervised training objective: class-prior ELBO plus a margin term.

Per labeled example the objective is

    reconstruction − KL(posterior ‖ true-class prior) + weight · margin

where the margin term is the negated log-sum-exp of negated KLs against the
allowed class set. Maximizing it pulls the posterior toward the true class
prior while pushing it away from the nearest competing prior. The set holds
every label, so margin ≤ KL to the true class, and the sum of the two terms
is bounded above for the weights in [0, 1] that a TrainConfig accepts. The
batch value is the arithmetic mean; the transductive objective takes the sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Array
from .errors import DgzslError, ShapeError
from .gaussian import _check_same_shape, gauss_loglik_rows, kl_matrix, sample_reparam, softmin_rows
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


def inductive_value(
    model: ModelParams,
    features,
    labels,
    attr_rows,
    *,
    noise,
    margin_class_ids,
    margin_weight: float = 1.0,
    include_recon: bool = True,
    enc_masks=None,
    dec_masks=None,
    mean: bool = True,
):
    """Objective of a labeled batch: its mean, or with ``mean=False`` its sum
    (the labeled side of the transductive objective).

    ``attr_rows`` is the full (num_classes × M) attribute matrix indexed by
    class id; ``margin_class_ids`` selects which classes the margin term sums
    over, and every label must belong to that set. ``include_recon=False``
    skips the sample, the decoder and the log-likelihood. The tail after
    ``kl_matrix`` and the reconstruction is one ``labeled`` node. Works on
    plain and tape-bound models; returns (value, ObjectiveBreakdown) where the
    value is a tape variable when the model is bound.
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
    if margin_weight < 0:
        raise DgzslError(f"margin weight must be ≥ 0, got {margin_weight}")

    q = encode(features, model, enc_masks)
    if include_recon:
        recon = gauss_loglik_rows(decode(sample_reparam(q, noise), model, dec_masks), features)
    else:  # no sample, decoder or log-likelihood nodes; the noise is checked all the same
        _check_same_shape(q.mean, noise, "sample_reparam noise")
    kl_all = kl_matrix(q, class_prior(attr_rows, model))  # B × num_classes
    kl = ad._value(kl_all)
    kl_true = np.sum(kl * hot, axis=1, keepdims=True)
    _, lse, soft = softmin_rows(kl, allowed)
    margin = -1.0 * lse
    per = margin_weight * margin - kl_true
    if include_recon:
        per = per + ad._value(recon)
    scale = 1.0 / float(per.size) if mean else 1.0  # times 1.0 is exact
    value = np.asarray(np.sum(per)) * scale

    def vjp(gout, wanted):
        # the elementwise composition's products in its order, so the bytes
        # match it (its two exact −1 factors cancel); g is the per-example
        # column's gradient
        g = np.broadcast_to(gout * scale, per.shape)
        return g * margin_weight * soft + (-g) * hot, g

    node = ad.record("labeled", value, (kl_all, recon) if include_recon else (kl_all,), vjp)
    rec = float(np.mean(ad._value(recon))) if include_recon else 0.0
    kl_mean, margin_mean = float(np.mean(kl_true)), float(np.mean(margin))
    return node, ObjectiveBreakdown(
        rec, kl_mean, margin_mean, margin_weight, rec - kl_mean + margin_weight * margin_mean
    )


def inductive_objective(model: ModelParams, *args, out=None, pool=None, **kwargs):
    """inductive_value with gradients for every model tensor, on a tape
    that carries ``pool`` (autodiff.Tape).

    Returns (value, gradient vector laid out like ``model.flat``, written
    into ``out`` when given, ObjectiveBreakdown). The trainer ascends it.
    """
    return ad.value_and_grad(lambda m: inductive_value(m, *args, **kwargs), model, out, pool)
