"""Prediction for unseen-class inputs.

The label rule picks the candidate class whose latent prior is closest (in
KL) to the input's posterior. Scoring via the per-class variational bound
with a shared latent sample gives the same label, because the reconstruction
term does not depend on the candidate.
"""

from __future__ import annotations

import numpy as np

from .errors import DgzslError
from .gaussian import kl_matrix
from .networks import ModelParams, class_prior, encode


def candidate_priors(candidate_ids, attr_rows, model: ModelParams):
    """(ids, priors): the candidate ids in ascending order, checked against
    the attribute rows, and their classes' latent priors in that order. A
    pass that labels many batches builds these once (run_eval)."""
    attr_rows = np.asarray(attr_rows)
    ids = np.unique(np.asarray(candidate_ids, dtype=np.int64))
    if ids.size == 0:
        raise DgzslError("candidate class set is empty")
    if ids.min() < 0 or ids.max() >= attr_rows.shape[0]:
        raise DgzslError(
            f"candidate ids {ids.min()}..{ids.max()} outside 0..{attr_rows.shape[0] - 1}"
        )
    return ids, class_prior(attr_rows[ids], model)


def closest_prior(q, ids, priors):
    """Labels of a posterior batch ``q``, plus its KL score matrix: each
    row's label is the candidate whose prior is closest in KL to its
    posterior. ``ids`` and ``priors`` are candidate_priors' pair. Returns
    (labels N, kl matrix N×K aligned with ``ids``); rows are scored
    independently, so a batch cut into parts gives the same bytes part by
    part."""
    scores = kl_matrix(q, priors)
    labels = ids[np.argmin(scores, axis=1)]  # first occurrence = lowest class id
    return labels, scores


def predict_batch(features, candidate_ids, attr_rows, model: ModelParams):
    """Labels for a feature batch, plus the KL score matrix and posteriors.

    Returns (labels N, kl matrix N×K aligned with the ascending candidate
    ids, posterior DiagGaussian batch). Eval mode, deterministic.
    """
    q = encode(np.atleast_2d(features), model)
    return (*closest_prior(q, *candidate_priors(candidate_ids, attr_rows, model)), q)


def accuracy(features, labels, candidate_ids, attr_rows, model: ModelParams) -> float:
    predicted, _, _ = predict_batch(features, candidate_ids, attr_rows, model)
    return float(np.mean(predicted == np.asarray(labels)))

