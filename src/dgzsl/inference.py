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


def _sorted_candidates(candidate_ids, num_classes: int) -> np.ndarray:
    ids = np.unique(np.asarray(candidate_ids, dtype=np.int64))
    if ids.size == 0:
        raise DgzslError("candidate class set is empty")
    if ids.min() < 0 or ids.max() >= num_classes:
        raise DgzslError(
            f"candidate ids {ids.min()}..{ids.max()} outside 0..{num_classes - 1}"
        )
    return ids


def predict_batch(features, candidate_ids, attr_rows, model: ModelParams):
    """Labels for a feature batch, plus the KL score matrix and posteriors.

    Returns (labels N, kl matrix N×K aligned with the ascending candidate
    ids, posterior DiagGaussian batch). Eval mode, deterministic.
    """
    ids = _sorted_candidates(candidate_ids, np.asarray(attr_rows).shape[0])
    q = encode(np.atleast_2d(features), model)
    scores = kl_matrix(q, class_prior(np.asarray(attr_rows)[ids], model))
    labels = ids[np.argmin(scores, axis=1)]  # first occurrence = lowest class id
    return labels, scores, q


def accuracy(features, labels, candidate_ids, attr_rows, model: ModelParams) -> float:
    predicted, _, _ = predict_batch(features, candidate_ids, attr_rows, model)
    return float(np.mean(predicted == np.asarray(labels)))

