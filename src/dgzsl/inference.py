"""Prediction for unseen-class inputs.

The label rule picks the candidate class whose latent prior is closest (in
KL) to the input's posterior. Scoring via the per-class variational bound
with a shared latent sample gives the same label, because the reconstruction
term does not depend on the candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DgzslError
from .gaussian import DiagGaussian, gauss_loglik, kl_matrix, sample_reparam
from .networks import ModelParams, class_prior, decode, encode


@dataclass(frozen=True)
class Prediction:
    """Label plus the evidence behind it: per-candidate KLs and the posterior.

    ``kl_scores`` aligns with ``candidate_ids`` (ascending); the label is the
    argmin with ties broken toward the lowest class id.
    """

    label: int
    candidate_ids: tuple[int, ...]
    kl_scores: np.ndarray
    posterior: DiagGaussian

    def __post_init__(self):
        scores = np.asarray(self.kl_scores, dtype=np.float64)
        if scores.shape != (len(self.candidate_ids),):
            raise DgzslError("kl_scores must align with candidate_ids")
        if scores.size and scores.min() < -1e-9:
            raise DgzslError(f"negative KL score: {scores.min()}")
        if self.label != self.candidate_ids[int(np.argmin(scores))]:
            raise DgzslError("label is not the argmin of kl_scores")


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
    q = encode(np.atleast_2d(np.asarray(features, dtype=np.float64)), model.encoder)
    scores = kl_matrix(q, class_prior(np.asarray(attr_rows)[ids], model.prior))
    labels = ids[np.argmin(scores, axis=1)]  # first occurrence = lowest class id
    return labels, scores, q


def predict_zsl(x, candidate_ids, attr_rows, model: ModelParams) -> Prediction:
    """Closest-prior rule for one input: argmin over candidate KLs."""
    labels, scores, q = predict_batch(x, candidate_ids, attr_rows, model)
    ids = _sorted_candidates(candidate_ids, np.asarray(attr_rows).shape[0])
    return Prediction(
        label=int(labels[0]),
        candidate_ids=tuple(int(i) for i in ids),
        kl_scores=scores[0],
        posterior=DiagGaussian(q.mean[0], q.logvar[0]),
    )


def predict_via_bound(x, candidate_ids, attr_rows, model: ModelParams, noise) -> int:
    """Label by maximizing the per-candidate variational bound.

    One latent sample (from ``noise``) is shared across every candidate, so
    the reconstruction term is class-independent and the argmax must agree
    with predict_zsl.
    """
    ids = _sorted_candidates(candidate_ids, np.asarray(attr_rows).shape[0])
    x = np.asarray(x, dtype=np.float64)
    q = encode(np.atleast_2d(x), model.encoder)
    z = sample_reparam(q, np.atleast_2d(np.asarray(noise, dtype=np.float64)))
    recon = gauss_loglik(x.ravel(), decode(z, model.decoder).ravel())
    kls = kl_matrix(q, class_prior(np.asarray(attr_rows)[ids], model.prior))[0]
    bounds = recon - kls
    return int(ids[np.argmax(bounds)])


def accuracy(features, labels, candidate_ids, attr_rows, model: ModelParams) -> float:
    predicted, _, _ = predict_batch(features, candidate_ids, attr_rows, model)
    return float(np.mean(predicted == np.asarray(labels)))

