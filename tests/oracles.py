"""Scalar reference implementations the tests check the batched,
differentiable program against. Nothing in ``dgzsl`` calls them.

Per-pair Gaussian KL and log-density, a vector log-sum-exp, the
single-example class-conditional bound, the margin term, the closest-prior
label with its evidence, the label by the per-candidate bound, and the
target-to-assignment KL. Also the tape ops ``matmul`` and ``transpose``, of
which the unfused compositions that the fused nodes replaced are built, and
the dropout masks divided in float64 and then cast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dgzsl import autodiff as ad
from dgzsl.errors import DgzslError, ShapeError
from dgzsl.gaussian import LOG_2PI, DiagGaussian, _check_same_shape, kl_matrix, sample_reparam
from dgzsl.inductive import ObjectiveBreakdown
from dgzsl.inference import _sorted_candidates, predict_batch
from dgzsl.networks import ModelParams, class_prior, decode, encode
from dgzsl.transductive import _values_of


def matmul(a, b):
    """a @ b of 2-D arrays as one tape node; gradients g @ bᵀ and aᵀ @ g."""
    av, bv = ad._value(a), ad._value(b)

    def vjp(g, wanted):
        return g @ bv.T if wanted[0] else None, av.T @ g if wanted[1] else None

    return ad.record("matmul", av @ bv, (a, b), vjp)


def transpose(x):
    """xᵀ of a 2-D array as one tape node; gradient gᵀ."""
    return ad.record("transpose", ad._value(x).T, (x,), lambda g, wanted: (g.T,))


def dropout_masks(rng: np.random.Generator, model: ModelParams, batch: int):
    """make_dropout_masks as (draw < keep) / keep in float64, cast to the
    dtype of ``model.flat``."""
    keep, dtype = model.keep_prob, model.flat.dtype
    return tuple(
        [((rng.random((batch, w)) < keep) / keep).astype(dtype) for w in model.layout.hidden_dims]
        for _ in ("enc", "dec")
    )


def kl_diag(q: DiagGaussian, p: DiagGaussian) -> float:
    """KL(q || p) for two diagonal Gaussians of equal dimension.

    ½ Σ_l [ exp(lq−lp) + (μp−μq)²·exp(−lp) − 1 + lp − lq ].
    """
    qm, qlv = np.asarray(ad._value(q.mean)), np.asarray(ad._value(q.logvar))
    pm, plv = np.asarray(ad._value(p.mean)), np.asarray(ad._value(p.logvar))
    _check_same_shape(qm, pm, "kl_diag means")
    _check_same_shape(qlv, plv, "kl_diag logvars")
    d = pm - qm
    terms = np.exp(qlv - plv) + d * d * np.exp(-plv) - 1.0 + (plv - qlv)
    return 0.5 * float(np.sum(terms))


def gauss_loglik(x, mean) -> float:
    """Unit-variance Gaussian log-density: −½‖x−mean‖² − (D/2)·log 2π."""
    xv = np.asarray(ad._value(x), dtype=np.float64)
    mv = np.asarray(ad._value(mean), dtype=np.float64)
    _check_same_shape(xv, mv, "gauss_loglik")
    d = xv - mv
    return -0.5 * float(np.sum(d * d)) - 0.5 * LOG_2PI * xv.size


def logsumexp(values) -> float:
    """max(v) + log sum exp(v - max(v)) of a non-empty vector, overflow-safe."""
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise DgzslError("logsumexp of an empty vector")
    if not np.all(np.isfinite(v)):
        raise DgzslError("logsumexp input has non-finite entries")
    m = float(v.max())
    return m + float(np.log(np.exp(v - m).sum()))


def class_conditional_elbo(x, attr, model: ModelParams, noise):
    """Single-example lower bound against one class prior (eval mode).

    Returns (value, ObjectiveBreakdown) with the margin fields zeroed; value =
    one-sample reconstruction log-likelihood minus the KL to the class prior.
    """
    q = encode(x[None], model)
    z = sample_reparam(q, noise[None])
    recon = gauss_loglik(x, decode(z, model)[0])
    kl = kl_diag(q, class_prior(attr[None], model))
    value = recon - kl
    return value, ObjectiveBreakdown(recon, kl, 0.0, 0.0, value)


def margin_term(q: DiagGaussian, attr_rows, model: ModelParams) -> float:
    """−logsumexp over the given classes of −KL(q ‖ class prior).

    The result lies between min KL − ln(#classes) and min KL, acting as a
    smooth stand-in for the distance to the nearest class prior.
    """
    rows = np.asarray(attr_rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise DgzslError("margin_term needs a non-empty 2-D attribute-row matrix")
    q2 = DiagGaussian(np.atleast_2d(ad._value(q.mean)), np.atleast_2d(ad._value(q.logvar)))
    kl_row = kl_matrix(q2, class_prior(rows, model))[0]
    return -logsumexp(-kl_row)


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
    q = encode(np.atleast_2d(x), model)
    z = sample_reparam(q, np.atleast_2d(np.asarray(noise, dtype=np.float64)))
    recon = gauss_loglik(x.ravel(), decode(z, model).ravel())
    kls = kl_matrix(q, class_prior(np.asarray(attr_rows)[ids], model))[0]
    bounds = recon - kls
    return int(ids[np.argmax(bounds)])


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
