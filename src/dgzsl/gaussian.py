"""Diagonal Gaussians: closed-form KL, reparameterized sampling, log-density.

Distributions are stored as (mean, logvar) pairs; variance = exp(logvar) is
positive by construction. Scalar-returning helpers (`kl_diag`, `gauss_loglik`)
operate on concrete vectors. The batched `gauss_loglik_rows` and `kl_matrix`
are generic over tape variables, so the training objectives differentiate
through them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Var
from .errors import ShapeError

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class DiagGaussian:
    """Mean and log-variance, one row (or one vector) per example.

    Fields may be plain arrays or tape variables; immutable either way.
    """

    mean: Array | Var
    logvar: Array | Var

    def __post_init__(self):
        m, lv = ad._value(self.mean), ad._value(self.logvar)
        if m.shape != lv.shape:
            raise ShapeError(
                f"mean shape {m.shape} != logvar shape {lv.shape}"
            )
        if not isinstance(self.mean, Var) and not (
            np.all(np.isfinite(m)) and np.all(np.isfinite(lv))
        ):
            raise ShapeError("DiagGaussian entries must be finite")


def _check_same_shape(a, b, what: str) -> None:
    av, bv = ad._value(a), ad._value(b)
    if av.shape != bv.shape:
        raise ShapeError(f"{what}: shape {av.shape} != shape {bv.shape}")


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


def sample_reparam(g: DiagGaussian, noise):
    """z = mean + exp(logvar/2) ⊙ noise; differentiable through mean/logvar."""
    _check_same_shape(g.mean, noise, "sample_reparam noise")
    return g.mean + ad.exp(g.logvar * 0.5) * np.asarray(noise, dtype=np.float64)


def gauss_loglik(x, mean) -> float:
    """Unit-variance Gaussian log-density: −½‖x−mean‖² − (D/2)·log 2π."""
    xv = np.asarray(ad._value(x), dtype=np.float64)
    mv = np.asarray(ad._value(mean), dtype=np.float64)
    _check_same_shape(xv, mv, "gauss_loglik")
    d = xv - mv
    return -0.5 * float(np.sum(d * d)) - 0.5 * LOG_2PI * xv.size


def gauss_loglik_rows(x, mean):
    """Per-row unit-variance log-density of a batch; returns a B×1 column."""
    _check_same_shape(x, mean, "gauss_loglik_rows")
    d = x - mean
    dim = ad._value(x).shape[1]
    return ad.sum(d * d, axis=1, keepdims=True) * (-0.5) - 0.5 * LOG_2PI * dim


def kl_matrix(q: DiagGaussian, priors: DiagGaussian):
    """KL of every posterior row against every prior row.

    q holds B posteriors (B×L), priors holds C class priors (C×L); returns the
    B×C matrix of KL(q_b ‖ prior_c), built from matmuls so the expression stays
    differentiable on the tape.
    """
    qm, qlv = q.mean, q.logvar
    pm, plv = priors.mean, priors.logvar
    qshape, pshape = ad._value(qm).shape, ad._value(pm).shape
    if len(qshape) != 2 or len(pshape) != 2 or qshape[1] != pshape[1]:
        raise ShapeError(
            f"kl_matrix: posterior shape {qshape} and prior shape {pshape} do not align"
        )
    dim = qshape[1]
    inv_var = ad.exp(-plv)  # C×L
    # trace term: Σ_l exp(lq_bl) / exp(lp_cl)
    trace = ad.matmul(ad.exp(qlv), ad.transpose(inv_var))  # B×C
    # quadratic term (μp−μq)ᵀ Σp⁻¹ (μp−μq), expanded into three matmuls
    prior_sq = ad.sum(pm * pm * inv_var, axis=1, keepdims=True)  # C×1
    cross = ad.matmul(qm, ad.transpose(pm * inv_var))  # B×C
    post_sq = ad.matmul(qm * qm, ad.transpose(inv_var))  # B×C
    quad = ad.transpose(prior_sq) - 2.0 * cross + post_sq
    # log-determinant ratio: Σ_l lp_cl − Σ_l lq_bl
    logdet = ad.transpose(ad.sum(plv, axis=1, keepdims=True)) - ad.sum(
        qlv, axis=1, keepdims=True
    )
    return (trace + quad + logdet - float(dim)) * 0.5
