"""Diagonal Gaussians: closed-form KL, reparameterized sampling, log-density.

Distributions are stored as (mean, logvar) pairs; variance = exp(logvar) is
positive by construction. The batched `gauss_loglik_rows` and `kl_matrix` are
generic over tape variables, so the training objectives differentiate through
them.
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
    ``label`` names the map that made them ("posterior", "prior") in the
    error a non-finite entry raises.
    """

    mean: Array | Var
    logvar: Array | Var
    label: str = "DiagGaussian"

    def __post_init__(self):
        m, lv = ad._value(self.mean), ad._value(self.logvar)
        if m.shape != lv.shape:
            raise ShapeError(
                f"mean shape {m.shape} != logvar shape {lv.shape}"
            )
        if isinstance(self.mean, Var):
            return
        for name, a in (("mean", m), ("logvar", lv)):
            if not np.all(np.isfinite(a)):
                row = int(np.argmin(np.isfinite(np.atleast_2d(a)).all(axis=1)))
                raise ShapeError(f"{self.label} {name} has a non-finite entry in row {row}")


def _check_same_shape(a, b, what: str) -> None:
    av, bv = ad._value(a), ad._value(b)
    if av.shape != bv.shape:
        raise ShapeError(f"{what}: shape {av.shape} != shape {bv.shape}")


def sample_reparam(g: DiagGaussian, noise):
    """z = mean + exp(logvar/2) ⊙ noise; differentiable through mean/logvar."""
    _check_same_shape(g.mean, noise, "sample_reparam noise")
    return g.mean + ad.exp(g.logvar * 0.5) * noise


def gauss_loglik_rows(x, mean):
    """Per-row unit-variance log-density of a batch; returns a B×1 column."""
    _check_same_shape(x, mean, "gauss_loglik_rows")
    d = x - mean
    dim = ad._value(x).shape[1]
    return ad.sum(d * d, axis=1, keepdims=True) * (-0.5) - 0.5 * LOG_2PI * dim


def kl_matrix(q: DiagGaussian, priors: DiagGaussian):
    """KL of every posterior row against every prior row.

    q holds B posteriors (B×L), priors holds C class priors (C×L); returns the
    B×C matrix of KL(q_b ‖ prior_c), built from matmuls. When any input is a
    tape variable the result is one node with a closed-form backward.
    """
    qm, qlv = ad._value(q.mean), ad._value(q.logvar)
    pm, plv = ad._value(priors.mean), ad._value(priors.logvar)
    if qm.ndim != 2 or pm.ndim != 2 or qm.shape[1] != pm.shape[1]:
        raise ShapeError(
            f"kl_matrix: posterior shape {qm.shape} and prior shape {pm.shape} do not align"
        )
    inv_var = np.exp(-plv)  # C×L
    exp_qlv = np.exp(qlv)
    # trace term: Σ_l exp(lq_bl) / exp(lp_cl)
    trace = exp_qlv @ inv_var.T  # B×C
    # quadratic term (μp−μq)ᵀ Σp⁻¹ (μp−μq), expanded into three matmuls
    pm_sq = pm * pm
    prior_sq = np.sum(pm_sq * inv_var, axis=1, keepdims=True)  # C×1
    pm_iv = pm * inv_var
    cross = qm @ pm_iv.T  # B×C
    qm_sq = qm * qm
    post_sq = qm_sq @ inv_var.T  # B×C
    quad = prior_sq.T - 2.0 * cross + post_sq
    # log-determinant ratio: Σ_l lp_cl − Σ_l lq_bl
    logdet = np.sum(plv, axis=1, keepdims=True).T - np.sum(qlv, axis=1, keepdims=True)
    out = (trace + quad + logdet - float(qm.shape[1])) * 0.5

    def vjp(gout, wanted):
        # The products and sums of the elementwise composition, in its
        # accumulation order, so the gradients match it bit for bit.
        h = gout * 0.5
        cross_g = h * -2.0
        gqm = gqlv = gpm = gplv = None
        if wanted[0] or wanted[1]:
            h_iv = h @ inv_var
            t = h_iv * qm
            gqm = t + t + cross_g @ pm_iv
            gqlv = (-h).sum(axis=1, keepdims=True) + h_iv * exp_qlv
        if wanted[2] or wanted[3]:
            col = h.sum(axis=0, keepdims=True).T  # C×1
            pm_iv_g = (qm.T @ cross_g).T
            pm_sq_g = col * inv_var
            gpm = pm_iv_g * inv_var + pm_sq_g * pm + pm_sq_g * pm
            iv_g = (qm_sq.T @ h).T + pm_iv_g * pm + col * pm_sq + (exp_qlv.T @ h).T
            gplv = col - iv_g * inv_var
        return gqm, gqlv, gpm, gplv

    return ad.record("kl_matrix", out, (q.mean, q.logvar, priors.mean, priors.logvar), vjp)
