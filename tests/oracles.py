"""Scalar reference implementations the tests check the batched,
differentiable program against. Nothing in ``dgzsl`` calls them.

Per-pair Gaussian KL and log-density, a vector log-sum-exp, the
single-example class-conditional bound, the margin term, the closest-prior
label with its evidence, the label by the per-candidate bound, and the
target-to-assignment KL. The class rules of a dataset with the pairwise
C×C×M duplicate check that ``data._check_classes`` replaced, and the
confusion table counted row by row. Also the elementwise tape ops (``add``, ``sub``,
``mul``, ``exp``, ``relu``, ``sum``, ``mean``, ``logsumexp_rows``, ``matmul``,
``transpose``), each one node through ``ad.record``, and the unfused
compositions built of them that the fused nodes replaced: they are the
bit-for-bit reference of ``sample_reparam``, ``gauss_loglik_rows``, the
labeled and the transductive objective. And the dropout masks divided in
float64 and then cast, the synthetic noise scale's class-gap norm over all
C×C×D differences at once, the label and attribute files formatted one
NumPy scalar at a time, and a matrix file's bytes from one whole-array
cast. And ``reference_train``, the trainer as plain loops over the unfused
objectives, for its step sequence. And ``relabelled``, a dataset whose
classes are renamed by a permutation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from dgzsl import autodiff as ad
from dgzsl.data import Dataset, fewshot_sample
from dgzsl.errors import DgzslError, ShapeError
from dgzsl.gaussian import LOG_2PI, DiagGaussian, _check_same_shape, kl_matrix, sample_reparam
from dgzsl.inductive import ObjectiveBreakdown, one_hot
from dgzsl.inference import accuracy, candidate_priors, predict_batch
from dgzsl.networks import ModelParams, class_prior, decode, encode, init_model, make_dropout_masks
from dgzsl.optim import Adam
from dgzsl.serialize import MATRIX_MAGIC
from dgzsl.train import MetricsRecord
from dgzsl.transductive import TransductiveParts, sharpen, soft_assign


def _unbroadcast(g, shape):
    """Sum a gradient over the axes numpy broadcasting introduced."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True) if axes else g


def _op(op, value, operands, *grads):
    """One tape node; the gradient of operand i is grads[i](gout), summed
    back over the axes it was broadcast along."""
    shapes = [np.shape(ad._value(x)) for x in operands]
    return ad.record(
        op, value, operands,
        lambda g, wanted: [_unbroadcast(d(g), s) if w else None for d, s, w in zip(grads, shapes, wanted)],
    )


def add(a, b):
    return _op("add", ad._value(a) + ad._value(b), (a, b), lambda g: g, lambda g: g)


def sub(a, b):
    return _op("sub", ad._value(a) - ad._value(b), (a, b), lambda g: g, lambda g: -g)


def mul(a, b):
    av, bv = ad._value(a), ad._value(b)
    return _op("mul", av * bv, (a, b), lambda g: g * bv, lambda g: g * av)


def exp(x):
    out = np.exp(ad._value(x))
    return _op("exp", out, (x,), lambda g: g * out)


def relu(x):
    """max(x, 0) as one tape node; gradient g · (x > 0), so ReLU′(0) = 0."""
    xv = ad._value(x)
    return _op("relu", np.maximum(xv, 0.0), (x,), lambda g: g * (xv > 0.0))


def sum(x, axis=None, keepdims: bool = False):  # noqa: A001 - numpy-style name
    xv = ad._value(x)

    def grad(g):
        return np.broadcast_to(g if axis is None or keepdims else np.expand_dims(g, axis), xv.shape)

    return _op("sum", np.asarray(np.sum(xv, axis=axis, keepdims=keepdims)), (x,), grad)


def mean(x):
    return mul(sum(x), 1.0 / float(ad._value(x).size))


def logsumexp_rows(x, mask=None):
    """Stable row-wise log-sum-exp of a 2-D array as a column; False entries
    of a constant boolean ``mask`` are left out and get zero gradient."""
    xv = ad._value(x)
    work = xv
    if mask is not None:
        m = np.broadcast_to(np.asarray(mask, dtype=bool), xv.shape)
        if not m.any(axis=1).all():
            raise DgzslError("logsumexp_rows: some row has an empty mask")
        work = np.where(m, xv, -np.inf)
    mx = np.max(work, axis=1, keepdims=True)
    w = np.exp(work - mx)
    total = np.sum(w, axis=1, keepdims=True)
    soft = w / total
    return _op("logsumexp_rows", mx + np.log(total), (x,), lambda g: g * soft)


def matmul(a, b):
    """a @ b of 2-D arrays as one tape node; gradients g @ bᵀ and aᵀ @ g."""
    av, bv = ad._value(a), ad._value(b)

    def vjp(g, wanted):
        return g @ bv.T if wanted[0] else None, av.T @ g if wanted[1] else None

    return ad.record("matmul", av @ bv, (a, b), vjp)


def transpose(x):
    """xᵀ of a 2-D array as one tape node; gradient gᵀ."""
    return ad.record("transpose", ad._value(x).T, (x,), lambda g, wanted: (g.T,))


def unfused_sample_reparam(g: DiagGaussian, noise):
    return add(g.mean, mul(exp(mul(g.logvar, 0.5)), noise))


def unfused_gauss_loglik_rows(x, mean):
    d = sub(x, mean)
    return sub(mul(sum(mul(d, d), axis=1, keepdims=True), -0.5), 0.5 * LOG_2PI * ad._value(x).shape[1])


def inductive_terms(
    model, features, labels, attr_rows, *, noise, margin_class_ids, enc_masks=None, dec_masks=None
):
    """The per-example (B×1) reconstruction, true-class KL and margin
    columns of a labeled batch, unfused after ``kl_matrix``."""
    hot = one_hot(labels, attr_rows.shape[0])
    allowed = np.zeros(attr_rows.shape[0], dtype=bool)
    allowed[margin_class_ids] = True
    q = encode(features, model, enc_masks)
    recon = unfused_gauss_loglik_rows(decode(unfused_sample_reparam(q, noise), model, dec_masks), features)
    kl_all = kl_matrix(q, class_prior(attr_rows, model))
    margin = mul(-1.0, logsumexp_rows(mul(-1.0, kl_all), mask=allowed))
    return recon, sum(mul(kl_all, hot), axis=1, keepdims=True), margin


def per_example(cols, margin_weight: float, include_recon: bool = True):
    """B×1 labeled objective: margin_weight · margin − kl (+ reconstruction)."""
    out = sub(mul(margin_weight, cols[2]), cols[1])
    return add(out, cols[0]) if include_recon else out


def breakdown_of(cols, margin_weight: float, include_recon: bool = True) -> ObjectiveBreakdown:
    recon = float(np.mean(ad._value(cols[0]))) if include_recon else 0.0
    kl, margin = float(np.mean(ad._value(cols[1]))), float(np.mean(ad._value(cols[2])))
    return ObjectiveBreakdown(recon, kl, margin, margin_weight, recon - kl + margin_weight * margin)


def unfused_inductive_value(model, features, labels, attr_rows, *, margin_weight=1.0, include_recon=True, **terms):
    cols = inductive_terms(model, features, labels, attr_rows, **terms)
    return mean(per_example(cols, margin_weight, include_recon)), breakdown_of(cols, margin_weight, include_recon)


def unfused_transductive_value(
    model, lab_features, lab_labels, unlab_features, target_rows, attr_rows, *, margin_class_ids, unseen_class_ids,
    noise, noise_unlabeled, margin_weight=1.0, enc_masks=None, dec_masks=None,
    enc_masks_unlab=None, dec_masks_unlab=None, include_recon=True, recon_only_unlabeled=False,
):
    unlab = unlab_features
    cols = inductive_terms(
        model, lab_features, lab_labels, attr_rows, noise=noise, margin_class_ids=margin_class_ids,
        enc_masks=enc_masks, dec_masks=dec_masks,
    )
    labeled = sum(per_example(cols, margin_weight, include_recon))
    z = unfused_sample_reparam(encode(unlab, model, enc_masks_unlab), noise_unlabeled)
    unlab_term = sum(unfused_gauss_loglik_rows(decode(z, model, dec_masks_unlab), unlab))
    recon, kl_pq = float(unlab_term), 0.0
    if not recon_only_unlabeled:
        priors = class_prior(attr_rows[unseen_class_ids], model)
        neg_kl = mul(-1.0, kl_matrix(encode(unlab, model), priors))
        p = target_rows
        with np.errstate(divide="ignore", invalid="ignore"):
            self_info = float(np.where(p > 0, p * np.log(p), 0.0).sum())
        kl = sub(self_info, sum(mul(p, sub(neg_kl, logsumexp_rows(neg_kl)))))
        kl_pq, unlab_term = float(kl), sub(unlab_term, kl)
    lab, unl = float(labeled), float(unlab_term)
    parts = TransductiveParts(lab, unl, recon, kl_pq, lab + unl, breakdown_of(cols, margin_weight, include_recon))
    return add(labeled, unlab_term), parts


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
    ids, _ = candidate_priors(candidate_ids, attr_rows, model)
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
    ids, priors = candidate_priors(candidate_ids, attr_rows, model)
    x = np.asarray(x, dtype=np.float64)
    q = encode(np.atleast_2d(x), model)
    z = sample_reparam(q, np.atleast_2d(np.asarray(noise, dtype=np.float64)))
    recon = gauss_loglik(x.ravel(), decode(z, model).ravel())
    kls = kl_matrix(q, priors)[0]
    bounds = recon - kls
    return int(ids[np.argmax(bounds)])


def target_assignment_kl(target, assignments) -> float:
    """Σ_rows Σ_classes p·log(p/q) between target p and assignment q rows.

    Zero target entries contribute nothing; a positive target against a zero
    assignment is an error (infinite divergence).
    """
    p, q = np.asarray(target), np.asarray(assignments)
    if p.shape != q.shape:
        raise ShapeError(f"target shape {p.shape} != assignment shape {q.shape}")
    if ((p > 0) & (q == 0)).any():
        raise DgzslError("target puts mass where the assignment has none")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * (np.log(p) - np.log(q)), 0.0)
    return float(terms.sum())


def check_classes(labels, n_train: int, attrs, seen_classes, unseen_classes) -> None:
    """``data._check_classes`` with its duplicate-row check on the C×C×M
    array of pairwise differences."""
    seen, unseen = set(seen_classes), set(unseen_classes)
    if seen & unseen:
        raise DgzslError(f"classes both seen and unseen: {sorted(seen & unseen)}")
    declared = seen | unseen
    if declared != set(range(attrs.shape[0])):
        raise DgzslError(
            f"seen+unseen must cover class ids 0..{attrs.shape[0] - 1} exactly"
        )
    present = set(np.unique(labels).tolist())
    if not present <= declared:
        raise DgzslError(f"labels outside declared classes: {sorted(present - declared)}")
    train_present = set(np.unique(labels[:n_train]).tolist())
    if not train_present <= seen:
        raise DgzslError(
            f"train split contains non-seen labels: {sorted(train_present - seen)}"
        )
    diffs = attrs[:, None, :] - attrs[None, :, :]
    same = (np.abs(diffs).sum(axis=2) == 0) & ~np.eye(attrs.shape[0], dtype=bool)
    if same.any():
        a, b = np.argwhere(same)[0]
        raise DgzslError(f"classes {a} and {b} share an attribute vector")


def confusion_counts(labels, predicted) -> dict:
    """true -> predicted -> count, with string keys, one row at a time."""
    confusion: dict[str, dict[str, int]] = {}
    for true, pred in zip(np.asarray(labels).tolist(), np.asarray(predicted).tolist()):
        confusion.setdefault(str(true), {}).setdefault(str(pred), 0)
        confusion[str(true)][str(pred)] += 1
    return confusion


def mean_class_gap(means):
    """The mean distance between distinct class means from the norm of all
    C×C×D differences at once, as ``data._mean_class_gap`` computes it one
    class row at a time."""
    gaps = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=2)
    return gaps[~np.eye(means.shape[0], dtype=bool)].mean()


def labels_text(labels) -> str:
    """A label file formatted one NumPy scalar at a time."""
    return "".join(f"{int(v)}\n" for v in np.asarray(labels))


def attribute_csv_text(attributes) -> str:
    """An attribute file formatted one NumPy scalar at a time."""
    a = np.asarray(attributes, dtype=np.float64)
    return "\n".join(",".join([str(i)] + [repr(float(v)) for v in row]) for i, row in enumerate(a)) + "\n"


def whole_matrix_bytes(arr) -> bytes:
    """The matrix-file layout built from one whole-array float32 cast."""
    a = np.asarray(arr, dtype=np.float64)
    return MATRIX_MAGIC + struct.pack("<II", *a.shape) + np.ascontiguousarray(a, "<f4").tobytes()


def reference_train(dataset, cfg):
    """train_model as plain loops, for its step sequence: the six streams
    spawned from the seed (init, shuffle, noise, dropout, unlabeled order,
    few-shot); per epoch the unlabeled order (transductive), then the shuffle
    permutation; per batch the labeled draws (noise, then masks), the
    unlabeled draws, one unfused objective and one Adam step. The few-shot
    fine-tune trains the model in place with its own Adam and three streams
    spawned from the few-shot one. Returns (model, metrics lines)."""
    dtype = np.dtype(cfg.dtype)
    attrs = dataset.attributes.astype(dtype)
    seen = np.sort(np.asarray(dataset.seen_classes, dtype=np.int64))
    unseen = np.sort(np.asarray(dataset.unseen_classes, dtype=np.int64))
    x, y = dataset.train_features.astype(dtype), dataset.train_labels
    init_s, shuffle_s, noise_s, dropout_s, unlab_s, fewshot_s = np.random.SeedSequence(cfg.seed).spawn(6)
    streams = [np.random.default_rng(s) for s in (shuffle_s, noise_s, dropout_s)]
    unlab_rng = np.random.default_rng(unlab_s)
    model = init_model(
        np.random.default_rng(init_s), dataset.feature_dim, dataset.attr_dim, cfg.latent_dim,
        tuple(cfg.hidden_dims), cfg.keep_prob, dtype=dtype,
    )
    opt = Adam(lr=cfg.learning_rate)
    options = dict(margin_weight=cfg.margin_weight, include_recon=not cfg.no_recon)
    eval_x, eval_y = dataset.test_features.astype(dtype), dataset.test_labels
    lines = []

    def log(phase, terms, **sums):
        acc = accuracy(eval_x, eval_y, unseen, attrs, model) if eval_y.size else 0.0
        total, reconstruction, kl_true_class, margin = terms
        lines.append(MetricsRecord(
            epoch=len(lines) + 1, phase=phase, seed=cfg.seed, total=total, reconstruction=reconstruction,
            kl_true_class=kl_true_class, margin=margin, margin_weight=cfg.margin_weight, accuracy=acc,
            wall_seconds=0.0, **sums,
        ).metrics_line())

    def draws(streams, n):
        noise = streams[1].normal(size=(n, cfg.latent_dim)).astype(dtype)
        enc, dec = make_dropout_masks(streams[2], model, n)
        return dict(noise=noise, enc_masks=enc, dec_masks=dec)

    def labeled_epoch(opt, feats, labs, streams, batch_size, margin_ids):
        means = np.zeros(4)
        order = streams[0].permutation(feats.shape[0])
        for start in range(0, order.size, batch_size):
            rows = order[start : start + batch_size]
            kwargs = dict(draws(streams, rows.size), margin_class_ids=margin_ids, **options)
            _, grad, bd = ad.value_and_grad(
                lambda m: unfused_inductive_value(m, feats[rows], labs[rows], attrs, **kwargs), model
            )
            opt.step(model, grad)
            means += rows.size * np.array([bd.total, bd.reconstruction, bd.kl_true_class, bd.margin])
        return means / feats.shape[0]

    def transductive_epochs(n, pool):
        for epoch in range(n):
            if epoch % cfg.refresh_every == 0:
                target = sharpen(soft_assign(pool, attrs[unseen], model)).values
            n_batches = -(-x.shape[0] // cfg.batch_size)
            shares = np.array_split(unlab_rng.permutation(pool.shape[0]), n_batches)
            order = streams[0].permutation(x.shape[0])
            means, sums = np.zeros(4), np.zeros(4)
            for b, rows_u in enumerate(shares):
                rows = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
                labeled = draws(streams, rows.size)
                unlab = draws(streams, rows_u.size)
                _, grad, parts = ad.value_and_grad(
                    lambda m: unfused_transductive_value(
                        m, x[rows], y[rows], pool[rows_u], target[rows_u], attrs, margin_class_ids=seen,
                        unseen_class_ids=unseen, noise_unlabeled=unlab["noise"], enc_masks_unlab=unlab["enc_masks"],
                        dec_masks_unlab=unlab["dec_masks"], recon_only_unlabeled=cfg.recon_only_unlabeled,
                        **labeled, **options,
                    ),
                    model,
                )
                opt.step(model, grad)
                bd = parts.labeled_breakdown
                means += rows.size * np.array([bd.total, bd.reconstruction, bd.kl_true_class, bd.margin])
                sums += [parts.labeled_total, parts.unlabeled_total, parts.unlabeled_recon, parts.target_kl]
            names = ("labeled_total", "unlabeled_total", "unlabeled_recon", "target_kl")
            log("transductive", (sums[0] + sums[1], *(means[1:] / x.shape[0])), **dict(zip(names, sums)))

    for _ in range(cfg.pretrain_epochs if cfg.regime == "transductive" else cfg.epochs):
        log("inductive", labeled_epoch(opt, x, y, streams, cfg.batch_size, seen))
    if cfg.regime == "transductive":
        transductive_epochs(cfg.epochs - cfg.pretrain_epochs, eval_x)
    if cfg.regime == "fewshot":
        split = fewshot_sample(dataset, cfg.k, fewshot_s)
        eval_x, eval_y = dataset.features[split.unlabeled_idx].astype(dtype), dataset.labels[split.unlabeled_idx]
        if cfg.k > 0:
            feats, labs = dataset.features[split.labeled_idx].astype(dtype), dataset.labels[split.labeled_idx]
            tuned = [np.random.default_rng(s) for s in fewshot_s.spawn(1)[0].spawn(3)]
            margin_ids = np.arange(attrs.shape[0]) if cfg.include_seen_margin else unseen
            fewshot_opt = Adam(lr=cfg.learning_rate)
            for _ in range(cfg.fewshot_epochs):
                labeled_epoch(fewshot_opt, feats, labs, tuned, cfg.fewshot_batch_size, margin_ids)
            _, bd = unfused_inductive_value(
                model, feats, labs, attrs, noise=np.zeros((feats.shape[0], cfg.latent_dim), dtype),
                margin_class_ids=unseen, **options,
            )
            log("fewshot", (bd.total, bd.reconstruction, bd.kl_true_class, bd.margin))
        if cfg.transductive_fewshot:
            transductive_epochs(cfg.transductive_epochs, eval_x)
    return model, lines


def relabelled(dataset, new_id):
    """``dataset`` with class ``c`` renamed ``new_id[c]``: its labels, the
    rows of its attribute matrix and its seen and unseen id lists (sorted)
    follow the permutation; the features are the same rows."""
    new_id = np.asarray(new_id)
    attrs = np.empty_like(dataset.attributes)
    attrs[new_id] = dataset.attributes
    seen, unseen = (sorted(new_id[list(ids)].tolist()) for ids in (dataset.seen_classes, dataset.unseen_classes))
    return Dataset(dataset.features, new_id[dataset.labels], dataset.n_train, attrs, seen, unseen)
