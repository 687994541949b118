"""Training loops for the three regimes, metrics persistence, and the
command-level pipelines (train / eval / export).

Reproducibility contract: every random draw flows from named child streams
of the config seed (init, shuffle, noise, dropout, unlabeled order, few-shot
sampling), so identical (config, dataset) pairs produce bit-identical
metrics files. Wall-clock timings are volatile and therefore written to a
separate sidecar file.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np

from . import autodiff, optim
from .config import TrainConfig, format_config, load_config
from .data import Dataset, fewshot_sample, load_dataset, open_dataset
from .errors import DataFormatError, DgzslError, NonFiniteError
from .inductive import inductive_objective, inductive_value
from .inference import accuracy, candidate_priors, closest_prior
from .networks import ModelParams, decode, encode, init_model, make_dropout_masks, model_from_shapes
from .optim import Adam
from .serialize import check_finite, load_checkpoint, plain_number_text, save_checkpoint, save_matrix, save_rows, save_text
from .transductive import sharpen, soft_assign, transductive_objective


@dataclass(frozen=True)
class MetricsRecord:
    """One logged epoch. Everything except wall_seconds is deterministic for
    a fixed config and seed; wall_seconds goes to the timing sidecar only."""

    epoch: int
    phase: str
    seed: int
    total: float
    reconstruction: float
    kl_true_class: float
    margin: float
    margin_weight: float
    accuracy: float
    wall_seconds: float
    labeled_total: float | None = None
    unlabeled_total: float | None = None
    unlabeled_recon: float | None = None
    target_kl: float | None = None

    def __post_init__(self):
        if not (0.0 <= self.accuracy <= 1.0):
            raise DgzslError(f"accuracy {self.accuracy} outside [0, 1]")

    def metrics_line(self) -> str:
        payload = {
            k: v
            for k, v in asdict(self).items()
            if v is not None and k != "wall_seconds"
        }
        return json.dumps(payload, sort_keys=True)

    def timing_line(self) -> str:
        return json.dumps(
            {"epoch": self.epoch, "phase": self.phase, "wall_seconds": self.wall_seconds},
            sort_keys=True,
        )


@dataclass
class TrainResult:
    model: ModelParams
    records: list
    eval_idx: np.ndarray  # dataset rows the logged accuracies refer to


def _batches(order: np.ndarray, size: int):
    for start in range(0, order.size, size):
        yield order[start : start + size]


def _terms(bd) -> tuple:
    """(total, reconstruction, kl_true_class, margin) of an ObjectiveBreakdown."""
    return bd.total, bd.reconstruction, bd.kl_true_class, bd.margin


def _objective(cfg: TrainConfig) -> dict:
    """The labeled objective's options that a run's config sets."""
    return dict(margin_weight=cfg.margin_weight, include_recon=not cfg.no_recon)


def _draws(rngs, model, n: int):
    """A batch of ``n`` rows' (noise, encoder masks, decoder masks): float64
    noise cast to the model's dtype, then the masks. Zero-size draws when n
    is 0 leave every stream as is."""
    _, noise_rng, dropout_rng = rngs
    noise = noise_rng.normal(size=(n, model.layout.latent_dim)).astype(model.flat.dtype, copy=False)
    return (noise, *make_dropout_masks(dropout_rng, model, n))


def _epoch(model, opt, features, labels, attr_rows, rngs, batch_size, unlabeled=None, **objective):
    """One shuffled pass of in-place Adam steps over a labeled set.

    ``rngs`` is the (shuffle, noise, dropout) generator triple; each batch
    draws for its labeled rows, then for its unlabeled ones (_draws). Without
    ``unlabeled`` a step ascends inductive_objective. With ``unlabeled =
    (pool, target, order)`` each batch also takes its share of
    ``np.array_split(order, n_batches)``, pool rows with their target rows,
    and a step ascends transductive_objective. ``objective`` is passed on to
    the objective. Returns the per-row means of the labeled (total,
    reconstruction, kl_true_class, margin) and the sums of the transductive
    (labeled_total, unlabeled_total, unlabeled_recon, target_kl), zero
    without ``unlabeled``.
    """
    n = features.shape[0]
    batches = _batches(rngs[0].permutation(n), batch_size)
    shares = repeat(None)
    if unlabeled is not None:
        pool, target, order = unlabeled
        shares = np.array_split(order, max(1, -(-n // batch_size)))
    means, sums, grad = np.zeros(4), np.zeros(4), np.empty_like(model.flat)
    for rows, rows_u in zip(batches, shares):
        noise, enc_m, dec_m = _draws(rngs, model, rows.size)
        x, y = features[rows], labels[rows]
        kwargs = dict(noise=noise, enc_masks=enc_m, dec_masks=dec_m, out=grad, **objective)
        if rows_u is None:
            _, grad, bd = inductive_objective(model, x, y, attr_rows, **kwargs)
        else:
            noise_u, enc_mu, dec_mu = _draws(rngs, model, rows_u.size)
            _, grad, parts = transductive_objective(
                model,
                x,
                y,
                pool[rows_u],
                target[rows_u],
                attr_rows,
                noise_unlabeled=noise_u,
                enc_masks_unlab=enc_mu,
                dec_masks_unlab=dec_mu,
                **kwargs,
            )
            bd = parts.labeled_breakdown
            sums += [parts.labeled_total, parts.unlabeled_total, parts.unlabeled_recon, parts.target_kl]
        opt.step(model, grad)
        means += rows.size * np.array(_terms(bd))
    return means / n, sums


def fewshot_finetune(
    model: ModelParams,
    features,
    labels,
    attr_rows,
    unseen_class_ids,
    cfg: TrainConfig = TrainConfig(),
    seed=0,
) -> ModelParams:
    """Continue supervised training on k labeled unseen-class examples.

    ``cfg`` sets the epochs (``fewshot_epochs``), the batch size
    (``fewshot_batch_size``), the learning rate and the labeled objective's
    options. The margin term runs over the unseen classes, or with
    ``cfg.include_seen_margin`` over every class of ``attr_rows``. Dropout
    follows the model's keep_prob. ``seed`` is an int or a SeedSequence.
    Returns a trained copy (an unchanged one for an empty example set); the
    input model is never mutated.
    """
    model = model.copy()
    feats = np.asarray(features)
    if feats.size == 0:
        return model
    labs = np.asarray(labels, dtype=np.int64)
    unseen = np.unique(np.asarray(unseen_class_ids, dtype=np.int64))
    outside = set(labs.tolist()) - set(unseen.tolist())
    if outside:
        raise DgzslError(f"few-shot labels outside the unseen classes: {sorted(outside)}")
    margin_ids = np.arange(np.asarray(attr_rows).shape[0]) if cfg.include_seen_margin else unseen

    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rngs = tuple(np.random.default_rng(s) for s in root.spawn(3))
    opt = Adam(lr=cfg.learning_rate)
    for _ in range(cfg.fewshot_epochs):
        _epoch(
            model,
            opt,
            feats,
            labs,
            attr_rows,
            rngs,
            cfg.fewshot_batch_size,
            margin_class_ids=margin_ids,
            **_objective(cfg),
        )
    return model


def train_model(dataset: Dataset, cfg: TrainConfig) -> TrainResult:
    """Train per ``cfg`` in its dtype: the model is made in it, and the
    features and attributes are cast to it once, here (no copy when they
    hold it already, as the features run_train loads do).

    The whole run is one pass under _second_core, so for a model larger
    than one Adam block every step, logged accuracy, target refresh and
    few-shot log line may share its products (autodiff.dense), and every
    step its Adam update, with one worker thread, keeping the bytes of one
    thread."""
    dtype = np.dtype(cfg.dtype)
    attrs = dataset.attributes.astype(dtype, copy=False)
    seen_ids = np.sort(np.asarray(dataset.seen_classes, dtype=np.int64))
    unseen_ids = np.sort(np.asarray(dataset.unseen_classes, dtype=np.int64))
    x_train, y_train = dataset.train_features.astype(dtype, copy=False), dataset.train_labels
    if x_train.shape[0] == 0:
        raise DgzslError("train split is empty")

    seed_root = np.random.SeedSequence(cfg.seed)
    init_s, shuffle_s, noise_s, dropout_s, unlab_s, fewshot_s = seed_root.spawn(6)
    rngs = tuple(np.random.default_rng(s) for s in (shuffle_s, noise_s, dropout_s))
    unlab_rng = np.random.default_rng(unlab_s)

    model = init_model(
        np.random.default_rng(init_s),
        dataset.feature_dim,
        dataset.attr_dim,
        cfg.latent_dim,
        tuple(cfg.hidden_dims),
        cfg.keep_prob,
        dtype=dtype,
    )
    records: list[MetricsRecord] = []
    # the rows the logged accuracies refer to: the test block, or the few-shot pool
    eval_idx = np.arange(dataset.n_train, dataset.labels.size)
    eval_x, eval_y = dataset.test_features.astype(dtype, copy=False), dataset.test_labels
    objective = _objective(cfg)

    def log(phase: str, t0: float, terms, **extra):
        """Append one record; ``terms`` follows _terms' order."""
        wall = time.perf_counter() - t0
        acc = accuracy(eval_x, eval_y, unseen_ids, attrs, model) if eval_y.size else 0.0
        records.append(
            MetricsRecord(
                epoch=len(records) + 1,
                phase=phase,
                seed=cfg.seed,
                accuracy=acc,
                wall_seconds=wall,
                margin_weight=cfg.margin_weight,
                **dict(zip(("total", "reconstruction", "kl_true_class", "margin"), terms)),
                **extra,
            )
        )

    @contextmanager
    def named(phase: str):
        """Prefix an error with the phase and the number the failing epoch's
        metrics line would have carried."""
        try:
            yield
        except DgzslError as e:
            raise type(e)(f"{phase} epoch {len(records) + 1}: {e}") from e

    def epochs(n: int, pool=None):
        """``n`` epochs over the train split: inductive ones, or with an
        unlabeled ``pool`` transductive ones, whose target is refreshed every
        ``cfg.refresh_every`` epochs."""
        phase = "inductive" if pool is None else "transductive"
        options = dict(objective, margin_class_ids=seen_ids)
        if pool is not None:
            options.update(unseen_class_ids=unseen_ids, recon_only_unlabeled=cfg.recon_only_unlabeled)
        with named(phase):
            if n > 0 and pool is not None and pool.shape[0] == 0:
                raise DgzslError("transductive phase has no unlabeled rows")
            unlabeled = None
            for epoch in range(n):
                t0 = time.perf_counter()
                if pool is not None:
                    if epoch % cfg.refresh_every == 0:
                        target = sharpen(soft_assign(pool, attrs[unseen_ids], model)).values
                    unlabeled = (pool, target, unlab_rng.permutation(pool.shape[0]))
                means, sums = _epoch(model, opt, x_train, y_train, attrs, rngs, cfg.batch_size, unlabeled, **options)
                if pool is None:
                    log(phase, t0, means)
                else:
                    keys = ("labeled_total", "unlabeled_total", "unlabeled_recon", "target_kl")
                    log(phase, t0, (sums[0] + sums[1], *means[1:]), **dict(zip(keys, sums)))

    with _second_core(model):
        opt = Adam(lr=cfg.learning_rate)
        epochs(cfg.pretrain_epochs if cfg.regime == "transductive" else cfg.epochs)
        if cfg.regime == "transductive":
            epochs(cfg.epochs - cfg.pretrain_epochs, eval_x)
        if cfg.regime == "fewshot":
            split = fewshot_sample(dataset, cfg.k, fewshot_s)
            eval_idx = split.unlabeled_idx
            eval_x, eval_y = dataset.features[eval_idx].astype(dtype, copy=False), dataset.labels[eval_idx]
            if cfg.k > 0:
                with named("fewshot"):
                    t0 = time.perf_counter()
                    feats = dataset.features[split.labeled_idx].astype(dtype, copy=False)
                    labs = dataset.labels[split.labeled_idx]
                    model = fewshot_finetune(model, feats, labs, attrs, unseen_ids, cfg, fewshot_s.spawn(1)[0])
                    # eval-mode objective on the few-shot set, decoding the posterior
                    # mean (zero noise), so the log line draws no random numbers
                    _, bd = inductive_value(
                        model,
                        feats,
                        labs,
                        attrs,
                        noise=np.zeros((feats.shape[0], cfg.latent_dim), dtype),
                        margin_class_ids=unseen_ids,
                        **objective,
                    )
                    log("fewshot", t0, _terms(bd))
            if cfg.transductive_fewshot:
                epochs(cfg.transductive_epochs, eval_x)

    return TrainResult(model, records, eval_idx)


def run_train(config_path, data_dir, out_dir, **overrides) -> dict:
    """Train per the config (plus CLI overrides) and persist the run.

    The output directory receives the effective config, metrics and timing
    line files, the checkpoint, and a JSON summary; together they reproduce
    the run exactly.
    """
    cfg = load_config(config_path).override(**overrides)
    dataset = load_dataset(data_dir, cfg.dtype)
    result = train_model(dataset, cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_text(out / "config.cfg", format_config(cfg))
    save_text(out / "metrics.jsonl", "".join(r.metrics_line() + "\n" for r in result.records))
    save_text(out / "timings.jsonl", "".join(r.timing_line() + "\n" for r in result.records))
    save_model(out / "model.ckpt", result.model)
    summary = {
        "regime": cfg.regime,
        "seed": cfg.seed,
        "epochs_logged": len(result.records),
        "final_accuracy": result.records[-1].accuracy if result.records else None,
        "eval_rows": int(result.eval_idx.size),
        "checkpoint": str(out / "model.ckpt"),
    }
    save_text(out / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def save_model(path, model: ModelParams) -> None:
    """Writes ``model`` as the checkpoint load_model reads back: its tensors,
    ``meta.keep_prob``, and ``meta.float_bits`` unless the model is float64."""
    meta = {"keep_prob": model.keep_prob}
    if model.flat.dtype != np.float64:  # float64 checkpoints keep their bytes
        meta["float_bits"] = model.flat.dtype.itemsize * 8
    save_checkpoint(path, model.named_arrays(), meta=meta)


# a checkpoint's meta.float_bits -> the dtype its model computes in; a
# checkpoint without the entry is float64
_FLOAT_BITS = {32: np.float32, 64: np.float64}


def load_model(checkpoint_path) -> ModelParams:
    """The checkpoint's model: its shapes and meta make the model, and the
    tensors are read straight into the views of its flat vector. Meta values
    are stored as float32, so ``keep_prob`` reads back rounded to it."""
    made = []

    def allocate(shapes, meta):
        bits = meta.get("float_bits", 64)
        if bits not in _FLOAT_BITS:
            raise DataFormatError(f"{checkpoint_path}: float_bits must be 32 or 64, got {bits:g}")
        keep_prob, where = meta.get("keep_prob", 1.0), str(checkpoint_path)
        made.append(model_from_shapes(shapes, keep_prob, where, dtype=_FLOAT_BITS[bits]))
        return made[0].named_arrays()

    load_checkpoint(checkpoint_path, allocate)
    return made[0]


@contextmanager
def _open_for_scoring(checkpoint_path, data_dir):
    """Yields (model, files): the checkpoint's model and the dataset in
    ``data_dir`` opened for one pass over its feature rows (open_dataset),
    once the model's feature and attribute widths match the dataset's. The
    pass runs under _second_core."""
    model = load_model(checkpoint_path)
    with open_dataset(data_dir) as files, _second_core(model):
        dims = model.layout
        feature_dim, attr_dim = files.shape[1], files.attributes.shape[1]
        if (dims.feature_dim, dims.attr_dim) != (feature_dim, attr_dim):
            raise DgzslError(
                f"checkpoint dims (D={dims.feature_dim}, M={dims.attr_dim}) do not match "
                f"dataset (D={feature_dim}, M={attr_dim}): {checkpoint_path} against {data_dir}"
            )
        yield model, files


def _threads() -> int:
    """2 where one BLAS thread per product is pinned and this process may
    run on 2 cores or more (the one measured case), else 1: the thread
    decision of scoring and training (_second_core). The pin is read as cli
    sets it from DGZSL_THREADS (OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS);
    unset, unparsable, 0 or not plain ASCII (int() reads ``١`` as 1,
    OpenBLAS's atoi as 0) leaves OpenBLAS a thread per core. Off Linux (no
    os.sched_getaffinity) it is 1."""
    value = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS", ""))
    try:
        pinned = plain_number_text(value) and int(value) == 1
    except ValueError:
        return 1
    cores = getattr(os, "sched_getaffinity", None)
    return 2 if pinned and cores is not None and len(cores(0)) >= 2 else 1


def _second_core(model: ModelParams):
    """autodiff.second_core, switched on where _threads() allows two
    threads and ``model``'s vector is larger than one Adam block
    (optim._BLOCK_BYTES, 256 KiB). Every synth model is smaller, and so are
    its products, which dense would not cut (autodiff._SMALL_PRODUCT)."""
    return autodiff.second_core(_threads() > 1 and model.flat.nbytes > optim._BLOCK_BYTES)


def _score_blocks(files, model: ModelParams, first: int, where: str):
    """Yields ``(q, row)`` for each reader block of ``files``' feature rows
    from row ``first`` on, in row order: ``q`` is the block's eval-mode
    posterior and ``row`` the file row of its first row. Earlier rows are
    read and checked, not encoded. Each block is encoded whole on this
    thread; inside _second_core, dense cuts its products.

    A lone row at ``first`` (the last of its reader block) is copied out of
    the reused stage and carried into the next block, since a one-row
    product goes through BLAS matrix-vector code, which rounds otherwise. A
    non-finite posterior is an error naming ``where``, the map, the file row
    and column, with no warning. ``q`` is not held here, so a caller that
    drops it frees it before the next block needs the memory.
    """

    def encoded(rows, start):
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                return encode(rows, model)
            except NonFiniteError as e:  # its row counts from the block's first
                check_finite(e.values, start, f"{where}: {e.what}")
                raise

    carry = None
    for s, block in files.blocks:
        start = max(s.start, first)
        if start >= s.stop:
            continue
        rows = block[start - s.start :]
        if carry is not None:
            start, rows, carry = start - 1, np.concatenate([carry, rows]), None
        if rows.shape[0] == 1 and s.stop < files.shape[0]:
            carry = rows.copy()
            continue
        yield encoded(rows, start), start


def run_eval(checkpoint_path, data_dir, candidates: str = "unseen") -> dict:
    """Top-1 accuracy and per-class confusion counts on the test split.

    Every feature row is read and checked; the test rows of each block are
    scored as the block is read (_score_blocks), against candidate priors
    built once, and each block's predicted labels are written in place and
    its posterior dropped, so only one label per test row is kept.
    """
    with _open_for_scoring(checkpoint_path, data_dir) as (model, files):
        pools = {
            "unseen": files.unseen_classes,
            "seen": files.seen_classes,
            "all": tuple(range(files.attributes.shape[0])),
        }
        if candidates not in pools:
            raise DgzslError(f"candidate selector must be one of {sorted(pools)}")
        first = files.n_train
        labels = files.labels[first:]
        if labels.size == 0:
            raise DgzslError(f"{data_dir}: the test split is empty")
        attrs = files.attributes.astype(model.flat.dtype, copy=False)
        ids, priors = candidate_priors(pools[candidates], attrs, model)
        predicted = np.empty(labels.size, np.int64)
        for q, start in _score_blocks(files, model, first, str(files.path)):
            predicted[start - first : start - first + q.mean.shape[0]], _ = closest_prior(q, ids, priors)
            del q  # before the next block is encoded
    # each (true, predicted) pair as one code, counted by one np.unique
    classes = files.attributes.shape[0]
    codes, counts = np.unique(labels * classes + predicted, return_counts=True)
    confusion: dict[str, dict[str, int]] = {}
    for code, n in zip(codes.tolist(), counts.tolist()):
        true, pred = divmod(code, classes)
        confusion.setdefault(str(true), {})[str(pred)] = n
    return {
        "accuracy": float(np.mean(predicted == labels)),
        "examples": int(labels.size),
        "candidates": [int(i) for i in ids],
        "confusion": confusion,
    }


def export_embeddings(checkpoint_path, data_dir, out_dir) -> dict:
    """Write latent means and reconstructions for every dataset row.

    Output rows align one-for-one with the stored feature order (train block
    then test block). Reconstructions decode the posterior mean. Each row
    block is encoded as it is read (_score_blocks), its posterior dropped
    once its means are stored, then decoded, and streamed to disk in row
    order, so the feature matrix is never held. Each block's
    reconstructions are checked for NaN and ±inf while they are in cache,
    so a model whose outputs overflow is an error naming ``recons.bin``,
    row and column, not a file that no reader accepts; a non-finite
    posterior names ``latents.bin``, the map, row and column.
    ``latents.bin`` is written before ``recons.bin`` replaces its old file,
    so a failure in either write, such as a value that float32 cannot hold,
    leaves no new output file (the writes are atomic) and removes every
    directory this call made.
    """
    with _open_for_scoring(checkpoint_path, data_dir) as (model, files):
        out = Path(out_dir)
        made = [d for d in (out, *out.parents) if not d.exists()]
        out.mkdir(parents=True, exist_ok=True)
        latents = np.empty((files.shape[0], model.layout.latent_dim), model.flat.dtype)

        def recons():
            for q, start in _score_blocks(files, model, 0, str(out / "latents.bin")):
                s = slice(start, start + q.mean.shape[0])
                latents[s] = q.mean
                del q  # before the block is decoded, so it can reuse the memory
                with np.errstate(over="ignore", invalid="ignore"):  # reported by the check below
                    recon = decode(latents[s], model)
                check_finite(recon, start, str(out / "recons.bin"))
                yield recon
                del recon  # written by now; before the next block is encoded

        try:
            save_rows(out / "recons.bin", files.shape, recons(), then=partial(save_matrix, out / "latents.bin", latents))
        except BaseException:
            with suppress(OSError):
                for d in made:  # out first, then each parent this call made
                    d.rmdir()
            raise
    return {"latents": str(out / "latents.bin"), "recons": str(out / "recons.bin")}
