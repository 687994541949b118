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
import time
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .config import TrainConfig, format_config, load_config
from .data import Dataset, fewshot_sample, load_dataset, open_dataset
from .errors import DataFormatError, DgzslError, NonFiniteError
from .inductive import inductive_objective, inductive_value
from .inference import accuracy, predict_batch
from .networks import ModelParams, decode, encode, init_model, make_dropout_masks, model_from_shapes
from .optim import Adam
from .serialize import check_finite, load_checkpoint, save_checkpoint, save_matrix, save_rows
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


def _labeled_epoch(model, opt, features, labels, attr_rows, rngs, batch_size, **objective):
    """One shuffled pass of in-place supervised Adam steps over a labeled set.

    ``rngs`` is the (shuffle, noise, dropout) generator triple; each batch
    draws its noise (float64 draws, cast to the model's dtype), then its
    encoder and decoder masks. ``objective`` is
    passed on to inductive_objective. Returns the per-row mean of (total,
    reconstruction, kl_true_class, margin).
    """
    shuffle_rng, noise_rng, dropout_rng = rngs
    sums, grad = np.zeros(4), np.empty_like(model.flat)
    for rows in _batches(shuffle_rng.permutation(features.shape[0]), batch_size):
        noise = noise_rng.normal(size=(rows.size, model.layout.latent_dim))
        noise = noise.astype(model.flat.dtype, copy=False)
        enc_m, dec_m = make_dropout_masks(dropout_rng, model, rows.size)
        _, grad, bd = inductive_objective(
            model,
            features[rows],
            labels[rows],
            attr_rows,
            noise=noise,
            enc_masks=enc_m,
            dec_masks=dec_m,
            out=grad,
            **objective,
        )
        opt.step(model, grad)
        sums += rows.size * np.array(_terms(bd))
    return sums / features.shape[0]


def fewshot_finetune(
    model: ModelParams,
    features,
    labels,
    attr_rows,
    unseen_class_ids,
    *,
    epochs: int = 50,
    batch_size: int = 32,
    learning_rate: float = 1e-3,
    margin_weight: float = 1.0,
    include_seen_margin: bool = False,
    seen_class_ids=(),
    exclude_true_class: bool = False,
    include_recon: bool = True,
    seed: int = 0,
) -> ModelParams:
    """Continue supervised training on k labeled unseen-class examples.

    The margin term runs over the unseen classes (optionally also the seen
    ones). Dropout follows the model's keep_prob. Returns a trained copy
    (an unchanged one for an empty example set); the input model is never
    mutated.
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
    margin_ids = unseen
    if include_seen_margin:
        margin_ids = np.unique(np.concatenate([unseen, np.asarray(seen_class_ids, dtype=np.int64)]))

    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rngs = tuple(np.random.default_rng(s) for s in root.spawn(3))
    opt = Adam(lr=learning_rate)
    for _ in range(epochs):
        _labeled_epoch(
            model,
            opt,
            feats,
            labs,
            attr_rows,
            rngs,
            batch_size,
            margin_class_ids=margin_ids,
            margin_weight=margin_weight,
            exclude_true_class=exclude_true_class,
            include_recon=include_recon,
        )
    return model


def train_model(dataset: Dataset, cfg: TrainConfig) -> TrainResult:
    """Train per ``cfg`` in its dtype: the model is made in it, and the
    features and attributes are cast to it once, here (no copy when they
    hold it already, as the features run_train loads do)."""
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
    shuffle_rng, noise_rng, dropout_rng = rngs
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
    opt = Adam(lr=cfg.learning_rate)
    records: list[MetricsRecord] = []
    # the rows the logged accuracies refer to: the test block, or the few-shot pool
    eval_idx = np.arange(dataset.n_train, dataset.labels.size)
    eval_x, eval_y = dataset.test_features.astype(dtype, copy=False), dataset.test_labels
    objective = dict(
        margin_weight=cfg.margin_weight,
        exclude_true_class=cfg.exclude_true_class,
        include_recon=not cfg.no_recon,
    )

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

    def inductive_epochs(n: int):
        for _ in range(n):
            t0 = time.perf_counter()
            means = _labeled_epoch(
                model,
                opt,
                x_train,
                y_train,
                attrs,
                rngs,
                cfg.batch_size,
                margin_class_ids=seen_ids,
                **objective,
            )
            log("inductive", t0, means)

    def transductive_epochs(n: int, pool: np.ndarray):
        if pool.shape[0] == 0:
            raise DgzslError("transductive phase has no unlabeled rows")
        total_rows = x_train.shape[0]
        n_batches = max(1, -(-total_rows // cfg.batch_size))
        target, grad = None, np.empty_like(model.flat)
        for epoch in range(n):
            t0 = time.perf_counter()
            if epoch % cfg.refresh_every == 0:
                target = sharpen(soft_assign(pool, attrs[unseen_ids], model)).values
            sums, bd_sums = np.zeros(4), np.zeros(3)
            unlab_parts = np.array_split(unlab_rng.permutation(pool.shape[0]), n_batches)
            for rows, rows_u in zip(
                _batches(shuffle_rng.permutation(total_rows), cfg.batch_size), unlab_parts
            ):
                noise_l = noise_rng.normal(size=(rows.size, cfg.latent_dim)).astype(dtype, copy=False)
                enc_m, dec_m = make_dropout_masks(dropout_rng, model, rows.size)
                # zero-size draws when rows_u is empty leave every stream as is
                noise_u = noise_rng.normal(size=(rows_u.size, cfg.latent_dim)).astype(dtype, copy=False)
                enc_mu, dec_mu = make_dropout_masks(dropout_rng, model, rows_u.size)
                _, grad, parts = transductive_objective(
                    model,
                    x_train[rows],
                    y_train[rows],
                    pool[rows_u],
                    target[rows_u],
                    attrs,
                    margin_class_ids=seen_ids,
                    unseen_class_ids=unseen_ids,
                    noise_labeled=noise_l,
                    noise_unlabeled=noise_u,
                    enc_masks_lab=enc_m,
                    dec_masks_lab=dec_m,
                    enc_masks_unlab=enc_mu,
                    dec_masks_unlab=dec_mu,
                    recon_only_unlabeled=cfg.recon_only_unlabeled,
                    out=grad,
                    **objective,
                )
                opt.step(model, grad)
                bd = parts.labeled_breakdown
                sums += [parts.labeled_total, parts.unlabeled_total, parts.unlabeled_recon, parts.target_kl]
                bd_sums += rows.size * np.array([bd.reconstruction, bd.kl_true_class, bd.margin])
            lab_sum, unlab_sum, recon_sum, klpq_sum = sums
            log(
                "transductive",
                t0,
                (lab_sum + unlab_sum, *(bd_sums / total_rows)),
                labeled_total=lab_sum,
                unlabeled_total=unlab_sum,
                unlabeled_recon=recon_sum,
                target_kl=klpq_sum,
            )

    with named("inductive"):
        inductive_epochs(cfg.pretrain_epochs if cfg.regime == "transductive" else cfg.epochs)
    if cfg.regime == "transductive":
        with named("transductive"):
            transductive_epochs(cfg.epochs - cfg.pretrain_epochs, eval_x)
    if cfg.regime == "fewshot":
        split = fewshot_sample(dataset, cfg.k, fewshot_s)
        eval_idx = split.unlabeled_idx
        eval_x, eval_y = dataset.features[eval_idx].astype(dtype, copy=False), dataset.labels[eval_idx]
        if cfg.k > 0:
            with named("fewshot"):
                t0 = time.perf_counter()
                feats = dataset.features[split.labeled_idx].astype(dtype, copy=False)
                labs = dataset.labels[split.labeled_idx]
                model = fewshot_finetune(
                    model,
                    feats,
                    labs,
                    attrs,
                    unseen_ids,
                    epochs=cfg.fewshot_epochs,
                    batch_size=cfg.fewshot_batch_size,
                    learning_rate=cfg.learning_rate,
                    include_seen_margin=cfg.include_seen_margin,
                    seen_class_ids=seen_ids,
                    seed=fewshot_s.spawn(1)[0],
                    **objective,
                )
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
            with named("transductive"):
                transductive_epochs(cfg.transductive_epochs, eval_x)

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
    (out / "config.cfg").write_text(format_config(cfg), encoding="utf-8")
    (out / "metrics.jsonl").write_text(
        "".join(r.metrics_line() + "\n" for r in result.records), encoding="utf-8"
    )
    (out / "timings.jsonl").write_text(
        "".join(r.timing_line() + "\n" for r in result.records), encoding="utf-8"
    )
    meta = {"keep_prob": cfg.keep_prob}
    if result.model.flat.dtype != np.float64:  # float64 checkpoints keep their bytes
        meta["float_bits"] = result.model.flat.dtype.itemsize * 8
    save_checkpoint(out / "model.ckpt", result.model.named_arrays(), meta=meta)
    summary = {
        "regime": cfg.regime,
        "seed": cfg.seed,
        "epochs_logged": len(result.records),
        "final_accuracy": result.records[-1].accuracy if result.records else None,
        "eval_rows": int(result.eval_idx.size),
        "checkpoint": str(out / "model.ckpt"),
    }
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return summary


# a checkpoint's meta.float_bits -> the dtype its model computes in; a
# checkpoint without the entry is float64
_FLOAT_BITS = {32: np.float32, 64: np.float64}


def _model_from_checkpoint(checkpoint_path) -> ModelParams:
    """The checkpoint's model: its shapes and meta make the model, and the
    tensors are read straight into the views of its flat vector."""
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
    once the model's feature and attribute widths match the dataset's."""
    model = _model_from_checkpoint(checkpoint_path)
    with open_dataset(data_dir) as files:
        dims = model.layout
        feature_dim, attr_dim = files.shape[1], files.attributes.shape[1]
        if (dims.feature_dim, dims.attr_dim) != (feature_dim, attr_dim):
            raise DgzslError(
                f"checkpoint dims (D={dims.feature_dim}, M={dims.attr_dim}) do not match "
                f"dataset (D={feature_dim}, M={attr_dim}): {checkpoint_path} against {data_dir}"
            )
        yield model, files


def run_eval(checkpoint_path, data_dir, candidates: str = "unseen") -> dict:
    """Top-1 accuracy and per-class confusion counts on the test split.

    Every feature row is read and checked, and only the test block is kept.
    """
    with _open_for_scoring(checkpoint_path, data_dir) as (model, files):
        pools = {
            "unseen": files.unseen_classes,
            "seen": files.seen_classes,
            "all": tuple(range(files.attributes.shape[0])),
        }
        if candidates not in pools:
            raise DgzslError(f"candidate selector must be one of {sorted(pools)}")
        ids = np.sort(np.asarray(pools[candidates], dtype=np.int64))
        first = files.n_train
        labels = files.labels[first:]
        if labels.size == 0:
            raise DgzslError(f"{data_dir}: the test split is empty")
        feats = np.empty((labels.size, files.shape[1]), model.flat.dtype)
        for s, block in files.blocks:
            start = max(s.start, first)
            if start < s.stop:
                feats[start - first : s.stop - first] = block[start - s.start :]
    attrs = files.attributes.astype(model.flat.dtype, copy=False)
    predicted, _, _ = predict_batch(feats, ids, attrs, model)
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
    block of features goes through the networks as it is read, and the
    reconstructions stream to disk block by block, so the feature matrix is
    never held. Each reconstruction block is checked for NaN and ±inf while
    it is in cache, so a model whose outputs overflow is an error naming
    ``recons.bin``, row and column, not a file that no reader accepts; a
    non-finite posterior names ``latents.bin``, the map, row and column.
    ``latents.bin`` is written before ``recons.bin`` replaces its old file,
    so a failure in either write, such as a value that float32 cannot hold,
    leaves no new output file (the writes are atomic) and removes the output
    directory if this call made it.
    """
    with _open_for_scoring(checkpoint_path, data_dir) as (model, files):
        out = Path(out_dir)
        made = not out.exists()
        out.mkdir(parents=True, exist_ok=True)
        latents = np.empty((files.shape[0], model.layout.latent_dim), model.flat.dtype)

        def recons():
            for s, block in files.blocks:
                # an overflow is reported by the checks, not as a warning
                with np.errstate(over="ignore", invalid="ignore"):
                    try:
                        latents[s] = encode(block, model).mean
                    except NonFiniteError as e:  # its row counts from the block's first
                        check_finite(e.values, s.start, f"{out / 'latents.bin'}: {e.what}")
                        raise
                    recon = decode(latents[s], model)
                check_finite(recon, s.start, str(out / "recons.bin"))
                yield recon
                del recon  # before the next block is computed, so it can reuse the memory

        try:
            save_latents = partial(save_matrix, out / "latents.bin", latents)
            save_rows(out / "recons.bin", files.shape, recons(), then=save_latents)
        except BaseException:
            if made:
                with suppress(OSError):
                    out.rmdir()
            raise
    return {"latents": str(out / "latents.bin"), "recons": str(out / "recons.bin")}
