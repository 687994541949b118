"""Datasets: validated container, file ingestion, synthetic benchmark,
few-shot subsampling.

The synthetic benchmark draws per-class attribute vectors uniformly from
[−1, 1]^M, pushes them through a fixed random one-hidden-layer tanh map to
get class feature means, and adds isotropic Gaussian noise. Its features are
float32, the dtype ``features.bin`` stores, so a dataset in memory is the
one its files hold. Classes are split so the unseen ones appear only in the
test block. Everything is driven by named child seeds of one root seed, so
identical specs give bit-identical datasets.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DataFormatError, DgzslError, ShapeError
from .serialize import (
    as_float32,
    load_matrix,
    open_matrix,
    read_attribute_csv,
    read_labels,
    read_manifest,
    row_blocks,
    save_matrix,
    write_attribute_csv,
    write_labels,
    write_manifest,
)

# a dataset directory's feature matrix, attribute table and split manifest,
# which names the two label files
_FEATURES, _ATTRIBUTES, _MANIFEST = "features.bin", "attributes.csv", "split.manifest"
# width of the synthetic benchmark's hidden tanh layer
_SYNTH_HIDDEN = 16


def _check_classes(labels, n_train: int, attrs, seen_classes, unseen_classes) -> None:
    """The class rules of a dataset whose first ``n_train`` labels are the
    train split: seen and unseen classes are disjoint and cover the attribute
    rows, every label is a declared class, every train label a seen one, and
    no two classes share an attribute vector."""
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
    # rows as byte strings: −0.0 + 0.0 is +0.0, so rows equal as (finite)
    # floats are equal as bytes, and the zero column keeps a row from being
    # zero bytes wide. A stable sort puts twins side by side, smallest class
    # first; the error names the smallest class with a twin, then its
    # smallest twin.
    a = np.zeros((attrs.shape[0], attrs.shape[1] + 1))
    np.add(attrs, 0.0, out=a[:, :-1])
    rows = a.view(f"V{a.itemsize * a.shape[1]}").ravel()
    order = np.argsort(rows, kind="stable")
    ordered = rows[order]
    same = ordered[1:] == ordered[:-1]
    if same.any():
        i = np.flatnonzero(same)[np.argmin(order[:-1][same])]
        raise DgzslError(f"classes {order[i]} and {order[i + 1]} share an attribute vector")


@dataclass(frozen=True)
class Dataset:
    """Features (train block then test block), labels, per-class attributes.

    The first ``n_train`` rows are the train split and the rest the test
    split, so the two blocks are slices and their features views. Features
    keep float32 or float64 as given and become float64 otherwise: a
    dataset from ``synth_generate`` or a float32 ``load_dataset`` is
    float32, and the trainer casts it to its run's dtype. ``attributes`` has
    one row per class id; every train label must be a seen class.
    """

    features: np.ndarray
    labels: np.ndarray
    n_train: int
    attributes: np.ndarray
    seen_classes: tuple[int, ...]
    unseen_classes: tuple[int, ...]

    def __post_init__(self):
        feats = np.asarray(self.features)
        if feats.dtype not in (np.float32, np.float64):
            feats = feats.astype(np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        attrs = np.asarray(self.attributes, dtype=np.float64)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "n_train", int(self.n_train))
        object.__setattr__(self, "attributes", attrs)
        object.__setattr__(self, "seen_classes", tuple(int(c) for c in self.seen_classes))
        object.__setattr__(self, "unseen_classes", tuple(int(c) for c in self.unseen_classes))

        if feats.ndim != 2 or attrs.ndim != 2:
            raise ShapeError("features and attributes must be 2-D")
        if feats.shape[0] == 0:
            raise DataFormatError("dataset has no examples")
        if labels.shape != (feats.shape[0],):
            raise ShapeError("labels must align with feature rows")
        if not 0 <= self.n_train <= labels.size:
            raise DgzslError(f"n_train must be in 0..{labels.size}, got {self.n_train}")
        finite = all(np.isfinite(feats[s]).all() for s in row_blocks(*feats.shape, feats.itemsize))
        if not finite or not np.all(np.isfinite(attrs)):
            raise DataFormatError("features/attributes contain non-finite values")
        _check_classes(labels, self.n_train, attrs, self.seen_classes, self.unseen_classes)

    @property
    def num_classes(self) -> int:
        return self.attributes.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def attr_dim(self) -> int:
        return self.attributes.shape[1]

    @property
    def train_features(self) -> np.ndarray:
        return self.features[: self.n_train]

    @property
    def train_labels(self) -> np.ndarray:
        return self.labels[: self.n_train]

    @property
    def test_features(self) -> np.ndarray:
        return self.features[self.n_train :]

    @property
    def test_labels(self) -> np.ndarray:
        return self.labels[self.n_train :]


@dataclass(frozen=True)
class SynthSpec:
    """Shape of the synthetic benchmark.

    ``noise_std`` is the per-dimension feature noise; None picks a default
    keyed to class separation (expected noise norm ≈ 10% of the mean
    inter-class mean distance). Zero is allowed for noiseless sanity data.
    """

    seen: int = 15
    unseen: int = 5
    attr_dim: int = 8
    feature_dim: int = 32
    per_class: int = 100
    noise_std: float | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("seen", "attr_dim", "feature_dim", "per_class"):
            if getattr(self, name) < 1:
                raise DgzslError(f"SynthSpec.{name} must be ≥ 1")
        if self.unseen < 2:
            raise DgzslError("SynthSpec.unseen must be ≥ 2")
        if self.noise_std is not None and not 0 <= self.noise_std < np.inf:
            raise DgzslError(f"SynthSpec.noise_std must be finite and ≥ 0, got {self.noise_std}")
        if self.seed < 0:
            raise DgzslError(f"SynthSpec.seed must be ≥ 0, got {self.seed}")


def _mean_class_gap(means) -> np.float64:
    """Mean Euclidean distance between the means of two distinct classes.

    The C×C distance matrix is filled one class row at a time in one reused
    C×D float64 buffer: the subtraction, square, pairwise row sum and square
    root that ``np.linalg.norm`` runs over all C×C×D differences at once, so
    the same bits without the two C×C×D temporaries.
    """
    c = means.shape[0]
    gaps = np.empty((c, c))
    d = np.empty_like(means)
    for i in range(c):
        np.subtract(means[i], means, out=d)
        np.multiply(d, d, out=d)
        gaps[i] = np.sqrt(np.add.reduce(d, axis=1))
    return gaps[~np.eye(c, dtype=bool)].mean()


def synth_generate(spec: SynthSpec) -> Dataset:
    """Deterministic synthetic dataset for the given spec, with float32
    features.

    Each class's rows are computed in float64 (its mean plus scaled noise)
    and rounded once into the float32 feature matrix, so the features hold
    exactly the values ``save_dataset`` writes and training on them in
    memory equals training on the saved files. Beside the matrix only one
    class's float64 rows are held. A finite value that float32 cannot hold
    (a huge ``noise_std``) is a DataFormatError naming its row and column.
    """
    attr_rng, map_rng, noise_rng = (
        np.random.default_rng(s)
        for s in np.random.SeedSequence(spec.seed).spawn(3)
    )
    num_classes = spec.seen + spec.unseen
    attrs = attr_rng.uniform(-1.0, 1.0, size=(num_classes, spec.attr_dim))

    w1 = map_rng.normal(size=(spec.attr_dim, _SYNTH_HIDDEN))
    b1 = map_rng.normal(scale=0.5, size=_SYNTH_HIDDEN)
    w2 = map_rng.normal(scale=1.0 / np.sqrt(_SYNTH_HIDDEN), size=(_SYNTH_HIDDEN, spec.feature_dim))
    means = np.tanh(attrs @ w1 + b1) @ w2

    if spec.noise_std is None:
        noise_std = 0.1 * _mean_class_gap(means) / np.sqrt(spec.feature_dim)
    else:
        noise_std = float(spec.noise_std)

    # seen classes come first, so the train block naturally leads; a class's
    # rows are computed in one reused float64 block and rounded once into
    # the float32 matrix (standard_normal draws the bits normal would)
    per = spec.per_class
    feats = np.empty((num_classes * per, spec.feature_dim), np.float32)
    rows = np.empty((per, spec.feature_dim))
    for cid in range(num_classes):
        noise_rng.standard_normal(out=rows)
        rows *= noise_std
        rows += means[cid]
        first = cid * per
        as_float32(rows, first, "synthetic features", out=feats[first : first + per])
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per)
    return Dataset(
        feats,
        labels,
        spec.seen * per,
        attrs,
        tuple(range(spec.seen)),
        tuple(range(spec.seen, num_classes)),
    )


class FewshotSplit(NamedTuple):
    """Dataset row indices, all in the test block, partitioning that block
    into the k-per-class labeled subset and the remaining unlabeled pool."""

    labeled_idx: np.ndarray
    unlabeled_idx: np.ndarray


def fewshot_sample(dataset: Dataset, k: int, seed: int) -> FewshotSplit:
    """Uniformly pick k test examples per unseen class, without replacement."""
    if k < 0:
        raise DgzslError(f"k must be ≥ 0, got {k}")
    test_idx = np.arange(dataset.n_train, dataset.labels.size)
    rng = np.random.default_rng(seed)
    chosen = []
    for cid in dataset.unseen_classes:
        rows = test_idx[dataset.test_labels == cid]
        if k > rows.size:
            raise DgzslError(
                f"class {cid} has {rows.size} test examples, cannot sample k={k}"
            )
        chosen.append(rng.choice(rows, size=k, replace=False))
    labeled = np.sort(np.concatenate(chosen)).astype(np.int64)
    unlabeled = np.setdiff1d(test_idx, labeled)
    return FewshotSplit(labeled, unlabeled.astype(np.int64))


def save_dataset(dataset: Dataset, out_dir) -> None:
    """Write the dataset in the on-disk layout load_dataset expects."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_matrix(out / _FEATURES, dataset.features)
    write_attribute_csv(out / _ATTRIBUTES, dataset.attributes)
    write_labels(out / "train_labels.txt", dataset.train_labels)
    write_labels(out / "test_labels.txt", dataset.test_labels)
    write_manifest(
        out / _MANIFEST,
        dataset.seen_classes,
        dataset.unseen_classes,
        "train_labels.txt",
        "test_labels.txt",
    )


class DatasetFiles(NamedTuple):
    """A dataset's files opened for one pass over the feature rows
    (``open_dataset``): the feature file's ``path`` and its header's
    ``shape``, the checked labels (train block first, ``n_train`` of them)
    and class side, and ``blocks``, which yields each checked float32 row
    block once (``open_matrix``)."""

    path: Path
    shape: tuple[int, int]
    blocks: Iterator
    labels: np.ndarray
    n_train: int
    attributes: np.ndarray
    seen_classes: tuple[int, ...]
    unseen_classes: tuple[int, ...]


def _read_labeled_side(data_dir, rows: int):
    """(labels, n_train, attributes, seen_classes, unseen_classes) of the
    dataset in ``data_dir``, whose feature matrix has ``rows`` rows; the
    class rules are left to the caller (_check_classes, or Dataset)."""
    attrs = read_attribute_csv(Path(data_dir, _ATTRIBUTES))
    manifest = read_manifest(Path(data_dir, _MANIFEST))
    train_labels = read_labels(manifest["train_labels"])
    test_labels = read_labels(manifest["test_labels"])
    total = train_labels.size + test_labels.size
    if rows != total:
        raise DataFormatError(f"feature rows ({rows}) != train+test labels ({total})")
    labels = np.concatenate([train_labels, test_labels])
    return labels, train_labels.size, attrs, manifest["seen"], manifest["unseen"]


@contextmanager
def open_dataset(data_dir):
    """Opens the dataset in ``data_dir`` for one pass over its feature rows.

    The feature matrix holds the train block first, then the test block; the
    manifest's label files fix the two block lengths. The feature header,
    the attribute file, the manifest, the label files and the class rules
    are checked up front, and yields a DatasetFiles; the feature body is
    checked block by block as the caller reads it. An error raised before
    the body has been read to its end, here or by the caller, is reported
    only after the rest of the body has been checked, so a bad feature file
    is reported first, as when the whole matrix is loaded first.
    """
    path = Path(data_dir, _FEATURES)
    with open_matrix(path) as (shape, read):
        blocks = read()
        try:
            side = _read_labeled_side(data_dir, shape[0])
            _check_classes(*side)
            yield DatasetFiles(path, shape, blocks, *side)
        except Exception:
            for _ in blocks:
                pass
            raise


def load_dataset(data_dir, dtype=np.float64) -> Dataset:
    """Assemble and validate the Dataset in ``data_dir``; the feature matrix
    is loaded whole into a ``dtype`` array, then the rest is checked as
    open_dataset does."""
    features = load_matrix(Path(data_dir, _FEATURES), dtype)
    return Dataset(features, *_read_labeled_side(data_dir, features.shape[0]))
