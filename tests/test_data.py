"""Dataset container, synthetic benchmark, few-shot splits, file formats."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgzsl.data import (
    Dataset,
    FewshotSplit,
    SynthSpec,
    fewshot_sample,
    load_dataset,
    save_dataset,
    synth_generate,
)
from dgzsl.errors import DataFormatError, DgzslError, ShapeError
from dgzsl.serialize import (
    CHECKPOINT_MAGIC,
    load_checkpoint,
    load_matrix,
    matrix_bytes,
    read_attribute_csv,
    read_labels,
    read_manifest,
    save_checkpoint,
    save_matrix,
    write_attribute_csv,
    write_labels,
    write_manifest,
)


def tiny_spec(**kwargs):
    base = dict(seen=4, unseen=2, attr_dim=3, feature_dim=6, per_class=10, seed=5)
    return SynthSpec(**{**base, **kwargs})


# ------------------------------------------------------------ Dataset type


def small_dataset(**overrides):
    fields = dict(
        features=np.arange(12.0).reshape(4, 3),
        labels=np.array([0, 0, 1, 2]),
        attributes=np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]),
        seen_classes=(0, 1),
        unseen_classes=(2,),
        train_mask=np.array([True, True, True, False]),
    )
    fields.update(overrides)
    return Dataset(**fields)


def test_dataset_accepts_valid_fields():
    ds = small_dataset()
    assert ds.num_classes == 3
    assert ds.feature_dim == 3
    assert ds.attr_dim == 2
    assert np.array_equal(ds.train_labels, [0, 0, 1])
    assert np.array_equal(ds.test_labels, [2])


def test_dataset_rejects_seen_unseen_overlap():
    with pytest.raises(DgzslError):
        small_dataset(seen_classes=(0, 1, 2))


def test_dataset_requires_full_class_coverage():
    with pytest.raises(DgzslError):
        small_dataset(unseen_classes=())


def test_dataset_rejects_unseen_label_in_train_split():
    with pytest.raises(DgzslError):
        small_dataset(labels=np.array([0, 2, 1, 2]))


def test_dataset_rejects_duplicate_attribute_rows():
    with pytest.raises(DgzslError):
        small_dataset(
            attributes=np.array([[0.0, 1.0], [0.0, 1.0], [0.5, 0.5]])
        )


def test_dataset_rejects_non_finite_features():
    bad = np.arange(12.0).reshape(4, 3)
    bad[1, 1] = np.nan
    with pytest.raises(DataFormatError):
        small_dataset(features=bad)


def test_dataset_rejects_empty():
    with pytest.raises((DataFormatError, DgzslError)):
        small_dataset(
            features=np.zeros((0, 3)),
            labels=np.zeros(0, int),
            train_mask=np.zeros(0, bool),
        )


def test_dataset_shape_alignment_checked():
    with pytest.raises(ShapeError):
        small_dataset(labels=np.array([0, 0, 1]))


# --------------------------------------------------------- synth generator


def test_synth_spec_validation():
    with pytest.raises(DgzslError):
        tiny_spec(unseen=1)
    with pytest.raises(DgzslError):
        tiny_spec(seen=0)
    with pytest.raises(DgzslError):
        tiny_spec(noise_std=-0.1)
    tiny_spec(noise_std=0.0)  # zero is allowed (noiseless sanity data)


def test_synth_same_seed_is_bit_identical():
    a, b = synth_generate(tiny_spec()), synth_generate(tiny_spec())
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.attributes, b.attributes)
    assert np.array_equal(a.labels, b.labels)


def test_synth_different_seeds_differ():
    a, b = synth_generate(tiny_spec()), synth_generate(tiny_spec(seed=6))
    assert not np.array_equal(a.features, b.features)


def test_synth_zero_noise_collapses_classes_to_points():
    ds = synth_generate(tiny_spec(noise_std=0.0))
    for cid in range(6):
        rows = ds.features[ds.labels == cid]
        assert np.array_equal(rows, np.tile(rows[0], (rows.shape[0], 1)))
    # distinct classes still land on distinct points
    m0 = ds.features[ds.labels == 0][0]
    m1 = ds.features[ds.labels == 1][0]
    assert not np.array_equal(m0, m1)


def test_synth_is_exactly_balanced_and_split_by_class():
    ds = synth_generate(tiny_spec())
    counts = np.bincount(ds.labels)
    assert np.array_equal(counts, np.full(6, 10))
    assert set(np.unique(ds.train_labels)) == {0, 1, 2, 3}
    assert set(np.unique(ds.test_labels)) == {4, 5}
    assert ds.train_features.shape[0] == 40


def test_synth_default_spec_matches_benchmark_shape():
    spec = SynthSpec()
    assert (spec.seen, spec.unseen, spec.attr_dim, spec.feature_dim) == (15, 5, 8, 32)
    assert spec.per_class == 100


def test_synth_nearest_class_mean_oracle_is_strong():
    ds = synth_generate(SynthSpec(seed=3))
    means = np.stack(
        [ds.train_features[ds.train_labels == c].mean(axis=0) for c in range(15)]
    )
    d = ((ds.train_features[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    predicted = np.argmin(d, axis=1)
    assert np.mean(predicted == ds.train_labels) >= 0.95


def test_synth_default_noise_tracks_class_separation():
    ds = synth_generate(SynthSpec(seed=1))
    class_means = np.stack(
        [ds.features[ds.labels == c].mean(axis=0) for c in range(20)]
    )
    gaps = np.linalg.norm(class_means[:, None] - class_means[None, :], axis=2)
    mean_gap = gaps[~np.eye(20, dtype=bool)].mean()
    within = np.concatenate(
        [ds.features[ds.labels == c] - class_means[c] for c in range(20)]
    )
    noise_norm = np.linalg.norm(within, axis=1).mean()
    # expected noise norm is about a tenth of the mean inter-class distance
    assert 0.05 * mean_gap < noise_norm < 0.2 * mean_gap


# ------------------------------------------------------------- few-shot


def test_fewshot_zero_k_gives_full_pool():
    ds = synth_generate(tiny_spec())
    split = fewshot_sample(ds, 0, seed=1)
    assert split.labeled_idx.size == 0
    assert np.array_equal(split.unlabeled_idx, np.flatnonzero(~ds.train_mask))


def test_fewshot_partition_is_exact():
    ds = synth_generate(tiny_spec())
    split = fewshot_sample(ds, 3, seed=2)
    test_idx = np.flatnonzero(~ds.train_mask)
    union = np.union1d(split.labeled_idx, split.unlabeled_idx)
    assert np.array_equal(union, test_idx)
    assert np.intersect1d(split.labeled_idx, split.unlabeled_idx).size == 0
    labels = ds.labels[split.labeled_idx]
    assert np.array_equal(np.bincount(labels, minlength=6)[4:], [3, 3])


def test_fewshot_labeled_rows_are_unseen_only():
    ds = synth_generate(tiny_spec())
    split = fewshot_sample(ds, 2, seed=3)
    assert set(ds.labels[split.labeled_idx]) <= set(ds.unseen_classes)


def test_fewshot_k_too_large_rejected():
    ds = synth_generate(tiny_spec())
    with pytest.raises(DgzslError):
        fewshot_sample(ds, 11, seed=0)
    with pytest.raises(DgzslError):
        fewshot_sample(ds, -1, seed=0)


def test_fewshot_seeded_reproducibly():
    ds = synth_generate(tiny_spec())
    a = fewshot_sample(ds, 4, seed=9)
    b = fewshot_sample(ds, 4, seed=9)
    c = fewshot_sample(ds, 4, seed=10)
    assert np.array_equal(a.labeled_idx, b.labeled_idx)
    assert not np.array_equal(a.labeled_idx, c.labeled_idx)
    assert isinstance(a, FewshotSplit)


# ------------------------------------------------------------ matrix file


def test_matrix_round_trip_is_bit_stable(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(5, 7)).astype(np.float32).astype(np.float64)
    path = tmp_path / "m.bin"
    save_matrix(path, arr)
    loaded = load_matrix(path)
    assert np.array_equal(loaded, arr)
    # a second save of the loaded matrix reproduces the bytes exactly
    assert matrix_bytes(loaded) == path.read_bytes()


def test_matrix_vector_becomes_row(tmp_path):
    path = tmp_path / "v.bin"
    save_matrix(path, np.array([1.0, 2.0, 3.0]))
    assert load_matrix(path).shape == (1, 3)


def test_matrix_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(DataFormatError):
        load_matrix(path)


def test_matrix_truncated_body(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(matrix_bytes(np.ones((3, 3)))[:-4])
    with pytest.raises(DataFormatError):
        load_matrix(path)


def test_matrix_trailing_bytes(tmp_path):
    path = tmp_path / "long.bin"
    path.write_bytes(matrix_bytes(np.ones((2, 2))) + b"x")
    with pytest.raises(DataFormatError):
        load_matrix(path)


def test_matrix_empty_rejected(tmp_path):
    path = tmp_path / "empty.bin"
    save_matrix(path, np.zeros((0, 4)))
    with pytest.raises(DataFormatError):
        load_matrix(path)


def test_matrix_non_finite_rejected(tmp_path):
    path = tmp_path / "inf.bin"
    save_matrix(path, np.array([[np.inf, 1.0]]))
    with pytest.raises(DataFormatError):
        load_matrix(path)


def test_matrix_rejects_3d():
    with pytest.raises(DataFormatError):
        matrix_bytes(np.zeros((2, 2, 2)))


# --------------------------------------------------------- attribute file


def test_attribute_csv_round_trip(tmp_path):
    attrs = np.random.default_rng(1).uniform(-1, 1, (5, 4))
    path = tmp_path / "a.csv"
    write_attribute_csv(path, attrs)
    assert np.array_equal(read_attribute_csv(path), attrs)  # repr() is exact


def test_attribute_csv_rows_keyed_by_id(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("1,9.0,9.0\n0,1.0,2.0\n", encoding="utf-8")
    got = read_attribute_csv(path)
    assert np.array_equal(got, [[1.0, 2.0], [9.0, 9.0]])


@pytest.mark.parametrize(
    "text",
    [
        "0,1.0\n0,2.0\n",  # duplicate id
        "0,1.0\n2,2.0\n",  # ids not 0..C-1
        "0,1.0,2.0\n1,3.0\n",  # ragged width
        "0,abc\n",  # bad float
        "-1,1.0\n",  # negative id
        "0\n",  # missing attributes
        "",  # empty
    ],
)
def test_attribute_csv_rejects_malformed(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataFormatError):
        read_attribute_csv(path)


# ------------------------------------------------------------ label files


def test_labels_round_trip(tmp_path):
    path = tmp_path / "l.txt"
    write_labels(path, np.array([3, 0, 7]))
    assert np.array_equal(read_labels(path), [3, 0, 7])


def test_labels_reject_non_integer(tmp_path):
    path = tmp_path / "l.txt"
    path.write_text("1\ntwo\n", encoding="utf-8")
    with pytest.raises(DataFormatError):
        read_labels(path)


# --------------------------------------------------------------- manifest


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "split.manifest"
    write_manifest(path, (0, 1, 2), (3, 4), "train.txt", "test.txt")
    got = read_manifest(path)
    assert got["seen"] == (0, 1, 2)
    assert got["unseen"] == (3, 4)
    assert got["train_labels"] == tmp_path / "train.txt"
    assert got["test_labels"] == tmp_path / "test.txt"


@pytest.mark.parametrize(
    "text",
    [
        "seen = 0,1\nunseen = 2\ntrain_labels = a\n",  # missing key
        "seen = 0,1\nunseen = 2\ntrain_labels = a\ntest_labels = b\nfoo = 1\n",
        "seen = 0,0\nunseen = 2\ntrain_labels = a\ntest_labels = b\n",  # dup ids
        "seen = 0,1\nseen = 2\nunseen = 3\ntrain_labels = a\ntest_labels = b\n",
        "nonsense line\n",
    ],
)
def test_manifest_rejects_malformed(tmp_path, text):
    path = tmp_path / "bad.manifest"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataFormatError):
        read_manifest(path)


# -------------------------------------------------------------- checkpoint


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    tensors = {
        "enc.h0.w": rng.normal(size=(4, 3)).astype(np.float32).astype(np.float64),
        "prior.mean_w": rng.normal(size=(2, 5)).astype(np.float32).astype(np.float64),
    }
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, tensors, meta={"keep_prob": 0.8, "seed": 3})
    loaded, meta = load_checkpoint(path)
    assert set(loaded) == set(tensors)
    for key in tensors:
        assert np.array_equal(loaded[key], tensors[key])
    assert meta == {"keep_prob": pytest.approx(0.8), "seed": 3.0}


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"WRONGMAG" + b"\x00" * 8)
    with pytest.raises(DataFormatError):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "blob",
    [
        CHECKPOINT_MAGIC,  # no tensor count
        CHECKPOINT_MAGIC + struct.pack("<II", 1, 2) + b"\xff\xfe",  # name not UTF-8
    ],
    ids=["no-count", "non-utf8-name"],
)
def test_checkpoint_corrupt_header(tmp_path, blob):
    path = tmp_path / "corrupt.ckpt"
    path.write_bytes(blob)
    with pytest.raises(DataFormatError, match=re.escape(str(path))):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes(tmp_path):
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, {"w": np.ones((2, 2))})
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(DataFormatError):
        load_checkpoint(path)


def test_checkpoint_meta_must_be_scalar(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"meta.oops": np.ones((2, 2))})
    with pytest.raises(DataFormatError):
        load_checkpoint(path)


# ------------------------------------------------------- dataset round trip


def test_dataset_save_load_round_trip(tmp_path):
    ds = synth_generate(tiny_spec())
    save_dataset(ds, tmp_path)
    loaded = load_dataset(
        tmp_path / "features.bin", tmp_path / "attributes.csv", tmp_path / "split.manifest"
    )
    # features pass through one float32 rounding on the way to disk
    ordered = np.concatenate([ds.train_features, ds.test_features])
    assert np.array_equal(loaded.features, ordered.astype(np.float32).astype(np.float64))
    assert np.array_equal(loaded.attributes, ds.attributes)
    assert np.array_equal(loaded.labels, np.concatenate([ds.train_labels, ds.test_labels]))
    assert loaded.seen_classes == ds.seen_classes
    assert loaded.unseen_classes == ds.unseen_classes
    assert np.array_equal(loaded.train_mask, np.sort(ds.train_mask)[::-1])

    # a second save reproduces every file byte-for-byte
    out2 = tmp_path / "again"
    save_dataset(loaded, out2)
    for name in ("features.bin", "attributes.csv", "train_labels.txt", "test_labels.txt", "split.manifest"):
        assert (out2 / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_load_dataset_row_count_mismatch(tmp_path):
    ds = synth_generate(tiny_spec())
    save_dataset(ds, tmp_path)
    save_matrix(tmp_path / "features.bin", np.ones((3, 6)))
    with pytest.raises(DataFormatError):
        load_dataset(
            tmp_path / "features.bin",
            tmp_path / "attributes.csv",
            tmp_path / "split.manifest",
        )
