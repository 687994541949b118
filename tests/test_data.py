"""Dataset container, synthetic benchmark, few-shot splits, file formats."""

import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgzsl import data, train
from dgzsl.config import TrainConfig, format_config, load_config, parse_config
from dgzsl.data import (
    Dataset,
    FewshotSplit,
    SynthSpec,
    fewshot_sample,
    load_dataset,
    save_dataset,
    synth_generate,
)
from dgzsl import serialize
from dgzsl.errors import ConfigError, DataFormatError, DgzslError, ShapeError
from dgzsl.serialize import (
    CHECKPOINT_MAGIC,
    load_checkpoint,
    load_matrix,
    read_attribute_csv,
    read_labels,
    read_manifest,
    save_checkpoint,
    save_matrix,
    write_attribute_csv,
    write_labels,
    write_manifest,
)

import oracles


def tiny_spec(**kwargs):
    base = dict(seen=4, unseen=2, attr_dim=3, feature_dim=6, per_class=10, seed=5)
    return SynthSpec(**{**base, **kwargs})


# ------------------------------------------------------------ Dataset type


def small_dataset(**overrides):
    fields = dict(
        features=np.arange(12.0).reshape(4, 3),
        labels=np.array([0, 0, 1, 2]),
        n_train=3,
        attributes=np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]),
        seen_classes=(0, 1),
        unseen_classes=(2,),
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


def class_rule_error(check, attrs):
    """The message ``check`` raises for an all-seen dataset with these
    attribute rows, or None."""
    classes = attrs.shape[0]
    try:
        check(np.arange(classes), classes, attrs, range(classes), ())
    except DgzslError as e:
        return str(e)
    return None


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_duplicate_attribute_rows_are_named_as_the_pairwise_check_names_them(seed):
    rng = np.random.default_rng(seed)
    classes, width = int(rng.integers(1, 12)), int(rng.integers(1, 5))
    # few distinct values, so rows collide by chance as well as by planting
    attrs = rng.choice([-1.0, -0.0, 0.0, 0.5], size=(classes, width))
    for _ in range(int(rng.integers(0, 3))):
        a, b = rng.integers(0, classes, 2)
        attrs[b] = attrs[a] * np.where(attrs[a] == 0.0, rng.choice([-1.0, 1.0], width), 1.0)
    assert class_rule_error(data._check_classes, attrs) == class_rule_error(oracles.check_classes, attrs)


def test_minus_zero_and_zero_attributes_are_the_same_vector():
    attrs = np.array([[1.0, 2.0], [0.0, -0.0], [3.0, 4.0], [-0.0, 0.0], [0.0, 0.0]])
    assert class_rule_error(data._check_classes, attrs) == "classes 1 and 3 share an attribute vector"
    assert class_rule_error(oracles.check_classes, attrs) == "classes 1 and 3 share an attribute vector"


def test_the_duplicate_row_check_holds_no_class_by_class_array():
    # SUN's shape: the pairwise differences alone would be 717 × 717 × 102
    # float64 values, 400 MB
    attrs = np.random.default_rng(0).uniform(-1, 1, (717, 102))
    tracemalloc.start()
    try:
        assert class_rule_error(data._check_classes, attrs) is None
        attrs[600] = attrs[42]
        assert class_rule_error(data._check_classes, attrs) == "classes 42 and 600 share an attribute vector"
        assert tracemalloc.get_traced_memory()[1] < 4 << 20
    finally:
        tracemalloc.stop()


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
            n_train=0,
        )


def test_dataset_shape_alignment_checked():
    with pytest.raises(ShapeError):
        small_dataset(labels=np.array([0, 0, 1]))


def test_dataset_keeps_float32_and_float64_features_and_widens_others():
    for dtype in (np.float32, np.float64):
        feats = np.arange(12.0, dtype=dtype).reshape(4, 3)
        assert small_dataset(features=feats).features is feats
    widened = small_dataset(features=np.arange(12).reshape(4, 3)).features
    assert widened.dtype == np.float64
    assert np.array_equal(widened, np.arange(12.0).reshape(4, 3))


# --------------------------------------------------------- synth generator


def test_synth_spec_validation():
    with pytest.raises(DgzslError):
        tiny_spec(unseen=1)
    with pytest.raises(DgzslError):
        tiny_spec(seen=0)
    with pytest.raises(DgzslError):
        tiny_spec(noise_std=-0.1)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DgzslError, match=f"noise_std must be finite and ≥ 0, got {bad}"):
            tiny_spec(noise_std=bad)
    with pytest.raises(DgzslError):
        tiny_spec(seed=-1)
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


def test_synth_features_are_float32_and_are_what_its_files_hold(tmp_path):
    ds = synth_generate(SynthSpec(seed=2, feature_dim=48))
    assert ds.features.dtype == np.float32
    save_dataset(ds, tmp_path)
    for dtype, bits in ((np.float32, np.uint32), (np.float64, np.uint64)):
        loaded = load_dataset(tmp_path, dtype)
        assert loaded.features.dtype == dtype
        assert np.array_equal(loaded.features.view(bits), ds.features.astype(dtype).view(bits))


def test_training_on_synth_in_memory_equals_training_on_its_files(tmp_path):
    """train_model on synth_generate's dataset writes the metrics and the
    checkpoint bytes that run_train writes from the saved files."""
    ds = synth_generate(SynthSpec(seed=0))
    save_dataset(ds, tmp_path / "data")
    cfg_path = Path(__file__).resolve().parents[1] / "configs" / "synth-inductive.cfg"
    train.run_train(cfg_path, tmp_path / "data", tmp_path / "files", epochs=3)
    cfg = load_config(cfg_path).override(epochs=3)
    result = train.train_model(ds, cfg)
    metrics = "".join(r.metrics_line() + "\n" for r in result.records)
    assert metrics == (tmp_path / "files" / "metrics.jsonl").read_text(encoding="utf-8")
    train.save_model(tmp_path / "model.ckpt", result.model)
    assert (tmp_path / "model.ckpt").read_bytes() == (tmp_path / "files" / "model.ckpt").read_bytes()


def test_synth_holds_its_float32_features_and_one_float64_class_block():
    """Peak traced memory: the float32 features, one class's float64 rows,
    one C×D float64 array (the class means, or the buffer of one row of
    class gaps), Dataset's finiteness check (one boolean block of at most
    4 MiB of float32, 1 MiB) and 256 KiB of slack. A float64 feature matrix
    alone would exceed it, and so would the two C×C×D float64 temporaries
    of a class-gap norm over all pairs at once (20 MB here). A first call
    makes the one-time allocations of the code it runs, so it is not traced."""
    spec = SynthSpec(seen=40, unseen=10, attr_dim=8, feature_dim=512, per_class=100)
    classes, rows = spec.seen + spec.unseen, (spec.seen + spec.unseen) * spec.per_class
    features = rows * spec.feature_dim * 4
    bound = features + spec.per_class * spec.feature_dim * 8 + classes * spec.feature_dim * 8
    bound += (1 << 20) + (1 << 18)
    assert 2 * features > bound and 2 * classes**2 * spec.feature_dim * 8 > bound
    synth_generate(tiny_spec())
    tracemalloc.start()
    try:
        ds = synth_generate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.features.dtype == np.float32
    assert peak < bound, f"synth_generate peaked at {peak} B, bound {bound} B"


@settings(max_examples=40)
@given(
    seen=st.integers(1, 28),
    unseen=st.integers(2, 29),
    attr_dim=st.integers(1, 12),
    feature_dim=st.integers(1, 70),
    seed=st.integers(0, 2**32 - 1),
)
def test_default_noise_scale_gives_the_features_of_the_whole_array_norm(seen, unseen, attr_dim, feature_dim, seed):
    spec = SynthSpec(seen=seen, unseen=min(unseen, 30 - seen), attr_dim=attr_dim,
                     feature_dim=feature_dim, per_class=2, seed=seed)
    assert_noise_scale_matches_the_whole_array_norm(spec)


def test_default_noise_scale_at_the_gbu_shape_matches_the_whole_array_norm():
    assert_noise_scale_matches_the_whole_array_norm(
        SynthSpec(seen=40, unseen=10, attr_dim=85, feature_dim=2048, per_class=1, seed=3)
    )


def assert_noise_scale_matches_the_whole_array_norm(spec):
    """The mean class gap taken one class row at a time is bit-equal with the
    norm over all C×C×D differences at once, and so are the features."""
    rowwise_gap, gaps = data._mean_class_gap, []

    def whole_array_gap(means):
        gaps.append((rowwise_gap(means), oracles.mean_class_gap(means)))
        return gaps[-1][1]

    rowwise = synth_generate(spec).features
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_mean_class_gap", whole_array_gap)
        whole = synth_generate(spec).features
    ((got, want),) = gaps
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert rowwise.tobytes() == whole.tobytes()


# ------------------------------------------------------------- few-shot


def test_fewshot_zero_k_gives_full_pool():
    ds = synth_generate(tiny_spec())
    split = fewshot_sample(ds, 0, seed=1)
    assert split.labeled_idx.size == 0
    assert np.array_equal(split.unlabeled_idx, np.arange(ds.n_train, ds.labels.size))


def test_fewshot_partition_is_exact():
    ds = synth_generate(tiny_spec())
    split = fewshot_sample(ds, 3, seed=2)
    test_idx = np.arange(ds.n_train, ds.labels.size)
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
    save_matrix(tmp_path / "again.bin", loaded)
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


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
    path.write_bytes(oracles.whole_matrix_bytes(np.ones((3, 3)))[:-4])
    with pytest.raises(DataFormatError):
        load_matrix(path)


def test_matrix_trailing_bytes(tmp_path):
    path = tmp_path / "long.bin"
    path.write_bytes(oracles.whole_matrix_bytes(np.ones((2, 2))) + b"x")
    with pytest.raises(DataFormatError):
        load_matrix(path)


def test_matrix_empty_rejected(tmp_path):
    path = tmp_path / "empty.bin"
    save_matrix(path, np.zeros((0, 4)))
    with pytest.raises(DataFormatError):
        load_matrix(path)


def test_load_matrix_in_float32_equals_the_float64_load_cast(tmp_path):
    path = tmp_path / "m.bin"
    save_matrix(path, np.random.default_rng(0).normal(size=(7, 5)) * 1e3)
    loaded = load_matrix(path, np.float32)
    assert loaded.dtype == np.float32
    assert loaded.tobytes() == load_matrix(path).astype(np.float32).tobytes()


def test_matrix_non_finite_rejected(tmp_path):
    path = tmp_path / "inf.bin"
    save_matrix(path, np.array([[np.inf, 1.0]]))
    for dtype in (np.float64, np.float32):
        with pytest.raises(DataFormatError, match="row 0"):
            load_matrix(path, dtype)
    arr = np.ones((5, 3))
    arr[3, 1] = np.nan
    arr[4, 0] = np.inf
    save_matrix(path, arr)
    for dtype in (np.float64, np.float32):
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: non-finite value nan at row 3, column 1")):
            load_matrix(path, dtype)


def test_matrix_rejects_3d(tmp_path):
    with pytest.raises(DataFormatError):
        save_matrix(tmp_path / "m.bin", np.zeros((2, 2, 2)))
    assert list(tmp_path.iterdir()) == []


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
        "0,nan\n",  # not a number
        "0,1.0,inf\n",  # infinite
    ],
)
def test_attribute_csv_rejects_malformed(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataFormatError, match=re.escape(str(path))):
        read_attribute_csv(path)


@pytest.mark.parametrize("text, line, char", [("0,1_0.5", 1, "_"), ("0,1.0\n1,٣", 2, "٣"), ("1_0,1.0", 1, "_")])
def test_attribute_csv_takes_only_plain_ascii_numbers(tmp_path, text, line, char):
    # float() and int() would read 1_0.5 as 10.5 and ٣ (Arabic-Indic three) as 3
    path = tmp_path / "a.csv"
    path.write_text(text + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=re.escape(f"{path}:{line}: '{char}' in a number")):
        read_attribute_csv(path)


@pytest.mark.parametrize(
    "attrs",
    [
        np.array([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3]).reshape(2, 4),
        np.array([[0.1, -0.0], [3.4028235e38, 1e-45]], np.float32),
        np.array([[1, -2], [3, 4]]),
    ],
    ids=["float64-edges", "float32", "int64"],
)
def test_attribute_csv_writes_the_bytes_of_per_scalar_formatting(tmp_path, attrs):
    path = tmp_path / "a.csv"
    write_attribute_csv(path, attrs)
    assert path.read_bytes() == oracles.attribute_csv_text(attrs).encode()


@settings(max_examples=50)
@given(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3), min_size=1, max_size=6))
def test_attribute_csv_formats_any_finite_float_as_repr_does(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("attrs") / "a.csv"
    write_attribute_csv(path, rows)
    assert path.read_bytes() == oracles.attribute_csv_text(rows).encode()


# ------------------------------------------------------------ label files


def test_labels_round_trip(tmp_path):
    path = tmp_path / "l.txt"
    write_labels(path, np.array([3, 0, 7]))
    assert np.array_equal(read_labels(path), [3, 0, 7])


@pytest.mark.parametrize(
    "labels",
    [
        np.array([np.iinfo(np.int64).min, -1, 0, 1, np.iinfo(np.int64).max]),
        np.array([3, 0, 7], np.int32),
        np.array([], np.int64),
    ],
)
def test_labels_write_the_bytes_of_per_scalar_formatting(tmp_path, labels):
    path = tmp_path / "l.txt"
    write_labels(path, labels)
    assert path.read_bytes() == oracles.labels_text(labels).encode()


def test_labels_reject_non_integer(tmp_path):
    path = tmp_path / "l.txt"
    path.write_text("1\ntwo\n", encoding="utf-8")
    with pytest.raises(DataFormatError):
        read_labels(path)


@pytest.mark.parametrize("text", ["99999999999999999999", "-9223372036854775809"])
def test_labels_reject_a_value_beyond_int64(tmp_path, text):
    path = tmp_path / "l.txt"
    path.write_text(f"1\n{text}\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=re.escape(f"{path}:2: label out of range: '{text}'")):
        read_labels(path)
    path.write_text("-9223372036854775808\n9223372036854775807\n", encoding="utf-8")
    assert read_labels(path).tolist() == [-(2**63), 2**63 - 1]


def _label_outcome(read, path):
    try:
        labels = read(path)
    except DataFormatError as e:
        return "error", str(e)
    return labels.dtype, labels.tolist()


_PAD = st.text(alphabet=" \t\f\v", max_size=2)
_LABEL_LINE = st.one_of(
    _PAD,  # a blank line
    st.builds(
        "{}{}{}{}{}".format,
        _PAD,
        st.sampled_from(["", "+", "-"]),
        st.one_of(st.integers(0, 2**64), st.sampled_from([2**63 - 1, 2**63, 2**63 + 1])),
        st.sampled_from(["", "", "", " 7", "x"]),  # mostly whole labels
        _PAD,
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(st.tuples(_LABEL_LINE, st.sampled_from(["\n", "\n", "\r\n", "\r", "\f"])), max_size=8),
    tail=st.one_of(st.just(""), _LABEL_LINE),
)
def test_labels_one_pass_read_matches_the_line_loop(tmp_path_factory, lines, tail):
    # blank lines, CRLF, lone CR, form feeds, signs, inner and outer spaces,
    # values beyond int64, a last line without its newline and the empty
    # file: the same labels or the same message as the line loop alone
    path = tmp_path_factory.mktemp("labels") / "l.txt"
    path.write_bytes(("".join(line + brk for line, brk in lines) + tail).encode("ascii"))
    loop = lambda p: serialize._label_lines(serialize._read_numbers(p), p)  # noqa: E731
    assert _label_outcome(read_labels, path) == _label_outcome(loop, path)


def test_labels_of_a_well_formed_file_skip_the_line_loop(tmp_path, monkeypatch):
    path = tmp_path / "l.txt"
    path.write_bytes(b"3\n -1\t\n+7\r\n0\f\n")
    monkeypatch.setattr(serialize, "_label_lines", None)
    labels = read_labels(path)
    assert labels.dtype == np.int64 and labels.tolist() == [3, -1, 7, 0]


@pytest.mark.parametrize("text, char", [("1_0", "_"), ("٣", "٣")])
def test_labels_take_only_plain_ascii_integers(tmp_path, text, char):
    # int() would read 1_0 as 10 and ٣ (Arabic-Indic three) as 3
    path = tmp_path / "l.txt"
    path.write_text(f"1\n{text}\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=re.escape(f"{path}:2: '{char}' in a number")):
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
        "seen = 0,0\nunseen = 2\ntrain_labels = a\ntest_labels = b\n",  # dup ids
    ],
)
def test_manifest_rejects_malformed(tmp_path, text):
    # the line rules manifests share with configs: test_key_value_lines_are_read_alike below
    path = tmp_path / "bad.manifest"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataFormatError):
        read_manifest(path)


# the two readers of ``key = value`` files: each reads a path, raises its own
# error class, and accepts a valid body, of which ``key`` is one key
KEY_VALUE_FORMATS = {
    "config": (
        lambda path: parse_config(path.read_text(encoding="utf-8"), where=str(path)),
        ConfigError,
        "seed = 1\nepochs = 2\n",
        "seed",
    ),
    "manifest": (
        read_manifest,
        DataFormatError,
        "seen = 0,1\nunseen = 2\ntrain_labels = a\ntest_labels = b\n",
        "seen",
    ),
}


@pytest.mark.parametrize("fmt", sorted(KEY_VALUE_FORMATS))
@pytest.mark.parametrize(
    "extra, message",
    [
        # a skipped line still counts, so the error is on the next line
        (["", "oops"], "expected 'key = value', got 'oops'"),
        (["   # {key} = 3", "oops"], "expected 'key = value', got 'oops'"),
        (["{key} 3"], "expected 'key = value', got '{key} 3'"),
        (["{key} = 3"], "duplicate key '{key}'"),
        (["mystery = 1"], "unknown key 'mystery'"),
    ],
    ids=["blank-line", "indented-comment", "no-equals", "duplicate-key", "unknown-key"],
)
def test_key_value_lines_are_read_alike(tmp_path, fmt, extra, message):
    """Configs and manifests share one line reader: the error names the file
    and the line of the last of ``extra``'s lines, appended to a valid
    body."""
    read, error, body, key = KEY_VALUE_FORMATS[fmt]
    path = tmp_path / "text"
    path.write_text(body + "".join(f"{line}\n" for line in extra).format(key=key), encoding="utf-8")
    line = body.count("\n") + len(extra)
    with pytest.raises(error) as err:
        read(path)
    assert str(err.value) == f"{path}:{line}: {message.format(key=key)}"


@pytest.mark.parametrize("key, ids", [("seen", "1_0, 2"), ("unseen", "٣")])
def test_manifest_ids_are_plain_ascii_integers(tmp_path, key, ids):
    # int() would read seen = 1_0, 2 as (10, 2) and unseen = ٣ as (3,)
    path = tmp_path / "split.manifest"
    entries = {"seen": "0,1", "unseen": "2,3", "train_labels": "a", "test_labels": "b", key: ids}
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()), encoding="utf-8")
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: {key}: not plain ASCII integers: '{ids}'")):
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


def test_checkpoint_non_finite_tensor(tmp_path):
    path = tmp_path / "nan.ckpt"
    w = np.ones((3, 4))
    w[2, 1] = np.nan
    save_checkpoint(path, {"enc.h0.b": np.zeros((1, 4)), "enc.h0.w": w})
    with pytest.raises(DataFormatError, match=re.escape(f"{path}[enc.h0.w]: non-finite value nan at row 2")):
        load_checkpoint(path)


@pytest.mark.parametrize("name, shape", [("w", (1, 2)), ("meta.keep_prob", (1, 1))])
def test_checkpoint_rejects_a_name_given_twice(tmp_path, name, shape):
    entry = lambda v: struct.pack("<I", len(name)) + name.encode() + oracles.whole_matrix_bytes(np.full(shape, v))
    path = tmp_path / "dup.ckpt"
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 2) + entry(1.0) + entry(2.0))
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: tensor {name!r} appears twice")):
        load_checkpoint(path)


def test_huge_matrix_header_over_a_short_body_fails_before_allocating(tmp_path):
    head = serialize.MATRIX_MAGIC + struct.pack("<II", 65535, 65535)
    short = 4 * 65535 * 65535 - 16
    path = tmp_path / "huge.bin"
    path.write_bytes(head + b"\x00" * 16)
    ckpt = tmp_path / "huge.ckpt"
    ckpt.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", 1, 1) + b"w" + head + b"\x00" * 16)
    tracemalloc.start()
    try:
        for dtype in (np.float64, np.float32):
            with pytest.raises(DataFormatError, match=re.escape(f"{path}: expected {65535 * 65535} float32 values, file is short by {short} bytes")):
                load_matrix(path, dtype)
        with pytest.raises(DataFormatError, match=re.escape(f"{ckpt}[w]: expected {65535 * 65535} float32 values, file is short by {short} bytes")):
            load_checkpoint(ckpt)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


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


def test_checkpoint_write_that_fails_partway_keeps_the_old_file(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.ones((2, 2))}, meta={"keep_prob": 0.8})
    old = path.read_bytes()
    # the first tensor is written, then the 3-D second one raises
    with pytest.raises(DataFormatError, match="1-D or 2-D"):
        save_checkpoint(path, {"w": np.zeros((3, 3)), "bad": np.zeros((2, 2, 2))})
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]


def test_matrix_write_that_fails_partway_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "latents.bin"
    save_matrix(path, np.ones((2, 3)))
    old = path.read_bytes()

    def disk_full(fh, arr, where):
        fh.write(old[:10])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(serialize, "_write_matrix", disk_full)
    with pytest.raises(OSError, match="No space"):
        save_matrix(path, np.zeros((4, 4)))
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]


def test_a_value_float32_cannot_hold_is_rejected_and_keeps_the_old_file(tmp_path, monkeypatch):
    """The cast to float32 would turn ±1e39 into ±inf; NaN, ±inf and a value
    that rounds to float32's largest pass. One row per block, so the row
    named is counted across blocks."""
    monkeypatch.setattr(serialize, "_BLOCK_BYTES", 8 * 3)
    path = tmp_path / "latents.bin"
    save_matrix(path, np.ones((2, 3)))
    old = path.read_bytes()
    top = float(np.finfo(np.float32).max)
    arr = np.array([[np.nan, np.inf, -np.inf], [top, np.nextafter(top, np.inf), -top], [0.0, 1.0, -1e39], [1e39, 0, 0]])
    message = f"{path}: value -1e+39 at row 2, column 2 does not fit in float32"
    with pytest.raises(DataFormatError, match=re.escape(message) + "$"):
        save_matrix(path, arr)
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]
    save_matrix(path, arr[:2])
    assert np.frombuffer(path.read_bytes()[16:], "<f4")[3:].tolist() == [top, top, -top]


def test_a_checkpoint_tensor_float32_cannot_hold_is_rejected_by_name(tmp_path):
    path = tmp_path / "model.ckpt"
    w = np.zeros((3, 2))
    w[1, 1] = 5e38
    with pytest.raises(DataFormatError, match=re.escape(f"{path}[w]: value 5e+38 at row 1, column 1 does not")):
        save_checkpoint(path, {"b": np.ones((1, 2)), "w": w}, meta={"keep_prob": 0.5})
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------- dataset round trip


def test_dataset_save_load_round_trip(tmp_path):
    ds = synth_generate(tiny_spec())
    save_dataset(ds, tmp_path)
    loaded = load_dataset(tmp_path)
    # features pass through one float32 rounding on the way to disk
    ordered = np.concatenate([ds.train_features, ds.test_features])
    assert np.array_equal(loaded.features, ordered.astype(np.float32).astype(np.float64))
    assert np.array_equal(loaded.attributes, ds.attributes)
    assert np.array_equal(loaded.labels, np.concatenate([ds.train_labels, ds.test_labels]))
    assert loaded.seen_classes == ds.seen_classes
    assert loaded.unseen_classes == ds.unseen_classes
    assert loaded.n_train == ds.n_train

    # a second save reproduces every file byte-for-byte
    out2 = tmp_path / "again"
    save_dataset(loaded, out2)
    for name in ("features.bin", "attributes.csv", "train_labels.txt", "test_labels.txt", "split.manifest"):
        assert (out2 / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_a_float32_run_trains_on_the_features_it_loaded(tmp_path, monkeypatch):
    save_dataset(synth_generate(tiny_spec()), tmp_path / "data")
    cfg = TrainConfig(regime="inductive", latent_dim=4, hidden_dims=(8,), batch_size=16, epochs=1, dtype="float32")
    (tmp_path / "run.cfg").write_text(format_config(cfg), encoding="utf-8")
    loaded, trained = [], []
    load, epoch = data.load_matrix, train._epoch

    def spy_load(*args):
        loaded.append(load(*args))
        return loaded[-1]

    def spy_epoch(model, opt, features, *args, **kwargs):
        trained.append(features)
        return epoch(model, opt, features, *args, **kwargs)

    monkeypatch.setattr(data, "load_matrix", spy_load)
    monkeypatch.setattr(train, "_epoch", spy_epoch)
    train.run_train(tmp_path / "run.cfg", tmp_path / "data", tmp_path / "run")
    assert len(loaded) == len(trained) == 1
    assert loaded[0].dtype == trained[0].dtype == np.float32
    # the train block is a view of the loaded array: no cast copy was made
    assert np.shares_memory(trained[0], loaded[0])


def test_load_dataset_row_count_mismatch(tmp_path):
    ds = synth_generate(tiny_spec())
    save_dataset(ds, tmp_path)
    save_matrix(tmp_path / "features.bin", np.ones((3, 6)))
    with pytest.raises(DataFormatError):
        load_dataset(tmp_path)
