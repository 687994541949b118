"""Matrix files, datasets and exports stream in row blocks: the bytes match a
whole-array pass at every block boundary and on one or two threads, and
memory stays bounded. Each
output file, binary or text, is written into a temp file preallocated to
its exact size, and a rewrite holds the bytes of a fresh write. Every
public function and class of the package has a user outside the tests."""

import ast
import errno
import json
import os
import re
import struct
import sys
import threading
import tracemalloc
from concurrent import futures
from pathlib import Path

import numpy as np
import pytest

from dgzsl import autodiff, optim, serialize, train
from dgzsl.cli import main
from dgzsl.data import Dataset, SynthSpec, load_dataset, save_dataset, synth_generate
from dgzsl.errors import DataFormatError, DgzslError, ShapeError
from dgzsl.inference import predict_batch
from dgzsl.networks import decode, encode, init_model
from dgzsl.serialize import (
    CHECKPOINT_MAGIC,
    load_checkpoint,
    load_matrix,
    row_blocks,
    save_checkpoint,
    save_matrix,
    save_rows,
    save_text,
    write_attribute_csv,
    write_labels,
    write_manifest,
)
from dgzsl.train import export_embeddings, load_model, run_eval, save_model

from oracles import confusion_counts, relabelled, whole_matrix_bytes

ROWS, COLS = 11, 5  # 11 rows in blocks of at most 3: 2, 3, 3, 3
THREADS = train._threads


@pytest.fixture(autouse=True)
def threads(monkeypatch):
    """Pins the threads (train._threads) to one, whatever the
    BLAS variables of the environment say; ``threads(n)`` sets ``n``."""

    def use(n):
        monkeypatch.setattr(train, "_threads", lambda: n)

    use(1)
    return use


@pytest.fixture
def small_blocks(monkeypatch):
    """Shrinks the block budget to 3 float32 rows of COLS values, so a reader
    (which fills a float32 stage) cuts ROWS rows into 2, 3, 3, 3; a float64
    writer cuts one row at a time."""
    monkeypatch.setattr(serialize, "_BLOCK_BYTES", 3 * 4 * COLS)


@pytest.fixture
def small_write_blocks(monkeypatch):
    """Shrinks the block budget to 3 float64 rows of COLS values, so a writer
    cuts a float64 source of ROWS rows into 2, 3, 3, 3; a reader cuts 6."""
    monkeypatch.setattr(serialize, "_BLOCK_BYTES", 3 * 8 * COLS)


def ragged():
    return np.random.default_rng(0).normal(size=(ROWS, COLS))


def traced_peak(fn, *args):
    """(result, bytes): fn's result and the peak of traced allocations it made."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_row_blocks_cover_every_row_with_no_straggler(small_blocks):
    blocks = row_blocks(ROWS, COLS, 4)
    assert [(s.start, s.stop) for s in blocks] == [(0, 2), (2, 5), (5, 8), (8, 11)]
    assert row_blocks(0, COLS, 4) == []
    assert row_blocks(3, COLS, 4) == [slice(0, 3)]
    # a block never holds fewer than half a budget's rows
    for rows in range(4, 40):
        sizes = [s.stop - s.start for s in row_blocks(rows, COLS, 4)]
        assert sum(sizes) == rows and min(sizes) >= 2 and max(sizes) <= 3
    # the budget counts bytes: the same rows in float64 take twice the room
    assert row_blocks(ROWS, COLS, 8) == [slice(i, i + 1) for i in range(ROWS)]


def test_matrix_bytes_match_a_whole_array_cast(small_write_blocks, tmp_path):
    arr = ragged()
    save_matrix(tmp_path / "m.bin", arr)
    assert (tmp_path / "m.bin").read_bytes() == whole_matrix_bytes(arr)
    # a transposed (column-major) input writes its row-major values
    save_matrix(tmp_path / "t.bin", arr.T)
    assert (tmp_path / "t.bin").read_bytes() == whole_matrix_bytes(arr.T)


@pytest.mark.parametrize(
    "blocks, message",
    [([np.ones((2, COLS)), np.ones((2, COLS + 1))], "does not fit"), ([np.ones((2, COLS))], "hold 2 rows")],
    ids=["wrong-width", "too-few-rows"],
)
def test_save_rows_rejects_blocks_that_do_not_fill_the_header(tmp_path, blocks, message):
    with pytest.raises(ShapeError, match=message):
        save_rows(tmp_path / "m.bin", (4, COLS), iter(blocks))
    assert list(tmp_path.iterdir()) == []


def test_load_matrix_matches_a_whole_array_read(small_blocks, tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(whole_matrix_bytes(ragged()))
    loaded = load_matrix(path)
    assert loaded.dtype == np.float64
    assert loaded.tobytes() == ragged().astype("<f4").astype(np.float64).tobytes()


def test_non_finite_in_the_last_block_names_its_global_row_and_column(small_blocks, tmp_path):
    arr = ragged()
    arr[9, 3] = np.nan
    arr[10, 0] = -np.inf
    path = tmp_path / "m.bin"
    save_matrix(path, arr)
    with pytest.raises(DataFormatError, match="non-finite value nan at row 9, column 3$"):
        load_matrix(path)


def test_checkpoint_round_trip_across_blocks(small_blocks, tmp_path):
    rng = np.random.default_rng(1)
    tensors = {"w": rng.normal(size=(ROWS, COLS)), "b": rng.normal(size=(1, COLS))}
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, tensors, meta={"keep_prob": 0.5})
    expected = CHECKPOINT_MAGIC + struct.pack("<I", 3)
    for name, arr in [*tensors.items(), ("meta.keep_prob", np.array([[0.5]]))]:
        expected += struct.pack("<I", len(name)) + name.encode() + whole_matrix_bytes(arr)
    assert path.read_bytes() == expected
    loaded, meta = load_checkpoint(path)
    assert meta == {"keep_prob": 0.5}
    for name, arr in tensors.items():
        assert loaded[name].tobytes() == arr.astype("<f4").tobytes()

    tensors["w"][10, 4] = np.inf
    save_checkpoint(path, tensors)
    with pytest.raises(DataFormatError, match=r"m\.ckpt\[w\]: non-finite value inf at row 10, column 4"):
        load_checkpoint(path)


def _dataset_files(dataset, out):
    save_dataset(dataset, out)
    return {p.name: p.read_bytes() for p in out.iterdir()}


def _assert_save_dataset_matches_a_whole_array_write(dtype, tmp_path):
    """A dataset with ``dtype`` features, written in four row blocks, gives
    the bytes of a whole-array write, and so does a second save of it as
    loaded in that dtype."""
    synth = synth_generate(SynthSpec(seen=3, unseen=2, attr_dim=2, feature_dim=COLS, per_class=2, seed=4))
    side = (synth.labels, synth.n_train, synth.attributes, synth.seen_classes, synth.unseen_classes)
    ds = Dataset(synth.features.astype(dtype), *side)
    files = _dataset_files(ds, tmp_path / "data")
    assert ds.features.dtype == dtype
    assert ds.features.shape[0] == 10 and len(row_blocks(10, COLS, ds.features.itemsize)) == 4
    assert files["features.bin"] == whole_matrix_bytes(ds.features)
    d = tmp_path / "data"
    loaded = load_dataset(d, dtype)
    assert _dataset_files(loaded, tmp_path / "again") == files


def test_save_dataset_matches_a_whole_array_write(small_write_blocks, tmp_path):
    _assert_save_dataset_matches_a_whole_array_write(np.float64, tmp_path)


def test_save_dataset_of_float32_features_matches_a_whole_array_write(small_blocks, tmp_path):
    _assert_save_dataset_matches_a_whole_array_write(np.float32, tmp_path)


def test_train_and_test_blocks_are_views_and_n_train_is_range_checked():
    ds = synth_generate(SynthSpec(seen=3, unseen=2, attr_dim=2, feature_dim=COLS, per_class=2, seed=4))
    assert np.shares_memory(ds.train_features, ds.features)
    assert np.shares_memory(ds.test_features, ds.features)
    assert ds.n_train == 6
    side = (ds.attributes, ds.seen_classes, ds.unseen_classes)
    assert Dataset(ds.features, ds.labels, 0, *side).test_features.shape[0] == 10
    for n_train in (-1, 11):
        with pytest.raises(DgzslError, match=f"n_train must be in 0..10, got {n_train}$"):
            Dataset(ds.features, ds.labels, n_train, *side)


def _export_fixture(tmp_path, rows_per_class, feature_dim, hidden):
    spec = SynthSpec(seen=3, unseen=2, attr_dim=2, feature_dim=feature_dim, per_class=rows_per_class, seed=6)
    save_dataset(synth_generate(spec), tmp_path / "data")
    model = init_model(np.random.default_rng(7), feature_dim, 2, 3, hidden, 0.8)
    save_model(tmp_path / "model.ckpt", model)
    d = tmp_path / "data"
    return load_dataset(d), model


def test_export_matches_a_whole_array_pass(small_blocks, tmp_path):
    """Eval-mode forward treats rows independently, and each block has at
    least two rows, so BLAS runs the same kernel on a block as on the whole
    array (a one-row product would go through matrix-vector code)."""
    ds, _ = _export_fixture(tmp_path, 2, COLS, (8,))
    assert ds.features.shape[0] == 10 and len(row_blocks(10, COLS, 4)) == 4
    model = load_model(tmp_path / "model.ckpt")  # the float32-rounded model
    latents = encode(ds.features, model).mean
    recons = decode(latents, model)
    export_embeddings(tmp_path / "model.ckpt", tmp_path / "data", tmp_path / "emb")
    assert (tmp_path / "emb" / "latents.bin").read_bytes() == whole_matrix_bytes(latents)
    assert (tmp_path / "emb" / "recons.bin").read_bytes() == whole_matrix_bytes(recons)
    assert sorted(p.name for p in (tmp_path / "emb").iterdir()) == ["latents.bin", "recons.bin"]


def checkpoint_of(path, model, *, reverse=False):
    """Saves ``model`` as ``train`` does (save_model), then with ``reverse``
    rewrites its entries in reverse order."""
    save_model(path, model)
    if reverse:
        tensors, meta = load_checkpoint(path)
        save_checkpoint(path, dict(reversed(tensors.items())), meta=meta)


def wide_checkpoint_of(path, dtype=np.float64, hidden=(1024, 1024)):
    """Saves a COLS-feature model with ``hidden`` widths: larger than one
    Adam block in either dtype, so a pass on two threads lends dense a
    worker, which takes the second row half of each 1024×1024 product of
    two rows a half or more."""
    model = init_model(np.random.default_rng(7), COLS, 2, 3, hidden, 0.8, dtype=dtype)
    assert model.flat.nbytes > optim._BLOCK_BYTES
    checkpoint_of(path, model)


@pytest.fixture
def products(monkeypatch):
    """The (rows, width) of each product autodiff._product makes, in call
    order."""
    made, product = [], autodiff._product

    def spy(a, b, out=None):
        made.append((a.shape[0], b.shape[1]))
        return product(a, b, out)

    monkeypatch.setattr(autodiff, "_product", spy)
    return made


@pytest.mark.parametrize("reverse", [False, True], ids=["layout-order", "reversed"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_checkpoint_is_read_into_the_model_it_holds(small_blocks, tmp_path, dtype, reverse):
    # the small blocks split the 11-row encoder weight across four reads
    model = init_model(np.random.default_rng(8), ROWS, 3, COLS, (COLS,), 0.8, dtype=dtype)
    checkpoint_of(tmp_path / "m.ckpt", model, reverse=reverse)
    loaded = load_model(tmp_path / "m.ckpt")
    assert loaded.layout.entries == model.layout.entries and loaded.keep_prob == np.float32(0.8)
    # the tensors are stored as float32 and cast into the model's dtype
    assert loaded.flat.dtype == dtype
    assert loaded.flat.tobytes() == model.flat.astype(np.float32).astype(dtype).tobytes()
    if dtype == np.float32:
        assert loaded.flat.tobytes() == model.flat.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_checkpoint_is_read_holding_the_flat_vector_and_one_stage(tmp_path, dtype):
    """A float32 body is read straight into its slice of the flat vector, a
    float64 one through one float32 stage as tall as the tensor; no tensor is
    held beside the vector."""
    model = init_model(np.random.default_rng(9), 256, 16, 32, (256, 256), 0.8, dtype=dtype)
    checkpoint_of(tmp_path / "m.ckpt", model)
    loaded, peak = traced_peak(load_model, tmp_path / "m.ckpt")
    stage = 4 * max(np.prod(shape) for _, shape, _ in model.layout.entries)
    tensors = 4 * model.layout.size  # what per-tensor float32 arrays would hold
    # a block is checked through a boolean mask a quarter of its size
    assert peak < loaded.flat.nbytes + 2 * stage < loaded.flat.nbytes + tensors


def test_load_matrix_holds_the_result_and_at_most_two_blocks(monkeypatch, tmp_path):
    monkeypatch.setattr(serialize, "_BLOCK_BYTES", 1 << 16)
    arr = np.random.default_rng(3).normal(size=(3000, 64))
    path = tmp_path / "big.bin"
    save_matrix(path, arr)
    loaded, peak = traced_peak(load_matrix, path)
    assert loaded.shape == arr.shape
    assert peak < loaded.nbytes + 2 * serialize._BLOCK_BYTES


def test_load_matrix_in_float32_holds_the_result_and_less_than_one_block(monkeypatch, tmp_path):
    # the blocks are read into the result itself, not through a stage
    monkeypatch.setattr(serialize, "_BLOCK_BYTES", 1 << 16)
    arr = np.random.default_rng(3).normal(size=(3000, 64))
    path = tmp_path / "big.bin"
    save_matrix(path, arr)
    loaded, peak = traced_peak(load_matrix, path, np.float32)
    assert loaded.tobytes() == load_matrix(path).astype(np.float32).tobytes()
    block = row_blocks(*arr.shape, 4)[0]
    assert peak < loaded.nbytes + (block.stop - block.start) * arr.shape[1] * loaded.itemsize


@pytest.mark.parametrize(
    "out, existing",
    [("emb", False), ("emb", True), ("new2/deep/emb", False)],
    ids=["new-dir", "existing-dir", "nested-new-dirs"],
)
def test_export_failing_in_its_last_block_leaves_no_outputs(small_blocks, tmp_path, out, existing):
    ds, _ = _export_fixture(tmp_path, 2, COLS, (8,))
    assert len(row_blocks(10, COLS, 4)) == 4
    bad = ds.features.copy()
    bad[9, 1] = np.nan  # the last of four blocks, after three were written
    save_matrix(tmp_path / "data" / "features.bin", bad)
    out = tmp_path / out
    if existing:
        out.mkdir()
    with pytest.raises(DataFormatError, match="non-finite value nan at row 9, column 1$"):
        export_embeddings(tmp_path / "model.ckpt", tmp_path / "data", out)
    if existing:
        assert list(out.iterdir()) == []
    else:
        assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "model.ckpt"]


@pytest.mark.filterwarnings("error")  # an overflow is reported by the checks, not as a warning
@pytest.mark.parametrize("command", ["eval", "export"])
def test_a_non_finite_posterior_names_the_file_and_the_files_row(small_blocks, tmp_path, capsys, command):
    """Feature row 1500 at 3e38 overflows a float32 encoder. The reader hands
    that row over inside a block of a few rows, and the test split starts at
    row 1200; export names latents.bin, eval names features.bin, and both
    name the map and the row counted from the file's first row."""
    ds = synth_generate(SynthSpec(seen=3, unseen=2, attr_dim=2, feature_dim=COLS, per_class=400, seed=6))
    save_dataset(ds, tmp_path / "data")
    features = ds.features.copy()
    features[1500] = 3e38
    save_matrix(tmp_path / "data" / "features.bin", features)
    checkpoint_of(tmp_path / "model.ckpt", init_model(np.random.default_rng(7), COLS, 2, 3, (8,), 0.8, dtype=np.float32))
    assert ds.n_train == 1200 and 1500 not in [s.start for s in row_blocks(ds.features.shape[0], COLS, 4)]
    out = tmp_path / "emb"
    argv = ["--checkpoint", str(tmp_path / "model.ckpt"), "--data", str(tmp_path / "data")]
    named = {"eval": ([], tmp_path / "data" / "features.bin"), "export": (["--out", str(out)], out / "latents.bin")}
    rest, path = named[command]
    rc = main([command, *argv, *rest])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert re.fullmatch(
        rf"error: {re.escape(str(path))}: posterior mean: "
        r"non-finite value (-?inf|nan) at row 1500, column [0-2]\n",
        captured.err,
    )
    assert not out.exists()


def test_export_holds_model_latents_and_a_few_blocks(monkeypatch, tmp_path):
    monkeypatch.setattr(serialize, "_BLOCK_BYTES", 1 << 16)
    ds, model = _export_fixture(tmp_path, 800, 64, (64, 64))
    _, peak = traced_peak(export_embeddings, tmp_path / "model.ckpt", tmp_path / "data", tmp_path / "emb")
    rows = ds.features.shape[0]
    whole = model.flat.nbytes + rows * model.layout.latent_dim * 8
    labels = ds.labels.nbytes
    # activations of one block: the hidden layers here are as wide as the
    # features, and a block's reconstruction is cast to float32 on its way out
    block = row_blocks(rows, 64, 4)[0]
    activation = (block.stop - block.start) * 64 * 8
    assert peak < whole + labels + 6 * activation < ds.features.nbytes


def test_eval_holds_the_model_and_a_few_blocks(monkeypatch, tmp_path):
    monkeypatch.setattr(serialize, "_BLOCK_BYTES", 1 << 16)
    ds, model = _export_fixture(tmp_path, 800, 64, (8,))
    report, peak = traced_peak(run_eval, tmp_path / "model.ckpt", tmp_path / "data", "all")
    assert report["examples"] == ds.test_labels.size == 1600
    # the labels are read as two files, then joined; a block is held as the
    # reader's float32 stage and cast to float64 for the encoder
    kept = model.flat.nbytes + 2 * ds.labels.nbytes
    # the test block (1,600 rows, 819 KB) would not fit under the bound
    assert peak < kept + 4 * serialize._BLOCK_BYTES < ds.test_features.nbytes


@pytest.mark.parametrize("test", [test_export_holds_model_latents_and_a_few_blocks, test_eval_holds_the_model_and_a_few_blocks])
def test_scoring_on_two_threads_holds_the_same_bounds(monkeypatch, tmp_path, threads, test):
    """Two threads score one block at a time: the reader's next block waits
    until every product of this one is done."""
    threads(2)
    test(monkeypatch, tmp_path)


def _row_independence_fixture(tmp_path, order):
    """Saves a 5-class dataset whose test rows (and their labels) are put
    in ``order`` (None keeps them); returns (its directory, the dataset in
    its original order)."""
    ds = synth_generate(SynthSpec(seen=3, unseen=2, attr_dim=2, feature_dim=COLS, per_class=4, seed=6))
    first = ds.n_train
    rows = np.arange(ds.labels.size)
    if order is not None:
        rows[first:] = first + order
    side = (ds.attributes, ds.seen_classes, ds.unseen_classes)
    data = tmp_path / ("data" if order is None else "permuted")
    save_dataset(Dataset(ds.features[rows], ds.labels[rows], first, *side), data)
    return data, ds


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_rows_are_scored_and_exported_independently_of_their_order(small_blocks, tmp_path, dtype):
    """Test rows in a permuted order land in other blocks at other offsets:
    every eval report keeps its bytes, and every exported row moves with
    its feature row, bit for bit."""
    data, ds = _row_independence_fixture(tmp_path, None)
    order = np.random.default_rng(12).permutation(ds.labels.size - ds.n_train)
    permuted, _ = _row_independence_fixture(tmp_path, order)
    assert len(row_blocks(ds.labels.size, COLS, 4)) > 3
    checkpoint_of(tmp_path / "model.ckpt", init_model(np.random.default_rng(7), COLS, 2, 3, (8,), 0.8, dtype=dtype))
    outputs = {}
    for d in (data, permuted):
        argv = ["--checkpoint", str(tmp_path / "model.ckpt"), "--data", str(d)]
        for pool in ("all", "seen", "unseen"):
            assert main(["eval", *argv, "--candidates", pool, "--out", str(d / f"{pool}.json")]) == 0
        assert main(["export", *argv, "--out", str(d / "emb")]) == 0
        outputs[d] = {p.name: p.read_bytes() for p in d.glob("*.json")}
        for name in ("latents.bin", "recons.bin"):
            outputs[d][name] = load_matrix(d / "emb" / name, np.float32)
    for pool in ("all", "seen", "unseen"):
        assert outputs[permuted][f"{pool}.json"] == outputs[data][f"{pool}.json"]
    rows = np.concatenate([np.arange(ds.n_train), ds.n_train + order])
    for name in ("latents.bin", "recons.bin"):
        assert outputs[permuted][name].tobytes() == outputs[data][name][rows].tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_relabelled_classes_are_scored_with_their_ids_mapped_and_exported_alike(small_blocks, tmp_path, dtype):
    """The model sees a class only through its attribute row, so renaming
    the classes by a permutation that interleaves the seen ids (now 1, 2
    and 4) with the unseen ones (0 and 3) maps every eval report's ids
    through it, with the same accuracy, and export, which reads no class
    id, keeps its bytes."""
    ds = synth_generate(SynthSpec(seen=3, unseen=2, attr_dim=2, feature_dim=COLS, per_class=4, seed=6))
    new_id = np.array([1, 4, 2, 0, 3])  # old class id -> new
    renamed = relabelled(ds, new_id)
    assert (renamed.seen_classes, renamed.unseen_classes) == ((1, 2, 4), (0, 3))
    save_dataset(ds, tmp_path / "data")
    save_dataset(renamed, tmp_path / "renamed")
    checkpoint_of(tmp_path / "model.ckpt", init_model(np.random.default_rng(7), COLS, 2, 3, (8,), 0.8, dtype=dtype))
    reports, exported = {}, {}
    for name in ("data", "renamed"):
        argv = ["--checkpoint", str(tmp_path / "model.ckpt"), "--data", str(tmp_path / name)]
        for pool in ("all", "seen", "unseen"):
            out = tmp_path / f"{name}-{pool}.json"
            assert main(["eval", *argv, "--candidates", pool, "--out", str(out)]) == 0
            reports[name, pool] = json.loads(out.read_text())
        assert main(["export", *argv, "--out", str(tmp_path / f"{name}-emb")]) == 0
        exported[name] = [(tmp_path / f"{name}-emb" / f).read_bytes() for f in ("latents.bin", "recons.bin")]
    assert exported["renamed"] == exported["data"]
    for pool in ("all", "seen", "unseen"):
        old, renamed = reports["data", pool], reports["renamed", pool]
        assert renamed["accuracy"] == old["accuracy"] and renamed["examples"] == old["examples"]
        assert renamed["candidates"] == sorted(new_id[old["candidates"]].tolist())
        assert renamed["confusion"] == {
            str(new_id[int(true)]): {str(new_id[int(p)]): n for p, n in row.items()} for true, row in old["confusion"].items()
        }
    assert len(reports["data", "all"]["confusion"]) == 2  # the test rows are of the two unseen classes


def _score_a_test_split_starting_on_the_last_row_of_a_block(tmp_path, monkeypatch, dtype, hidden=(8,)) -> tuple:
    """Scores a test split whose first row, n_train = 15, is the last row of
    the reader block 13..16; checks that the report is that of one
    whole-test-block pass, and returns (the KL rows of each scoring call, in
    call order; the KL rows of the whole pass). The model has 64 features
    and ``hidden`` widths."""
    monkeypatch.setattr(serialize, "_BLOCK_BYTES", 3 * 4 * 64)  # 3 rows a block, as under small_blocks
    ds, _ = _export_fixture(tmp_path, 5, 64, (8,))
    assert ds.n_train == 15 and slice(13, 16) in row_blocks(ds.labels.size, 64, 4)
    checkpoint_of(tmp_path / "model.ckpt", init_model(np.random.default_rng(7), 64, 2, 3, hidden, 0.8, dtype=dtype))
    model = load_model(tmp_path / "model.ckpt")
    attrs, ids = ds.attributes.astype(dtype), np.arange(5)
    predicted, whole, _ = predict_batch(ds.test_features.astype(dtype), ids, attrs, model)
    scored, score = [], train.closest_prior

    def spy(q, *args):
        labels, scores = score(q, *args)
        scored.append(scores)
        return labels, scores

    monkeypatch.setattr(train, "closest_prior", spy)
    report = run_eval(tmp_path / "model.ckpt", tmp_path / "data", "all")
    assert report == {
        "accuracy": float(np.mean(predicted == ds.test_labels)),
        "examples": 10,
        "candidates": ids.tolist(),
        "confusion": confusion_counts(ds.test_labels, predicted),
    }
    return scored, whole


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_test_split_starting_on_the_last_row_of_a_block_is_scored_as_a_whole_pass(tmp_path, monkeypatch, dtype):
    """n_train = 15 is the last row of the reader block 13..16, so eval
    carries that row into the next block: no scoring call gets one row (a
    one-row product goes through BLAS matrix-vector code, which rounds these
    64-wide rows differently), the KL rows are those of one whole-test-block
    pass, and so is the report."""
    scored, whole = _score_a_test_split_starting_on_the_last_row_of_a_block(tmp_path, monkeypatch, dtype)
    assert [s.shape[0] for s in scored] == [4, 3, 3]
    assert np.concatenate(scored).tobytes() == whole.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_carried_row_on_two_threads_makes_no_one_row_product(tmp_path, monkeypatch, threads, products, dtype):
    """A model whose 64×8,192 first layer takes over 100³ multiply-adds for
    two rows: on two threads the 4-row block that carries row 15 multiplies
    it as two halves of two rows, the 3-row blocks keep it whole (a half
    would be one row), and no product has one row. The KL rows are those
    of one thread. (Its width-3 heads over 8,192 inputs round each row
    count otherwise, so here no block matches the whole pass bit for bit.)"""
    scored, layers = {}, {}
    for n in (1, 2):
        threads(n)
        products.clear()
        (tmp_path / str(n)).mkdir()
        with monkeypatch.context() as m:  # so each pass spies on closest_prior alone
            scored[n], _ = _score_a_test_split_starting_on_the_last_row_of_a_block(tmp_path / str(n), m, dtype, (8192,))
        layers[n] = [rows for rows, width in products if width == 8192]
        assert min(rows for rows, _ in products) >= 2
    assert [s.shape[0] for s in scored[2]] == [4, 3, 3]
    assert [s.tobytes() for s in scored[2]] == [s.tobytes() for s in scored[1]]
    # the whole pass of 10 rows, then the blocks
    assert layers[1] == [10, 4, 3, 3] and layers[2] == [10, 2, 2, 3, 3]


def _encoded_rows_of_a_wide_export(tmp_path, monkeypatch, dtype) -> list:
    """Exports 1,000 rows of 2,048 features, checks that the files hold the
    bytes of a whole-array pass, and returns the row count of each encode
    call."""
    ds, _ = _export_fixture(tmp_path, 200, 2048, (8,))
    assert ds.features.shape == (1000, 2048)
    model = init_model(np.random.default_rng(10), 2048, 2, 3, (8,), 0.8, dtype=dtype)
    checkpoint_of(tmp_path / "model.ckpt", model)
    rows = []

    def counting_encode(x, m):
        rows.append(x.shape[0])
        return encode(x, m)

    monkeypatch.setattr(train, "encode", counting_encode)
    export_embeddings(tmp_path / "model.ckpt", tmp_path / "data", tmp_path / "emb")
    loaded = load_model(tmp_path / "model.ckpt")
    latents = encode(ds.features.astype(dtype), loaded).mean
    assert (tmp_path / "emb" / "latents.bin").read_bytes() == whole_matrix_bytes(latents)
    assert (tmp_path / "emb" / "recons.bin").read_bytes() == whole_matrix_bytes(decode(latents, loaded))
    return rows


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_wide_export_multiplies_500_row_blocks_and_matches_a_whole_array_pass(tmp_path, monkeypatch, dtype):
    """A reader's block is _BLOCK_BYTES of the float32 rows it holds: 1,000
    rows of 2,048 features reach the encoder as two 500-row blocks, not as
    four of 250, so each product packs its weights over twice the rows."""
    assert _encoded_rows_of_a_wide_export(tmp_path, monkeypatch, dtype) == [500, 500]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_wide_export_on_two_threads_cuts_500_row_products_into_250_row_halves_with_the_same_bytes(
    tmp_path, threads, products, dtype
):
    """Hidden width 512 over 1,000 rows of 2,048 features: each 500-row
    block is encoded whole, and on two threads dense cuts its 2,048×512 and
    512×2,048 products into 250-row halves. The width-3 heads and the 3×512
    decoder layer (250 × 1,536 multiply-adds a half) stay whole, as BLAS
    would round their halves otherwise. The files hold the bytes of one
    thread."""
    _export_fixture(tmp_path, 200, 2048, (8,))
    checkpoint_of(tmp_path / "model.ckpt", init_model(np.random.default_rng(10), 2048, 2, 3, (512,), 0.8, dtype=dtype))
    exported, made = {}, {}
    for n in (1, 2):
        threads(n)
        products.clear()
        export_embeddings(tmp_path / "model.ckpt", tmp_path / "data", tmp_path / f"emb-{n}")
        exported[n] = [(tmp_path / f"emb-{n}" / name).read_bytes() for name in ("latents.bin", "recons.bin")]
        made[n] = list(products)
    assert exported[2] == exported[1]
    assert made[1] == 2 * [(500, 512), (500, 3), (500, 3), (500, 512), (500, 2048)]
    assert made[2] == 2 * [(250, 512), (250, 512), (500, 3), (500, 3), (500, 512), (250, 2048), (250, 2048)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_heads_of_10_to_the_6_multiply_adds_a_half_export_and_score_the_bytes_of_one_thread(tmp_path, threads, dtype):
    """Hidden width 500 and latent 8 over 1,000 rows of 2,048 features, two
    500-row reader blocks: a 250-row half of a head product takes 250 × 500
    × 8 = 10⁶ multiply-adds, which OpenBLAS's small-matrix kernels round
    otherwise than the whole block, so those products stay whole. On two
    threads export writes the latents.bin and recons.bin of one, and
    eval --candidates all the same report."""
    ds, _ = _export_fixture(tmp_path, 200, 2048, (8,))
    assert len(row_blocks(*ds.features.shape, 4)) == 2
    checkpoint_of(tmp_path / "model.ckpt", init_model(np.random.default_rng(11), 2048, 2, 8, (500,), 0.8, dtype=dtype))
    argv = ["--checkpoint", str(tmp_path / "model.ckpt"), "--data", str(tmp_path / "data")]
    outputs = {}
    for n in (1, 2):
        threads(n)
        out = tmp_path / f"threads-{n}"
        out.mkdir()
        assert main(["eval", *argv, "--candidates", "all", "--out", str(out / "eval.json")]) == 0
        assert main(["export", *argv, "--out", str(out / "emb")]) == 0
        outputs[n] = [(out / name).read_bytes() for name in ("eval.json", "emb/latents.bin", "emb/recons.bin")]
    assert outputs[2] == outputs[1]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("block_rows", [3, 8], ids=["3-row-blocks", "8-row-blocks"])
def test_eval_and_export_write_the_same_bytes_on_one_and_two_threads(tmp_path, monkeypatch, threads, products, dtype, block_rows):
    """20 rows with n_train = 12. In blocks of at most 8 rows (6, 7, 7) each
    block is encoded whole on either thread count, and eval's lone row 12
    is carried into the last block, which it scores as 8 rows; two threads
    cut the 1024×1024 products into halves of three rows or more. In blocks
    of at most 3 (as under small_blocks) a half would be one row, so every
    product stays whole. Reports and exports keep their bytes."""
    monkeypatch.setattr(serialize, "_BLOCK_BYTES", block_rows * 4 * COLS)
    data, ds = _row_independence_fixture(tmp_path, None)
    assert ds.labels.size == 20 and ds.n_train == 12
    wide_checkpoint_of(tmp_path / "model.ckpt", dtype)
    argv = ["--checkpoint", str(tmp_path / "model.ckpt"), "--data", str(data)]
    rows = []

    def counting_encode(x, m):
        rows.append(x.shape[0])
        return encode(x, m)

    monkeypatch.setattr(train, "encode", counting_encode)
    outputs, encoded, halves = {}, {}, {}
    for n in (1, 2):
        threads(n)
        rows.clear()
        products.clear()
        out = tmp_path / f"threads-{n}"
        out.mkdir()
        for pool in ("all", "seen", "unseen"):
            assert main(["eval", *argv, "--candidates", pool, "--out", str(out / f"{pool}.json")]) == 0
        assert main(["export", *argv, "--out", str(out / "emb")]) == 0
        outputs[n] = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.*"))}
        encoded[n], halves[n] = list(rows), sorted({r for r, _ in products} - set(rows))
    assert len(outputs[1]) == 5 and outputs[2] == outputs[1]
    eval_rows = 3 * [8] if block_rows == 8 else 3 * [2, 3, 3]
    export_rows = [6, 7, 7] if block_rows == 8 else [2, 3, 3, 3, 3, 3, 3]
    assert sorted(encoded[1]) == sorted(eval_rows + export_rows) and encoded[2] == encoded[1]
    assert halves[1] == [] and halves[2] == ([3, 4] if block_rows == 8 else [])


def test_more_threads_than_cores_switching_often_write_the_bytes_of_one(tmp_path, monkeypatch, threads):
    """A thread count of eight lends dense its one worker, as two do. With
    the interpreter switching threads every 10 µs, the two halves of each
    product write disjoint rows of one output, so no write is lost and the
    bytes are those of one thread."""
    monkeypatch.setattr(serialize, "_BLOCK_BYTES", 40 * 4 * COLS)  # 400 rows in ten blocks, halves of 20 rows
    _export_fixture(tmp_path, 80, COLS, (8,))
    wide_checkpoint_of(tmp_path / "model.ckpt")
    argv = ["--checkpoint", str(tmp_path / "model.ckpt"), "--data", str(tmp_path / "data")]
    outputs = {}
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        for n in (1, 8):
            threads(n)
            out = tmp_path / f"threads-{n}"
            out.mkdir()
            assert main(["eval", *argv, "--candidates", "all", "--out", str(out / "eval.json")]) == 0
            assert main(["export", *argv, "--out", str(out / "emb")]) == 0
            outputs[n] = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.*"))}
    finally:
        sys.setswitchinterval(interval)
    assert len(outputs[1]) == 3 and outputs[8] == outputs[1]


@pytest.mark.filterwarnings("error")  # an overflow is reported by the checks, not as a warning
@pytest.mark.parametrize("bad", [(1510, 1560), (1560,)], ids=["both-halves", "second-half"])
@pytest.mark.parametrize("command", ["eval", "export"])
def test_a_non_finite_posterior_on_two_threads_names_the_lowest_row_and_stops_the_threads(
    tmp_path, monkeypatch, capsys, threads, command, bad
):
    """2,000 rows in 100-row blocks: rows 1500..1549 are the first half of
    a block, whose 1024×1024 products the calling thread makes, and rows
    1550..1599 the second, made by the worker under the caller's
    np.errstate. The 8-wide first layer overflows to inf on a bad row, as
    in the small models. The lowest bad row is named; no new file is left,
    and no thread outlives the call."""
    threads(2)
    monkeypatch.setattr(serialize, "_BLOCK_BYTES", 100 * 4 * COLS)
    ds = synth_generate(SynthSpec(seen=3, unseen=2, attr_dim=2, feature_dim=COLS, per_class=400, seed=6))
    save_dataset(ds, tmp_path / "data")
    features = ds.features.copy()
    features[list(bad)] = 3e38
    save_matrix(tmp_path / "data" / "features.bin", features)
    wide_checkpoint_of(tmp_path / "model.ckpt", np.float32, (8, 1024, 1024))
    assert slice(1500, 1600) in row_blocks(ds.labels.size, COLS, 4)
    out = tmp_path / "emb"
    argv = ["--checkpoint", str(tmp_path / "model.ckpt"), "--data", str(tmp_path / "data")]
    named = {"eval": ([], tmp_path / "data" / "features.bin"), "export": (["--out", str(out)], out / "latents.bin")}
    rest, path = named[command]
    before = threading.active_count()
    rc = main([command, *argv, *rest])
    assert threading.active_count() == before
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert re.fullmatch(
        rf"error: {re.escape(str(path))}: posterior mean: "
        rf"non-finite value (-?inf|nan) at row {bad[0]}, column [0-2]\n",
        captured.err,
    )
    assert not out.exists()


@pytest.mark.parametrize("existing", [False, True], ids=["new-dir", "old-outputs"])
def test_a_full_disk_stops_a_two_thread_export_before_it_encodes_a_row(tmp_path, monkeypatch, fallocate, capsys, threads, existing):
    threads(2)
    monkeypatch.setattr(serialize, "_BLOCK_BYTES", 4 * 4 * COLS)  # 10 rows in three blocks
    before = threading.active_count()
    test_a_full_disk_stops_export_before_it_encodes_a_row(tmp_path, monkeypatch, fallocate, capsys, existing)
    assert threading.active_count() == before


def test_a_pass_starts_a_thread_only_for_a_model_larger_than_one_adam_block(tmp_path, monkeypatch, threads):
    """On two threads, a model no larger than one Adam block (every synth
    model) starts no thread, even on a file of several reader blocks; a
    larger one starts one worker a pass, even on a file of one block, and
    keeps the bytes of one thread."""
    made, executor = [], futures.ThreadPoolExecutor

    def pool(workers):
        made.append(workers)
        return executor(workers)

    monkeypatch.setattr(futures, "ThreadPoolExecutor", pool)
    _export_fixture(tmp_path, 2, COLS, (8,))
    args = (tmp_path / "model.ckpt", tmp_path / "data")
    with monkeypatch.context() as m:
        m.setattr(serialize, "_BLOCK_BYTES", 4 * 4 * COLS)  # three blocks
        threads(2)
        before = threading.active_count()
        run_eval(*args, "all")
        export_embeddings(*args, tmp_path / "emb")
        assert made == [] and threading.active_count() == before
    wide_checkpoint_of(tmp_path / "model.ckpt")
    assert len(row_blocks(10, COLS, 4)) == 1
    outputs = {}
    for n in (1, 2):
        threads(n)
        report = run_eval(*args, "all")
        export_embeddings(*args, tmp_path / f"emb-{n}")
        outputs[n] = report, [(tmp_path / f"emb-{n}" / f).read_bytes() for f in ("latents.bin", "recons.bin")]
    assert made == [1, 1] and threading.active_count() == before
    assert outputs[2] == outputs[1]


def test_a_writer_failing_mid_export_on_two_threads_leaves_no_thread_and_no_file(tmp_path, monkeypatch, threads):
    """20 rows in blocks of 6, 7 and 7, and a float64 model whose
    reconstructions float32 cannot hold: save_rows raises while the scoring
    generator waits at a yield, and the pass's worker is shut down on the
    way out, even while the traceback holds the generator's frame."""
    threads(2)
    monkeypatch.setattr(serialize, "_BLOCK_BYTES", 8 * 4 * COLS)
    data, ds = _row_independence_fixture(tmp_path, None)
    assert ds.labels.size == 20 and row_blocks(20, COLS, 4) == [slice(0, 6), slice(6, 13), slice(13, 20)]
    model = init_model(np.random.default_rng(7), COLS, 2, 3, (1024, 1024), 0.8)
    model["dec.h1.b"][...] = 1
    model["dec.out.w"][...] = 1e38
    model["dec.out.b"][...] = 3e38
    save_model(tmp_path / "model.ckpt", model)
    before = threading.active_count()
    with pytest.raises(DataFormatError, match="does not fit in float32") as raised:
        export_embeddings(tmp_path / "model.ckpt", data, tmp_path / "emb")
    assert raised.traceback and threading.active_count() == before
    assert not (tmp_path / "emb").exists()


@pytest.mark.parametrize(
    "env, cores, count",
    [
        ({}, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
        ({"OMP_NUM_THREADS": "1"}, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "2"}, 64, 1),
        ({"OPENBLAS_NUM_THREADS": "8"}, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "0"}, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "-1"}, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "two"}, 4, 1),
        ({"OPENBLAS_NUM_THREADS": ""}, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, None, 1),
        ({"OPENBLAS_NUM_THREADS": "\u0661"}, 4, 1),
        ({"OMP_NUM_THREADS": "\u0661"}, 4, 1),
    ],
    ids=[
        "unset", "openblas-1", "openblas-1-2-cores", "openblas-1-1-core", "omp-1", "openblas-first",
        "2-of-64-cores", "8", "0", "negative", "malformed", "empty", "no-affinity",
        "openblas-non-ascii", "omp-non-ascii",
    ],
)
def test_two_threads_score_only_where_one_blas_thread_leaves_a_core_free(monkeypatch, env, cores, count):
    """Two threads, the measured case, where one BLAS thread per product is
    pinned and there are two cores or more; else one. BLAS
    threads that are unset, unparsable or 0 mean a BLAS thread per core, and
    so does an Arabic-Indic one, which int() reads as 1 and OpenBLAS's atoi
    as 0. Without os.sched_getaffinity (off Linux) the count is one."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    if cores is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    assert THREADS() == count


def test_a_malformed_blas_thread_count_scores_on_one_thread(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(train, "_threads", THREADS)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "two")
    monkeypatch.setattr(serialize, "_BLOCK_BYTES", 4 * 4 * COLS)  # 10 rows in three blocks
    monkeypatch.setattr(futures, "ThreadPoolExecutor", None)  # calling it would fail
    _export_fixture(tmp_path, 2, COLS, (8,))
    argv = ["--checkpoint", str(tmp_path / "model.ckpt"), "--data", str(tmp_path / "data")]
    assert main(["eval", *argv]) == 0
    assert main(["export", *argv, "--out", str(tmp_path / "emb")]) == 0
    assert capsys.readouterr().err == ""


def test_a_float64_writer_casts_at_most_256_rows_of_a_wide_matrix_at_a_time(tmp_path):
    """A writer's block is _BLOCK_BYTES of the float64 source it is cut from,
    so its float32 cast stays at half of that."""
    arr = np.random.default_rng(11).normal(size=(1000, 2048))
    _, peak = traced_peak(save_matrix, tmp_path / "m.bin", arr)
    assert peak < 256 * 2048 * 4
    assert (tmp_path / "m.bin").read_bytes() == whole_matrix_bytes(arr)


def _write_row_file(path, arr):
    save_rows(path, arr.shape, (arr[s] for s in row_blocks(*arr.shape, arr.itemsize)))


def _write_checkpoint_file(path, arr):
    save_checkpoint(path, {"w": arr, "µ.bias": arr[:1]}, meta={"keep_prob": 0.5, "float_bits": 32})


def _write_text_file(path, arr):
    # µ takes two bytes in UTF-8, so a size counted in characters falls short
    save_text(path, f"µ {arr.tolist()}\n")


def _write_label_file(path, arr):
    write_labels(path, np.floor(100 * arr).ravel())


def _write_manifest_file(path, arr):
    ids = np.floor(100 * arr).astype(np.int64)
    write_manifest(path, ids[0], ids[1], "train_labels.txt", "test_labels.txt")


WRITERS = {
    "save_matrix": save_matrix,
    "save_rows": _write_row_file,
    "save_checkpoint": _write_checkpoint_file,
    "save_text": _write_text_file,
    "write_attribute_csv": write_attribute_csv,
    "write_labels": _write_label_file,
    "write_manifest": _write_manifest_file,
}


@pytest.fixture
def fallocate(monkeypatch):
    """Stands in for os.posix_fallocate: records the (offset, length) of each
    call in ``calls``, then makes it, or raises ``fails`` when a test sets
    it to an errno."""
    real = os.posix_fallocate

    def spy(fd, offset, length):
        spy.calls.append((offset, length))
        if spy.fails is not None:
            raise OSError(spy.fails, os.strerror(spy.fails))
        real(fd, offset, length)

    spy.calls, spy.fails = [], None
    monkeypatch.setattr(os, "posix_fallocate", spy)
    return spy


@pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS.keys())
def test_a_rewritten_file_holds_the_bytes_of_a_fresh_write(small_blocks, tmp_path, writer):
    arr = ragged()
    writer(tmp_path / "fresh", arr)
    writer(tmp_path / "old", 2 * np.ones((3, COLS)))
    writer(tmp_path / "old", arr)
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    assert old.read_bytes() == fresh.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "old"]


@pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS.keys())
def test_each_writer_preallocates_exactly_its_file(small_blocks, tmp_path, fallocate, writer):
    writer(tmp_path / "m", ragged())
    assert fallocate.calls == [(0, (tmp_path / "m").stat().st_size)]


def test_an_empty_file_is_written_and_rewritten_without_preallocating(tmp_path, fallocate, capsys):
    """posix_fallocate rejects a zero length with EINVAL: an empty label file
    and the metrics and timings of a zero-epoch run are written as they come,
    and every other file of the run is preallocated to its size."""
    _export_fixture(tmp_path, 2, COLS, (8,))
    fallocate.calls.clear()
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("latent_dim = 2\nhidden_dims = 8\nepochs = 0\n", encoding="utf-8")
    run = tmp_path / "run"
    for _ in range(2):
        write_labels(tmp_path / "empty.txt", [])
        assert main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"), "--out", str(run)]) == 0
    capsys.readouterr()
    assert (tmp_path / "empty.txt").read_bytes() == b""
    assert (run / "metrics.jsonl").read_bytes() == (run / "timings.jsonl").read_bytes() == b""
    assert sorted(p.name for p in run.iterdir()) == ["config.cfg", "metrics.jsonl", "model.ckpt", "summary.json", "timings.jsonl"]
    assert not list(tmp_path.rglob("*.tmp"))
    sized = [(0, (run / name).stat().st_size) for name in ("config.cfg", "model.ckpt", "summary.json")]
    assert fallocate.calls == 2 * sized


@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
def test_a_writer_that_misses_its_size_raises_naming_the_path(tmp_path, extra):
    """The preallocated file would be zero-padded where a writer stops
    short; the size check stops that file from replacing the old one."""
    path = tmp_path / "m.bin"
    save_matrix(path, ragged())
    old = path.read_bytes()
    with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: wrote {len(old) + extra} bytes, expected {len(old)}$"):
        with serialize._atomic_write(path, len(old)) as fh:
            fh.write(old[: len(old) + extra] + b"\0" * max(0, extra))
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["m.bin"]


def test_row_blocks_that_stop_short_name_the_path_and_keep_the_old_file(tmp_path):
    path = tmp_path / "m.bin"
    save_matrix(path, ragged())
    old = path.read_bytes()
    with pytest.raises(ShapeError, match=rf"^{re.escape(str(path))}: row blocks hold 2 rows, the header says {ROWS}$"):
        save_rows(path, (ROWS, COLS), iter([np.ones((2, COLS))]))
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["m.bin"]


@pytest.mark.parametrize("unsupported", ["EOPNOTSUPP", "ENOTSUP", "missing"])
@pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS.keys())
def test_a_filesystem_without_fallocate_gets_the_same_bytes(small_blocks, tmp_path, monkeypatch, fallocate, writer, unsupported):
    writer(tmp_path / "preallocated", ragged())
    if unsupported == "missing":
        monkeypatch.delattr(os, "posix_fallocate")
    else:
        fallocate.fails = getattr(errno, unsupported)
    writer(tmp_path / "plain", ragged())
    assert (tmp_path / "plain").read_bytes() == (tmp_path / "preallocated").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain", "preallocated"]


@pytest.mark.parametrize("existing", [False, True], ids=["new-dir", "old-outputs"])
def test_a_full_disk_stops_export_before_it_encodes_a_row(tmp_path, monkeypatch, fallocate, capsys, existing):
    _export_fixture(tmp_path, 2, COLS, (8,))
    out = tmp_path / "emb"
    old = {}
    if existing:
        out.mkdir()
        old = {name: f"old {name}".encode() for name in ("latents.bin", "recons.bin")}
        for name, body in old.items():
            (out / name).write_bytes(body)
    encodes = []
    monkeypatch.setattr(train, "encode", lambda *args: encodes.append(args))
    fallocate.fails = errno.ENOSPC
    rc = main(["export", "--checkpoint", str(tmp_path / "model.ckpt"), "--data", str(tmp_path / "data"), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{out / 'recons.bin'}'\n"
    assert encodes == []
    if existing:
        assert {p.name: p.read_bytes() for p in out.iterdir()} == old
    else:
        assert not out.exists()


def test_eval_out_preallocates_its_report_and_a_full_disk_keeps_the_old_one(tmp_path, fallocate, capsys):
    _export_fixture(tmp_path, 2, COLS, (8,))
    report = tmp_path / "eval.json"
    argv = ["eval", "--checkpoint", str(tmp_path / "model.ckpt"), "--data", str(tmp_path / "data"), "--out", str(report)]
    fallocate.calls.clear()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == report.read_bytes()
    assert fallocate.calls == [(0, report.stat().st_size)]
    report.write_bytes(b"old eval.json")
    fallocate.fails = errno.ENOSPC
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{report}'\n"
    assert report.read_bytes() == b"old eval.json"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "eval.json", "model.ckpt"]


def test_an_os_error_of_the_writer_keeps_its_own_file_name(tmp_path):
    """Only an error opening or renaming the temp file is renamed to the
    target: one raised by the code that writes the body names its own file."""
    source = tmp_path / "missing" / "input.bin"
    with pytest.raises(FileNotFoundError) as exc:
        with serialize._atomic_write(tmp_path / "m.bin", 4):
            open(source, "rb")
    assert exc.value.filename == str(source)
    assert list(tmp_path.iterdir()) == []


def unguarded_writes(path: Path) -> list[int]:
    """Lines of the module at ``path`` that write a file other than through
    serialize._atomic_write: an ``open(file, mode)`` or ``Path.open(mode)``
    whose mode holds w, a, x or + (or is not a string literal), and every
    ``.write_text`` or ``.write_bytes`` call."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    inside = set()
    if path.name == "serialize.py":
        writer = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_atomic_write")
        inside = set(ast.walk(writer))
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or node in inside:
            continue
        name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        if name in ("write_text", "write_bytes"):
            lines.append(node.lineno)
        elif name == "open":
            at = 1 if isinstance(node.func, ast.Name) else 0
            mode = node.args[at] if len(node.args) > at else next((k.value for k in node.keywords if k.arg == "mode"), None)
            read_only = mode is None or (
                isinstance(mode, ast.Constant) and isinstance(mode.value, str) and not set(mode.value) & set("wax+")
            )
            if not read_only:
                lines.append(node.lineno)
    return lines


def test_every_output_file_of_the_package_goes_through_the_atomic_writer(tmp_path):
    sources = sorted(Path(serialize.__file__).parent.glob("*.py"))
    assert {p.name: unguarded_writes(p) for p in sources} == {p.name: [] for p in sources}
    probe = tmp_path / "probe.py"
    probe.write_text(
        'open(p)\nopen(p, "rb")\nPath(p).open()\nopen(p, "w")\nopen(p, mode="a")\n'
        'open(p, "r+b")\nPath(p).open("xb")\nopen(p, m)\np.write_text(t)\np.write_bytes(b)\n',
        encoding="utf-8",
    )
    assert unguarded_writes(probe) == [4, 5, 6, 7, 8, 9, 10]


def unnamed_public_names(root: Path) -> list[str]:
    """``module.name`` of each public top-level function or class of
    ``root/src/dgzsl/*.py`` that no module of ``src/dgzsl``, ``scripts`` or
    ``bench`` names apart from its definition: as a name, an attribute, an
    import or a string (the benchmark's tracer names what it wraps in
    strings). What the tests name does not count."""
    package = sorted((root / "src" / "dgzsl").glob("*.py"))
    fields = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name", ast.Constant: "value"}
    named = set()
    for path in [*package, *sorted((root / "scripts").glob("*.py")), *sorted((root / "bench").glob("*.py"))]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named.update(getattr(node, fields[type(node)]) for node in ast.walk(tree) if type(node) in fields)
    return [
        f"{path.stem}.{node.name}"
        for path in package
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_") and node.name not in named
    ]


def test_every_public_function_and_class_of_the_package_has_a_user_outside_the_tests(tmp_path):
    assert unnamed_public_names(Path(__file__).resolve().parents[1]) == []
    for folder, text in {
        "src/dgzsl": "class Used: pass\ndef kept(): pass\ndef unused(): pass\ndef _private(): pass\n",
        "scripts": "from dgzsl.probe import Used\n",
        "bench": "TRACED = ('probe', 'kept')\n",
        "tests": "from dgzsl.probe import unused\n",
    }.items():
        (tmp_path / folder).mkdir(parents=True)
        (tmp_path / folder / "probe.py").write_text(text, encoding="utf-8")
    assert unnamed_public_names(tmp_path) == ["probe.unused"]
