"""Matrix files, datasets and exports stream in row blocks: the bytes match a
whole-array pass at every block boundary, and memory stays bounded."""

import re
import struct
import tracemalloc

import numpy as np
import pytest

from dgzsl import serialize, train
from dgzsl.cli import main
from dgzsl.data import Dataset, SynthSpec, load_dataset, save_dataset, synth_generate
from dgzsl.errors import DataFormatError, DgzslError, ShapeError
from dgzsl.inference import predict_batch
from dgzsl.networks import decode, encode, init_model, model_from_named
from dgzsl.serialize import (
    CHECKPOINT_MAGIC,
    MATRIX_MAGIC,
    load_checkpoint,
    load_matrix,
    matrix_bytes,
    row_blocks,
    save_checkpoint,
    save_matrix,
    save_rows,
)
from dgzsl.train import _model_from_checkpoint, export_embeddings, run_eval

ROWS, COLS = 11, 5  # 11 rows in blocks of at most 3: 2, 3, 3, 3


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


def whole_matrix_bytes(arr) -> bytes:
    """The matrix-file layout built from one whole-array float32 cast."""
    a = np.asarray(arr, dtype=np.float64)
    return MATRIX_MAGIC + struct.pack("<II", *a.shape) + np.ascontiguousarray(a, "<f4").tobytes()


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
    expected = whole_matrix_bytes(arr)
    assert matrix_bytes(arr) == expected
    save_matrix(tmp_path / "m.bin", arr)
    assert (tmp_path / "m.bin").read_bytes() == expected
    # a transposed (column-major) input writes its row-major values
    assert matrix_bytes(arr.T) == whole_matrix_bytes(arr.T)


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
    save_checkpoint(tmp_path / "model.ckpt", model.named_arrays(), meta={"keep_prob": 0.8})
    d = tmp_path / "data"
    return load_dataset(d), model


def test_export_matches_a_whole_array_pass(small_blocks, tmp_path):
    """Eval-mode forward treats rows independently, and each block has at
    least two rows, so BLAS runs the same kernel on a block as on the whole
    array (a one-row product would go through matrix-vector code)."""
    ds, _ = _export_fixture(tmp_path, 2, COLS, (8,))
    assert ds.features.shape[0] == 10 and len(row_blocks(10, COLS, 4)) == 4
    tensors, meta = load_checkpoint(tmp_path / "model.ckpt")
    model = model_from_named(tensors, meta["keep_prob"])  # the float32-rounded model
    latents = encode(ds.features, model).mean
    recons = decode(latents, model)
    export_embeddings(tmp_path / "model.ckpt", tmp_path / "data", tmp_path / "emb")
    assert (tmp_path / "emb" / "latents.bin").read_bytes() == whole_matrix_bytes(latents)
    assert (tmp_path / "emb" / "recons.bin").read_bytes() == whole_matrix_bytes(recons)
    assert sorted(p.name for p in (tmp_path / "emb").iterdir()) == ["latents.bin", "recons.bin"]


def checkpoint_of(path, model, *, reverse=False):
    """Saves ``model`` as ``train`` would (float_bits for a float32 model),
    its biases given as 1×n rows, in layout order or reversed."""
    tensors = {name: a[None] if a.ndim == 1 else a for name, a in model.named_arrays().items()}
    meta = {"keep_prob": model.keep_prob}
    if model.flat.dtype == np.float32:
        meta["float_bits"] = 32
    save_checkpoint(path, dict(reversed(tensors.items())) if reverse else tensors, meta=meta)


@pytest.mark.parametrize("reverse", [False, True], ids=["layout-order", "reversed"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_checkpoint_is_read_into_the_model_as_model_from_named_copies_it(small_blocks, tmp_path, dtype, reverse):
    # the small blocks split the 11-row encoder weight across four reads
    model = init_model(np.random.default_rng(8), ROWS, 3, COLS, (COLS,), 0.8, dtype=dtype)
    checkpoint_of(tmp_path / "m.ckpt", model, reverse=reverse)
    tensors, meta = load_checkpoint(tmp_path / "m.ckpt")
    expected = model_from_named(tensors, meta["keep_prob"], dtype=dtype)
    loaded = _model_from_checkpoint(tmp_path / "m.ckpt")
    assert loaded.layout.entries == expected.layout.entries and loaded.keep_prob == expected.keep_prob
    assert loaded.flat.dtype == dtype and loaded.flat.tobytes() == expected.flat.tobytes()
    if dtype == np.float32:
        assert loaded.flat.tobytes() == model.flat.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_checkpoint_is_read_holding_the_flat_vector_and_one_stage(tmp_path, dtype):
    """A float32 body is read straight into its slice of the flat vector, a
    float64 one through one float32 stage as tall as the tensor; no tensor is
    held beside the vector."""
    model = init_model(np.random.default_rng(9), 256, 16, 32, (256, 256), 0.8, dtype=dtype)
    checkpoint_of(tmp_path / "m.ckpt", model)
    loaded, peak = traced_peak(_model_from_checkpoint, tmp_path / "m.ckpt")
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


@pytest.mark.parametrize("existing", [False, True], ids=["new-dir", "existing-dir"])
def test_export_failing_in_its_last_block_leaves_no_outputs(small_blocks, tmp_path, existing):
    ds, _ = _export_fixture(tmp_path, 2, COLS, (8,))
    assert len(row_blocks(10, COLS, 4)) == 4
    bad = ds.features.copy()
    bad[9, 1] = np.nan  # the last of four blocks, after three were written
    save_matrix(tmp_path / "data" / "features.bin", bad)
    out = tmp_path / "emb"
    if existing:
        out.mkdir()
    with pytest.raises(DataFormatError, match="non-finite value nan at row 9, column 1$"):
        export_embeddings(tmp_path / "model.ckpt", tmp_path / "data", out)
    if existing:
        assert list(out.iterdir()) == []
    else:
        assert not out.exists()


def test_a_non_finite_posterior_in_export_names_latents_bin_and_the_files_row(small_blocks, tmp_path, capsys):
    """Feature row 1500 at 3e38 overflows a float32 encoder. The reader hands
    that row over inside a block of a few rows, and export names
    latents.bin, the map, and the row counted from the file's first row."""
    ds = synth_generate(SynthSpec(seen=3, unseen=2, attr_dim=2, feature_dim=COLS, per_class=400, seed=6))
    save_dataset(ds, tmp_path / "data")
    features = ds.features.copy()
    features[1500] = 3e38
    save_matrix(tmp_path / "data" / "features.bin", features)
    checkpoint_of(tmp_path / "model.ckpt", init_model(np.random.default_rng(7), COLS, 2, 3, (8,), 0.8, dtype=np.float32))
    assert 1500 not in [s.start for s in row_blocks(ds.features.shape[0], COLS, 4)]
    out = tmp_path / "emb"
    rc = main(["export", "--checkpoint", str(tmp_path / "model.ckpt"), "--data", str(tmp_path / "data"), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert re.fullmatch(
        rf"error: {re.escape(str(out / 'latents.bin'))}: posterior mean: "
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


def test_eval_holds_the_test_block_model_and_a_few_blocks(monkeypatch, tmp_path):
    monkeypatch.setattr(serialize, "_BLOCK_BYTES", 1 << 16)
    ds, model = _export_fixture(tmp_path, 800, 64, (8,))
    report, peak = traced_peak(run_eval, tmp_path / "model.ckpt", tmp_path / "data", "all")
    assert report["examples"] == ds.test_labels.size == 1600
    # what scoring the whole test block at once allocates on its own
    _, scoring = traced_peak(predict_batch, ds.test_features, range(5), ds.attributes, model)
    kept = ds.test_features.nbytes + model.flat.nbytes + ds.labels.nbytes + scoring
    # the train block (2,400 rows, 1.2 MB) would not fit under the bound
    assert peak < kept + 2 * serialize._BLOCK_BYTES < kept + ds.train_features.nbytes


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_wide_export_multiplies_500_row_blocks_and_matches_a_whole_array_pass(tmp_path, monkeypatch, dtype):
    """A reader's block is _BLOCK_BYTES of the float32 rows it holds: 1,000
    rows of 2,048 features reach the encoder as two 500-row blocks, not as
    four of 250, so each product packs its weights over twice the rows."""
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
    assert rows == [500, 500]
    loaded = _model_from_checkpoint(tmp_path / "model.ckpt")
    latents = encode(ds.features.astype(dtype), loaded).mean
    assert (tmp_path / "emb" / "latents.bin").read_bytes() == whole_matrix_bytes(latents)
    assert (tmp_path / "emb" / "recons.bin").read_bytes() == whole_matrix_bytes(decode(latents, loaded))


def test_a_float64_writer_casts_at_most_256_rows_of_a_wide_matrix_at_a_time(tmp_path):
    """A writer's block is _BLOCK_BYTES of the float64 source it is cut from,
    so its float32 cast stays at half of that."""
    arr = np.random.default_rng(11).normal(size=(1000, 2048))
    _, peak = traced_peak(save_matrix, tmp_path / "m.bin", arr)
    assert peak < 256 * 2048 * 4
    assert (tmp_path / "m.bin").read_bytes() == whole_matrix_bytes(arr)
