"""A full-scale training run shares each step with one worker thread
(autodiff.second_core): the worker takes half of each large product and of
each Adam update, into arrays the calling thread allocates. The bytes, the
failing tensor and the warnings are those of one thread, no thread outlives
the run, and a synth-size train, eval or export starts no worker at all."""

import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from dgzsl import autodiff, optim, train
from dgzsl.config import TrainConfig, format_config
from dgzsl.data import Dataset, SynthSpec, save_dataset, synth_generate
from dgzsl.errors import DgzslError
from dgzsl.networks import Layout, init_model

# 2,048 features and hidden widths (520, 256). The first encoder layer
# takes over 100³ multiply-adds per row, so only the two-row rule keeps a
# 3-row batch whole there; a 12-row batch is cut into halves of 6, and in
# float64 its weight gradient, cut into two 260-column halves, would round
# otherwise. The 520×256 layers take 1.6 M multiply-adds for 12 rows and
# 0.8 M for 6, so only the size rule keeps them whole (OpenBLAS's
# small-matrix kernels round their halves otherwise).
FEATURES, HIDDEN, BATCH = 2048, (520, 256), 12

REGIMES = {
    "inductive": dict(epochs=1),
    "transductive": dict(epochs=2, pretrain_epochs=1),
    "fewshot": dict(epochs=1, k=2, fewshot_epochs=1, fewshot_batch_size=4, transductive_fewshot=True, transductive_epochs=1),
}


@pytest.fixture
def threads(monkeypatch):
    """``threads(n)`` pins train._threads to ``n``, whatever the BLAS
    variables of the environment say."""

    def use(n):
        monkeypatch.setattr(train, "_threads", lambda: n)

    return use


def _dataset(n_train: int) -> Dataset:
    """A 2,048-feature dataset of ``n_train`` train rows (of 30) and 20 test
    rows of two unseen classes."""
    ds = synth_generate(SynthSpec(seen=3, unseen=2, attr_dim=4, feature_dim=FEATURES, per_class=10, seed=5))
    keep = np.r_[np.arange(n_train), np.arange(ds.n_train, ds.labels.size)]
    side = (ds.attributes, ds.seen_classes, ds.unseen_classes)
    return Dataset(ds.features[keep], ds.labels[keep], n_train, *side)


def _config(regime: str, dtype: str) -> TrainConfig:
    return TrainConfig(regime=regime, latent_dim=8, hidden_dims=HIDDEN, batch_size=BATCH, dtype=dtype, **REGIMES[regime])


@pytest.mark.parametrize("last", [3, 5], ids=["last-batch-3", "last-batch-5"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_training_on_two_threads_writes_the_bytes_of_one(tmp_path, monkeypatch, threads, regime, dtype, last):
    """Two 12-row batches and a last one of ``last`` rows: the run directory
    of two threads holds the model.ckpt and metrics.jsonl of one, and the
    trained vector (model.ckpt rounds a float64 one) is the same too."""
    save_dataset(_dataset(2 * BATCH + last), tmp_path / "data")
    (tmp_path / "run.cfg").write_text(format_config(_config(regime, dtype)))
    trained, products, real = [], [], train.train_model
    product = autodiff._product

    def keep_vector(dataset, cfg):
        result = real(dataset, cfg)
        trained.append(result.model.flat.tobytes())
        assert result.model.flat.nbytes > optim._BLOCK_BYTES  # so Adam walks two halves
        return result

    def counted(a, b, out=None):
        products.append(a.shape[0])
        return product(a, b, out)

    monkeypatch.setattr(train, "train_model", keep_vector)
    monkeypatch.setattr(autodiff, "_product", counted)
    outputs, counts = {}, {}
    for n in (1, 2):
        threads(n)
        products.clear()
        before = threading.active_count()
        train.run_train(tmp_path / "run.cfg", tmp_path / "data", tmp_path / f"threads-{n}")
        assert threading.active_count() == before
        outputs[n] = {name: (tmp_path / f"threads-{n}" / name).read_bytes() for name in ("model.ckpt", "metrics.jsonl")}
        counts[n] = len(products)
    assert outputs[2] == outputs[1]
    assert trained[1] == trained[0]
    assert counts[2] > counts[1]  # two threads did cut products into halves


# (rows, fan-in, width, dtype, rows of each forward part on two threads)
PRODUCTS = [
    (100, 2048, 1000, np.float32, [50, 50]),
    (100, 2048, 1000, np.float64, [50, 50]),
    (100, 100, 1000, np.float64, [50, 50]),
    (5, 2048, 520, np.float64, [2, 3]),
    (3, 2048, 520, np.float32, [3]),  # a one-row part: matrix-vector code
    (3, 2048, 520, np.float64, [3]),
    (12, 520, 256, np.float32, [12]),  # 0.8 M multiply-adds a half: small-matrix kernels
    (12, 520, 256, np.float64, [12]),
    (12, 1000, 260, np.float64, [12]),  # a float64 width that is not a multiple of 8
    (100, 1000, 100, np.float32, [100]),  # the width rule holds in float32 too
]


@pytest.mark.parametrize("rows, fan_in, width, dtype, parts", PRODUCTS)
def test_a_dense_layer_on_two_threads_has_the_bytes_of_one(monkeypatch, rows, fan_in, width, dtype, parts):
    """The value and the input, weight and bias gradients of one masked
    ReLU layer, and its value on plain arrays; each forward product is cut
    into ``parts``, and each shape that stays whole would round its row
    halves otherwise."""
    rng = np.random.default_rng(rows + fan_in + width)
    x, w, b, mask, r = (rng.normal(size=s).astype(dtype) for s in ((rows, fan_in), (fan_in, width), (width,), (rows, width), (rows, width)))
    product, cut = autodiff._product, []

    def counted(a, b, out=None):
        cut.append(a.shape[0])
        return product(a, b, out)

    monkeypatch.setattr(autodiff, "_product", counted)
    results = []
    for on in (False, True):
        with autodiff.second_core(on):
            tape = autodiff.Tape()
            xs = [tape.leaf(a) for a in (x, w, b)]
            y = autodiff.dense(*xs, relu=True, mask=mask)
            loss = autodiff.record("loss", np.sum(y.value * r), (y,), lambda g, wanted: (g * r,))
            tape.backward(loss)
            plain = autodiff.dense(x, w, b, relu=True, mask=mask)  # as scoring calls it
        results.append([y.value.tobytes(), plain.tobytes(), *(v.grad.tobytes() for v in xs)])
        if on:
            assert sorted(cut[: len(parts)]) == sorted(parts) == sorted(cut[-len(parts) :])
        cut.clear()
    assert results[1] == results[0]


def _wide_model(dtype):
    """512 features and hidden widths (256, 256): about 400,000 entries,
    more than one Adam block in either dtype."""
    return init_model(np.random.default_rng(3), 512, 4, 8, (256, 256), dtype=dtype)


def _named_entry(model, index: int) -> str:
    return [name for name, _, off in model.layout.entries if off <= index][-1]


# index 10 lies in the first block (the caller's half), the last entry in
# the second half's ragged tail (the worker's)
BAD = {"second-half": (-1,), "both-halves": (10, -1)}


@pytest.mark.filterwarnings("error")  # the worker, too, runs under the caller's np.errstate
@pytest.mark.parametrize("bad", list(BAD.values()), ids=list(BAD))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_non_finite_gradient_on_two_threads_names_the_lowest_tensor(dtype, bad):
    model = _wide_model(dtype)
    assert model.flat.nbytes > 2 * optim._BLOCK_BYTES
    grad = np.zeros_like(model.flat)
    grad[list(bad)] = np.inf
    lowest = _named_entry(model, np.arange(grad.size)[list(bad)].min())
    messages = []
    for on in (False, True):
        with autodiff.second_core(on), pytest.raises(DgzslError) as raised, np.errstate(invalid="ignore"):
            optim.Adam().step(model.copy(), grad)
        messages.append(str(raised.value))
    assert messages == 2 * [f"Adam step 1: {lowest!r} has non-finite entries"]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_failing_adam_step_leaves_the_same_state_on_one_and_two_threads(monkeypatch, dtype):
    """A gradient with inf in the first half ends that half's walk after its
    block; the second half is walked whole on one thread as on two, so the
    vector, both moments and the message are the same."""
    monkeypatch.setattr(optim, "_BLOCK_BYTES", 1024 * np.dtype(dtype).itemsize)
    model = init_model(np.random.default_rng(3), 64, 4, 8, (64, 64), dtype=dtype)
    assert model.flat.size > 4 * 1024  # the first half holds blocks past the failing one
    grad = np.random.default_rng(4).normal(size=model.flat.size).astype(dtype)
    grad[10] = np.inf
    outcomes = []
    for on in (False, True):
        opt, stepped = optim.Adam(), model.copy()
        with autodiff.second_core(on), pytest.raises(DgzslError) as raised, np.errstate(invalid="ignore"):
            opt.step(stepped, grad)
        outcomes.append([str(raised.value)] + [a.tobytes() for a in (stepped.flat, opt._m, opt._v)])
    assert outcomes[1] == outcomes[0]  # bytes, so a NaN equals a NaN of the same bits
    assert outcomes[0][0] == f"Adam step 1: {_named_entry(model, 10)!r} has non-finite entries"


def _failures_on_one_and_two_threads(threads, ds, cfg, errstate) -> dict:
    """Thread count -> (the error of a failing train_model run, the
    warnings it printed), checking that no thread outlives the run."""
    outcomes = {}
    for n in (1, 2):
        threads(n)
        before = threading.active_count()
        with warnings.catch_warnings(record=True) as shown, np.errstate(all=errstate):
            warnings.simplefilter("default")  # as Python prints them: once per place
            with pytest.raises(DgzslError) as raised:
                train.train_model(ds, cfg)
        assert threading.active_count() == before
        outcomes[n] = str(raised.value), [(str(w.message), w.category, w.filename, w.lineno) for w in shown]
    return outcomes


@pytest.mark.parametrize("errstate", ["warn", "ignore"])
@pytest.mark.parametrize("bad", list(BAD.values()), ids=list(BAD))
def test_a_run_failing_in_adam_on_two_threads_fails_as_on_one(monkeypatch, threads, bad, errstate):
    """A run whose first gradient is non-finite at ``bad``: on two threads it
    raises the message of one, prints the same warnings (the worker runs
    under the caller's np.errstate, which is per thread) and leaves no
    thread behind."""
    real = train.inductive_objective

    def poisoned(model, *args, **kwargs):
        value, grad, breakdown = real(model, *args, **kwargs)
        grad[list(bad)] = np.inf
        return value, grad, breakdown

    monkeypatch.setattr(train, "inductive_objective", poisoned)
    outcomes = _failures_on_one_and_two_threads(threads, _dataset(2 * BATCH + 3), _config("inductive", "float32"), errstate)
    assert outcomes[2] == outcomes[1]
    lowest = "enc.h0.w" if len(bad) == 2 else "prior.logvar_w"
    assert outcomes[1][0] == f"inductive epoch 1: Adam step 1: {lowest!r} has non-finite entries"
    assert bool(outcomes[1][1]) == (errstate == "warn")


@pytest.mark.parametrize("errstate", ["warn", "ignore"])
def test_a_run_whose_first_layer_overflows_on_two_threads_fails_as_on_one(threads, errstate):
    """Float32 train rows of 3e38 overflow the first encoder product, which
    two threads cut into halves: the worker's half warns from the line the
    calling thread's does, so the same warnings print, and the run stops at
    the same step."""
    ds = _dataset(2 * BATCH + 3)
    features = ds.features.copy()
    features[: ds.n_train] = 3e38
    ds = Dataset(features, ds.labels, ds.n_train, ds.attributes, ds.seen_classes, ds.unseen_classes)
    outcomes = _failures_on_one_and_two_threads(threads, ds, _config("inductive", "float32"), errstate)
    assert outcomes[2] == outcomes[1]
    assert outcomes[1][0] == "inductive epoch 1: Adam step 1: 'enc.h0.w' has non-finite entries"
    overflowed = ("overflow encountered in matmul", RuntimeWarning)
    assert (overflowed in [w[:2] for w in outcomes[1][1]]) == (errstate == "warn")


def test_the_worker_writes_every_product_into_an_array_of_the_calling_thread(tmp_path, monkeypatch, threads):
    """A few-shot run on two threads (inductive, few-shot and transductive
    steps, accuracies and a target refresh), then eval and export of its
    checkpoint: every product the worker makes goes into ``out``, an array
    the calling thread allocated, so the worker takes none from a malloc
    arena of its own."""
    threads(2)
    save_dataset(_dataset(2 * BATCH + 3), tmp_path / "data")
    (tmp_path / "run.cfg").write_text(format_config(_config("fewshot", "float32")))
    caller, product, calls = threading.get_ident(), autodiff._product, []

    def spy(a, b, out=None):
        calls.append((threading.get_ident() != caller, out is not None))
        return product(a, b, out)

    monkeypatch.setattr(autodiff, "_product", spy)
    run = tmp_path / "run"
    train.run_train(tmp_path / "run.cfg", tmp_path / "data", run)
    trained = len(calls)
    train.run_eval(run / "model.ckpt", tmp_path / "data", "all")
    train.export_embeddings(run / "model.ckpt", tmp_path / "data", tmp_path / "emb")
    off = [passed for worker, passed in calls if worker]
    assert any(worker for worker, _ in calls[:trained]) and any(worker for worker, _ in calls[trained:])
    assert off and all(off)


SYNTH_IMPORTS = """
import sys
import threading

from dgzsl.cli import main

work = sys.argv[1]
argv = ["--checkpoint", f"{work}/run/model.ckpt", "--data", f"{work}/data"]
assert main(["synth", "--out", f"{work}/data"]) == 0
assert main(["train", "--config", f"{work}/run.cfg", "--data", f"{work}/data", "--out", f"{work}/run"]) == 0
assert main(["eval", *argv]) == 0
assert main(["export", *argv, "--out", f"{work}/emb"]) == 0
print(sorted({"concurrent.futures", "logging"} & set(sys.modules)), threading.active_count())
"""


def test_a_synth_size_train_eval_and_export_never_import_the_thread_pool(tmp_path):
    """Every synth model is smaller than one Adam block, so a synth-size
    `train`, `eval` and `export` pinned to one BLAS thread on any number of
    cores start no worker and import neither concurrent.futures nor the
    logging it loads, 0.6 MB that a process on one thread never needs."""
    cfg = TrainConfig(regime="transductive", latent_dim=16, hidden_dims=(64, 64), epochs=2, pretrain_epochs=1)
    spec = SynthSpec()
    assert Layout(spec.feature_dim, spec.attr_dim, cfg.latent_dim, cfg.hidden_dims).size * 8 <= optim._BLOCK_BYTES
    (tmp_path / "run.cfg").write_text(format_config(cfg))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if not k.endswith("_THREADS")}
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SYNTH_IMPORTS, str(tmp_path)], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[] 1"
