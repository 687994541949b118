"""End-to-end command-line behavior, exercised in-process via main().

The console-script tests alone start a separate process, as the installed
`dgzsl` command would.
"""

import importlib.metadata
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dgzsl import serialize, train
from dgzsl.cli import main
from dgzsl.config import load_config, parse_config
from dgzsl.data import SynthSpec, load_dataset, save_dataset, synth_generate
from dgzsl.networks import encode, init_model, model_from_named
from dgzsl.serialize import load_checkpoint, load_matrix, save_checkpoint, save_matrix
from dgzsl.train import _model_from_checkpoint, train_model

BASE_CFG = """\
regime = inductive
epochs = 3
latent_dim = 4
hidden_dims = 8,8
batch_size = 64
keep_prob = 0.8
learning_rate = 0.001
seed = 5
"""

REPO = Path(__file__).resolve().parents[1]
SUBCOMMANDS = ("synth", "train", "eval", "fewshot", "gradcheck", "export")

INDUCTIVE_KEYS = {
    "epoch",
    "phase",
    "seed",
    "total",
    "reconstruction",
    "kl_true_class",
    "margin",
    "margin_weight",
    "accuracy",
}
TRANSDUCTIVE_KEYS = INDUCTIVE_KEYS | {
    "labeled_total",
    "unlabeled_total",
    "unlabeled_recon",
    "target_kl",
}


@pytest.fixture(scope="module")
def tiny_dir(tmp_path_factory, tiny_dataset):
    path = tmp_path_factory.mktemp("tiny-data")
    save_dataset(tiny_dataset, path)
    return path


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "base.cfg"
    path.write_text(BASE_CFG, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory, tiny_dir, cfg_path):
    out = tmp_path_factory.mktemp("run")
    rc = main(["train", "--config", str(cfg_path), "--data", str(tiny_dir), "--out", str(out)])
    assert rc == 0
    return out


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def declared_entry_point() -> str:
    """The `dgzsl` target in pyproject.toml's [project.scripts], as `module:attr`."""
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["dgzsl"]


def assert_help_lists_subcommands(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: dgzsl")
    choices = re.search(r"\{([^}]*)\}", proc.stdout.splitlines()[0])
    assert choices, proc.stdout
    assert set(SUBCOMMANDS) <= set(choices.group(1).split(","))


def test_installed_entry_point_responds_to_help():
    # Run the declared target the way a console-script wrapper does, so the
    # check holds from a checkout where nothing is installed.
    module, attr = declared_entry_point().split(":")
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "--help"], capture_output=True, text=True, env=env
    )
    assert_help_lists_subcommands(proc)


def test_console_script_on_path_matches_declaration():
    try:
        dist = importlib.metadata.distribution("dgzsl")
    except importlib.metadata.PackageNotFoundError:
        pytest.skip("the dgzsl package is not installed")
    installed = {ep.name: ep.value for ep in dist.entry_points.select(group="console_scripts")}
    assert installed.get("dgzsl") == declared_entry_point()
    exe = shutil.which("dgzsl")
    assert exe, "console script not on PATH"
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert_help_lists_subcommands(proc)


def test_synth_writes_dataset_and_reports(tmp_path, capsys):
    out = tmp_path / "data"
    rc = main(
        [
            "synth", "--out", str(out),
            "--seen", "3", "--unseen", "2",
            "--attr-dim", "2", "--feature-dim", "5",
            "--per-class", "4", "--seed", "1",
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {
        "out": str(out), "examples": 20, "classes": 5, "seen": 3, "unseen": 2,
    }
    for name in (
        "features.bin", "attributes.csv", "train_labels.txt", "test_labels.txt", "split.manifest",
    ):
        assert (out / name).is_file(), name
    ds = load_dataset(out / "features.bin", out / "attributes.csv", out / "split.manifest")
    assert ds.features.shape == (20, 5)
    assert ds.unseen_classes == (3, 4)


def test_synth_rejects_a_negative_seed(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path / "data"), "--seed", "-1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error:") and "seed" in captured.err


def test_train_writes_all_artifacts(trained, tiny_dataset):
    for name in ("config.cfg", "metrics.jsonl", "timings.jsonl", "model.ckpt", "summary.json"):
        assert (trained / name).is_file(), name
    cfg = parse_config((trained / "config.cfg").read_text())
    assert cfg.epochs == 3 and cfg.seed == 5 and cfg.latent_dim == 4 and cfg.dtype == "float64"

    lines = read_jsonl(trained / "metrics.jsonl")
    assert [r["epoch"] for r in lines] == [1, 2, 3]
    for record in lines:
        assert set(record) == INDUCTIVE_KEYS
        assert record["phase"] == "inductive"
        assert record["seed"] == 5
        assert 0.0 <= record["accuracy"] <= 1.0

    timings = read_jsonl(trained / "timings.jsonl")
    assert [set(t) for t in timings] == [{"epoch", "phase", "wall_seconds"}] * 3

    summary = json.loads((trained / "summary.json").read_text())
    assert summary["epochs_logged"] == 3
    assert summary["regime"] == "inductive"
    assert summary["eval_rows"] == tiny_dataset.labels.size - tiny_dataset.n_train

    tensors, meta = load_checkpoint(trained / "model.ckpt")
    assert set(meta) == {"keep_prob"}  # the exact seed lives in config.cfg and summary.json
    model = model_from_named(tensors, keep_prob=meta["keep_prob"])
    assert model.layout.latent_dim == 4 and model.layout.feature_dim == tiny_dataset.feature_dim
    assert _model_from_checkpoint(trained / "model.ckpt").flat.dtype == np.float64


def test_a_float32_run_is_exactly_its_checkpoint(tiny_dir, tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "f32.cfg"
    cfg.write_text(BASE_CFG + "dtype = float32\n", encoding="utf-8")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--data", str(tiny_dir), "--out", str(out)]) == 0
    _, meta = load_checkpoint(out / "model.ckpt")
    assert set(meta) == {"keep_prob", "float_bits"} and meta["float_bits"] == 32
    dataset = load_dataset(tiny_dir / "features.bin", tiny_dir / "attributes.csv", tiny_dir / "split.manifest")
    trained = train_model(dataset, load_config(cfg)).model
    reloaded = _model_from_checkpoint(out / "model.ckpt")
    assert trained.flat.dtype == reloaded.flat.dtype == np.float32
    assert reloaded.flat.tobytes() == trained.flat.tobytes()
    capsys.readouterr()
    scored, score = [], train.predict_batch

    def spy(feats, ids, attrs, model):
        scored.append({feats.dtype, attrs.dtype, model.flat.dtype})
        return score(feats, ids, attrs, model)

    monkeypatch.setattr(train, "predict_batch", spy)
    ckpt = str(out / "model.ckpt")
    assert main(["eval", "--checkpoint", ckpt, "--data", str(tiny_dir), "--candidates", "unseen"]) == 0
    assert scored == [{np.dtype(np.float32)}]  # eval scores in float32 from end to end
    report = json.loads(capsys.readouterr().out)
    assert report["accuracy"] == read_jsonl(out / "metrics.jsonl")[-1]["accuracy"]


def test_repeat_run_reproduces_artifacts_exactly(trained, tiny_dir, cfg_path, tmp_path):
    again = tmp_path / "again"
    rc = main(["train", "--config", str(cfg_path), "--data", str(tiny_dir), "--out", str(again)])
    assert rc == 0
    assert (again / "metrics.jsonl").read_bytes() == (trained / "metrics.jsonl").read_bytes()
    assert (again / "model.ckpt").read_bytes() == (trained / "model.ckpt").read_bytes()


def test_seed_override_changes_metrics(tiny_dir, cfg_path, tmp_path, trained):
    out = tmp_path / "seeded"
    rc = main(
        ["train", "--config", str(cfg_path), "--data", str(tiny_dir),
         "--out", str(out), "--seed", "6"]
    )
    assert rc == 0
    assert parse_config((out / "config.cfg").read_text()).seed == 6
    assert (out / "metrics.jsonl").read_bytes() != (trained / "metrics.jsonl").read_bytes()


# 60 labeled rows in batches of 2 against a 20-row unlabeled pool: 10 of the
# 30 batches get no unlabeled rows, and batch sums differ from batch means
SMALL_POOL = SynthSpec(seen=6, unseen=2, attr_dim=3, feature_dim=6, per_class=10, seed=3)


@pytest.mark.parametrize("split", ["tiny", "small-pool"])
def test_transductive_metrics_decompose(split, tiny_dir, tmp_path):
    text = BASE_CFG.replace("regime = inductive", "regime = transductive").replace(
        "epochs = 3", "epochs = 4\npretrain_epochs = 2"
    )
    data = tiny_dir
    if split == "small-pool":
        data = tmp_path / "data"
        save_dataset(synth_generate(SMALL_POOL), data)
        text = text.replace("batch_size = 64", "batch_size = 2")
    cfg = tmp_path / "t.cfg"
    cfg.write_text(text, encoding="utf-8")
    n_train = load_dataset(
        data / "features.bin", data / "attributes.csv", data / "split.manifest"
    ).train_features.shape[0]
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(out)]) == 0
    lines = read_jsonl(out / "metrics.jsonl")
    assert [r["phase"] for r in lines] == ["inductive"] * 2 + ["transductive"] * 2
    for record in lines[:2]:
        assert set(record) == INDUCTIVE_KEYS
    for record in lines[2:]:
        assert set(record) == TRANSDUCTIVE_KEYS
        assert record["total"] == pytest.approx(
            record["labeled_total"] + record["unlabeled_total"], abs=1e-9
        )
        # labeled_total is a sum over rows, the breakdown a mean per row
        per_row = (
            record["reconstruction"]
            - record["kl_true_class"]
            + record["margin_weight"] * record["margin"]
        )
        assert record["labeled_total"] == pytest.approx(n_train * per_row, rel=1e-9)


@pytest.mark.parametrize("command", [["train"], ["fewshot", "--k", "2"]], ids=["train", "fewshot"])
def test_no_recon_flag_zeroes_reconstruction(command, tiny_dir, cfg_path, tmp_path):
    out = tmp_path / "nr"
    rc = main(
        [*command, "--config", str(cfg_path), "--data", str(tiny_dir),
         "--out", str(out), "--no-recon"]
    )
    assert rc == 0
    for record in read_jsonl(out / "metrics.jsonl"):
        assert record["reconstruction"] == 0.0


def test_fewshot_command_appends_finetune_phase(tiny_dir, tmp_path, capsys):
    cfg = tmp_path / "fs.cfg"
    cfg.write_text(BASE_CFG + "fewshot_epochs = 4\nfewshot_batch_size = 4\n", encoding="utf-8")
    out = tmp_path / "run"
    rc = main(
        ["fewshot", "--config", str(cfg), "--data", str(tiny_dir),
         "--out", str(out), "--k", "2"]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["regime"] == "fewshot"
    assert summary["epochs_logged"] == 4  # 3 supervised + 1 fine-tune record
    assert summary["eval_rows"] == 90 - 2 * 3  # pool minus k per unseen class
    assert read_jsonl(out / "metrics.jsonl")[-1]["phase"] == "fewshot"


def test_fewshot_transductive_phase_follows_the_finetune(tiny_dir, tmp_path, capsys):
    cfg = tmp_path / "fs.cfg"
    cfg.write_text(
        BASE_CFG + "fewshot_epochs = 4\nfewshot_batch_size = 4\ntransductive_epochs = 2\n",
        encoding="utf-8",
    )
    out = tmp_path / "run"
    rc = main(
        ["fewshot", "--config", str(cfg), "--data", str(tiny_dir),
         "--out", str(out), "--k", "2", "--transductive-phase"]
    )
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["regime"] == "fewshot"
    phases = [r["phase"] for r in read_jsonl(out / "metrics.jsonl")]
    assert phases == ["inductive"] * 3 + ["fewshot"] + ["transductive"] * 2
    assert parse_config((out / "config.cfg").read_text()).transductive_fewshot is True


def test_eval_reports_accuracy(trained, tiny_dir, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = main(
        ["eval", "--checkpoint", str(trained / "model.ckpt"), "--data", str(tiny_dir),
         "--out", str(report_path)]
    )
    assert rc == 0
    from_stdout = json.loads(capsys.readouterr().out)
    from_file = json.loads(report_path.read_text())
    assert from_stdout == from_file
    assert from_file["candidates"] == [6, 7, 8]
    assert from_file["examples"] == 90
    assert 0.0 <= from_file["accuracy"] <= 1.0
    total = sum(n for row in from_file["confusion"].values() for n in row.values())
    assert total == 90
    summary = json.loads((trained / "summary.json").read_text())
    assert from_file["accuracy"] == summary["final_accuracy"]


def test_eval_candidate_pools(trained, tiny_dir, capsys):
    rc = main(
        ["eval", "--checkpoint", str(trained / "model.ckpt"), "--data", str(tiny_dir),
         "--candidates", "all"]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["candidates"] == list(range(9))


def test_export_writes_aligned_embeddings(trained, tiny_dir, tmp_path, capsys):
    out = tmp_path / "emb"
    rc = main(
        ["export", "--checkpoint", str(trained / "model.ckpt"), "--data", str(tiny_dir),
         "--out", str(out)]
    )
    assert rc == 0
    paths = json.loads(capsys.readouterr().out)
    latents = load_matrix(paths["latents"])
    recons = load_matrix(paths["recons"])
    ds = load_dataset(
        tiny_dir / "features.bin", tiny_dir / "attributes.csv", tiny_dir / "split.manifest"
    )
    assert latents.shape == (270, 4)
    assert recons.shape == (270, 12)
    tensors, meta = load_checkpoint(trained / "model.ckpt")
    model = model_from_named(tensors, keep_prob=meta["keep_prob"])
    expected = encode(ds.features, model).mean
    assert np.array_equal(latents, expected.astype(np.float32).astype(np.float64))


def test_gradcheck_reports_pass(capsys):
    rc = main(["gradcheck", "--batch", "3", "--hidden", "8", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("max relative error") == 2
    assert "PASS" in out


@pytest.mark.parametrize(
    "args",
    [
        ["--seen", "0"],
        ["--unseen", "1"],
        ["--batch", "0"],
        ["--hidden", "0"],
        ["--feature-dim", "0"],
        ["--latent-dim", "0"],
        ["--attr-dim", "0"],
        ["--epsilon", "0"],
        ["--tolerance", "-0.5"],
        ["--seed", "-1"],
    ],
    ids=lambda a: a[0].lstrip("-"),
)
def test_gradcheck_rejects_degenerate_arguments(args, capsys):
    rc = main(["gradcheck", *args])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith(f"error: {args[0]} must be")
    assert "PASS" not in captured.out


def test_unknown_config_key_fails_cleanly(tiny_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n", encoding="utf-8")
    rc = main(["train", "--config", str(cfg), "--data", str(tiny_dir), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "bogus" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_training_failure_names_the_phase_and_epoch(tmp_path, capsys):
    # a huge step keeps the parameters finite but overflows the forward pass
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--seen", "4", "--unseen", "2"]) == 0
    cfg = tmp_path / "huge-step.cfg"
    cfg.write_text(
        (REPO / "configs" / "synth-inductive.cfg").read_text(encoding="utf-8")
        .replace("learning_rate = 0.001", "learning_rate = 1e150")
        .replace("batch_size = 100", "batch_size = 1000")
        .replace("epochs = 120", "epochs = 4"),
        encoding="utf-8",
    )
    capsys.readouterr()
    rc = main(["train", "--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == "error: inductive epoch 1: posterior mean has a non-finite entry in row 0\n"


def test_missing_data_dir_fails_cleanly(cfg_path, tmp_path, capsys):
    rc = main(
        ["train", "--config", str(cfg_path), "--data", str(tmp_path / "nope"),
         "--out", str(tmp_path / "o")]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_eval_rejects_mismatched_checkpoint(trained, tmp_path, capsys):
    other = tmp_path / "other-data"
    main(
        ["synth", "--out", str(other), "--seen", "3", "--unseen", "2",
         "--attr-dim", "2", "--feature-dim", "5", "--per-class", "4"]
    )
    capsys.readouterr()  # drop the synth report
    rc = main(["eval", "--checkpoint", str(trained / "model.ckpt"), "--data", str(other)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "export"])
def test_checkpoint_dims_are_checked_against_the_data_before_any_output(
    command, tiny_dir, tiny_dataset, tmp_path, capsys
):
    """A self-consistent D=7 checkpoint on the D=12 tiny dataset: both
    commands name the two widths, the checkpoint and the data directory, and
    export makes no output directory."""
    ckpt = tmp_path / "d7.ckpt"
    model = init_model(np.random.default_rng(0), 7, tiny_dataset.attr_dim, 4, (8, 8), 0.8)
    save_checkpoint(ckpt, model.named_arrays(), meta={"keep_prob": 0.8})
    out = tmp_path / "out"
    args = ["--out", str(out)] if command == "export" else []
    rc = main([command, "--checkpoint", str(ckpt), "--data", str(tiny_dir), *args])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == (
        f"error: checkpoint dims (D=7, M=4) do not match dataset (D=12, M=4): "
        f"{ckpt} against {tiny_dir}\n"
    )
    assert not out.exists()


BAD_FEATURE_FILES = [
    "nan-in-train-block", "short-by-10-bytes", "trailing-bytes", "rows-not-labels", "label-beyond-int64",
]


def write_bad_data(case, dataset, data):
    """Saves ``dataset`` to ``data`` with one fault; returns the error text
    that eval and export print for it."""
    save_dataset(dataset, data)
    feats = data / "features.bin"
    body = feats.read_bytes()
    rows, cols = dataset.features.shape
    if case == "nan-in-train-block":
        bad = dataset.features.copy()
        bad[100, 5] = np.nan
        save_matrix(feats, bad)
        return f"{feats}: non-finite value nan at row 100, column 5"
    if case == "short-by-10-bytes":
        feats.write_bytes(body[:-10])
        return f"{feats}: expected {rows * cols} float32 values, file is short by 10 bytes"
    if case == "trailing-bytes":
        feats.write_bytes(body + b"abc")
        return f"{feats}: 3 trailing bytes after matrix body"
    labels = data / "test_labels.txt"
    text = labels.read_text(encoding="utf-8")
    if case == "label-beyond-int64":
        labels.write_text(text + "99999999999999999999\n", encoding="utf-8")
        line = text.count("\n") + 1
        return f"{labels}:{line}: label out of range: '99999999999999999999'"
    labels.write_text(text + "6\n", encoding="utf-8")
    return f"feature rows ({rows}) != train+test labels ({rows + 1})"


@pytest.mark.parametrize("case", BAD_FEATURE_FILES)
@pytest.mark.parametrize("command", ["eval", "export", "train"])
def test_bad_feature_files_are_rejected_with_one_message(
    case, command, trained, cfg_path, tiny_dataset, tmp_path, monkeypatch, capsys
):
    """eval and export read the feature body a row block at a time (seven
    rows here, so the train block spans many blocks), train loads it whole;
    the message is the same, and neither export nor train leaves an output
    directory."""
    monkeypatch.setattr(serialize, "_BLOCK_BYTES", 7 * 8 * tiny_dataset.feature_dim)
    assert tiny_dataset.n_train > 100
    data = tmp_path / "data"
    message = write_bad_data(case, tiny_dataset, data)
    out = tmp_path / "out"
    if command == "train":
        args = ["train", "--config", str(cfg_path), "--data", str(data), "--out", str(out)]
    else:
        args = [command, "--checkpoint", str(trained / "model.ckpt"), "--data", str(data)]
        args += ["--out", str(out)] if command == "export" else []
    rc = main(args)
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


def inconsistent_tensors(case, feature_dim, attr_dim):
    """init_model tensors for latent width 4, with one part taken from a
    latent-width-5 model or one bias resized."""
    tensors = init_model(np.random.default_rng(0), feature_dim, attr_dim, 4, (8, 8)).named_arrays()
    wider = init_model(np.random.default_rng(1), feature_dim, attr_dim, 5, (8, 8)).named_arrays()
    if case == "bias":
        return {**tensors, "enc.h0.b": np.zeros(9)}
    part = "prior." if case == "prior" else "dec."
    return {**tensors, **{k: v for k, v in wider.items() if k.startswith(part)}}


@pytest.mark.parametrize(
    "case, tensor, shapes",
    [
        ("prior", "prior.mean_w", "(5, 4), expected (4, 4)"),
        ("decoder", "dec.h0.w", "(5, 8), expected (4, 8)"),
        ("bias", "enc.h0.b", "(1, 9), expected (8,)"),
    ],
    ids=["prior", "decoder", "bias"],
)
@pytest.mark.parametrize("command", ["eval", "export"])
def test_inconsistent_checkpoint_is_rejected_naming_the_tensor(
    case, tensor, shapes, command, tiny_dir, tiny_dataset, tmp_path, capsys
):
    ckpt = tmp_path / "model.ckpt"
    tensors = inconsistent_tensors(case, tiny_dataset.feature_dim, tiny_dataset.attr_dim)
    save_checkpoint(ckpt, tensors, meta={"keep_prob": 0.8})
    out = tmp_path / "out"
    args = ["--out", str(out)] if command == "export" else []
    rc = main([command, "--checkpoint", str(ckpt), "--data", str(tiny_dir), *args])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == f"error: {ckpt}: tensor {tensor!r} has shape {shapes}\n"
    assert not out.exists()


@pytest.mark.parametrize("keep_prob", [0.0, -0.5, 1.5])
def test_eval_rejects_a_checkpoint_keep_prob_outside_the_unit_interval(
    keep_prob, trained, tiny_dir, tmp_path, capsys
):
    tensors, _ = load_checkpoint(trained / "model.ckpt")
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, tensors, meta={"keep_prob": keep_prob})
    rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(tiny_dir)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == f"error: {ckpt}: keep_prob must be in (0, 1], got {keep_prob}\n"


@pytest.mark.parametrize("bits", [16, 64.5])
def test_eval_rejects_a_checkpoint_float_bits_other_than_32_or_64(bits, trained, tiny_dir, tmp_path, capsys):
    tensors, _ = load_checkpoint(trained / "model.ckpt")
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, tensors, meta={"keep_prob": 0.8, "float_bits": bits})
    rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(tiny_dir)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == f"error: {ckpt}: float_bits must be 32 or 64, got {bits}\n"


def test_eval_rejects_an_empty_test_split(trained, tiny_dataset, tmp_path, capsys):
    data = tmp_path / "no-test"
    save_dataset(tiny_dataset, data)
    save_matrix(data / "features.bin", tiny_dataset.train_features)
    (data / "test_labels.txt").write_text("", encoding="utf-8")
    rc = main(["eval", "--checkpoint", str(trained / "model.ckpt"), "--data", str(data)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert str(data) in captured.err and "test split is empty" in captured.err


def test_argparse_misuse_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["train"])  # missing required arguments
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (["fewshot", "--config", "c", "--data", "d", "--out", "o", "--k", "1_0"], "--k: invalid int value: '1_0'"),
        (["train", "--config", "c", "--data", "d", "--out", "o", "--seed", "٣"], "--seed: invalid int value: '٣'"),
        (["synth", "--out", "o", "--noise-std", "0_5"], "--noise-std: invalid float value: '0_5'"),
    ],
)
def test_command_line_numbers_must_be_plain_ascii(argv, message, capsys):
    # int() and float() alone would read these as 10, 3 and 0.5
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument {message}\n")
