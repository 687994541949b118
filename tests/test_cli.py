"""End-to-end command-line behavior, exercised in-process via main().

The console-script tests alone start a separate process, as the installed
`dgzsl` command would.
"""

import argparse
import errno
import importlib.metadata
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dgzsl import cli, serialize, train
from dgzsl.cli import main
from dgzsl.config import load_config, parse_config
from dgzsl.data import Dataset, SynthSpec, load_dataset, save_dataset, synth_generate
from dgzsl.errors import DataFormatError
from dgzsl.networks import encode, init_model
from dgzsl.serialize import load_checkpoint, load_matrix, save_checkpoint, save_matrix
from dgzsl.train import load_model, save_model, train_model

import oracles

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
    ds = load_dataset(out)
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

    _, meta = load_checkpoint(trained / "model.ckpt")
    assert set(meta) == {"keep_prob"}  # the exact seed lives in config.cfg and summary.json
    model = load_model(trained / "model.ckpt")
    assert model.layout.latent_dim == 4 and model.layout.feature_dim == tiny_dataset.feature_dim
    assert model.flat.dtype == np.float64


def test_a_float32_run_is_exactly_its_checkpoint(tiny_dir, tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "f32.cfg"
    cfg.write_text(BASE_CFG + "dtype = float32\n", encoding="utf-8")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--data", str(tiny_dir), "--out", str(out)]) == 0
    _, meta = load_checkpoint(out / "model.ckpt")
    assert set(meta) == {"keep_prob", "float_bits"} and meta["float_bits"] == 32
    dataset = load_dataset(tiny_dir)
    trained = train_model(dataset, load_config(cfg)).model
    reloaded = load_model(out / "model.ckpt")
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
    n_train = load_dataset(data).train_features.shape[0]
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


@pytest.mark.parametrize("target,code", [("missing/eval.json", errno.ENOENT), ("a-directory", errno.EISDIR)])
def test_an_eval_out_that_cannot_be_written_names_the_out_path(trained, tiny_dir, tmp_path, capsys, target, code):
    """The report goes to a temp file beside --out, then is renamed over
    it; an error opening or renaming the temp file names --out."""
    (tmp_path / "a-directory").mkdir()
    out = tmp_path / target
    rc = main(["eval", "--checkpoint", str(trained / "model.ckpt"), "--data", str(tiny_dir), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == f"error: [Errno {code}] {os.strerror(code)}: '{out}'\n"
    assert not list(tmp_path.rglob("*.tmp"))


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
    ds = load_dataset(tiny_dir)
    assert latents.shape == (270, 4)
    assert recons.shape == (270, 12)
    model = load_model(trained / "model.ckpt")
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


def test_a_margin_weight_above_one_fails_cleanly(tiny_dir, tmp_path, capsys):
    # above 1 the margin term has no upper bound, and training diverges
    cfg = tmp_path / "heavy.cfg"
    cfg.write_text(BASE_CFG + "margin_weight = 1.0000001\n", encoding="utf-8")
    rc = main(["train", "--config", str(cfg), "--data", str(tiny_dir), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == "error: margin_weight must be in [0, 1], got 1.0000001\n"
    assert not (tmp_path / "o").exists()


# the key that once dropped the true class from the margin, spelt in parts so
# that a search of the tree for it finds no code that still reads it
REMOVED_KEY = "_".join(("exclude", "true", "class"))


def test_a_config_naming_the_removed_margin_key_fails_as_unknown(tiny_dir, tmp_path, capsys):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(BASE_CFG + f"{REMOVED_KEY} = false\n", encoding="utf-8")
    line = BASE_CFG.count("\n") + 1
    rc = main(["train", "--config", str(cfg), "--data", str(tiny_dir), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {cfg}:{line}: unknown key {REMOVED_KEY!r}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train", "fewshot"])
def test_the_removed_margin_flag_is_a_usage_error(command, capsys):
    argv = [command, "--config", "c", "--data", "d", "--out", "o", "--k", "2", "--exclude-true-class"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --exclude-true-class" in capsys.readouterr().err


def test_an_allocation_failure_fails_cleanly(tmp_path, capsys):
    # 11.4 PiB is above any 48-bit address space: it fails before a page is touched
    rc = main(["synth", "--out", str(tmp_path / "x"), "--feature-dim", "100000000000000"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate 11.4 PiB") and err.count("\n") == 1
    assert not (tmp_path / "x").exists()


def test_config_that_is_not_utf8_fails_cleanly(tiny_dir, tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"seed = 1\n\xff\n")
    rc = main(["train", "--config", str(cfg), "--data", str(tiny_dir), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: not UTF-8 text")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


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
    save_model(ckpt, model)
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


def overflowing_checkpoint(path, trained, output):
    """The trained checkpoint with one map pushed to float32's edge: its bias
    3e38 and its weights 1e38, so the float64 scoring pass yields finite
    values above float32's largest. For ``latents`` the decoder's first
    weight is zeroed, so the reconstructions stay small."""
    model = load_model(trained / "model.ckpt")
    part = "dec.out" if output == "recons" else "enc.mean"
    model[f"{part}.w"][:] = 1e38
    model[f"{part}.b"][:] = 3e38
    if output == "latents":
        model["dec.h0.w"][:] = 0
    save_model(path, model)


@pytest.mark.parametrize("existing", [False, True], ids=["new-dir", "old-outputs"])
@pytest.mark.parametrize("output", ["recons", "latents"])
def test_an_export_float32_cannot_hold_fails_and_leaves_no_new_output(
    output, existing, trained, tiny_dir, tmp_path, capsys
):
    """A value the float32 cast would turn into ±inf stops export with the
    file, row, column and value named; an output directory it made is gone,
    and old outputs keep their bytes, recons.bin too when latents.bin fails."""
    ckpt = tmp_path / "edge.ckpt"
    overflowing_checkpoint(ckpt, trained, output)
    model = load_model(ckpt)
    ds = load_dataset(tiny_dir)
    latents = encode(ds.features, model).mean
    values = latents if output == "latents" else train.decode(latents, model)
    with np.errstate(over="ignore"):
        lost = np.isfinite(values) & ~np.isfinite(values.astype(np.float32))
    assert lost.any()
    row, col = divmod(int(np.argmax(lost)), values.shape[1])
    out = tmp_path / "emb"
    old = {}
    if existing:
        out.mkdir()
        old = {name: f"old {name}".encode() for name in ("latents.bin", "recons.bin")}
        for name, body in old.items():
            (out / name).write_bytes(body)
    rc = main(["export", "--checkpoint", str(ckpt), "--data", str(tiny_dir), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == (
        f"error: {out / f'{output}.bin'}: value {values[row, col]} at row {row}, column {col} "
        "does not fit in float32\n"
    )
    if existing:
        assert {p.name: p.read_bytes() for p in out.iterdir()} == old
    else:
        assert not out.exists()


def test_an_export_whose_float32_model_overflows_fails_with_one_line(tmp_path):
    """A float32 model whose decoder output overflows to ±inf: export exits 1
    with one error line naming recons.bin, row and column, prints no
    RuntimeWarning, and leaves no output directory behind."""
    data, ckpt, out = tmp_path / "data", tmp_path / "model.ckpt", tmp_path / "emb"
    save_dataset(synth_generate(SynthSpec(seed=0)), data)
    model = init_model(np.random.default_rng(0), 32, 8, 16, (64, 64), 0.8, dtype=np.float32)
    model["dec.out.b"][...] = 3e38
    model["dec.out.w"][...] = 1e38
    save_model(ckpt, model)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "dgzsl.cli", "export", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert re.fullmatch(rf"error: {re.escape(str(out / 'recons.bin'))}: non-finite value -?inf at row \d+, column \d+\n", proc.stderr)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "model.ckpt"]


def test_synth_values_float32_cannot_hold_fail_before_any_output(tmp_path, capsys):
    """noise_std = 1e39 gives finite float64 features that float32 cannot
    hold: synth_generate and dgzsl synth fail with the same one message, and
    no output directory is made."""
    with pytest.raises(DataFormatError) as raised:
        synth_generate(SynthSpec(noise_std=1e39))
    assert re.fullmatch(r"synthetic features: value \S+ at row 0, column 0 does not fit in float32", str(raised.value))
    rc = main(["synth", "--out", str(tmp_path / "data"), "--noise-std", "1e39"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == f"error: {raised.value}\n"
    assert list(tmp_path.iterdir()) == []


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
    monkeypatch.setattr(serialize, "_BLOCK_BYTES", 7 * 4 * tiny_dataset.feature_dim)
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


def test_a_checkpoint_meta_seed_changes_no_scored_byte(trained, tiny_dir, tmp_path):
    """The benchmark's score-export checkpoint carries ``meta.seed`` beside
    ``keep_prob``: eval --out and export write the same bytes with it as on
    the same model's checkpoint without it."""
    model = load_model(trained / "model.ckpt")
    save_model(tmp_path / "plain.ckpt", model)
    save_checkpoint(tmp_path / "seeded.ckpt", model.named_arrays(), meta={"keep_prob": model.keep_prob, "seed": 3})
    assert load_checkpoint(tmp_path / "seeded.ckpt")[1]["seed"] == 3
    written = {}
    for name in ("plain", "seeded"):
        ckpt, out = ["--checkpoint", str(tmp_path / f"{name}.ckpt"), "--data", str(tiny_dir)], tmp_path / name
        out.mkdir()
        assert main(["eval", *ckpt, "--candidates", "all", "--out", str(out / "eval.json")]) == 0
        assert main(["export", *ckpt, "--out", str(out / "emb")]) == 0
        written[name] = {str(f.relative_to(out)): f.read_bytes() for f in sorted(out.rglob("*")) if f.is_file()}
    assert sorted(written["plain"]) == ["emb/latents.bin", "emb/recons.bin", "eval.json"]
    assert written["seeded"] == written["plain"]


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


def test_one_parser_serves_every_call_with_a_fresh_namespace(monkeypatch, capsys):
    built, real_init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    calls = []
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(cli, "run_train", lambda *args, **kwargs: calls.append(kwargs) or {})
    monkeypatch.setattr(cli, "run_eval", lambda *args, **kwargs: calls.append(kwargs) or {})
    cli.build_parser.cache_clear()
    common = ["--config", "c", "--data", "d", "--out", "o"]
    assert main(["train", *common, "--seed", "3", "--no-recon", "--regime", "transductive"]) == 0
    assert main(["fewshot", *common, "--k", "2", "--transductive-phase"]) == 0
    assert main(["eval", "--checkpoint", "m", "--data", "d", "--candidates", "all"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["train", "--seed", "3"])  # a usage error between calls
    assert exc.value.code == 2
    assert main(["train", *common]) == 0
    assert main(["eval", "--checkpoint", "m", "--data", "d"]) == 0
    capsys.readouterr()
    unset = dict(seed=None, no_recon=None, recon_only_unlabeled=None)
    assert calls == [
        {**unset, "regime": "transductive", "k": None, "transductive_fewshot": None, "seed": 3, "no_recon": True},
        {**unset, "regime": "fewshot", "k": 2, "transductive_fewshot": True},
        {"candidates": "all"},
        {**unset, "regime": None, "k": None, "transductive_fewshot": None},
        {"candidates": "unseen"},
    ]
    assert built.count("dgzsl") == 1  # the subcommand parsers are built with it, once


GLIBC = (getattr(os, "confstr", lambda name: None)("CS_GNU_LIBC_VERSION") or "").startswith("glibc")

# One process runs synth, a 1-epoch train and two exports through cli.main
# and prints the minor page faults of the second export.
EXPORT_FAULTS = """
import contextlib, io, resource, sys
from pathlib import Path
from dgzsl.cli import main
from dgzsl.config import format_config, load_config

work, cfg = Path(sys.argv[1]), Path(sys.argv[2])
(work / "one.cfg").write_text(format_config(load_config(cfg).override(epochs=1)), encoding="utf-8")
run = lambda *argv: main([str(a) for a in argv])
with contextlib.redirect_stdout(io.StringIO()):
    assert run("synth", "--out", work / "data", "--seed", 0) == 0
    assert run("train", "--config", work / "one.cfg", "--data", work / "data", "--out", work / "run") == 0
    export = ("export", "--checkpoint", work / "run" / "model.ckpt", "--data", work / "data", "--out", work / "x")
    assert run(*export) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert run(*export) == 0
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(after - before)
"""


@pytest.mark.skipif(not GLIBC, reason="the malloc policy is glibc's")
def test_a_repeated_export_reuses_its_heap(tmp_path):
    """Without the policy glibc trims the export's freed 1 MB activations off
    the heap top and the next export faults them back in (about 800 faults)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", EXPORT_FAULTS, str(tmp_path), str(REPO / "configs" / "synth-inductive.cfg")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 100


@pytest.fixture
def fresh_malloc_policy():
    cli.malloc_policy.cache_clear()
    yield
    cli.malloc_policy.cache_clear()  # the next main sets the real policy again


def test_the_malloc_policy_is_set_once_per_process(fresh_malloc_policy, monkeypatch, capsys):
    calls = []

    def mallopt(option, value):
        calls.append((option, value))
        return 1

    monkeypatch.setattr(cli.os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: calls.append(name) or SimpleNamespace(mallopt=mallopt))
    monkeypatch.setattr(cli, "run_eval", lambda *args, **kwargs: {})
    for _ in range(3):
        assert main(["eval", "--checkpoint", "m", "--data", "d"]) == 0
    capsys.readouterr()
    assert calls == [None, (-3, 32 << 20), (-1, 256 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
    assert cli.malloc_policy() is True


def _unknown_name(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize(
    "libc_version, libc",
    [
        (lambda name: "glibc 2.36", SimpleNamespace()),  # no mallopt symbol
        (lambda name: None, None),  # a libc that does not name itself
        (lambda name: "musl", None),
        (_unknown_name, None),
    ],
)
def test_the_malloc_policy_is_a_silent_no_op_off_glibc(libc_version, libc, fresh_malloc_policy, monkeypatch):
    opened = []
    monkeypatch.setattr(cli.os, "confstr", libc_version)
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: opened.append(name) or libc)
    assert cli.malloc_policy() is False
    assert opened == ([None] if libc else [])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_confusion_table_counts_what_a_row_by_row_loop_counts(seed, trained, tiny_dataset, tmp_path, monkeypatch):
    """Test labels in a random order, predictions drawn at random from every
    class, so seen classes are predicted but never true."""
    rng = np.random.default_rng(seed)
    ds, first = tiny_dataset, tiny_dataset.n_train
    order = np.concatenate([np.arange(first), first + rng.permutation(ds.labels.size - first)])
    data = tmp_path / "data"
    save_dataset(Dataset(ds.features[order], ds.labels[order], first, ds.attributes, ds.seen_classes, ds.unseen_classes), data)
    predicted = []

    def draw(feats, ids, attrs, model):
        predicted.append(rng.choice(ids, feats.shape[0]))
        return predicted[-1], None, None

    monkeypatch.setattr(train, "predict_batch", draw)
    report = train.run_eval(trained / "model.ckpt", data, candidates="all")
    labels = ds.labels[order][first:]
    assert report["confusion"] == oracles.confusion_counts(labels, predicted[0])
    assert report["accuracy"] == float(np.mean(predicted[0] == labels))


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


def test_synth_and_export_rerun_into_one_out_write_the_same_files(trained, cfg_path, tmp_path, capsys):
    """A second run of synth, export, train and eval --out over the outputs
    of the first rewrites each file in place of the old one: the same bytes,
    and no temp file left beside. Only timings.jsonl, which holds wall
    times, differs."""
    data, emb, run = tmp_path / "data", tmp_path / "emb", tmp_path / "run"
    synth = ["synth", "--out", str(data), "--seen", "6", "--unseen", "3", "--attr-dim", "4",
             "--feature-dim", "12", "--per-class", "4", "--seed", "1"]
    export = ["export", "--checkpoint", str(trained / "model.ckpt"), "--data", str(data), "--out", str(emb)]
    fit = ["train", "--config", str(cfg_path), "--data", str(data), "--out", str(run)]
    score = ["eval", "--checkpoint", str(trained / "model.ckpt"), "--data", str(data), "--out", str(tmp_path / "eval.json")]
    runs = []
    for _ in range(2):
        assert main(synth) == 0 and main(export) == 0 and main(fit) == 0 and main(score) == 0
        runs.append({p.relative_to(tmp_path).as_posix(): p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()})
    capsys.readouterr()
    assert sorted(runs[1]) == [
        "data/attributes.csv", "data/features.bin", "data/split.manifest",
        "data/test_labels.txt", "data/train_labels.txt",
        "emb/latents.bin", "emb/recons.bin", "eval.json",
        "run/config.cfg", "run/metrics.jsonl", "run/model.ckpt", "run/summary.json", "run/timings.jsonl",
    ]
    timings = [r.pop("run/timings.jsonl") for r in runs]
    assert runs[0] == runs[1]
    assert [len(t.splitlines()) for t in timings] == [3, 3]
