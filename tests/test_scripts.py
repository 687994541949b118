"""Smoke runs of the helper scripts under scripts/, with tiny arguments."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def run_script(name, *args, rc=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == rc, proc.stderr
    return proc


def test_fewshot_curve_writes_results(tmp_path):
    out = tmp_path / "curve.json"
    run_script(
        "fewshot_curve.py",
        "--seeds", 0, "--ks", 0, 2, "--epochs", 2, "--finetune-epochs", 2,
        "--latent-dim", 4, "--hidden", 16, "--out", out,
    )
    text = out.read_text(encoding="utf-8")
    results = json.loads(text)
    assert text == json.dumps(results, indent=2, sort_keys=True) + "\n"
    assert set(results) == {"0", "2"}
    for entry in results.values():
        assert len(entry["per_seed"]) == 1
        assert 0.0 <= entry["per_seed"][0] <= 1.0
        assert entry["mean"] == pytest.approx(entry["per_seed"][0])


def test_reference_digests_hash_every_output_of_a_case(tmp_path):
    out = tmp_path / "ref"
    cases = ("synth-inductive", "full-scale-float64")
    proc = run_script("reference_digests.py", out, "--epochs", 1, *cases)
    files = ("config.cfg", "metrics.jsonl", "model.ckpt", "eval.json", "export/latents.bin", "export/recons.bin")
    data = ("attributes.csv", "features.bin", "split.manifest", "test_labels.txt", "train_labels.txt")
    lines = proc.stdout.splitlines()
    assert [line.split("  ")[1] for line in lines] == [
        f"{d}/{f}" if f in data else f"{case}/{f}"
        for case, d in zip(cases, ("data", "data-gbu"))
        for f in data + files
    ]
    for line in lines:
        digest, name = line.split("  ")
        assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest()
    for case in cases:
        assert "epochs = 1" in (out / case / "config.cfg").read_text(encoding="utf-8")
    # the shipped full-scale.cfg is float32; this case overrides it back
    assert "dtype = float64" in (out / "full-scale-float64" / "config.cfg").read_text(encoding="utf-8")


def test_fresh_process_measures_each_command_in_its_own_process(tmp_path):
    data = tmp_path / "data"
    commands = [f"synth --out {shlex.quote(str(data))} --per-class 5 --seed 1", "gradcheck --seed 2"]
    proc = run_script("fresh_process.py", *commands)
    records = [json.loads(line) for line in proc.stdout.splitlines()]  # the commands' own output is discarded
    assert [r["command"] for r in records] == commands
    for r in records:
        assert r["rc"] == 0
        assert r["wall_s"] > 0 and r["user_s"] > 0 and r["sys_s"] >= 0
        assert r["maxrss_mb"] > 10 and r["minflt"] > 1000  # an interpreter that imported numpy
    assert (data / "split.manifest").is_file()
    missing = f"eval --checkpoint {shlex.quote(str(tmp_path / 'none.ckpt'))} --data {shlex.quote(str(data))}"
    proc = run_script("fresh_process.py", missing, rc=1)
    assert json.loads(proc.stdout)["rc"] == 1
    assert proc.stderr.startswith("error: ")
