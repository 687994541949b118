"""Smoke runs of the helper scripts under scripts/, with tiny arguments."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def run_script(name, *args):
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
    assert proc.returncode == 0, proc.stderr
    return proc


def test_fewshot_curve_writes_results(tmp_path):
    out = tmp_path / "curve.json"
    run_script(
        "fewshot_curve.py",
        "--seeds", 0, "--ks", 0, 2, "--epochs", 2, "--finetune-epochs", 2,
        "--latent-dim", 4, "--hidden", 16, "--out", out,
    )
    results = json.loads(out.read_text(encoding="utf-8"))
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
    lines = proc.stdout.splitlines()
    assert [line.split("  ")[1] for line in lines] == [f"{case}/{f}" for case in cases for f in files]
    for line in lines:
        digest, name = line.split("  ")
        assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest()
    for case in cases:
        assert "epochs = 1" in (out / case / "config.cfg").read_text(encoding="utf-8")
    # the shipped full-scale.cfg is float32; this case overrides it back
    assert "dtype = float64" in (out / "full-scale-float64" / "config.cfg").read_text(encoding="utf-8")
