#!/usr/bin/env python3
"""SHA-256 of every deterministic output of the reference runs.

Writes `dgzsl synth --seed 0` data (and the GBU-shaped full-scale data)
under OUT, then runs each case with one BLAS thread:

  synth-inductive     train configs/synth-inductive.cfg
  synth-transductive  train configs/synth-transductive.cfg
  fewshot             fewshot --k 3 --transductive-phase on synth-inductive.cfg
  ablations           fewshot --k 3 --transductive-phase --no-recon
                      --recon-only-unlabeled on synth-inductive.cfg with
                      include_seen_margin, margin_weight = 0.5,
                      refresh_every = 3 and dtype = float32
  full-scale          train configs/full-scale.cfg (float32), 2 epochs, on
                      SynthSpec(seen=40, unseen=10, attr_dim=85,
                      feature_dim=2048, per_class=50, seed=0)
  full-scale-float64  the same with dtype = float64
  gradcheck           dgzsl gradcheck with its defaults

Each training case is followed by `eval --candidates all --out` and
`export`. One `sha256  case/file` line is printed per output file (the
run's config, metrics and checkpoint, the eval report and both export
files; never the wall-clock timings or the summary, which holds paths),
and one `sha256  data/file` (or `data-gbu/file`) line per file of a
dataset, before the lines of the case that wrote it. So two trees give
byte-identical data and outputs exactly when the printed lines do.
`--epochs N` runs every training case at N epochs, keeping the
transductive config's share of pretrain epochs.

Example, against a second checkout of the code:
    PYTHONPATH=src python3 scripts/reference_digests.py /tmp/new > new.txt
    PYTHONPATH=../other/src python3 scripts/reference_digests.py /tmp/old > old.txt
    diff old.txt new.txt
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

from dgzsl.config import format_config, load_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
GBU = ("--seen", 40, "--unseen", 10, "--attr-dim", 85, "--feature-dim", 2048, "--per-class", 50)
# case -> (config, dataset, default epochs or None for the config's own,
#          config overrides, extra CLI words)
CASES = {
    "synth-inductive": ("synth-inductive.cfg", "data", None, {}, ("train",)),
    "synth-transductive": ("synth-transductive.cfg", "data", None, {}, ("train",)),
    "fewshot": ("synth-inductive.cfg", "data", None, {}, ("fewshot", "--k", 3, "--transductive-phase")),
    "ablations": (
        "synth-inductive.cfg",
        "data",
        None,
        dict(include_seen_margin=True, margin_weight=0.5, refresh_every=3, dtype="float32"),
        ("fewshot", "--k", 3, "--transductive-phase", "--no-recon", "--recon-only-unlabeled"),
    ),
    "full-scale": ("full-scale.cfg", "data-gbu", 2, {}, ("train",)),
    "full-scale-float64": ("full-scale.cfg", "data-gbu", 2, {"dtype": "float64"}, ("train",)),
    "gradcheck": None,
}
OUTPUTS = ("config.cfg", "metrics.jsonl", "model.ckpt", "eval.json", "export/latents.bin", "export/recons.bin")


def dgzsl(*words) -> str:
    """Runs one dgzsl command in a fresh process pinned to one BLAS thread
    (no other *_THREADS variable overrides DGZSL_THREADS) and returns its
    standard output."""
    env = {k: v for k, v in os.environ.items() if not k.endswith("_THREADS")}
    env["DGZSL_THREADS"] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "dgzsl.cli", *map(str, words)],
        capture_output=True, text=True, env=env,
    )
    if proc.returncode != 0:
        sys.exit(f"dgzsl {' '.join(map(str, words))} failed:\n{proc.stderr}")
    return proc.stdout


def config_for(case: str, epochs, out: Path) -> Path:
    """The case's config file, or a copy of it with the case's overrides,
    run at ``epochs`` epochs when that is not None."""
    name, _, _, overrides, _ = CASES[case]
    path = CONFIGS / name
    if epochs is None and not overrides:
        return path
    cfg = load_config(path).override(**overrides)
    if epochs is not None:
        pretrain = cfg.pretrain_epochs * epochs // cfg.epochs
        cfg = cfg.override(epochs=epochs, pretrain_epochs=pretrain)
    copy = out / f"{case}.cfg"
    copy.write_text(format_config(cfg), encoding="utf-8")
    return copy


def run_case(case: str, out: Path, epochs) -> dict:
    """Runs one case under ``out``; returns {'case/file': bytes}, led by
    {'data/file': bytes} for the files of a dataset this call wrote."""
    if CASES[case] is None:
        return {f"{case}/stdout": dgzsl("gradcheck").encode()}
    _, data, default_epochs, _, command = CASES[case]
    data_dir, run = out / data, out / case
    written = {}
    if not data_dir.exists():
        dgzsl("synth", "--out", data_dir, "--seed", 0, *(GBU if data == "data-gbu" else ()))
        written = {f"{data}/{p.name}": p.read_bytes() for p in sorted(data_dir.iterdir())}
    cfg = config_for(case, epochs if epochs is not None else default_epochs, out)
    dgzsl(command[0], "--config", cfg, "--data", data_dir, "--out", run, *command[1:])
    ckpt = run / "model.ckpt"
    dgzsl("eval", "--checkpoint", ckpt, "--data", data_dir, "--candidates", "all", "--out", run / "eval.json")
    dgzsl("export", "--checkpoint", ckpt, "--data", data_dir, "--out", run / "export")
    return written | {f"{case}/{name}": (run / name).read_bytes() for name in OUTPUTS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory for the data and the runs")
    parser.add_argument("--epochs", type=int, default=None, help="epochs of every training case")
    parser.add_argument("cases", nargs="*", metavar="CASE", help=f"of {', '.join(CASES)} (default: all)")
    args = parser.parse_intermixed_args()
    unknown = set(args.cases) - set(CASES)
    if unknown:
        parser.error(f"unknown cases {sorted(unknown)}; choose from {', '.join(CASES)}")
    args.out.mkdir(parents=True, exist_ok=True)
    for case in args.cases or CASES:
        for name, blob in run_case(case, args.out, args.epochs).items():
            print(f"{hashlib.sha256(blob).hexdigest()}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
