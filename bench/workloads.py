"""The benchmark's workloads: set-up, one timed cycle of dgzsl calls, checks.

Every workload drives ``dgzsl.cli.main(argv)`` in-process on files written
during set-up, so a cycle is the ``dgzsl`` command minus interpreter
start-up. Calls run back to back (a closed loop with one client).

synth-transductive
    ``SynthSpec(seed)`` defaults with the unmodified
    ``configs/synth-transductive.cfg``: the README quick start and the test
    suite's fixture shape. Tiny tensors, so per-op tape bookkeeping dominates;
    the only workload that runs the transductive refresh. Stresses train
    (loop), autodiff, transductive, gaussian; little serialize or BLAS work.
fullscale-inductive
    The GBU shape (40 seen / 10 unseen classes, 85 attributes, 2048-d
    features, 50 rows per class) with the ``configs/full-scale.cfg`` model
    (about 6.4 M float64 parameters). BLAS matmuls and ``Adam.step``
    dominate; tape bookkeeping is minor and there is no refresh. Stresses
    optim, networks, serialize (checkpoint write); bypasses transductive.
score-export
    The same shape with 200 rows per class (10,000 rows, about 80 MB of
    features) and a full-size checkpoint from ``networks.init_model``. A
    cycle is ``eval --candidates all`` then ``export``: read- and
    write-heavy, forward-only through the shared networks and gaussian code.
    Stresses data, serialize, networks, inference; never touches autodiff or
    optim.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import struct
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

# cli first: it maps DGZSL_THREADS before numpy loads. Traced functions are
# looked up on their modules at call time, so the tracer's wrappers apply.
from dgzsl import cli, data, serialize
from dgzsl.config import load_config
from dgzsl.data import SynthSpec
from dgzsl.networks import init_model

import numpy as np

FULL_SHAPE = dict(seen=40, unseen=10, attr_dim=85, feature_dim=2048)


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def matrix_rows(path) -> int:
    """Row count from a DGZSLM01 matrix header."""
    with open(path, "rb") as fh:
        head = fh.read(16)
    return struct.unpack_from("<I", head, 8)[0]


_HOST_SMALL = np.random.default_rng(0).standard_normal((100, 64))
_HOST_WIDE = np.random.default_rng(1).standard_normal((256, 512))


# host_sample() on the reference host (Xeon, 2 vCPUs) in a quiet stretch
HOST_NOMINAL_S = 0.008


def host_sample() -> float:
    """Seconds for one pass of a fixed NumPy and Python loop (small matmuls,
    reductions, dict building and one wider matmul) that calls no dgzsl code.

    Its duration tracks how fast the shared host runs at the moment.
    """
    t0 = time.perf_counter()
    for _ in range(40):
        h = np.maximum(_HOST_SMALL @ _HOST_SMALL[:64].T, 0.0)
        rows = (h * h).sum(axis=1)
        table = {i: float(v) for i, v in enumerate(rows[:32])}
        sorted(table.items(), key=lambda kv: kv[1])
    for _ in range(4):
        (_HOST_WIDE @ _HOST_WIDE.T).sum()
    return time.perf_counter() - t0


def host_timed(fn, *args):
    """(result, seconds, samples): ``fn(*args)`` timed, with the host samples
    taken just before and just after it."""
    before = host_sample()
    t0 = time.perf_counter()
    result = fn(*args)
    seconds = time.perf_counter() - t0
    return result, seconds, (before, host_sample())


def host_scale(samples) -> float:
    """Factor that rescales a time measured next to ``samples`` to the
    nominal host speed. The shared host swings in speed over minutes and
    moves every timing of a run together; a change to dgzsl moves the calls
    and not the samples."""
    return HOST_NOMINAL_S / statistics.fmean(samples)


class Ledger:
    """Counts attempted and failed operations (CLI calls and output checks)
    and keeps the host samples taken around the calls."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.host: list[float] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def call(self, argv: list[str]) -> tuple[float, float, bool]:
        """Run one dgzsl command in-process; returns (wall seconds, host
        scale from the samples around it, ok)."""
        rc, seconds, samples = host_timed(_run_cli, argv)
        self.host.extend(samples)
        return seconds, host_scale(samples), self.check(rc == 0, f"dgzsl {argv[0]} returned {rc}")

    def same(self, digests: dict, reference: dict, where: str) -> None:
        for key, value in digests.items():
            self.check(value == reference.get(key), f"{where}: {key} differs from the first run")


def _run_cli(argv: list[str]):
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        try:
            return cli.main(argv)
        except (Exception, SystemExit):
            traceback.print_exc(file=sys.stderr)
            return "an exception"


@dataclass
class Prepared:
    """What set-up wrote, and what the checks need to know about it."""

    data: Path
    rows: int
    unseen: int
    config: Path | None = None
    checkpoint: Path | None = None


@dataclass
class Cycle:
    """One pass through a workload's calls: measured wall times, the same
    rescaled by the host samples around each call, digests and results."""

    seconds: dict = field(default_factory=lambda: defaultdict(list))
    scaled: dict = field(default_factory=lambda: defaultdict(list))
    digests: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)

    def timed(self, key: str, call: tuple[float, float, bool]) -> bool:
        seconds, scale, ok = call
        self.seconds[key].append(seconds)
        self.scaled[key].append(seconds * scale)
        return ok

    def close(self) -> None:
        """Record cycle_s: the summed wall time of the cycle's dgzsl calls."""
        self.seconds["cycle_s"].append(sum(sum(v) for v in self.seconds.values()))


def _write_dataset(spec: SynthSpec, dest: Path) -> tuple[Path, int, int]:
    dataset = data.synth_generate(spec)
    data.save_dataset(dataset, dest / "data")
    return dest / "data", dataset.features.shape[0], len(dataset.unseen_classes)


def _finite_metrics(path: Path) -> bool:
    for line in path.read_text(encoding="utf-8").splitlines():
        for value in json.loads(line).values():
            if isinstance(value, (int, float)) and not math.isfinite(value):
                return False
    return True


def _score(ledger: Ledger, prep: Prepared, ckpt: Path, out: Path, candidates: str, cycle: Cycle, repeats: int):
    """``repeats`` rounds of eval then export; every round must write the same bytes."""
    for rnd in range(repeats):
        digests = {}
        report_path = out / "eval.json"
        if cycle.timed("eval_s", ledger.call(
            ["eval", "--checkpoint", str(ckpt), "--data", str(prep.data),
             "--candidates", candidates, "--out", str(report_path)]
        )):
            report = json.loads(report_path.read_text(encoding="utf-8"))
            counted = sum(n for row in report["confusion"].values() for n in row.values())
            ledger.check(counted == report["examples"], "eval confusion counts do not sum to examples")
            cycle.results.setdefault("eval_accuracy", report["accuracy"])
            digests["eval.json"] = sha256(report_path)
        emb = out / "emb"
        if cycle.timed("export_s", ledger.call(
            ["export", "--checkpoint", str(ckpt), "--data", str(prep.data), "--out", str(emb)]
        )):
            for name in ("latents.bin", "recons.bin"):
                ledger.check(matrix_rows(emb / name) == prep.rows, f"export {name} rows != dataset rows")
                digests[name] = sha256(emb / name)
        if rnd == 0:
            cycle.digests.update(digests)
        else:
            ledger.same(digests, cycle.digests, f"eval/export round {rnd + 1}")


class TrainWorkload:
    """Set-up writes a synthetic dataset; a cycle is train, eval, export."""

    def __init__(self, name, shape, config, scores, seconds_per_epoch=None, learns_beyond_chance=True):
        self.name = name
        self.shape = shape
        self.config = config
        self.scores = scores
        self.seconds_per_epoch = seconds_per_epoch
        self.learns_beyond_chance = learns_beyond_chance

    def epochs(self, seconds: int) -> int | None:
        if self.seconds_per_epoch is None:
            return None
        return max(2, seconds // self.seconds_per_epoch)

    def setup(self, root: Path, dest: Path, seed: int, seconds: int) -> Prepared:
        data_dir, rows, unseen = _write_dataset(SynthSpec(**self.shape, seed=seed), dest)
        config = root / "configs" / self.config
        epochs = self.epochs(seconds)
        if epochs is not None:
            text, n = re.subn(
                r"(?m)^epochs\s*=.*$", f"epochs = {epochs}", config.read_text(encoding="utf-8")
            )
            if n != 1:
                raise RuntimeError(f"{config} has no single epochs line")
            config = dest / "train.cfg"
            config.write_text(text, encoding="utf-8")
        return Prepared(data=data_dir, rows=rows, unseen=unseen, config=config)

    def cycle(self, ledger: Ledger, prep: Prepared, out: Path, seed: int) -> Cycle:
        cycle = Cycle()
        run = out / "run"
        if not cycle.timed("train_s", ledger.call(
            ["train", "--config", str(prep.config), "--data", str(prep.data),
             "--out", str(run), "--seed", str(seed)]
        )):
            return cycle
        metrics = run / "metrics.jsonl"
        ledger.check(_finite_metrics(metrics), "metrics.jsonl holds a non-finite value")
        summary = json.loads((run / "summary.json").read_text(encoding="utf-8"))
        top1 = summary["final_accuracy"]
        cycle.results["unseen_top1"] = top1
        if self.learns_beyond_chance:
            ledger.check(top1 > 1.0 / prep.unseen, f"unseen_top1 {top1} does not beat chance")
        else:
            lines = metrics.read_text(encoding="utf-8").splitlines()
            first, last = json.loads(lines[0])["total"], json.loads(lines[-1])["total"]
            ledger.check(last > first, f"objective did not rise: {first} -> {last}")
        cycle.digests["metrics.jsonl"] = sha256(metrics)
        cycle.digests["model.ckpt"] = sha256(run / "model.ckpt")
        _score(ledger, prep, run / "model.ckpt", out, "unseen", cycle, self.scores)
        cycle.results["ckpt_unseen_top1"] = cycle.results.pop("eval_accuracy", None)
        return cycle


class ScoreWorkload:
    """Set-up writes a dataset and an untrained full-size checkpoint; a cycle
    is eval over all classes, then export."""

    name = "score-export"
    shape = dict(FULL_SHAPE, per_class=200)

    def setup(self, root: Path, dest: Path, seed: int, seconds: int) -> Prepared:
        data_dir, rows, unseen = _write_dataset(SynthSpec(**self.shape, seed=seed), dest)
        cfg = load_config(root / "configs" / "full-scale.cfg")
        model = init_model(
            np.random.default_rng(seed),
            self.shape["feature_dim"],
            self.shape["attr_dim"],
            cfg.latent_dim,
            tuple(cfg.hidden_dims),
            cfg.keep_prob,
        )
        ckpt = dest / "model.ckpt"
        serialize.save_checkpoint(ckpt, model.named_arrays(), meta={"keep_prob": cfg.keep_prob, "seed": seed})
        return Prepared(data=data_dir, rows=rows, unseen=unseen, checkpoint=ckpt)

    def cycle(self, ledger: Ledger, prep: Prepared, out: Path, seed: int) -> Cycle:
        cycle = Cycle()
        _score(ledger, prep, prep.checkpoint, out, "all", cycle, 1)
        cycle.results["unseen_top1"] = cycle.results.pop("eval_accuracy", None)
        return cycle


WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload("synth-transductive", {}, "synth-transductive.cfg", scores=30),
        TrainWorkload(
            "fullscale-inductive",
            dict(FULL_SHAPE, per_class=50),
            "full-scale.cfg",
            scores=3,
            seconds_per_epoch=10,
            learns_beyond_chance=False,
        ),
        ScoreWorkload(),
    )
}


def setup_digests(prep: Prepared) -> dict:
    """Digests of every file set-up wrote; equal seeds must give equal bytes."""
    out = {f"data/{p.name}": sha256(p) for p in sorted(prep.data.iterdir())}
    if prep.checkpoint is not None:
        out["setup model.ckpt"] = sha256(prep.checkpoint)
    return out


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
