"""dgzsl benchmark: one workload per process, closed loop, checked outputs.

    python3 bench/run.py --workload synth-transductive --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src``. ``--trace 0`` measures the end-to-end metrics: set-up is repeated
and timed, then the workload's cycle of ``dgzsl`` calls repeats until
``--seconds`` have passed. ``--trace 1`` alternates untraced and traced
passes (set-up plus one cycle each) and reports per-layer spans, exact work
counts and the tracing overhead. Either way the report goes to stdout, and
the last line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"  # spans of traced runs: [name, start, end, parent, run] per line
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
WORKLOAD_NAMES = ("synth-transductive", "fullscale-inductive", "score-export")
# set-up repeats: at least this many, then more while they fit in the budget
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_BUDGET_S = 3, 50, 1.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
END_TO_END = ("setup_s", "cycle_s", "eval_s", "export_s", "peak_rss_mb", "ok_ratio")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_threads() -> None:
    """One BLAS thread, set before numpy is imported."""
    os.environ["DGZSL_THREADS"] = "1"
    for var in THREAD_VARS:
        os.environ[var] = "1"


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile with at least ten
    samples beyond it, nearest-rank."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, -(-int(p * n) // 100))
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100.0, ordered[-1]


def step_table(steps) -> dict:
    """name -> (ms, samples): median and tail of all optimizer steps, and the
    median per objective (the synth-transductive mix is bimodal)."""
    if not steps:
        return {}
    times = [t for _, t in steps]
    pct, value = tail(times)
    out = {
        "step_ms_p50": (1e3 * statistics.median(times), len(times)),
        f"step_ms_p{pct:g}": (1e3 * value, len(times)),
    }
    for kind in sorted({k for k, _ in steps}):
        picked = [t for k, t in steps if k == kind]
        out[f"{kind.split('.')[0]}.step_ms_p50"] = (1e3 * statistics.median(picked), len(picked))
    return out


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def l3_size() -> str:
    path = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    try:
        return path.read_text().strip()
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "threads": {var: os.environ.get(var) for var in ("DGZSL_THREADS",) + THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "l3_cache": l3_size(),
        "seed": seed,
    }


def setup_reps(workload, work: Path, seed: int, seconds: int, ledger):
    """Repeat set-up into fresh directories; every repeat must write the same
    bytes. Returns (measured seconds, rescaled seconds, what set-up wrote)."""
    from workloads import fresh, host_scale, host_timed, setup_digests

    times, scaled, reference, prep = [], [], None, None
    while len(times) < SETUP_MIN_REPS or (
        sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX_REPS
    ):
        prep, took, samples = host_timed(workload.setup, ROOT, fresh(work / "setup"), seed, seconds)
        times.append(took)
        scaled.append(took * host_scale(samples))
        digests = setup_digests(prep)
        if reference is None:
            reference = digests
        else:
            ledger.same(digests, reference, "set-up")
    return times, scaled, prep


def trimmed_mean(values: list[float]) -> float:
    """Mean of the values without the lowest and highest tenth.

    Short calls on a shared host are bimodal (fast and contended stretches of
    a few hundred ms), and which mode holds the median flips from run to run;
    a mean integrates the mix, and trimming drops the rare stalls.
    """
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def center_of(cycles, key, scaled=False):
    values = [v for c in cycles for v in (c.scaled if scaled else c.seconds).get(key, ())]
    return (trimmed_mean(values), len(values)) if values else (None, 0)


def measure(workload, work: Path, seed: int, seconds: int) -> dict:
    """Untraced run: set-up repeats, then cycles for ``seconds``."""
    from tracer import STEP_SITES, Tracer, step_seconds
    from workloads import HOST_NOMINAL_S, Ledger, fresh

    ledger = Ledger()
    setup_times, setup_scaled, prep = setup_reps(workload, work, seed, seconds, ledger)
    cycles, reference = [], None
    # times optimizer steps only: three thin wrappers, nothing else traced
    with Tracer(STEP_SITES) as clock:
        start = time.perf_counter()
        while not cycles or time.perf_counter() - start < seconds:
            out = fresh(work / "cycle")
            cycle = workload.cycle(ledger, prep, out, seed)
            cycle.close()
            if reference is None:
                reference = cycle.digests
            else:
                ledger.same(cycle.digests, reference, f"cycle {len(cycles) + 1}")
            cycles.append(cycle)
            shutil.rmtree(out)
        measured = time.perf_counter() - start
    steps = step_seconds(clock.spans)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    table = {
        "setup_s": (trimmed_mean(setup_times), "s", len(setup_times)),
    }
    for key in ("cycle_s", "train_s", "eval_s", "export_s"):
        value, n = center_of(cycles, key)
        if value is not None:
            table[key] = (value, "s", n)
    for name, (value, n) in step_table(steps).items():
        table[name] = (value, "ms", n)
    first = cycles[0].results
    for key in ("unseen_top1", "ckpt_unseen_top1"):
        if first.get(key) is not None:
            table[key] = (first[key], "fraction", 1)
    table["peak_rss_mb"] = (peak_kb / 1024.0, "MB", 1)
    table["failed_ratio"] = (ledger.failed / ledger.attempted, "fraction", ledger.attempted)
    table["ok_ratio"] = (1.0 - ledger.failed / ledger.attempted, "fraction", ledger.attempted)
    # The result object carries timings rescaled to the nominal host speed.
    # A short call is matched with the two samples around it; a cycle lasts
    # seconds, so it is matched with the mean of all samples of the cycles
    # (on ten seeds, bracketing an 8 s train spread more than not rescaling).
    rescaled = {"setup_s": (trimmed_mean(setup_scaled), len(setup_scaled))}
    for key in ("eval_s", "export_s"):
        rescaled[key] = center_of(cycles, key, scaled=True)
    value, n = center_of(cycles, "cycle_s")
    rescaled["cycle_s"] = (value * HOST_NOMINAL_S / trimmed_mean(ledger.host), n)
    for key, (value, n) in rescaled.items():
        if value is not None:
            table[f"{key}@host"] = (value, "s", n)
    # a failed call leaves its metric out; the run then reports correct: false
    metrics = {k: table.get(f"{k}@host", table.get(k))[:2] for k in END_TO_END if k in table}
    return {
        "ledger": ledger,
        "table": table,
        "metrics": metrics,
        "extra": {
            "cycles": len(cycles),
            "measured_s": measured,
            "digests": reference,
        },
    }


def traced(workload, work: Path, seed: int, seconds: int) -> dict:
    """Traced run: untraced and traced passes alternate for ``seconds``."""
    from tracer import LAYERS, TAPE_OPS, TRACED, Counts, Tracer, is_clean, self_times, step_seconds
    from workloads import Ledger, fresh, setup_digests

    ledger = Ledger()
    counts = Counts()
    tracer = Tracer(counts=counts)
    passes = {False: [], True: []}
    reference = None
    # one untimed set-up first, so the first (untraced) pass is not the only
    # one that pays for first-call costs
    workload.setup(ROOT, fresh(work / "setup"), seed, seconds)
    start = time.perf_counter()
    while not passes[True] or time.perf_counter() - start < seconds:
        on = len(passes[False]) > len(passes[True])
        run_id = len(passes[False]) + len(passes[True])
        tracer.run = run_id
        if on:
            tracer.install()
        try:
            t0 = time.perf_counter()
            prep = workload.setup(ROOT, fresh(work / "setup"), seed, seconds)
            setup_s = time.perf_counter() - t0
            out = fresh(work / "cycle")
            cycle = workload.cycle(ledger, prep, out, seed)
            cycle.close()
        finally:
            tracer.remove()
        cycle.seconds["setup_s"].append(setup_s)
        cycle.digests.update(setup_digests(prep))
        if reference is None:
            reference = cycle.digests
        else:
            ledger.same(cycle.digests, reference, f"{'traced' if on else 'untraced'} pass {run_id}")
        passes[on].append(cycle)
        shutil.rmtree(out)
    ledger.check(is_clean(), "tracer wrappers left installed after the run")

    n = len(passes[True])
    spans = tracer.spans
    own = self_times(spans)
    metrics = {}
    for name, _, _ in TRACED:
        picked = [i for i, s in enumerate(spans) if s[0] == name]
        metrics[f"{name}.calls"] = (len(picked) / n, "count")
        metrics[f"{name}.total_ms"] = (1e3 * sum(spans[i][2] - spans[i][1] for i in picked) / n, "ms")
        metrics[f"{name}.self_ms"] = (1e3 * sum(own[i] for i in picked) / n, "ms")
    for layer in LAYERS:
        metrics[f"{layer}.failed"] = (tracer.failed[layer] / n, "count")

    c = counts
    nodes = sum(c.tape_nodes.values())
    per_step = (lambda v: v / c.steps) if c.steps else (lambda v: 0.0)
    metrics["autodiff.tape_nodes_per_step"] = (per_step(nodes), "count")
    for op in TAPE_OPS:
        metrics[f"autodiff.tape_nodes_per_step.{op}"] = (per_step(c.tape_nodes[op]), "count")
    metrics["autodiff.grad_node_share"] = (c.nodes_with_grad / nodes if nodes else 0.0, "fraction")
    metrics["networks.param_count"] = (c.param_count, "count")
    adam_steps = metrics["optim.Adam.step.calls"][0]
    # computed, not measured: read param, grad, m, v and write m, v, param (float64)
    metrics["optim.adam_bytes_per_step_computed"] = (7 * 8 * c.param_count if adam_steps else 0, "B")
    metrics["gaussian.kl_matrix.bcl_per_call"] = (c.kl_bcl / c.kl_calls if c.kl_calls else 0.0, "count")
    metrics["serialize.bytes_read_per_call"] = (c.bytes_read / c.reads if c.reads else 0.0, "B")
    metrics["serialize.bytes_written_per_call"] = (c.bytes_written / c.writes if c.writes else 0.0, "B")
    metrics["transductive.refresh_changed_ratio"] = (
        c.refreshes_changed / c.refreshes if c.refreshes else 0.0, "fraction",
    )

    overhead = {}
    for key in ("cycle_s", "train_s", "eval_s", "export_s", "setup_s"):
        on_v, _ = center_of(passes[True], key)
        off_v, _ = center_of(passes[False], key)
        if on_v is not None and off_v:
            overhead[key] = on_v / off_v
    for key in ("cycle_s", "eval_s", "export_s"):
        metrics[f"trace.{key}_ratio"] = (overhead.get(key, 0.0), "ratio")

    steps = step_table(step_seconds(spans))
    tail_name = next((k for k in steps if k.startswith("step_ms_p") and k != "step_ms_p50"), None)
    metrics["train.step_ms_p50"] = (steps.get("step_ms_p50", (0.0,))[0], "ms")
    metrics["train.step_ms_tail"] = (steps[tail_name][0] if tail_name else 0.0, "ms")
    for kind in ("inductive", "transductive"):
        metrics[f"{kind}.step_ms_p50"] = (steps.get(f"{kind}.step_ms_p50", (0.0,))[0], "ms")

    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{workload.name}-{seed}.jsonl"
    with open(spans_file, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(span) + "\n" for span in spans)

    table = {k: (v, u, n) for k, (v, u) in metrics.items()}
    return {
        "ledger": ledger,
        "table": table,
        "metrics": metrics,
        "extra": {
            "passes": {"untraced": len(passes[False]), "traced": n},
            "trace_overhead": overhead,
            "step_tail": tail_name,
            "spans": len(spans),
            "spans_file": str(spans_file.relative_to(ROOT)),
            "digests": reference,
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "dgzsl" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no dgzsl source checkout at {ROOT}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        run = (traced if args.trace else measure)(workload, work, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    ledger = run["ledger"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit, n) in run["table"].items():
        print(f"  {name:<48} {value:>14.6g} {unit:<9} n={n}")
    for problem in ledger.problems:
        print(f"  FAILED: {problem}")
    report = {"environment": environment(args.seed), **run["extra"]}
    print("report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
