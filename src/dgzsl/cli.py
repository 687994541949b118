"""Command-line surface: synth, train, eval, fewshot, gradcheck, export."""

import os

# Thread caps must be in the environment before numpy loads its BLAS.
_threads = os.environ.get("DGZSL_THREADS")
if _threads:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        os.environ.setdefault(_var, _threads)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from dataclasses import fields  # noqa: E402

import numpy as np  # noqa: E402

from .config import REGIMES, TrainConfig  # noqa: E402
from .data import SynthSpec, save_dataset, synth_generate  # noqa: E402
from .errors import DgzslError  # noqa: E402
from .serialize import plain_number_text, save_text  # noqa: E402
from .train import export_embeddings, run_eval, run_train  # noqa: E402


def _fields_of(cls, args) -> dict:
    """The parsed flags of ``args`` that name a field of the dataclass ``cls``."""
    return {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}


def _cmd_synth(args) -> int:
    dataset = synth_generate(SynthSpec(**_fields_of(SynthSpec, args)))
    save_dataset(dataset, args.out)
    print(
        json.dumps(
            {
                "out": str(args.out),
                "examples": int(dataset.features.shape[0]),
                "classes": dataset.num_classes,
                "seen": len(dataset.seen_classes),
                "unseen": len(dataset.unseen_classes),
            },
            sort_keys=True,
        )
    )
    return 0


def _cmd_train(args) -> int:
    summary = run_train(args.config, args.data, args.out, **_fields_of(TrainConfig, args))
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_eval(args) -> int:
    report = run_eval(args.checkpoint, args.data, candidates=args.candidates)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        save_text(args.out, text + "\n")
    print(text)
    return 0


def _cmd_export(args) -> int:
    paths = export_embeddings(args.checkpoint, args.data, args.out)
    print(json.dumps(paths, sort_keys=True))
    return 0


def _cmd_gradcheck(args) -> int:
    from . import autodiff as ad
    from .inductive import inductive_value
    from .networks import ModelParams, init_model
    from .transductive import sharpen, soft_assign, transductive_value

    positive = ("feature_dim", "latent_dim", "hidden", "attr_dim", "seen", "batch", "epsilon", "tolerance")
    for name in positive:
        value = getattr(args, name)
        if not value > 0:
            raise DgzslError(f"--{name.replace('_', '-')} must be positive, got {value}")
    if args.unseen < 2:
        raise DgzslError(f"--unseen must be at least 2, got {args.unseen}")
    if args.seed < 0:
        raise DgzslError(f"--seed must be non-negative, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    seen, unseen = args.seen, args.unseen
    classes = seen + unseen
    model = init_model(
        rng, args.feature_dim, args.attr_dim, args.latent_dim, (args.hidden, args.hidden), 1.0
    )
    # nudge the zero-initialized logvar maps so their gradients are exercised
    model.flat += 0.05 * rng.normal(size=model.flat.size)
    attrs = rng.uniform(-1, 1, size=(classes, args.attr_dim))
    feats = rng.normal(size=(args.batch, args.feature_dim))
    labels = rng.integers(0, seen, size=args.batch)
    noise = rng.normal(size=(args.batch, args.latent_dim))
    seen_ids, unseen_ids = np.arange(seen), np.arange(seen, classes)

    def supervised(p):
        m = ModelParams(model.layout, tensors=p)
        return inductive_value(m, feats, labels, attrs, noise=noise, margin_class_ids=seen_ids)[0]

    err_sup = ad.grad_check(supervised, model.named_arrays(), epsilon=args.epsilon)

    unlab = rng.normal(size=(args.batch, args.feature_dim))
    noise_u = rng.normal(size=(args.batch, args.latent_dim))
    target = sharpen(soft_assign(unlab, attrs[unseen_ids], model)).values

    def combined(p):
        m = ModelParams(model.layout, tensors=p)
        return transductive_value(
            m,
            feats,
            labels,
            unlab,
            target,
            attrs,
            margin_class_ids=seen_ids,
            unseen_class_ids=unseen_ids,
            noise=noise,
            noise_unlabeled=noise_u,
        )[0]

    err_comb = ad.grad_check(combined, model.named_arrays(), epsilon=args.epsilon)

    print(f"supervised objective: max relative error {err_sup:.3e}")
    print(f"combined objective:   max relative error {err_comb:.3e}")
    ok = max(err_sup, err_comb) < args.tolerance
    print("PASS" if ok else f"FAIL (tolerance {args.tolerance:g})")
    return 0 if ok else 1


def _plain(kind):
    """An argparse type: ``kind`` (int or float) of plain_number_text only,
    so ``--k 1_0`` is a usage error, as ``--k ten`` is."""

    def parse(text: str):
        if not plain_number_text(text):
            raise ValueError(text)
        return kind(text)

    parse.__name__ = kind.__name__  # argparse names the type in its message
    return parse


INT, FLOAT = _plain(int), _plain(float)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``dgzsl`` parser, built once per process: building it costs about
    twenty times a parse, and each parse_args fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="dgzsl",
        description="Zero-shot learning with attribute-conditioned latent priors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def flag(p, name):
        p.add_argument(name, action="store_const", const=True, default=None)

    p = sub.add_parser("synth", help="generate the synthetic benchmark")
    p.add_argument("--out", required=True)
    for f in fields(SynthSpec):  # int fields, and noise_std (default None)
        kind = INT if isinstance(f.default, int) else FLOAT
        p.add_argument(f"--{f.name.replace('_', '-')}", type=kind, default=f.default)
    p.set_defaults(func=_cmd_synth)

    def train_like(name, help_text):
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--config", required=True)
        q.add_argument("--data", required=True)
        q.add_argument("--out", required=True)
        q.add_argument("--seed", type=INT, default=None)
        flag(q, "--no-recon")
        flag(q, "--recon-only-unlabeled")
        q.set_defaults(func=_cmd_train, transductive_fewshot=None)
        return q

    p = train_like("train", "train a model per the config")
    p.add_argument("--regime", choices=REGIMES, default=None)
    p.add_argument("--k", type=INT, default=None)

    p = train_like("fewshot", "train, then fine-tune on k labeled unseen examples")
    p.add_argument("--k", type=INT, required=True)
    p.add_argument("--transductive-phase", dest="transductive_fewshot", action="store_const", const=True)
    p.set_defaults(regime="fewshot")

    p = sub.add_parser("eval", help="score a checkpoint on the test split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--candidates", choices=("unseen", "seen", "all"), default="unseen")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of both objectives")
    p.add_argument("--seed", type=INT, default=0)
    p.add_argument("--feature-dim", type=INT, default=8)
    p.add_argument("--latent-dim", type=INT, default=4)
    p.add_argument("--hidden", type=INT, default=16)
    p.add_argument("--attr-dim", type=INT, default=3)
    p.add_argument("--seen", type=INT, default=4)
    p.add_argument("--unseen", type=INT, default=3)
    p.add_argument("--batch", type=INT, default=6)
    p.add_argument("--epsilon", type=FLOAT, default=1e-5)
    p.add_argument("--tolerance", type=FLOAT, default=1e-4)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("export", help="write latent means and reconstructions")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export)

    return parser


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # <malloc.h> option numbers


@functools.cache
def malloc_policy() -> bool:
    """Sets the process's glibc malloc thresholds once; whether it did.

    By default glibc trims the freed top of the heap after a call and the
    next call faults the same pages back in, and setting only the trim
    threshold turns off the dynamic mmap threshold, so every array of
    128 KiB or more would be mapped afresh. Fixing both keeps freed arrays
    on the heap for reuse. Off glibc, or without ``mallopt``, it does
    nothing. Only ``main`` calls it: library callers keep their allocator.
    """
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # 32 MiB is glibc's own 64-bit ceiling for its dynamic mmap threshold;
    # 256 MiB is above any heap top a run frees and takes back
    mmap_set = mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    trim_set = mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    return bool(mmap_set and trim_set)


def main(argv=None) -> int:
    malloc_policy()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DgzslError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
