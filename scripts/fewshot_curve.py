#!/usr/bin/env python3
"""Accuracy as a function of k labeled examples per unseen class.

Trains one inductive model per seed, then fine-tunes a copy for each k and
scores it on the remaining unlabeled test rows. k=0 is the untouched
zero-shot model.

Example:
    PYTHONPATH=src python3 scripts/fewshot_curve.py --ks 0 2 5 10 15 20
"""

import argparse
import json

import numpy as np

from dgzsl.config import TrainConfig
from dgzsl.data import SynthSpec, fewshot_sample, synth_generate
from dgzsl.inference import accuracy
from dgzsl.serialize import save_text
from dgzsl.train import fewshot_finetune, train_model


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    parser.add_argument("--ks", type=int, nargs="+", default=[0, 2, 5, 10, 15, 20])
    parser.add_argument("--epochs", type=int, default=120)
    parser.add_argument("--finetune-epochs", type=int, default=60)
    parser.add_argument("--latent-dim", type=int, default=16)
    parser.add_argument("--hidden", type=int, nargs="+", default=[64, 64])
    parser.add_argument("--out", help="optional JSON results file")
    args = parser.parse_args()

    curve = {k: [] for k in args.ks}
    for seed in args.seeds:
        ds = synth_generate(SynthSpec(seed=seed))
        cfg = TrainConfig(
            latent_dim=args.latent_dim,
            hidden_dims=tuple(args.hidden),
            epochs=args.epochs,
            fewshot_epochs=args.finetune_epochs,
            seed=seed,
        )
        base = train_model(ds, cfg).model
        unseen_ids = np.asarray(ds.unseen_classes)
        for k in args.ks:
            if k == 0:
                acc = accuracy(
                    ds.test_features, ds.test_labels, unseen_ids, ds.attributes, base
                )
            else:
                split = fewshot_sample(ds, k, seed=1000 + seed)
                tuned = fewshot_finetune(
                    base,
                    ds.features[split.labeled_idx],
                    ds.labels[split.labeled_idx],
                    ds.attributes,
                    unseen_ids,
                    cfg,
                    seed=seed,
                )
                acc = accuracy(
                    ds.features[split.unlabeled_idx],
                    ds.labels[split.unlabeled_idx],
                    unseen_ids,
                    ds.attributes,
                    tuned,
                )
            curve[k].append(acc)
            print(f"  seed {seed}  k={k:>2}: {acc:.3f}", flush=True)

    print()
    print(" k   " + "  ".join(f"s{seed}" for seed in args.seeds) + "   mean")
    means = {}
    for k in args.ks:
        means[k] = float(np.mean(curve[k]))
        row = "  ".join(f"{a:.2f}" for a in curve[k])
        print(f"{k:>2}   {row}   {means[k]:.3f}")

    if args.out:
        results = {str(k): {"per_seed": curve[k], "mean": means[k]} for k in args.ks}
        save_text(args.out, json.dumps(results, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
