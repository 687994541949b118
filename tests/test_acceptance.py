"""End-to-end behavioral gates.

Each test is one pass/fail line under ``pytest -v``: closed-form math against
Monte Carlo, analytic gradients against finite differences, multi-seed
training quality on the synthetic benchmark, prediction-rule equivalence,
target-sharpening invariants, and bit-exact reproducibility.
"""

import time

import numpy as np
from conftest import SEEDS, perturbed_model, prior_model, unseen_accuracy
from oracles import kl_diag, margin_term, predict_via_bound, predict_zsl, target_assignment_kl

from dgzsl import autodiff as ad
from dgzsl.config import TrainConfig
from dgzsl.data import fewshot_sample, save_dataset
from dgzsl.gaussian import DiagGaussian
from dgzsl.inductive import inductive_value
from dgzsl.networks import ModelParams, class_prior
from dgzsl.train import fewshot_finetune, run_train
from dgzsl.transductive import sharpen, soft_assign, transductive_value


def test_closed_form_kl_matches_monte_carlo():
    """50 random diagonal-Gaussian pairs, dims 1..16, 1e5 antithetic samples."""
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    for trial in range(50):
        d = int(rng.integers(1, 17))
        mean_q, mean_p = rng.normal(size=d), rng.normal(size=d)
        logvar_q, logvar_p = rng.uniform(-1, 1, d), rng.uniform(-1, 1, d)
        closed = kl_diag(DiagGaussian(mean_q, logvar_q), DiagGaussian(mean_p, logvar_p))

        def log_ratio(z):
            lq = -0.5 * np.sum(
                np.log(2 * np.pi) + logvar_q + (z - mean_q) ** 2 / np.exp(logvar_q),
                axis=1,
            )
            lp = -0.5 * np.sum(
                np.log(2 * np.pi) + logvar_p + (z - mean_p) ** 2 / np.exp(logvar_p),
                axis=1,
            )
            return lq - lp

        step = np.exp(0.5 * logvar_q) * rng.normal(size=(50_000, d))
        estimate = 0.5 * (log_ratio(mean_q + step) + log_ratio(mean_q - step)).mean()
        tol = max(0.01, 0.02 * abs(closed))
        assert abs(closed - estimate) <= tol, (
            f"trial {trial} (d={d}): closed form {closed:.6f} vs sampled "
            f"{estimate:.6f}, tolerance {tol:.4f}"
        )
    assert time.perf_counter() - started < 30.0


def test_soft_margin_brackets_the_minimum_divergence():
    """min KL − ln(#classes) ≤ soft margin ≤ min KL, 100 random instances."""
    rng = np.random.default_rng(7)
    started = time.perf_counter()
    classes = 10
    for trial in range(100):
        latent = int(rng.integers(1, 9))
        attr = int(rng.integers(1, 6))
        prior = prior_model(
            rng.normal(scale=0.7, size=(latent, attr)),
            rng.normal(scale=0.3, size=(latent, attr)),
        )
        attrs = rng.uniform(-1, 1, size=(classes, attr))
        q = DiagGaussian(rng.normal(scale=1.5, size=(1, latent)), rng.uniform(-2, 2, (1, latent)))
        kls = np.array([kl_diag(q, class_prior(attrs[c : c + 1], prior)) for c in range(classes)])
        value = margin_term(q, attrs, prior)
        low = kls.min() - np.log(classes)
        assert low - 1e-9 <= value <= kls.min() + 1e-9, (
            f"trial {trial}: margin {value:.9f} outside "
            f"[{low:.9f}, {kls.min():.9f}]"
        )
    assert time.perf_counter() - started < 5.0


def test_analytic_gradients_match_finite_differences():
    """Tape gradients of both objectives vs central differences, eps 1e-5."""
    started = time.perf_counter()
    model = perturbed_model(3)  # D=8, M=3, L=4, hidden (16, 16), no dropout
    rng = np.random.default_rng(30)
    attrs = rng.uniform(-1, 1, size=(7, 3))
    seen_ids, unseen_ids = np.arange(4), np.arange(4, 7)
    feats = rng.normal(size=(6, 8))
    labels = rng.integers(0, 4, size=6)
    noise = rng.normal(size=(6, 4))
    unlab = rng.normal(size=(5, 8))
    noise_u = rng.normal(size=(5, 4))
    target = sharpen(soft_assign(unlab, attrs[unseen_ids], model)).values

    def supervised(params):
        m = ModelParams(model.layout, tensors=params)
        return inductive_value(
            m, feats, labels, attrs, noise=noise, margin_class_ids=seen_ids
        )[0]

    def combined(params):
        m = ModelParams(model.layout, tensors=params)
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

    err_supervised = ad.grad_check(supervised, model.named_arrays(), epsilon=1e-5)
    err_combined = ad.grad_check(combined, model.named_arrays(), epsilon=1e-5)
    assert err_supervised < 1e-4, f"supervised objective: max rel err {err_supervised:.3e}"
    assert err_combined < 1e-4, f"combined objective: max rel err {err_combined:.3e}"
    assert time.perf_counter() - started < 60.0


def _assert_family_solves_synthetic_benchmark(family, bench_datasets, what):
    """Mean unseen-class top-1 over 5 seeds ≥ 0.70 on the synthetic data."""
    accs = {
        s: unseen_accuracy(family.runs[s].model, bench_datasets[s])
        for s in SEEDS
    }
    mean_acc = float(np.mean(list(accs.values())))
    detail = ", ".join(f"seed {s}: {a:.3f}" for s, a in accs.items())
    print(f"{what} unseen accuracy — {detail}; mean {mean_acc:.3f}")
    assert mean_acc >= 0.70, f"mean accuracy {mean_acc:.3f} ({detail})"
    assert family.seconds < 300.0, f"training took {family.seconds:.0f}s"


def test_inductive_training_solves_synthetic_benchmark(inductive_family, bench_datasets):
    _assert_family_solves_synthetic_benchmark(inductive_family, bench_datasets, "inductive")


def test_float32_inductive_training_solves_synthetic_benchmark(inductive_family_f32, bench_datasets):
    """The same gate, no threshold changed, for a family trained in float32."""
    for run in inductive_family_f32.runs.values():
        assert run.model.flat.dtype == np.float32
    _assert_family_solves_synthetic_benchmark(inductive_family_f32, bench_datasets, "float32 inductive")


def test_unlabeled_pool_does_not_hurt_average_accuracy(
    inductive_family, transductive_family, bench_datasets
):
    """Per-seed accuracy deltas (transductive − inductive) average ≥ 0."""
    deltas = {}
    for s in SEEDS:
        base = unseen_accuracy(inductive_family.runs[s].model, bench_datasets[s])
        with_pool = unseen_accuracy(transductive_family.runs[s].model, bench_datasets[s])
        deltas[s] = with_pool - base
    mean_delta = float(np.mean(list(deltas.values())))
    detail = ", ".join(f"seed {s}: {d:+.3f}" for s, d in deltas.items())
    print(f"transductive minus inductive — {detail}; mean {mean_delta:+.3f}")
    assert mean_delta >= 0.0, f"mean delta {mean_delta:+.3f} ({detail})"


def test_full_unlabeled_objective_beats_reconstruction_only(
    transductive_family, recononly_family, bench_datasets
):
    """Assignment sharpening must add value over unlabeled reconstruction alone."""
    full = float(
        np.mean(
            [
                unseen_accuracy(transductive_family.runs[s].model, bench_datasets[s])
                for s in SEEDS
            ]
        )
    )
    recon_only = float(
        np.mean(
            [
                unseen_accuracy(recononly_family.runs[s].model, bench_datasets[s])
                for s in SEEDS
            ]
        )
    )
    print(f"full unlabeled objective {full:.3f} vs reconstruction-only {recon_only:.3f}")
    assert full >= recon_only, f"full {full:.3f} < reconstruction-only {recon_only:.3f}"


def test_accuracy_grows_with_labeled_unseen_examples(inductive_family, bench_datasets):
    """Mean accuracy is monotone across k = 0, 5, 20 labeled unseen examples."""
    per_k = {0: [], 5: [], 20: []}
    for s in SEEDS:
        ds = bench_datasets[s]
        base = inductive_family.runs[s].model
        per_k[0].append(unseen_accuracy(base, ds))
        for k in (5, 20):
            split = fewshot_sample(ds, k, seed=1000 + s)
            tuned = fewshot_finetune(
                base,
                ds.features[split.labeled_idx],
                ds.labels[split.labeled_idx],
                ds.attributes,
                np.asarray(ds.unseen_classes),
                TrainConfig(fewshot_epochs=60),
                seed=s,
            )
            per_k[k].append(unseen_accuracy(tuned, ds, idx=split.unlabeled_idx))
    means = {k: float(np.mean(v)) for k, v in per_k.items()}
    print(
        "few-shot means — "
        + ", ".join(f"k={k}: {m:.3f}" for k, m in sorted(means.items()))
    )
    assert means[5] >= means[0], f"k=5 mean {means[5]:.3f} < k=0 mean {means[0]:.3f}"
    assert means[20] >= means[5], f"k=20 mean {means[20]:.3f} < k=5 mean {means[5]:.3f}"


def test_bound_and_divergence_predictions_agree(bench_datasets):
    """argmax of the per-class bound equals argmin divergence on every input."""
    ds = bench_datasets[0]
    candidate_ids = np.asarray(ds.unseen_classes)
    feats = ds.test_features
    disagreements = 0
    for trial in range(10):
        model = perturbed_model(
            200 + trial, feature_dim=32, attr_dim=8, latent_dim=16, hidden=(32, 32)
        )
        rng = np.random.default_rng(trial)
        for x in feats:
            noise = rng.normal(size=16)
            via_bound = predict_via_bound(x, candidate_ids, ds.attributes, model, noise)
            via_kl = predict_zsl(x, candidate_ids, ds.attributes, model).label
            disagreements += via_bound != via_kl
    total = 10 * feats.shape[0]
    assert disagreements == 0, f"{disagreements}/{total} predictions disagree"


def test_target_sharpening_preserves_probability_structure():
    """Row-stochasticity, fixed points, concentration, divergence sign."""
    rng = np.random.default_rng(77)
    base = rng.dirichlet(np.full(5, 0.7), size=200)
    # stacking all cyclic shifts makes every class marginal exactly equal
    rows = np.concatenate([np.roll(base, shift, axis=1) for shift in range(5)])
    q = rows
    p = sharpen(q).values

    assert np.abs(q.sum(axis=1) - 1.0).max() <= 1e-9
    assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-9

    one_hot = np.eye(4)[rng.integers(0, 4, size=50)]
    assert np.array_equal(sharpen(one_hot).values, one_hot)

    assert np.array_equal(sharpen(rows[:1]).values, rows[:1])

    # equal marginals: sharpening can only concentrate each row
    assert (p.max(axis=1) >= q.max(axis=1) - 1e-12).all()

    assert target_assignment_kl(rows, q) == 0.0
    kl_sharpened = target_assignment_kl(p, q)
    assert kl_sharpened > 0.0

    nearly = rows * (1.0 + 1e-9 * rng.uniform(0.5, 1.0, size=rows.shape))
    nearly /= nearly.sum(axis=1, keepdims=True)
    kl_near = target_assignment_kl(nearly, q)
    assert -1e-12 <= kl_near <= 1e-12
    assert np.abs(nearly - rows).max() < 1e-5


def test_reruns_reproduce_metrics_bit_for_bit(bench_datasets, tmp_path):
    """Same config, same data, two runs: byte-identical metrics and weights."""
    _assert_reruns_reproduce(bench_datasets, tmp_path, "float64")


def test_float32_reruns_reproduce_metrics_bit_for_bit(bench_datasets, tmp_path):
    _assert_reruns_reproduce(bench_datasets, tmp_path, "float32")


def _assert_reruns_reproduce(bench_datasets, tmp_path, dtype):
    data_dir = tmp_path / "data"
    save_dataset(bench_datasets[3], data_dir)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "regime = transductive\n"
        "epochs = 30\n"
        "pretrain_epochs = 10\n"
        "latent_dim = 8\n"
        "hidden_dims = 32,32\n"
        "batch_size = 100\n"
        "seed = 3\n"
        f"dtype = {dtype}\n",
        encoding="utf-8",
    )
    first, second = tmp_path / "first", tmp_path / "second"
    run_train(cfg_path, data_dir, first)
    run_train(cfg_path, data_dir, second)
    assert (first / "metrics.jsonl").read_bytes() == (second / "metrics.jsonl").read_bytes()
    assert (first / "model.ckpt").read_bytes() == (second / "model.ckpt").read_bytes()
