"""Prediction rules and few-shot fine-tuning."""

import numpy as np
import pytest

from dgzsl.errors import DgzslError
from dgzsl.gaussian import DiagGaussian, kl_matrix
from dgzsl.inference import accuracy, predict_batch
from dgzsl.config import TrainConfig
from dgzsl.inductive import inductive_value
from dgzsl.networks import class_prior, encode
from dgzsl.train import fewshot_finetune, load_model, save_model, train_model

from conftest import perturbed_model, unseen_accuracy
from oracles import Prediction, predict_via_bound, predict_zsl


@pytest.fixture()
def setup():
    rng = np.random.default_rng(60)
    model = perturbed_model(60)
    attrs = rng.uniform(-1, 1, (6, 3))
    x = rng.normal(size=8)
    return model, attrs, x, rng


def test_prediction_type_enforces_argmin():
    q = DiagGaussian(np.zeros(2), np.zeros(2))
    Prediction(label=3, candidate_ids=(3, 5), kl_scores=np.array([0.1, 0.4]), posterior=q)
    with pytest.raises(DgzslError):
        Prediction(label=5, candidate_ids=(3, 5), kl_scores=np.array([0.1, 0.4]), posterior=q)
    with pytest.raises(DgzslError):
        Prediction(label=3, candidate_ids=(3, 5), kl_scores=np.array([-0.5, 0.4]), posterior=q)


def test_predict_zsl_matches_manual_argmin(setup):
    model, attrs, x, _ = setup
    pred = predict_zsl(x, np.arange(6), attrs, model)
    q = encode(x[None, :], model)
    kls = kl_matrix(q, class_prior(attrs, model))[0]
    assert pred.label == int(np.argmin(kls))
    assert np.allclose(pred.kl_scores, kls)
    assert pred.candidate_ids == tuple(range(6))


def test_predict_zsl_is_deterministic(setup):
    model, attrs, x, _ = setup
    a = predict_zsl(x, (4, 1, 2), attrs, model)
    b = predict_zsl(x, (4, 1, 2), attrs, model)
    assert a.label == b.label
    assert np.array_equal(a.kl_scores, b.kl_scores)


def test_prediction_depends_only_on_kl_ordering(setup):
    model, attrs, x, _ = setup
    pred = predict_zsl(x, np.arange(6), attrs, model)
    shifted = pred.kl_scores + 7.3  # same ordering, shifted scores
    assert int(np.argmin(shifted)) == int(np.argmin(pred.kl_scores))


def test_tie_breaks_to_lowest_class_id(setup):
    model, attrs, x, _ = setup
    rows = attrs.copy()
    rows[4] = rows[2]  # classes 2 and 4 become indistinguishable
    labels, scores, _ = predict_batch(x[None, :], (2, 4), rows, model)
    assert scores[0, 0] == scores[0, 1]
    assert labels[0] == 2


def test_candidate_set_validation(setup):
    model, attrs, x, _ = setup
    with pytest.raises(DgzslError):
        predict_zsl(x, (), attrs, model)
    with pytest.raises(DgzslError):
        predict_zsl(x, (0, 6), attrs, model)


def test_label_always_inside_candidate_set(setup):
    model, attrs, x, rng = setup
    for _ in range(10):
        ids = rng.choice(6, size=3, replace=False)
        pred = predict_zsl(rng.normal(size=8), ids, attrs, model)
        assert pred.label in set(int(i) for i in ids)


def test_accuracy_hand_case(setup):
    model, attrs, _, rng = setup
    feats = rng.normal(size=(20, 8))
    predicted, _, _ = predict_batch(feats, np.arange(6), attrs, model)
    labels = predicted.copy()
    labels[:5] = (labels[:5] + 1) % 6  # break 5 of 20
    assert accuracy(feats, labels, np.arange(6), attrs, model) == pytest.approx(0.75)


def test_bound_rule_agrees_with_kl_rule(setup):
    model, attrs, _, rng = setup
    for _ in range(50):
        x = rng.normal(size=8)
        noise = rng.normal(size=4)
        via_kl = predict_zsl(x, np.arange(6), attrs, model).label
        via_bound = predict_via_bound(x, np.arange(6), attrs, model, noise)
        assert via_bound == via_kl


# ------------------------------------------------------------- few-shot


def test_fewshot_empty_set_returns_unchanged_copy(setup):
    model, attrs, _, _ = setup
    out = fewshot_finetune(model, np.zeros((0, 8)), np.zeros(0, int), attrs, (4, 5))
    assert out is not model
    for key, arr in model.named_arrays().items():
        assert np.array_equal(out.named_arrays()[key], arr), key


def test_fewshot_rejects_labels_outside_unseen(setup):
    model, attrs, _, rng = setup
    feats = rng.normal(size=(3, 8))
    with pytest.raises(DgzslError):
        fewshot_finetune(model, feats, np.array([4, 5, 1]), attrs, (4, 5))


def test_fewshot_is_deterministic_and_leaves_input_alone(setup):
    model, attrs, _, rng = setup
    before = {k: v.copy() for k, v in model.named_arrays().items()}
    feats = rng.normal(size=(6, 8))
    labels = np.array([4, 5, 4, 5, 4, 5])
    cfg = TrainConfig(fewshot_epochs=3, fewshot_batch_size=4)
    a = fewshot_finetune(model, feats, labels, attrs, (4, 5), cfg, seed=7)
    b = fewshot_finetune(model, feats, labels, attrs, (4, 5), cfg, seed=7)
    for key in before:
        assert np.array_equal(a.named_arrays()[key], b.named_arrays()[key]), key
        assert np.array_equal(model.named_arrays()[key], before[key]), key
    # and training actually moved the parameters
    assert any(
        not np.array_equal(a.named_arrays()[k], before[k]) for k in before
    )


def test_fewshot_log_line_is_eval_mode_objective(tiny_dataset):
    """The fewshot line scores the fine-tuned model on its k-shot rows with
    zero latent noise: the posterior mean is decoded, nothing is drawn."""
    ds = tiny_dataset
    cfg = TrainConfig(
        regime="fewshot", k=2, latent_dim=4, hidden_dims=(16,), batch_size=20,
        epochs=3, fewshot_epochs=3, fewshot_batch_size=4, seed=5,
    )
    result = train_model(ds, cfg)
    line = result.records[-1]
    assert line.phase == "fewshot"
    labeled = np.setdiff1d(np.arange(ds.n_train, ds.labels.size), result.eval_idx)
    assert labeled.size == cfg.k * len(ds.unseen_classes)
    _, bd = inductive_value(
        result.model,
        ds.features[labeled],
        ds.labels[labeled],
        ds.attributes,
        noise=np.zeros((labeled.size, cfg.latent_dim)),
        margin_class_ids=np.sort(ds.unseen_classes),
        margin_weight=cfg.margin_weight,
    )
    assert (line.total, line.reconstruction, line.kl_true_class, line.margin) == (
        bd.total,
        bd.reconstruction,
        bd.kl_true_class,
        bd.margin,
    )


def test_fewshot_can_include_seen_classes_in_margin(setup):
    model, attrs, _, rng = setup
    feats = rng.normal(size=(4, 8))
    labels = np.array([4, 5, 4, 5])
    narrow = fewshot_finetune(
        model, feats, labels, attrs, (4, 5), TrainConfig(fewshot_epochs=2), seed=3
    )
    wide = fewshot_finetune(
        model,
        feats,
        labels,
        attrs,
        (4, 5),
        TrainConfig(fewshot_epochs=2, include_seen_margin=True),
        seed=3,
    )
    assert any(
        not np.array_equal(narrow.named_arrays()[k], wide.named_arrays()[k])
        for k in narrow.named_arrays()
    )


def test_fewshot_improves_benchmark_accuracy(bench_datasets, inductive_family):
    from dgzsl.data import fewshot_sample

    ds = bench_datasets[0]
    run = inductive_family.runs[0]
    split = fewshot_sample(ds, 5, seed=123)
    tuned = fewshot_finetune(
        run.model,
        ds.features[split.labeled_idx],
        ds.labels[split.labeled_idx],
        ds.attributes,
        ds.unseen_classes,
        TrainConfig(fewshot_epochs=30),
        seed=0,
    )
    before = unseen_accuracy(run.model, ds, split.unlabeled_idx)
    after = unseen_accuracy(tuned, ds, split.unlabeled_idx)
    assert after >= before


@pytest.mark.parametrize("family", ["inductive_family", "transductive_family", "recononly_family"])
def test_checkpoint_scores_the_final_logged_accuracy(family, bench_datasets, request, tmp_path):
    # training runs in float64 and checkpoints hold float32: the reloaded
    # model must still reproduce the last logged unseen-class accuracy
    for seed, run in request.getfixturevalue(family).runs.items():
        path = tmp_path / f"{seed}.ckpt"
        save_model(path, run.model)
        reloaded = load_model(path)
        got = unseen_accuracy(reloaded, bench_datasets[seed], run.eval_idx)
        assert got == run.records[-1].accuracy, (family, seed)
