"""The trainer's step sequence against a plain reference loop, its phases
at their edges, and training on classes renamed by a permutation."""

import numpy as np
import pytest
from oracles import reference_train, relabelled

from dgzsl.config import TrainConfig
from dgzsl.data import Dataset, SynthSpec, synth_generate
from dgzsl.errors import DgzslError
from dgzsl.train import train_model

TINY = SynthSpec(seen=4, unseen=3, attr_dim=3, feature_dim=6, per_class=12, seed=2)
SMALL = dict(latent_dim=3, hidden_dims=(8,), batch_size=10, epochs=3)

CASES = {
    "inductive": dict(regime="inductive"),
    "transductive": dict(regime="transductive", epochs=4, pretrain_epochs=1, refresh_every=2),
    "fewshot": dict(
        regime="fewshot", k=2, fewshot_epochs=2, fewshot_batch_size=4, transductive_fewshot=True,
        transductive_epochs=3, refresh_every=2,
    ),
    "fewshot-ablations": dict(
        regime="fewshot", k=2, fewshot_epochs=2, fewshot_batch_size=4, transductive_fewshot=True,
        transductive_epochs=2, include_seen_margin=True, margin_weight=0.5,
        no_recon=True, recon_only_unlabeled=True,
    ),
}


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("case", CASES)
def test_train_model_takes_the_reference_loops_steps_bit_for_bit(case, dtype):
    ds = synth_generate(TINY)
    cfg = TrainConfig(**{**SMALL, **CASES[case], "dtype": dtype})
    result = train_model(ds, cfg)
    model, lines = reference_train(ds, cfg)
    assert [r.metrics_line() for r in result.records] == lines
    assert result.model.flat.dtype == np.dtype(dtype)
    assert result.model.flat.tobytes() == model.flat.tobytes()


def _phases(result):
    return [r.phase for r in result.records]


def test_a_transductive_phase_of_no_epochs_needs_no_unlabeled_rows():
    ds = synth_generate(TINY)
    no_test = Dataset(
        ds.train_features, ds.train_labels, ds.n_train, ds.attributes, ds.seen_classes, ds.unseen_classes
    )
    cfg = TrainConfig(**{**SMALL, "regime": "transductive", "epochs": 2, "pretrain_epochs": 2})
    assert _phases(train_model(no_test, cfg)) == ["inductive"] * 2

    per_class = TINY.per_class  # every unseen test row goes to the few-shot set
    cfg = TrainConfig(
        regime="fewshot", k=per_class, fewshot_epochs=1, transductive_fewshot=True, transductive_epochs=0, **SMALL
    )
    result = train_model(ds, cfg)
    assert result.eval_idx.size == 0
    assert _phases(result) == ["inductive"] * 3 + ["fewshot"]


def test_a_transductive_phase_with_epochs_and_no_unlabeled_rows_names_its_epoch():
    ds = synth_generate(TINY)
    cfg = TrainConfig(
        regime="fewshot", k=TINY.per_class, fewshot_epochs=1, transductive_fewshot=True, transductive_epochs=1,
        **SMALL,
    )
    with pytest.raises(DgzslError, match="^transductive epoch 5: transductive phase has no unlabeled rows$"):
        train_model(ds, cfg)


# the tiny set that tests/test_row_blocks.py scores relabelled: classes 0..4
# renamed 1, 4, 2, 0, 3, so the seen ids become 1, 2 and 4 and the unseen 0 and 3
RELABEL = SynthSpec(seen=3, unseen=2, attr_dim=2, feature_dim=5, per_class=4, seed=6)
NEW_ID = [1, 4, 2, 0, 3]
SHORT = {
    "inductive": dict(regime="inductive", epochs=3),
    "transductive": dict(regime="transductive", epochs=4, pretrain_epochs=1, refresh_every=2),
}


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("case", SHORT)
def test_training_on_relabelled_classes_gives_the_model_and_the_accuracies_of_the_original(case, dtype):
    """The model sees a class only through its attribute row; renaming the
    classes only reorders the margin's sum over the seen classes. So the
    trained model matches the original's within 2 eps of its dtype, relative
    to max(1, |entry|) (the worst measured over seeds 0..4 and 4 or 10 rows
    a class was eps/2 in float64 and eps/4 in float32), and the logged
    accuracies are the same."""
    ds = synth_generate(RELABEL)
    renamed = relabelled(ds, NEW_ID)
    eps = np.finfo(dtype).eps
    for seed in range(5):
        cfg = TrainConfig(latent_dim=3, hidden_dims=(8,), batch_size=5, dtype=dtype, seed=seed, **SHORT[case])
        original, other = train_model(ds, cfg), train_model(renamed, cfg)
        a, b = original.model.flat.astype(np.float64), other.model.flat.astype(np.float64)
        assert np.all(np.abs(a - b) <= 2 * eps * np.maximum(1.0, np.abs(a)))
        assert [r.accuracy for r in other.records] == [r.accuracy for r in original.records]


def test_few_shot_training_on_relabelled_classes_gives_each_unseen_class_k_rows():
    renamed = relabelled(synth_generate(RELABEL), NEW_ID)
    cfg = TrainConfig(regime="fewshot", k=2, fewshot_epochs=1, fewshot_batch_size=4, **SMALL)
    result = train_model(renamed, cfg)
    test_rows = np.arange(renamed.n_train, renamed.labels.size)
    labeled = np.setdiff1d(test_rows, result.eval_idx)
    classes, counts = np.unique(renamed.labels[labeled], return_counts=True)
    assert classes.tolist() == [0, 3] and counts.tolist() == [2, 2]
