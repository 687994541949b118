"""The trainer's step sequence against a plain reference loop, and its
phases at their edges."""

import numpy as np
import pytest
from oracles import reference_train

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
