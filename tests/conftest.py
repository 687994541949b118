"""Shared fixtures.

Training is the expensive part of the suite, so every (regime, seed) model on
the synthetic benchmark is trained once per session and shared between the
per-module tests and the end-to-end gates in test_acceptance.py.
"""

import time
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from dgzsl.config import TrainConfig
from dgzsl.data import SynthSpec, synth_generate
from dgzsl.inference import accuracy
from dgzsl.networks import init_model
from dgzsl.train import train_model

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

SEEDS = (0, 1, 2, 3, 4)

# benchmark-scale training setup used by every multi-seed gate
BENCH = dict(
    latent_dim=16,
    hidden_dims=(64, 64),
    keep_prob=0.8,
    learning_rate=1e-3,
    batch_size=100,
    epochs=120,
)


def bench_config(**kwargs) -> TrainConfig:
    return TrainConfig(**{**BENCH, **kwargs})


def unseen_accuracy(model, dataset, idx=None) -> float:
    """Top-1 accuracy with the unseen classes as candidates.

    ``idx`` selects dataset rows; default is the whole test block.
    """
    if idx is None:
        feats, labels = dataset.test_features, dataset.test_labels
    else:
        feats, labels = dataset.features[idx], dataset.labels[idx]
    return accuracy(feats, labels, dataset.unseen_classes, dataset.attributes, model)


def perturbed_model(seed, feature_dim=8, attr_dim=3, latent_dim=4, hidden=(16, 16)):
    """Random small model with every tensor nudged off its init point, so the
    zero-initialized logvar maps carry signal too."""
    rng = np.random.default_rng(seed)
    model = init_model(rng, feature_dim, attr_dim, latent_dim, hidden, keep_prob=1.0)
    model.flat += 0.05 * rng.normal(size=model.flat.size)
    return model


def prior_model(mean_w, logvar_w):
    """A model whose prior maps are the given L×M matrices; its encoder and
    decoder are the smallest the layout allows."""
    latent_dim, attr_dim = np.shape(mean_w)
    model = init_model(np.random.default_rng(0), 1, attr_dim, latent_dim, (1,), keep_prob=1.0)
    model["prior.mean_w"][...] = mean_w
    model["prior.logvar_w"][...] = logvar_w
    return model


class TrainedFamily(NamedTuple):
    runs: dict  # seed -> TrainResult
    seconds: float


def _train_family(datasets, **cfg_kwargs) -> TrainedFamily:
    t0 = time.perf_counter()
    runs = {
        s: train_model(datasets[s], bench_config(seed=s, **cfg_kwargs)) for s in SEEDS
    }
    return TrainedFamily(runs, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def bench_datasets():
    return {s: synth_generate(SynthSpec(seed=s)) for s in SEEDS}


@pytest.fixture(scope="session")
def inductive_family(bench_datasets):
    return _train_family(bench_datasets, regime="inductive")


@pytest.fixture(scope="session")
def inductive_family_f32(bench_datasets):
    return _train_family(bench_datasets, regime="inductive", dtype="float32")


@pytest.fixture(scope="session")
def transductive_family(bench_datasets):
    return _train_family(bench_datasets, regime="transductive", pretrain_epochs=40)


@pytest.fixture(scope="session")
def recononly_family(bench_datasets):
    return _train_family(
        bench_datasets,
        regime="transductive",
        pretrain_epochs=40,
        recon_only_unlabeled=True,
    )


@pytest.fixture(scope="session")
def tiny_dataset():
    """Small dataset for fast unit-level training and CLI runs."""
    return synth_generate(
        SynthSpec(seen=6, unseen=3, attr_dim=4, feature_dim=12, per_class=30, seed=11)
    )
