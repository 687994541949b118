"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python -m pytest -q bench
"""

import pytest

from dgzsl import cli, networks, optim, train
from dgzsl.data import SynthSpec, save_dataset, synth_generate

from run import tail
from tracer import Counts, Tracer, is_clean, self_times, step_seconds

TINY_CONFIG = """\
regime = transductive
latent_dim = 2
hidden_dims = 8,8
keep_prob = 0.8
learning_rate = 0.001
batch_size = 20
epochs = 4
pretrain_epochs = 2
refresh_every = 1
margin_weight = 1.0
seed = 0
"""


def test_self_time_subtracts_child_coverage():
    # name, start, end, parent, run
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.child", 2.0, 3.0, 1, 0],
        ["b", 5.0, 7.0, 0, 0],
        ["other", 11.0, 12.0, None, 1],
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0, 1.0]


def test_step_pairs_objective_with_the_adam_step_under_the_same_parent():
    spans = [
        ["train.train_model", 0.0, 20.0, None, 0],
        ["inductive.inductive_objective", 1.0, 3.0, 0, 0],
        ["optim.Adam.step", 3.0, 4.0, 0, 0],
        ["transductive.transductive_objective", 5.0, 9.0, 0, 0],
        ["inductive.inductive_objective", 6.0, 8.0, 3, 0],  # nested fallback
        ["optim.Adam.step", 9.0, 9.5, 0, 0],
    ]
    assert step_seconds(spans) == [
        ("inductive.inductive_objective", 3.0),
        ("transductive.transductive_objective", 4.5),
    ]


def test_tail_keeps_ten_samples_beyond_it():
    assert tail(list(range(1000))) == (99.0, 989)
    assert tail(list(range(100))) == (90.0, 89)
    assert tail([1.0, 2.0]) == (100.0, 2.0)


def test_tracer_wraps_every_lookup_site_and_removes_its_wrappers():
    originals = (train.encode, networks.encode, optim.Adam.step, cli.run_train)
    tracer = Tracer().install()
    try:
        assert train.encode is not originals[0]
        assert networks.encode is not originals[1]
        assert optim.Adam.__dict__["step"] is not originals[2]
        assert cli.run_train is not originals[3]
        assert not is_clean()
    finally:
        tracer.remove()
    assert is_clean()
    assert (train.encode, networks.encode, optim.Adam.step, cli.run_train) == originals


def _train(tmp_path, name, tracer=None):
    out = tmp_path / name
    argv = ["train", "--config", str(tmp_path / "tiny.cfg"), "--data", str(tmp_path / "data"), "--out", str(out)]
    if tracer is None:
        assert cli.main(argv) == 0
    else:
        with tracer:
            assert cli.main(argv) == 0
    return {f: (out / f).read_bytes() for f in ("metrics.jsonl", "model.ckpt")}


@pytest.fixture
def tiny_run(tmp_path):
    spec = SynthSpec(seen=4, unseen=2, attr_dim=3, feature_dim=6, per_class=20, seed=3)
    save_dataset(synth_generate(spec), tmp_path / "data")
    (tmp_path / "tiny.cfg").write_text(TINY_CONFIG, encoding="utf-8")
    return tmp_path


def test_traced_run_writes_the_same_bytes_as_an_untraced_one(tiny_run):
    plain = _train(tiny_run, "plain")
    counts = Counts()
    tracer = Tracer(counts=counts)
    tracer.run = 0
    traced = _train(tiny_run, "traced", tracer)
    assert traced == plain
    assert is_clean()
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main"
    steps = names.count("optim.Adam.step")
    assert steps == counts.steps == names.count("autodiff.backward_grad") > 0
    assert len(step_seconds(tracer.spans)) == steps
    assert counts.refreshes == names.count("transductive.sharpen") - 1
    assert counts.bytes_written > 0 and counts.bytes_read > 0
