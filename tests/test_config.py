"""Training configuration: defaults, text round trip, validation."""

import dataclasses
import re

import pytest

from dgzsl.config import TrainConfig, format_config, parse_config
from dgzsl.errors import ConfigError


def test_defaults():
    cfg = TrainConfig()
    assert cfg.regime == "inductive"
    assert cfg.margin_weight == 1.0
    assert cfg.latent_dim == 100
    assert cfg.hidden_dims == (1000, 1000)
    assert cfg.keep_prob == 0.8
    assert cfg.learning_rate == 1e-3
    assert cfg.batch_size == 100
    assert cfg.refresh_every == 1
    assert cfg.seed == 0
    assert cfg.dtype == "float64"
    assert not cfg.no_recon


def test_format_parse_round_trip():
    cfg = TrainConfig(
        regime="transductive",
        margin_weight=0.25,
        latent_dim=16,
        hidden_dims=(64, 32),
        keep_prob=0.9,
        learning_rate=3e-4,
        batch_size=50,
        epochs=7,
        pretrain_epochs=2,
        refresh_every=3,
        k=4,
        fewshot_epochs=11,
        transductive_fewshot=True,
        include_seen_margin=True,
        recon_only_unlabeled=True,
        seed=42,
        dtype="float32",
    )
    assert parse_config(format_config(cfg)) == cfg


def test_round_trip_preserves_floats_exactly():
    cfg = TrainConfig(learning_rate=0.1 + 0.2)  # 0.30000000000000004
    back = parse_config(format_config(cfg))
    assert back.learning_rate == cfg.learning_rate


def test_parse_ignores_comments_and_blanks():
    cfg = parse_config("# a comment\n\nepochs = 9\n  # indented comment\nseed = 2\n")
    assert cfg.epochs == 9
    assert cfg.seed == 2
    assert cfg.latent_dim == TrainConfig().latent_dim  # untouched default


def test_parse_hidden_dims_list():
    cfg = parse_config("hidden_dims = 128, 64,32\n")
    assert cfg.hidden_dims == (128, 64, 32)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("epochs = five\n", "epochs"),
        ("keep_prob = maybe\n", "keep_prob"),
    ],
)
def test_parse_rejects_malformed(text, fragment):
    # the line rules configs share with manifests: test_data.py::test_key_value_lines_are_read_alike
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("text,value", [
    ("true", True), ("1", True), ("yes", True), ("on", True),
    ("false", False), ("0", False), ("no", False), ("off", False),
    ("True", True), ("OFF", False),
])
def test_bool_spellings(text, value):
    assert parse_config(f"no_recon = {text}\n").no_recon is value


def test_bool_rejects_other_text():
    with pytest.raises(ConfigError):
        parse_config("no_recon = definitely\n")


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(regime="both"),
        dict(margin_weight=-0.5),
        dict(latent_dim=0),
        dict(keep_prob=0.0),
        dict(keep_prob=1.5),
        dict(learning_rate=0.0),
        dict(batch_size=0),
        dict(epochs=-1),
        dict(hidden_dims=()),
        dict(hidden_dims=(64, 0)),
        dict(refresh_every=0),
        dict(regime="transductive", epochs=5, pretrain_epochs=6),
    ],
)
def test_validation_rejects(kwargs):
    with pytest.raises(ConfigError):
        TrainConfig(**kwargs)


@pytest.mark.parametrize("key", ["learning_rate", "margin_weight"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_values_are_rejected_naming_the_key(key, value):
    with pytest.raises(ConfigError, match=rf"^{key} must be finite, got {value}$"):
        parse_config(f"{key} = {value}\n")


def test_dtype_is_float64_or_float32():
    assert "dtype = float64\n" in format_config(TrainConfig())
    assert parse_config("dtype = float32\n").dtype == "float32"
    with pytest.raises(ConfigError, match=r"^dtype must be float64 or float32, got 'float16'$"):
        parse_config("dtype = float16\n")


@pytest.mark.parametrize(
    "line", ["epochs = 1_0", "latent_dim = ٣", "learning_rate = 1_0e-3", "hidden_dims = 6_4,64"]
)
def test_numbers_must_be_plain_ascii(line):
    # int() and float() alone would read these as 10, 3, 0.01 and (64, 64)
    key, _, value = line.partition(" = ")
    expected = f"my.cfg:2: {key}: numbers are plain ASCII without '_', got {value!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(expected)}$"):
        parse_config(f"seed = 1\n{line}\n", where="my.cfg")


def test_keep_prob_one_is_valid():
    assert TrainConfig(keep_prob=1.0).keep_prob == 1.0


def test_override_skips_none_and_revalidates():
    cfg = TrainConfig(epochs=10)
    assert cfg.override(seed=None, epochs=3).epochs == 3
    assert cfg.override(seed=None).epochs == 10  # None leaves the field alone
    with pytest.raises(ConfigError):
        cfg.override(keep_prob=2.0)


def test_override_returns_new_object():
    cfg = TrainConfig()
    other = cfg.override(seed=5)
    assert cfg.seed == 0 and other.seed == 5
    assert dataclasses.replace(cfg, seed=5) == other
