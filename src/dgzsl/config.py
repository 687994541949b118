"""Run configuration: a frozen dataclass parsed from flat key = value text.

Unknown keys are hard errors so hyperparameter typos fail loudly instead of
silently training with defaults.
"""

import math
from dataclasses import dataclass, fields, replace

from .errors import ConfigError
from .serialize import _read_text, plain_number_text, read_key_values

REGIMES = ("inductive", "transductive", "fewshot")
DTYPES = ("float64", "float32")


@dataclass(frozen=True)
class TrainConfig:
    regime: str = "inductive"
    margin_weight: float = 1.0
    latent_dim: int = 100
    hidden_dims: tuple = (1000, 1000)
    keep_prob: float = 0.8
    learning_rate: float = 1e-3
    batch_size: int = 100
    epochs: int = 50
    # first epochs of a transductive run that train purely supervised
    pretrain_epochs: int = 10
    # sharpened-target refresh cadence, in epochs
    refresh_every: int = 1
    k: int = 0
    fewshot_epochs: int = 50
    fewshot_batch_size: int = 32
    transductive_fewshot: bool = False
    # transductive epochs appended after a few-shot fine-tune
    transductive_epochs: int = 20
    include_seen_margin: bool = False
    no_recon: bool = False
    recon_only_unlabeled: bool = False
    exclude_true_class: bool = False
    seed: int = 0
    # the one float type of training, logging, the checkpoint and scoring
    dtype: str = "float64"

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ConfigError(f"regime must be one of {REGIMES}, got {self.regime!r}")
        if self.dtype not in DTYPES:
            raise ConfigError(f"dtype must be {' or '.join(DTYPES)}, got {self.dtype!r}")
        for name in ("margin_weight", "learning_rate"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.margin_weight < 0:
            raise ConfigError("margin_weight must be ≥ 0")
        for name in ("latent_dim", "batch_size", "refresh_every", "fewshot_batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be ≥ 1")
        for name in ("epochs", "pretrain_epochs", "k", "fewshot_epochs", "transductive_epochs", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be ≥ 0")
        if not self.hidden_dims or any(h < 1 for h in self.hidden_dims):
            raise ConfigError(f"hidden_dims must be positive, got {self.hidden_dims}")
        if not (0.0 < self.keep_prob <= 1.0):
            raise ConfigError(f"keep_prob must be in (0, 1], got {self.keep_prob}")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.regime == "transductive" and self.pretrain_epochs > self.epochs:
            raise ConfigError(
                f"pretrain_epochs ({self.pretrain_epochs}) exceeds epochs ({self.epochs})"
            )

    def override(self, **kwargs) -> "TrainConfig":
        """Non-None kwargs replace fields; validation reruns."""
        changes = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **changes) if changes else self


_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}


def _convert(name: str, text: str, sample):
    if isinstance(sample, bool):
        low = text.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ConfigError(f"{name}: expected a boolean, got {text!r}")
    if isinstance(sample, (int, float, tuple)) and not plain_number_text(text):
        raise ConfigError(f"{name}: numbers are plain ASCII without '_', got {text!r}")
    if isinstance(sample, int):
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{name}: expected an integer, got {text!r}") from None
    if isinstance(sample, float):
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"{name}: expected a number, got {text!r}") from None
    if isinstance(sample, tuple):
        try:
            return tuple(int(t) for t in text.replace(",", " ").split())
        except ValueError:
            raise ConfigError(f"{name}: expected comma-separated integers, got {text!r}") from None
    return text


def parse_config(text: str, *, where: str = "config") -> TrainConfig:
    defaults = TrainConfig()
    known = {f.name: getattr(defaults, f.name) for f in fields(TrainConfig)}
    entries = read_key_values(text, where, known, ConfigError)
    values = {
        key: _convert(f"{where}:{ln}: {key}", value, known[key])
        for key, (ln, value) in entries.items()
    }
    return TrainConfig(**values)


def load_config(path) -> TrainConfig:
    return parse_config(_read_text(path), where=str(path))


def format_config(cfg: TrainConfig) -> str:
    """Round-trippable key = value rendering of every field."""
    lines = []
    for f in fields(TrainConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, bool):
            text = "true" if v else "false"
        elif isinstance(v, tuple):
            text = ",".join(str(i) for i in v)
        elif isinstance(v, float):
            text = repr(v)
        else:
            text = str(v)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"
