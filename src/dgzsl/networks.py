"""The three parametric maps: encoder, decoder, and attribute-driven prior.

The encoder runs a shared ReLU trunk with two linear heads (mean, logvar);
the decoder is a ReLU trunk with one linear output head; the prior maps a
class-attribute vector linearly (no bias) to latent mean and logvar. Log-
variances are clamped to [-10, 10] before any exponentiation.

All forward functions are generic over plain arrays and tape variables:
binding a model's tensors to a tape (``ModelParams.bind``) makes the same
code differentiable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Tape, Var
from .errors import ConfigError, DataFormatError, ShapeError
from .gaussian import DiagGaussian

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0


def _shape(x):
    return x.shape if isinstance(x, Var) else np.shape(x)


@dataclass
class Affine:
    """One linear layer: y = x @ weights + bias. Bias is a 1-D vector."""

    weights: Array | Var
    bias: Array | Var

    def __post_init__(self):
        w, b = _shape(self.weights), _shape(self.bias)
        if len(w) != 2 or len(b) != 1 or b[0] != w[1]:
            raise ShapeError(f"affine layer weights {w} and bias {b} do not match")

    @property
    def in_dim(self) -> int:
        return _shape(self.weights)[0]

    @property
    def out_dim(self) -> int:
        return _shape(self.weights)[1]


@dataclass
class MlpParams:
    """ReLU hidden stack plus named linear output heads.

    ``keep_prob`` is the dropout keep-probability applied after each hidden
    activation in train mode (inverted dropout; eval mode applies nothing).
    """

    hidden: list[Affine]
    heads: dict[str, Affine]
    keep_prob: float = 1.0

    def __post_init__(self):
        if not self.heads:
            raise ConfigError("MlpParams needs at least one output head")
        if not (0.0 < self.keep_prob <= 1.0):
            raise ConfigError(f"keep_prob must be in (0, 1], got {self.keep_prob}")
        dims = [layer.out_dim for layer in self.hidden]
        for prev, layer in zip(dims, self.hidden[1:]):
            if layer.in_dim != prev:
                raise ShapeError(
                    f"hidden layers do not chain: {prev} != {layer.in_dim}"
                )
        trunk_out = dims[-1] if self.hidden else None
        for name, head in self.heads.items():
            if trunk_out is not None and head.in_dim != trunk_out:
                raise ShapeError(
                    f"head {name!r} input {head.in_dim} != trunk width {trunk_out}"
                )

    @property
    def in_dim(self) -> int:
        stack = self.hidden[0] if self.hidden else next(iter(self.heads.values()))
        return stack.in_dim


@dataclass
class PriorParams:
    """Linear attribute-to-latent maps, both L×M, no bias terms."""

    mean_weights: Array | Var
    logvar_weights: Array | Var

    def __post_init__(self):
        mw, lw = _shape(self.mean_weights), _shape(self.logvar_weights)
        if len(mw) != 2 or mw != lw:
            raise ShapeError(f"prior weight shapes differ: {mw} vs {lw}")

    @property
    def latent_dim(self) -> int:
        return _shape(self.mean_weights)[0]

    @property
    def attr_dim(self) -> int:
        return _shape(self.mean_weights)[1]


@dataclass
class ModelParams:
    """All trainable tensors: encoder and decoder MLPs plus the prior maps,
    as views into one float64 vector ``flat``, in named_arrays() order."""

    encoder: MlpParams
    decoder: MlpParams
    prior: PriorParams
    flat: Array | None = field(default=None, repr=False)

    def _slots(self):
        """(name, owner, attribute) of every tensor, in a stable order."""
        for prefix, mlp in (("enc", self.encoder), ("dec", self.decoder)):
            for i, layer in enumerate(mlp.hidden):
                yield f"{prefix}.h{i}.w", layer, "weights"
                yield f"{prefix}.h{i}.b", layer, "bias"
            for name in sorted(mlp.heads):
                yield f"{prefix}.{name}.w", mlp.heads[name], "weights"
                yield f"{prefix}.{name}.b", mlp.heads[name], "bias"
        yield "prior.mean_w", self.prior, "mean_weights"
        yield "prior.logvar_w", self.prior, "logvar_weights"

    def named_arrays(self) -> dict:
        """Flat name -> tensor view of the model, in a stable order."""
        return {name: getattr(owner, attr) for name, owner, attr in self._slots()}

    def named_views(self, vec: Array) -> dict:
        """name -> view of ``vec`` shaped like that tensor, for any vector laid
        out like ``flat`` (the gradient of value_and_grad, say)."""
        out, lo = {}, 0
        for name, a in self.named_arrays().items():
            out[name] = vec[lo : lo + math.prod(_shape(a))].reshape(_shape(a))
            lo += out[name].size
        return out

    def map_arrays(self, fn) -> "ModelParams":
        """New ModelParams with fn(name, tensor) applied to every tensor, in
        named_arrays() order."""
        named = {name: fn(name, a) for name, a in self.named_arrays().items()}
        return model_from_named(named, self.encoder.keep_prob)

    def bind(self, tape: Tape, grad: Array | None = None) -> "ModelParams":
        """Register every tensor as a named leaf; forward passes on the result
        are then differentiable via backward_grad, which writes each leaf's
        gradient into its slice of ``grad`` (a vector laid out like flat)."""
        sinks = self.named_views(grad) if grad is not None else {}
        return self.map_arrays(lambda name, a: tape.leaf(a, name=name, out=sinks.get(name)))

    def copy(self) -> "ModelParams":
        """An equal model with its own flat vector."""
        return model_from_named(self.named_arrays(), self.encoder.keep_prob)

    @property
    def feature_dim(self) -> int:
        return self.encoder.in_dim

    @property
    def latent_dim(self) -> int:
        return self.prior.latent_dim

    @property
    def attr_dim(self) -> int:
        return self.prior.attr_dim


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> Array:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=(fan_in, fan_out))


def init_model(
    rng: np.random.Generator,
    feature_dim: int,
    attr_dim: int,
    latent_dim: int,
    hidden_dims: tuple[int, ...] = (1000, 1000),
    keep_prob: float = 0.8,
) -> ModelParams:
    """Glorot-uniform weights, zero biases; logvar heads and the prior's
    logvar map start at zero so every Gaussian begins with unit variance."""
    named = {}

    def layer(key, d, width, w=None):
        named[f"{key}.w"] = glorot(rng, d, width) if w is None else w
        named[f"{key}.b"] = np.zeros(width)
        return width

    def stack(prefix, d):
        for i, width in enumerate(hidden_dims):
            d = layer(f"{prefix}.h{i}", d, width)
        return d

    enc_out = stack("enc", feature_dim)
    layer("enc.mean", enc_out, latent_dim)
    layer("enc.logvar", enc_out, latent_dim, np.zeros((enc_out, latent_dim)))
    layer("dec.out", stack("dec", latent_dim), feature_dim)
    named["prior.mean_w"] = glorot(rng, attr_dim, latent_dim).T
    named["prior.logvar_w"] = np.zeros((latent_dim, attr_dim))
    return model_from_named(named, keep_prob)


def model_from_named(tensors: dict, keep_prob: float = 1.0) -> ModelParams:
    """Rebuild a ModelParams from the flat naming used by named_arrays().

    Arrays are copied, as float64, into one new flat vector, and bias
    tensors that arrive as 1×n rows (the matrix format has no 1-D shape) are
    flattened back to vectors. Tape variables pass through untouched (and
    leave ``flat`` None), so map_arrays and bind share this constructor with
    the checkpoint loader.
    """

    def get(key, bias=False):
        if key not in tensors:
            raise DataFormatError(f"checkpoint is missing tensor {key!r}")
        arr = tensors[key]
        if isinstance(arr, Var):
            return arr
        arr = np.asarray(arr)
        return arr.ravel() if bias else arr

    def mlp(prefix, head_names):
        hidden, i = [], 0
        while f"{prefix}.h{i}.w" in tensors:
            hidden.append(Affine(get(f"{prefix}.h{i}.w"), get(f"{prefix}.h{i}.b", bias=True)))
            i += 1
        heads = {
            name: Affine(get(f"{prefix}.{name}.w"), get(f"{prefix}.{name}.b", bias=True))
            for name in head_names
        }
        return MlpParams(hidden, heads, keep_prob)

    model = ModelParams(
        encoder=mlp("enc", ("mean", "logvar")),
        decoder=mlp("dec", ("out",)),
        prior=PriorParams(get("prior.mean_w"), get("prior.logvar_w")),
    )
    arrays = model.named_arrays()
    extra = set(tensors) - set(arrays)
    if extra:
        raise DataFormatError(f"checkpoint has unexpected tensors {sorted(extra)}")
    if any(isinstance(a, Var) for a in arrays.values()):
        return model
    model.flat = np.empty(sum(a.size for a in arrays.values()))
    views = model.named_views(model.flat)
    for name, owner, attr in model._slots():  # point each tensor at its view
        np.copyto(views[name], arrays[name])
        setattr(owner, attr, views[name])
    return model


def make_dropout_masks(
    rng: np.random.Generator, mlp: MlpParams, batch: int
) -> list[Array] | None:
    """Inverted-dropout masks, one per hidden layer: Bernoulli(keep)/keep."""
    if mlp.keep_prob >= 1.0:
        return None
    return [
        (rng.random((batch, layer.out_dim)) < mlp.keep_prob) / mlp.keep_prob
        for layer in mlp.hidden
    ]


def _trunk(x, mlp: MlpParams, dropout_masks):
    h = x
    for i, layer in enumerate(mlp.hidden):
        mask = None if dropout_masks is None else dropout_masks[i]
        h = ad.dense(h, layer.weights, layer.bias, relu=True, mask=mask)
    return h


def _promote(x):
    if not isinstance(x, Var):
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim == 1:
            return arr[None, :], True
        return arr, False
    return x, False


def _squeeze_row(t):
    # vector-in/vector-out convenience only applies on the plain-array path
    return t[0] if isinstance(t, np.ndarray) else t


def encode(x, params: MlpParams, dropout_masks=None) -> DiagGaussian:
    """Posterior over latents for a feature row batch (or single vector).

    Passing ``dropout_masks`` (from make_dropout_masks) is train mode; None is
    deterministic eval mode.
    """
    x, squeeze = _promote(x)
    if _shape(x)[1] != params.in_dim:
        raise ShapeError(
            f"encoder expects {params.in_dim} features, got {_shape(x)[1]}"
        )
    h = _trunk(x, params, dropout_masks)
    mean_head, logvar_head = params.heads["mean"], params.heads["logvar"]
    mean = ad.dense(h, mean_head.weights, mean_head.bias)
    logvar = ad.clip(
        ad.dense(h, logvar_head.weights, logvar_head.bias), LOGVAR_MIN, LOGVAR_MAX
    )
    if squeeze:
        mean, logvar = _squeeze_row(mean), _squeeze_row(logvar)
    return DiagGaussian(mean, logvar)


def decode(z, params: MlpParams, dropout_masks=None):
    """Mean of the reconstruction likelihood for a latent row batch."""
    z, squeeze = _promote(z)
    if _shape(z)[1] != params.in_dim:
        raise ShapeError(f"decoder expects {params.in_dim} latents, got {_shape(z)[1]}")
    h = _trunk(z, params, dropout_masks)
    head = params.heads["out"]
    out = ad.dense(h, head.weights, head.bias)
    return _squeeze_row(out) if squeeze else out


def class_prior(attrs, params: PriorParams) -> DiagGaussian:
    """Latent prior for attribute rows: mean = a·Wᵀ, logvar = a·Wᵀ (clamped)."""
    attrs, squeeze = _promote(attrs)
    if _shape(attrs)[1] != params.attr_dim:
        raise ShapeError(
            f"prior expects {params.attr_dim} attributes, got {_shape(attrs)[1]}"
        )
    mean = ad.matmul(attrs, ad.transpose(params.mean_weights))
    logvar = ad.clip(
        ad.matmul(attrs, ad.transpose(params.logvar_weights)), LOGVAR_MIN, LOGVAR_MAX
    )
    if squeeze:
        mean, logvar = _squeeze_row(mean), _squeeze_row(logvar)
    return DiagGaussian(mean, logvar)
