"""The three parametric maps: encoder, decoder, and attribute-driven prior.

The encoder runs a shared ReLU trunk with two linear heads (mean, logvar);
the decoder is a ReLU trunk with one linear output head; the prior maps a
class-attribute vector linearly (no bias) to latent mean and logvar. Log-
variances are clamped to [-10, 10] before any exponentiation.

A model is a ``Layout`` (the names, shapes and offsets of its tensors, fixed
by four numbers), one vector holding every tensor, and the dropout
keep-probability. ``init_model`` and ``model_from_shapes`` give that vector
its dtype (float64 unless asked otherwise); everything else computes in the
dtype of its inputs. All forward
functions are generic over plain arrays and tape variables: binding a
model's tensors to a tape (``ModelParams.bind``) makes the same code
differentiable.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Tape
from .errors import DataFormatError, ShapeError
from .gaussian import DiagGaussian

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0


class Layout:
    """Where each tensor of a model lives in its flat vector.

    ``entries`` holds (name, shape, offset) in checkpoint order: per hidden
    layer ``enc.h<i>.w``/``.b``, the ``enc.logvar`` and ``enc.mean`` heads,
    the decoder's hidden layers (the same widths) and ``dec.out``, then the
    prior maps ``prior.mean_w`` and ``prior.logvar_w`` (both L×M). Biases are
    vectors. ``size`` is the total entry count.
    """

    def __init__(self, feature_dim: int, attr_dim: int, latent_dim: int, hidden_dims):
        self.feature_dim, self.attr_dim, self.latent_dim = feature_dim, attr_dim, latent_dim
        self.hidden_dims = tuple(hidden_dims)
        shapes = {}
        for prefix, d, heads in (
            ("enc", feature_dim, (("logvar", latent_dim), ("mean", latent_dim))),
            ("dec", latent_dim, (("out", feature_dim),)),
        ):
            for i, width in enumerate(self.hidden_dims):
                shapes[f"{prefix}.h{i}.w"], shapes[f"{prefix}.h{i}.b"] = (d, width), (width,)
                d = width
            for key, width in heads:  # every head reads the trunk output
                shapes[f"{prefix}.{key}.w"], shapes[f"{prefix}.{key}.b"] = (d, width), (width,)
        shapes["prior.mean_w"] = shapes["prior.logvar_w"] = (latent_dim, attr_dim)
        offsets = list(accumulate((math.prod(s) for s in shapes.values()), initial=0))
        self.entries = tuple((name, shape, off) for (name, shape), off in zip(shapes.items(), offsets))
        self.size = offsets[-1]

    def views(self, vec: Array) -> dict:
        """name -> view of ``vec`` (a vector laid out like a model's flat, the
        gradient of value_and_grad say) shaped like that tensor."""
        return {
            name: vec[off : off + math.prod(shape)].reshape(shape)
            for name, shape, off in self.entries
        }


class ModelParams:
    """A model: its ``layout``, the tensors it lays out, and ``keep_prob``,
    the dropout keep-probability of every hidden activation in train mode
    (inverted dropout; eval mode applies nothing).

    Built from ``flat``, the tensors are views into that one vector;
    built from a name -> tensor dict (tape leaves, say), ``flat`` is None.
    ``model[name]`` is one tensor.
    """

    def __init__(self, layout: Layout, flat=None, keep_prob: float = 1.0, tensors: dict | None = None):
        self.layout, self.flat, self.keep_prob = layout, flat, keep_prob
        self._tensors = layout.views(flat) if tensors is None else tensors

    def __getitem__(self, name: str):
        return self._tensors[name]

    def named_arrays(self) -> dict:
        """Name -> tensor, in layout order."""
        return dict(self._tensors)

    def bind(self, tape: Tape, grad: Array | None = None) -> "ModelParams":
        """Register every tensor as a named leaf; forward passes on the result
        are then differentiable via backward_grad, which writes each leaf's
        gradient into its slice of ``grad`` (a vector laid out like flat)."""
        sinks = self.layout.views(grad) if grad is not None else {}
        leaves = {
            name: tape.leaf(a, name=name, out=sinks.get(name)) for name, a in self._tensors.items()
        }
        return ModelParams(self.layout, keep_prob=self.keep_prob, tensors=leaves)

    def copy(self) -> "ModelParams":
        """An equal model with its own flat vector."""
        return ModelParams(self.layout, self.flat.copy(), self.keep_prob)


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
    *,
    dtype=np.float64,
) -> ModelParams:
    """Glorot-uniform weights, zero biases; logvar heads and the prior's
    logvar map start at zero so every Gaussian begins with unit variance.
    Weights are drawn in layout order; the prior mean map is drawn M×L and
    stored transposed. The draws are float64 whatever ``dtype``, the type
    of the flat vector they are stored in."""
    layout = Layout(feature_dim, attr_dim, latent_dim, hidden_dims)
    model = ModelParams(layout, np.zeros(layout.size, dtype), keep_prob)
    for name, w in model.named_arrays().items():
        if name == "prior.mean_w":
            w[...] = glorot(rng, attr_dim, latent_dim).T
        elif name.endswith(".w") and "logvar" not in name:
            w[...] = glorot(rng, *w.shape)
    return model


def model_from_shapes(
    shapes: dict, keep_prob: float = 1.0, where: str = "checkpoint", *, dtype=np.float64
) -> ModelParams:
    """A model with an unfilled vector of ``dtype`` whose layout ``shapes``
    (name -> (rows, cols), as a checkpoint reports its tensors) describes.

    This is where tensors arrive from outside, so the shape rule is checked
    here: the layout's dims are read from ``enc.h*.w``, ``enc.mean.w`` and
    ``prior.mean_w``, then every name and shape must match that layout. A
    bias arrives as a 1×n row (the matrix format has no 1-D shape). Errors
    start with ``where``.
    """
    if not 0.0 < keep_prob <= 1.0:
        raise DataFormatError(f"{where}: keep_prob must be in (0, 1], got {keep_prob}")

    def shape_of(name):
        if name not in shapes:
            raise DataFormatError(f"{where}: missing tensor {name!r}")
        return tuple(shapes[name])

    hidden = []
    while f"enc.h{len(hidden)}.w" in shapes:
        hidden.append(shape_of(f"enc.h{len(hidden)}.w")[1])
    feature_dim = shape_of("enc.h0.w" if hidden else "enc.mean.w")[0]
    layout = Layout(feature_dim, shape_of("prior.mean_w")[1], shape_of("enc.mean.w")[1], hidden)
    extra = set(shapes) - {name for name, _, _ in layout.entries}
    if extra:
        raise DataFormatError(f"{where}: unexpected tensors {sorted(extra)}")
    for name, shape, _ in layout.entries:
        actual = shape_of(name)
        if actual != (shape if len(shape) == 2 else (1, *shape)):
            raise DataFormatError(f"{where}: tensor {name!r} has shape {actual}, expected {shape}")
    return ModelParams(layout, np.empty(layout.size, dtype), keep_prob)


def make_dropout_masks(rng: np.random.Generator, model: ModelParams, batch: int):
    """(encoder masks, decoder masks) of inverted dropout, one
    Bernoulli(keep)/keep mask per hidden layer in the dtype of
    ``model.flat``, drawn encoder first; (None, None) when keep_prob is 1.
    The entries are +0 and 1/keep rounded once to that dtype, the bits of
    the float64 quotient cast to it, without the float64 array."""
    keep = model.keep_prob
    if keep >= 1.0:
        return None, None
    scale = model.flat.dtype.type(1.0 / keep)
    return tuple(
        [(rng.random((batch, w)) < keep) * scale for w in model.layout.hidden_dims]
        for _ in ("enc", "dec")
    )


def _rows(x, width: int, what: str) -> None:
    shape = ad._value(x).shape
    if len(shape) != 2 or shape[1] != width:
        raise ShapeError(f"{what} expects rows of {width} values, got shape {shape}")


def _trunk(x, model: ModelParams, prefix: str, dropout_masks):
    h = x
    for i in range(len(model.layout.hidden_dims)):
        mask = None if dropout_masks is None else dropout_masks[i]
        h = ad.dense(h, model[f"{prefix}.h{i}.w"], model[f"{prefix}.h{i}.b"], relu=True, mask=mask)
    return h


def encode(x, model: ModelParams, dropout_masks=None) -> DiagGaussian:
    """Posterior over latents for a feature row batch.

    Passing ``dropout_masks`` (the encoder half of make_dropout_masks) is
    train mode; None is deterministic eval mode.
    """
    _rows(x, model.layout.feature_dim, "encoder")
    h = _trunk(x, model, "enc", dropout_masks)
    mean = ad.dense(h, model["enc.mean.w"], model["enc.mean.b"])
    logvar = ad.clip(ad.dense(h, model["enc.logvar.w"], model["enc.logvar.b"]), LOGVAR_MIN, LOGVAR_MAX)
    return DiagGaussian(mean, logvar, "posterior")


def decode(z, model: ModelParams, dropout_masks=None):
    """Mean of the reconstruction likelihood for a latent row batch."""
    _rows(z, model.layout.latent_dim, "decoder")
    return ad.dense(_trunk(z, model, "dec", dropout_masks), model["dec.out.w"], model["dec.out.b"])


def _prior_map(attrs, w):
    """attrs·wᵀ as one tape node; the w gradient is (attrsᵀ·g)ᵀ, the product
    a matmul node under a transpose node would pass back."""
    av, wv = ad._value(attrs), ad._value(w)

    def vjp(g, wanted):
        return g @ wv if wanted[0] else None, (av.T @ g).T if wanted[1] else None

    return ad.record("prior", av @ wv.T, (attrs, w), vjp)


def class_prior(attrs, model: ModelParams) -> DiagGaussian:
    """Latent prior for attribute rows: mean = a·Wᵀ, logvar = a·Wᵀ (clamped)."""
    _rows(attrs, model.layout.attr_dim, "prior")
    mean = _prior_map(attrs, model["prior.mean_w"])
    logvar = ad.clip(_prior_map(attrs, model["prior.logvar_w"]), LOGVAR_MIN, LOGVAR_MAX)
    return DiagGaussian(mean, logvar, "prior")
