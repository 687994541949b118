"""Adam over the model's one flat parameter vector, updated in place. Steps
ascend (objectives here are lower bounds to maximize)."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DgzslError, ShapeError
from .networks import ModelParams

# Bytes per block of each array the update walks (65,536 float32 or 32,768
# float64 entries). The blocks of g, m, v and p and two scratch buffers, 1.5 MiB,
# fit a 2 MiB per-core L2, so each full-size array crosses main memory once per
# step instead of once per temporary of the whole-vector expression. Much
# smaller blocks lose to per-call Python overhead.
_BLOCK_BYTES = 1 << 18


class Adam:
    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        # moments laid out like model.flat, updated in place; they start at
        # zero (m0 = v0 = 0, Kingma & Ba, arXiv 1412.6980, Algorithm 1)
        self._m = self._v = self._scratch = None
        self._t = 0

    def step(self, model: ModelParams, grad) -> None:
        """One ascent step, in place on ``model.flat``; ``grad`` is one vector
        laid out like it and is left untouched.

        Per element this evaluates m = β1·m + (1−β1)·g,
        v = β2·v + ((1−β2)·g)·g and p + (lr·(m/bc1)) / (sqrt(v/bc2) + eps)
        in exactly that operation order, so walking the vector in blocks
        gives the same bits as evaluating the expressions on whole tensors.
        Each new block is checked for finiteness while it is in cache: this
        is where parameters change, so a non-finite gradient or an overflow
        stops training here, with the step count and tensor named.
        """
        p = model.flat
        g = np.asarray(grad).reshape(-1)
        if g.size != p.size:
            raise ShapeError(f"gradient has {g.size} entries, the model has {p.size}")
        if self._m is None:  # state and scratch in the model's dtype; scratch no longer than p
            self._m, self._v = np.zeros_like(p), np.zeros_like(p)
            self._scratch = np.empty((2, min(_BLOCK_BYTES // p.itemsize, p.size)), p.dtype)
        self._t += 1
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        c1, c2 = 1.0 - b1, 1.0 - b2
        bc1 = 1.0 - b1**self._t
        bc2 = 1.0 - b2**self._t
        m, v = self._m, self._v
        scratch_a, scratch_b = self._scratch
        block = scratch_a.size
        for lo in range(0, p.size, block):
            hi = lo + block  # slices stop at the end of a ragged tail
            gb, mb, vb, pb = g[lo:hi], m[lo:hi], v[lo:hi], p[lo:hi]
            a, b = scratch_a[: gb.size], scratch_b[: gb.size]
            np.multiply(b1, mb, out=mb)
            np.multiply(c1, gb, out=a)
            np.add(mb, a, out=mb)
            np.multiply(c2, gb, out=a)
            np.multiply(a, gb, out=a)
            np.multiply(b2, vb, out=vb)
            np.add(vb, a, out=vb)
            np.divide(mb, bc1, out=a)
            np.multiply(lr, a, out=a)
            np.divide(vb, bc2, out=b)
            np.sqrt(b, out=b)
            np.add(b, eps, out=b)
            np.divide(a, b, out=a)
            np.add(pb, a, out=pb)
            if not np.isfinite(pb).all():
                at = lo + int(np.argmin(np.isfinite(pb)))
                name = [name for name, _, off in model.layout.entries if off <= at][-1]
                raise DgzslError(f"Adam step {self._t}: {name!r} has non-finite entries")
