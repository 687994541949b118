"""Adam over the model's named tensor dict. Steps ascend (objectives here
are lower bounds to maximize)."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError
from .networks import ModelParams

# Elements per block of the update. A block's slices of g, m, v and p plus the
# two scratch buffers stay in cache, so each full-size array crosses main
# memory once per step instead of once per temporary of the whole-tensor
# expression. Much smaller blocks lose to per-call Python overhead.
_BLOCK = 8192


class Adam:
    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        # flat float64 moments per tensor name, updated in place; they start
        # at zero (m0 = v0 = 0, Kingma & Ba, arXiv 1412.6980, Algorithm 1)
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t = 0
        self._scratch = (np.empty(_BLOCK), np.empty(_BLOCK))

    def step(self, model: ModelParams, grads: dict) -> ModelParams:
        """One ascent step; returns a new model, the input is untouched.

        Per element this evaluates m = β1·m + (1−β1)·g,
        v = β2·v + ((1−β2)·g)·g and p + (lr·(m/bc1)) / (sqrt(v/bc2) + eps)
        in exactly that operation order, so walking the tensors in blocks
        gives the same bits as evaluating the expressions on whole tensors.
        """
        self._t += 1
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        c1, c2 = 1.0 - b1, 1.0 - b2
        bc1 = 1.0 - b1**self._t
        bc2 = 1.0 - b2**self._t

        scratch_a, scratch_b = self._scratch

        def update(name, value):
            p = np.asarray(value, dtype=np.float64)
            g = np.asarray(grads[name], dtype=np.float64).reshape(-1)
            if g.size != p.size:
                raise ShapeError(f"gradient for {name!r} has {g.size} entries, tensor has {p.size}")
            if name not in self._m:
                self._m[name], self._v[name] = np.zeros(p.size), np.zeros(p.size)
            m, v = self._m[name], self._v[name]
            flat, out = p.reshape(-1), np.empty(p.shape)
            new = out.reshape(-1)
            for lo in range(0, p.size, _BLOCK):
                hi = lo + _BLOCK  # slices stop at the end of a ragged tail
                gb, mb, vb = g[lo:hi], m[lo:hi], v[lo:hi]
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
                np.add(flat[lo:hi], a, out=new[lo:hi])
            return out

        return model.map_arrays(update)
