"""Adam over the model's one flat parameter vector, updated in place. Steps
ascend (objectives here are lower bounds to maximize)."""

from __future__ import annotations

from functools import partial

import numpy as np

from .autodiff import concurrently
from .errors import ConfigError, DgzslError, ShapeError
from .networks import ModelParams

# Bytes per block of each array the update walks (65,536 float32 or 32,768
# float64 entries). The blocks of g, m, v and p and two scratch buffers, 1.5 MiB,
# fit a 2 MiB per-core L2, so each full-size array crosses main memory once per
# step instead of once per temporary of the whole-vector expression. Much
# smaller blocks lose to per-call Python overhead.
_BLOCK_BYTES = 1 << 18

# moment decay rates and denominator guard (Kingma & Ba's defaults)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    """``pool``, a ThreadPoolExecutor of one worker or None, walks the second
    half of a vector longer than one block while the caller walks the first."""

    def __init__(self, lr: float = 1e-3, pool=None):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.lr, self.pool = lr, pool
        # moments laid out like model.flat, updated in place; they start at
        # zero (m0 = v0 = 0, Kingma & Ba, arXiv 1412.6980, Algorithm 1)
        self._m = self._v = self._scratch = None
        self._t = 0

    def step(self, model: ModelParams, grad) -> None:
        """One ascent step, in place on ``model.flat``; ``grad`` is one vector
        laid out like it and is left untouched.

        Per element this evaluates m = β1·m + (1−β1)·g,
        v = β2·v + ((1−β2)·g)·g and p + (lr·(m/bc1)) / (sqrt(v/bc2) + eps)
        in exactly that operation order, so walking the vector in blocks, or
        its two halves on two threads, gives the same bits as evaluating the
        expressions on whole tensors. Each new block is checked for
        finiteness while it is in cache: this is where parameters change, so
        a non-finite gradient or an overflow stops training here, with the
        step count and the lowest failing tensor named, once both halves are
        done.
        """
        p = model.flat
        g = np.asarray(grad).reshape(-1)
        if g.size != p.size:
            raise ShapeError(f"gradient has {g.size} entries, the model has {p.size}")
        if self._m is None:  # state and scratch in the model's dtype; scratch no longer than p
            self._m, self._v = np.zeros_like(p), np.zeros_like(p)
            block = min(_BLOCK_BYTES // p.itemsize, p.size)
            halves = 1 if self.pool is None or p.size <= block else 2
            self._scratch = np.empty((halves, 2, block), p.dtype)  # an (a, b) pair per half
        self._t += 1
        bc = (1.0 - _BETA1**self._t, 1.0 - _BETA2**self._t)
        if len(self._scratch) == 1:
            bad = (self._walk(p, g, bc, 0, p.size, self._scratch[0]),)
        else:  # cut on a block boundary, so both halves walk the serial blocks
            block = self._scratch.shape[-1]
            mid = -(-p.size // (2 * block)) * block
            low, high = self._scratch
            walk = partial(self._walk, p, g, bc)
            bad = concurrently(self.pool, partial(walk, 0, mid, low), partial(walk, mid, p.size, high))
        bad = [at for at in bad if at is not None]
        if bad:
            at = min(bad)
            name = [name for name, _, off in model.layout.entries if off <= at][-1]
            raise DgzslError(f"Adam step {self._t}: {name!r} has non-finite entries")

    def _walk(self, p, g, bc, start, stop, scratch):
        """Updates p, m and v from ``start`` to ``stop`` a block at a time,
        with the bias corrections ``bc``; returns the index of the first
        non-finite parameter entry, stopping after its block, or None."""
        b1, b2, lr, eps = _BETA1, _BETA2, self.lr, _EPS
        bc1, bc2 = bc
        c1, c2 = 1.0 - b1, 1.0 - b2
        m, v = self._m, self._v
        scratch_a, scratch_b = scratch
        block = scratch_a.size
        for lo in range(start, stop, block):
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
                return lo + int(np.argmin(np.isfinite(pb)))
        return None
