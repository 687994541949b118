"""A tape-based reverse-mode autodiff engine over dense NumPy arrays.

A ``Tape`` records one node per operation in execution order. Because the
graph is built define-by-run, the recording order is already topological, so
the backward pass is a single reverse sweep that visits every node exactly
once. Tapes are rebuilt for each objective evaluation and then discarded.

Every operation is one hand-differentiated node, recorded through the
``record`` hook: ``dense`` (affine map, optional ReLU and dropout mask),
``clip``, the prior map of ``networks.class_prior``, and in ``gaussian``,
``inductive`` and ``transductive`` the reparameterised sample, the per-row
reconstruction log-likelihood, ``kl_matrix``, the labeled objective and the
unlabeled objective. Each accepts a ``Var`` (recorded on its tape) or a
plain ndarray (evaluated immediately), so one forward serves training and
scoring. Each backward repeats the products and the accumulation order of the
elementwise composition it replaced, kept in the tests as its oracle, so the
gradients keep their bytes. Every node computes in the dtype of its operands;
Python numbers stay Python numbers, so they never widen an array.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar, copy_context
from functools import partial

import numpy as np

from .errors import DgzslError, ShapeError

Array = np.ndarray

# Cut by rows, a product keeps its bytes in OpenBLAS (scipy-openblas 0.3.31,
# measured) unless a part has one row (matrix-vector code), or at most 100³
# multiply-adds (small-matrix kernels) where the whole has more, or, in
# float64, an output width that is not a multiple of 8 (widths 258–262,
# 500, 1,002 and 1,004 rounded otherwise at most row counts). dense cuts no
# such product, and keeps the width rule in float32 too.
_SMALL_PRODUCT = 100**3

# the one worker thread of second_core, None outside it
_worker: ContextVar = ContextVar("dgzsl_worker", default=None)


class _Node:
    __slots__ = ("op", "value", "bwd", "grad", "name", "out")

    def __init__(self, op, value, bwd, name=None, out=None):
        self.op = op
        self.value = value
        self.bwd = bwd
        self.grad = None
        self.name = name
        self.out = out


class Var:
    """Handle to one node on a Tape; the fused ops record new nodes."""

    __slots__ = ("tape", "index")

    # Mixed ndarray/Var arithmetic raises TypeError instead of building an
    # object array.
    __array_ufunc__ = None

    def __init__(self, tape: "Tape", index: int):
        self.tape = tape
        self.index = index

    @property
    def value(self) -> Array:
        return self.tape.nodes[self.index].value

    @property
    def grad(self):
        return self.tape.nodes[self.index].grad

    @property
    def shape(self):
        return self.value.shape

    def __float__(self) -> float:
        v = self.value
        if v.size != 1:
            raise ShapeError(f"cannot convert shape {v.shape} to a scalar")
        return float(v.reshape(()))

    def __repr__(self):
        node = self.tape.nodes[self.index]
        return f"Var(op={node.op!r}, shape={node.value.shape})"


class Tape:
    """Ordered record of operations; operands always precede their node."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def _record(self, op, value, bwd, name=None, out=None) -> Var:
        self.nodes.append(_Node(op, value, bwd, name, out))
        return Var(self, len(self.nodes) - 1)

    def leaf(self, value, name: str | None = None, out: Array | None = None) -> Var:
        """Register a differentiable input (a parameter array). Not scanned for
        finiteness: ``init_model`` draws finite values, and the checkpoint
        reader and ``Adam.step`` check the parameters they make. Backward
        writes the leaf's gradient into ``out`` when given (see _accum)."""
        return self._record("leaf", np.asarray(value), None, name, out)

    def backward(self, out: Var) -> None:
        """Accumulate d(out)/d(node) into every ancestor of the scalar out."""
        if out.tape is not self:
            raise DgzslError("output variable belongs to a different tape")
        root = self.nodes[out.index]
        if root.value.size != 1:
            raise ShapeError(
                f"backward target must be scalar, got shape {root.value.shape}"
            )
        for node in self.nodes:
            node.grad = None
        root.grad = np.ones_like(root.value)
        for i in range(out.index, -1, -1):
            node = self.nodes[i]
            if node.grad is not None and node.bwd is not None:
                node.bwd(node.grad)


def _accum(node: _Node, g: Array) -> None:
    # never in-place: contributions may alias upstream gradient arrays; a
    # leaf with an ``out`` copies the first one there (unless it was computed
    # there, as ``dense`` does) and adds the rest to it
    if node.out is None:
        node.grad = g if node.grad is None else node.grad + g
    elif node.grad is None:
        node.grad = node.out
        if g is not node.out:
            np.copyto(node.out, g)
    else:
        np.add(node.grad, g, out=node.grad)


def _value(x):
    if isinstance(x, Var):
        return x.value
    return x if isinstance(x, (int, float)) else np.asarray(x)


def _tape_of(*xs) -> Tape | None:
    tape = None
    for x in xs:
        if isinstance(x, Var):
            if tape is None:
                tape = x.tape
            elif x.tape is not tape:
                raise DgzslError("operands were recorded on different tapes")
    return tape


def _node_of(tape: Tape, x) -> _Node | None:
    return tape.nodes[x.index] if isinstance(x, Var) else None


def record(op: str, value: Array, operands, vjp):
    """Put one hand-differentiated node on the tape of the Var operands.

    Fused ops compute ``value`` themselves and call this last. ``vjp(gout,
    wanted)`` gets the output gradient and one flag per operand (True where
    it is a Var) and returns one gradient per operand, None where none is
    wanted; each Var operand accumulates its gradient in operand order.
    Returns ``value`` itself when no operand is a Var.
    """
    tape = _tape_of(*operands)
    if tape is None:
        return value
    nodes = [_node_of(tape, x) for x in operands]
    wanted = tuple(n is not None for n in nodes)

    def bwd(gout):
        for node, g in zip(nodes, vjp(gout, wanted)):
            if node is not None:
                _accum(node, g)

    return tape._record(op, value, bwd)


def clip(x, lo: float, hi: float):
    """Clamp entries to [lo, hi]; gradient passes through inside the band."""
    xv = _value(x)
    return record("clip", np.clip(xv, lo, hi), (x,), lambda g, wanted: (g * ((xv >= lo) & (xv <= hi)),))


@contextmanager
def second_core(on: bool):
    """Lends ``dense`` and ``optim.Adam`` one worker thread for the body when
    ``on``: a ThreadPoolExecutor of one worker, shut down when the body
    returns or raises. concurrent.futures is imported only here: it imports
    logging, 0.6 MB that a process on one thread never needs."""
    if not on:
        yield
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as pool:
        token = _worker.set(pool)
        try:
            yield
        finally:
            _worker.reset(token)


def concurrently(first, second):
    """Runs ``second`` on the worker of second_core while this thread runs
    ``first`` (outside second_core, both here, in turn); returns both
    results once both are done, and raises only then. The worker runs under
    a copy of this thread's context, so under its np.errstate (per thread).
    ``second`` allocates no array (the worker's malloc arena would keep its
    freed pages), calls no traced function, and never calls concurrently:
    the one worker would wait on itself."""
    pool = _worker.get()
    if pool is None:
        return first(), second()
    later = pool.submit(copy_context().run, second)
    try:
        done = first()
    except BaseException:
        later.exception()  # waits for the worker
        raise
    return done, later.result()


def _product(a, b, out):
    # every product that dense may hand to the worker is made on this line,
    # so its warnings print alike on one thread and on two
    return np.matmul(a, b, out=out)


def dense(x, weights, bias, relu: bool = False, mask=None):
    """x @ weights + bias, then optionally ReLU, then optionally times a
    constant dropout mask: one fused node on a tape.

    The bias, ReLU and mask are applied in place on the product. The
    backward applies the mask, then the ReLU gate, then takes the bias,
    input and weight gradients, the same operations in the same order as the
    unfused composition; a weight leaf with an ``out`` takes its first
    gradient straight into it (later ones are added there by _accum). The
    gate, with ReLU′(0) = 0, is ``out > 0``: where the dropout mask (+0 or
    at least 1) is non-zero, so is the pre-activation; where it is zero,
    the masked gradient is ±0, which either gate leaves as it is.

    Inside second_core the product, with the bias, ReLU and mask after it,
    is made as two row halves, the second on the worker, unless
    BLAS would round the halves otherwise: a one-row half, a half of at most
    _SMALL_PRODUCT multiply-adds, or a width that is not a multiple of 8.
    The backward makes the input gradient on the worker while this thread
    makes the weight and bias gradients. No sum is reordered, so the bytes
    are those of one thread; the worker writes only into arrays allocated
    here and runs no traced function.
    """
    xv, wv, bv = _value(x), _value(weights), _value(bias)
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0]:
        raise ShapeError(f"dense shapes {xv.shape} and {wv.shape} do not chain")
    tape = _tape_of(x, weights, bias)
    out = np.empty((xv.shape[0], wv.shape[1]), np.result_type(xv, wv))
    xv = xv.astype(out.dtype, copy=False)  # as matmul would, but once, and on this thread

    def forward(rows):
        part = out[rows]
        _product(xv[rows], wv, part)
        part += bv
        if relu:
            np.maximum(part, 0.0, out=part)
        if mask is not None:
            part *= mask[rows]

    half = xv.shape[0] // 2
    if _worker.get() is None or half < 2 or half * wv.size <= _SMALL_PRODUCT or wv.shape[1] % 8:
        forward(slice(None))
    else:
        concurrently(partial(forward, slice(None, half)), partial(forward, slice(half, None)))
    wn = None if tape is None else _node_of(tape, weights)
    if wn is not None and (wn.out is None or wn is _node_of(tape, x)):
        wn = None  # no slice, or x's gradient would reach it first

    def vjp(gout, wanted):
        g = gout if mask is None else gout * mask
        if relu:
            g = g * (out > 0.0) if mask is None else np.multiply(g, out > 0.0, out=g)
        if not wanted[0]:
            return None, *_weight_and_bias(xv, g, wn, wanted)
        gx = np.empty(xv.shape, np.result_type(g, wv))
        (gw, gb), _ = concurrently(partial(_weight_and_bias, xv, g, wn, wanted), partial(_product, g, wv.T, gx))
        return gx, gw, gb

    return record("dense", out, (x, weights, bias), vjp)


def _weight_and_bias(xv, g, wn, wanted):
    """dense's weight and bias gradients for the input ``xv`` and the gated
    output gradient ``g``; ``wn`` is the weight leaf that takes its first
    contribution into its ``out``, or None."""
    if wanted[1] and wn is not None and wn.grad is None:  # its first contribution
        gw = np.matmul(xv.T, g, out=wn.out)
    else:
        gw = xv.T @ g if wanted[1] else None
    return gw, g.sum(axis=0) if wanted[2] else None


def backward_grad(tape: Tape, out: Var) -> dict:
    """Gradient of the scalar ``out`` w.r.t. every leaf on the tape.

    Returns a dict keyed by leaf name (or node index for unnamed leaves).
    Leaves the output does not depend on get zero gradients (in ``out``, if
    they have one).
    """
    tape.backward(out)
    grads = {}
    for i, node in enumerate(tape.nodes):
        if node.op == "leaf":
            g = node.grad
            if g is None:
                g = np.empty_like(node.value) if node.out is None else node.out
                g.fill(0.0)
            grads[node.name if node.name is not None else i] = g
    return grads


def value_and_grad(fn, model, out=None):
    """Value, gradient and auxiliary output of a model value function.

    ``fn`` maps a model to ``(scalar, aux)``; it runs once on ``model`` bound
    to a fresh tape. Returns (float value,
    gradient, aux): the gradient is one vector laid out like ``model.flat``
    (``model.layout.views`` slices it by name), ``out`` when given so a
    training loop can reuse one.
    """
    tape = Tape()
    grad = np.empty_like(model.flat) if out is None else out
    value, aux = fn(model.bind(tape, grad))
    backward_grad(tape, value)
    return float(value), grad, aux


def grad_check(fn, params: dict, epsilon: float = 1e-5) -> float:
    """Worst relative error between tape gradients and central differences.

    ``fn`` maps a dict of arrays (or tape Vars) to a scalar and must be
    deterministic: dropout disabled, any sampling noise fixed. Relative error
    uses max(1, |analytic|, |numeric|) as the denominator; non-finite entries
    count as infinite error.
    """
    tape = Tape()
    bound = {k: tape.leaf(v, name=k) for k, v in params.items()}
    analytic = backward_grad(tape, fn(bound))
    work = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    worst = 0.0
    for key, arr in work.items():
        flat = arr.reshape(-1)
        ga = np.asarray(analytic[key]).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            f_plus = float(fn(work))
            flat[i] = orig - epsilon
            f_minus = float(fn(work))
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            if not (np.isfinite(ga[i]) and np.isfinite(numeric)):
                return float("inf")
            rel = abs(ga[i] - numeric) / max(1.0, abs(ga[i]), abs(numeric))
            worst = max(worst, rel)
    return worst
