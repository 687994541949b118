"""Dense float64 arrays plus a tape-based reverse-mode autodiff engine.

A ``Tape`` records one node per operation in execution order. Because the
graph is built define-by-run, the recording order is already topological, so
the backward pass is a single reverse sweep that visits every node exactly
once. Tapes are rebuilt for each objective evaluation and then discarded.

Most helpers here are generic: they accept either a ``Var`` (recorded on its
tape) or a plain ndarray (evaluated immediately with numpy). Math written
against these helpers therefore runs both as a differentiable graph and as a
fast forward-only evaluation, from a single implementation.

The hot compositions are fused: ``dense`` (affine map, optional ReLU and
dropout mask) and ``gaussian.kl_matrix`` each record one node whose backward
is written by hand, through the ``record`` hook, instead of one node per
elementary op.
"""

from __future__ import annotations

import numpy as np

from .errors import DgzslError, ShapeError

Array = np.ndarray


class _Node:
    __slots__ = ("op", "value", "bwd", "grad", "name")

    def __init__(self, op, value, bwd, name=None):
        self.op = op
        self.value = value
        self.bwd = bwd
        self.grad = None
        self.name = name


class Var:
    """Handle to one node on a Tape. Arithmetic on Vars records new nodes."""

    __slots__ = ("tape", "index")

    # Defer mixed ndarray/Var arithmetic to our reflected operators instead
    # of letting numpy build object arrays.
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

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)


class Tape:
    """Ordered record of operations; operands always precede their node."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def _record(self, op, value, bwd, name=None) -> Var:
        self.nodes.append(_Node(op, value, bwd, name))
        return Var(self, len(self.nodes) - 1)

    def leaf(self, value, name: str | None = None) -> Var:
        """Register a differentiable input (a parameter array). Not scanned for
        finiteness: ``init_model`` draws finite values, and the checkpoint
        reader and ``Adam.step`` check the parameters they make."""
        return self._record("leaf", np.asarray(value, dtype=np.float64), None, name)

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
    # never in-place: contributions may alias upstream gradient arrays
    node.grad = g if node.grad is None else node.grad + g


def _value(x) -> Array:
    if isinstance(x, Var):
        return x.value
    return np.asarray(x, dtype=np.float64)


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


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum a gradient over the axes numpy broadcasting introduced."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b):
    tape = _tape_of(a, b)
    av, bv = _value(a), _value(b)
    out = av + bv
    if tape is None:
        return out
    an, bn = _node_of(tape, a), _node_of(tape, b)

    def bwd(gout):
        if an is not None:
            _accum(an, _unbroadcast(gout, av.shape))
        if bn is not None:
            _accum(bn, _unbroadcast(gout, bv.shape))

    return tape._record("add", out, bwd)


def sub(a, b):
    tape = _tape_of(a, b)
    av, bv = _value(a), _value(b)
    out = av - bv
    if tape is None:
        return out
    an, bn = _node_of(tape, a), _node_of(tape, b)

    def bwd(gout):
        if an is not None:
            _accum(an, _unbroadcast(gout, av.shape))
        if bn is not None:
            _accum(bn, _unbroadcast(-gout, bv.shape))

    return tape._record("sub", out, bwd)


def mul(a, b):
    tape = _tape_of(a, b)
    av, bv = _value(a), _value(b)
    out = av * bv
    if tape is None:
        return out
    an, bn = _node_of(tape, a), _node_of(tape, b)

    def bwd(gout):
        if an is not None:
            _accum(an, _unbroadcast(gout * bv, av.shape))
        if bn is not None:
            _accum(bn, _unbroadcast(gout * av, bv.shape))

    return tape._record("mul", out, bwd)


def matmul(a, b):
    tape = _tape_of(a, b)
    av, bv = _value(a), _value(b)
    if av.ndim != 2 or bv.ndim != 2:
        raise ShapeError(
            f"matmul needs 2-D operands, got shapes {av.shape} and {bv.shape}"
        )
    if av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul shapes {av.shape} and {bv.shape} do not chain")
    out = av @ bv
    if tape is None:
        return out
    an, bn = _node_of(tape, a), _node_of(tape, b)

    def bwd(gout):
        if an is not None:
            _accum(an, gout @ bv.T)
        if bn is not None:
            _accum(bn, av.T @ gout)

    return tape._record("matmul", out, bwd)


def transpose(x):
    xv = _value(x)
    if xv.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D array, got shape {xv.shape}")
    out = xv.T
    if not isinstance(x, Var):
        return out
    xn = _node_of(x.tape, x)

    def bwd(gout):
        _accum(xn, gout.T)

    return x.tape._record("transpose", out, bwd)


def relu(x):
    xv = _value(x)
    out = np.maximum(xv, 0.0)
    if not isinstance(x, Var):
        return out
    xn = _node_of(x.tape, x)

    def bwd(gout):
        _accum(xn, gout * (xv > 0.0))

    return x.tape._record("relu", out, bwd)


def exp(x):
    out = np.exp(_value(x))
    if not isinstance(x, Var):
        return out
    xn = _node_of(x.tape, x)

    def bwd(gout):
        _accum(xn, gout * out)

    return x.tape._record("exp", out, bwd)


def log(x):
    xv = _value(x)
    out = np.log(xv)
    if not isinstance(x, Var):
        return out
    xn = _node_of(x.tape, x)

    def bwd(gout):
        _accum(xn, gout / xv)

    return x.tape._record("log", out, bwd)


def clip(x, lo: float, hi: float):
    """Clamp entries to [lo, hi]; gradient passes through inside the band."""
    xv = _value(x)
    out = np.clip(xv, lo, hi)
    if not isinstance(x, Var):
        return out
    xn = _node_of(x.tape, x)

    def bwd(gout):
        _accum(xn, gout * ((xv >= lo) & (xv <= hi)))

    return x.tape._record("clip", out, bwd)


def sum(x, axis=None, keepdims: bool = False):  # noqa: A001 - numpy-style name
    xv = _value(x)
    out = np.asarray(np.sum(xv, axis=axis, keepdims=keepdims))
    if not isinstance(x, Var):
        return out
    xn = _node_of(x.tape, x)

    def bwd(gout):
        g = gout
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(xn, np.broadcast_to(g, xv.shape))

    return x.tape._record("sum", out, bwd)


def mean(x, axis=None, keepdims: bool = False):
    xv = _value(x)
    n = xv.size if axis is None else np.prod([xv.shape[a] for a in np.atleast_1d(axis)])
    return sum(x, axis=axis, keepdims=keepdims) * (1.0 / float(n))


def logsumexp_rows(x, mask=None):
    """Stable row-wise log-sum-exp of a 2-D array, optionally masked.

    ``mask`` is a constant boolean array broadcastable to ``x``; False entries
    are excluded from the reduction (and receive zero gradient). Returns a
    column of shape (rows, 1).
    """
    xv = _value(x)
    if xv.ndim != 2:
        raise ShapeError(f"logsumexp_rows needs a 2-D array, got shape {xv.shape}")
    if xv.shape[1] == 0:
        raise DgzslError("logsumexp_rows over zero columns")
    if mask is not None:
        m = np.broadcast_to(np.asarray(mask, dtype=bool), xv.shape)
        if not m.any(axis=1).all():
            raise DgzslError("logsumexp_rows: some row has an empty mask")
        work = np.where(m, xv, -np.inf)
    else:
        work = xv
    mx = np.max(work, axis=1, keepdims=True)
    w = np.exp(work - mx)
    total = np.sum(w, axis=1, keepdims=True)
    out = mx + np.log(total)
    if not isinstance(x, Var):
        return out
    xn = _node_of(x.tape, x)
    soft = w / total

    def bwd(gout):
        _accum(xn, gout * soft)

    return x.tape._record("logsumexp_rows", out, bwd)


def logsumexp(values) -> float:
    """max(v) + log sum exp(v - max(v)) of a non-empty vector, overflow-safe."""
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise DgzslError("logsumexp of an empty vector")
    if not np.all(np.isfinite(v)):
        raise DgzslError("logsumexp input has non-finite entries")
    m = float(v.max())
    return m + float(np.log(np.exp(v - m).sum()))


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


def dense(x, weights, bias, relu: bool = False, mask=None):
    """x @ weights + bias, then optionally ReLU, then optionally times a
    constant dropout mask: one fused node on a tape.

    On plain arrays the bias, ReLU and mask are applied in place on the fresh
    product, so no second rows×cols array is made. The backward applies the
    mask, then the ReLU gate, then takes the bias, input and weight gradients,
    the same operations in the same order as the unfused composition.
    """
    xv, wv, bv = _value(x), _value(weights), _value(bias)
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0]:
        raise ShapeError(f"dense shapes {xv.shape} and {wv.shape} do not chain")
    out = xv @ wv
    out += bv
    active = out > 0.0 if relu and _tape_of(x, weights, bias) is not None else None
    if relu:
        np.maximum(out, 0.0, out=out)
    if mask is not None:
        out *= mask

    def vjp(gout, wanted):
        g = gout if mask is None else gout * mask
        if relu:
            g = g * active if mask is None else np.multiply(g, active, out=g)
        gx = g @ wv.T if wanted[0] else None
        gw = xv.T @ g if wanted[1] else None
        return gx, gw, g.sum(axis=0) if wanted[2] else None

    return record("dense", out, (x, weights, bias), vjp)


def backward_grad(tape: Tape, out: Var) -> dict:
    """Gradient of the scalar ``out`` w.r.t. every leaf on the tape.

    Returns a dict keyed by leaf name (or node index for unnamed leaves).
    Leaves the output does not depend on get zero gradients.
    """
    tape.backward(out)
    grads = {}
    for i, node in enumerate(tape.nodes):
        if node.op == "leaf":
            g = node.grad if node.grad is not None else np.zeros_like(node.value)
            grads[node.name if node.name is not None else i] = g
    return grads


def value_and_grad(fn, model):
    """Value, gradients and auxiliary output of a model value function.

    ``fn`` maps a model to ``(scalar, aux)``; it runs once on ``model`` bound
    to a fresh tape. Returns (float value, gradient dict keyed like the
    model's named arrays, aux).
    """
    tape = Tape()
    value, aux = fn(model.bind(tape))
    return float(value), backward_grad(tape, value), aux


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
