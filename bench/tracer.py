"""In-memory span tracer that wraps dgzsl's public functions from outside.

A ``Tracer`` replaces every place a traced function is looked up (the
defining module, each module that imported it by name, or the class for a
method) with a wrapper that records a span: name, start, end, parent span and
run id. Spans stay in a list until the run ends. ``remove`` puts the original
objects back. Wrappers only read their arguments and results, so tracing
draws no random numbers and changes no output byte.

Layer names follow the benchmark's per-layer table, so ``ModelParams.bind``
is reported under ``autodiff`` (it registers the tape leaves).
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter, defaultdict

import numpy as np

import dgzsl

# (span name, defining module, attribute path); the layer is the name's prefix
TRACED = (
    ("cli.main", "cli", "main"),
    ("train.run_train", "train", "run_train"),
    ("train.train_model", "train", "train_model"),
    ("train.run_eval", "train", "run_eval"),
    ("train.export_embeddings", "train", "export_embeddings"),
    ("data.synth_generate", "data", "synth_generate"),
    ("data.save_dataset", "data", "save_dataset"),
    ("data.load_dataset", "data", "load_dataset"),
    ("serialize.save_checkpoint", "serialize", "save_checkpoint"),
    ("serialize.load_checkpoint", "serialize", "load_checkpoint"),
    ("serialize.save_matrix", "serialize", "save_matrix"),
    ("serialize.load_matrix", "serialize", "load_matrix"),
    ("inductive.inductive_objective", "inductive", "inductive_objective"),
    ("transductive.transductive_objective", "transductive", "transductive_objective"),
    ("transductive.soft_assign", "transductive", "soft_assign"),
    ("transductive.sharpen", "transductive", "sharpen"),
    ("autodiff.backward_grad", "autodiff", "backward_grad"),
    ("autodiff.ModelParams.bind", "networks", "ModelParams.bind"),
    ("networks.encode", "networks", "encode"),
    ("networks.decode", "networks", "decode"),
    ("networks.class_prior", "networks", "class_prior"),
    ("networks.make_dropout_masks", "networks", "make_dropout_masks"),
    ("gaussian.kl_matrix", "gaussian", "kl_matrix"),
    ("gaussian.sample_reparam", "gaussian", "sample_reparam"),
    ("optim.Adam.step", "optim", "Adam.step"),
    ("inference.accuracy", "inference", "accuracy"),
    ("inference.predict_batch", "inference", "predict_batch"),
)

# the two calls that make up one optimizer step, as the trainer sees them
STEP_SITES = ("inductive.inductive_objective", "transductive.transductive_objective", "optim.Adam.step")

LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name, _, _ in TRACED))

TAPE_OPS = (
    "leaf", "add", "sub", "mul", "matmul", "transpose",
    "relu", "exp", "log", "clip", "sum", "logsumexp_rows",
)

_MARK = "_bench_traced"


def layer_of(name: str) -> str:
    return name.split(".")[0]


def _modules():
    return [importlib.import_module(f"dgzsl.{m}") for m in dgzsl._SUBMODULES]


def _value(x):
    return x.value if hasattr(x, "tape") else np.asarray(x)


def _path_arg(args, kwargs):
    return os.fspath(kwargs["path"] if "path" in kwargs else args[0])


class Counts:
    """Exact work counts observed at the traced boundaries."""

    def __init__(self):
        self.steps = 0
        self.tape_nodes = Counter()
        self.nodes_with_grad = 0
        self.param_count = 0
        self.kl_calls = 0
        self.kl_bcl = 0
        self.bytes_read = 0
        self.reads = 0
        self.bytes_written = 0
        self.writes = 0
        self.refreshes = 0
        self.refreshes_changed = 0
        self._labels = {}

    def after_backward(self, args, result):
        nodes = args[0].nodes
        self.steps += 1
        self.tape_nodes.update(node.op for node in nodes)
        self.nodes_with_grad += sum(node.grad is not None for node in nodes)

    def after_adam(self, args, result):
        self.param_count = sum(a.size for a in args[1].named_arrays().values())

    def after_load_checkpoint(self, result):
        tensors, _ = result
        self.param_count = sum(a.size for a in tensors.values())

    def after_kl(self, args, result):
        q, priors = args[0], args[1]
        b, l = _value(q.mean).shape
        self.kl_calls += 1
        self.kl_bcl += b * _value(priors.mean).shape[0] * l

    def after_sharpen(self, run, result):
        labels = np.argmax(result.values, axis=1)
        prev = self._labels.get(run)
        if prev is not None:
            self.refreshes += 1
            self.refreshes_changed += bool((prev != labels).any())
        self._labels[run] = labels

    def read(self, path):
        self.reads += 1
        self.bytes_read += os.path.getsize(path)

    def wrote(self, path):
        self.writes += 1
        self.bytes_written += os.path.getsize(path)


class Tracer:
    """Wraps the named functions wherever dgzsl looks them up.

    ``names`` restricts tracing to a subset of TRACED (the untraced runs use
    STEP_SITES only, to time optimizer steps). Use as a context manager, or
    call ``install`` and ``remove``.
    """

    def __init__(self, names=None, counts: Counts | None = None):
        wanted = set(names) if names is not None else None
        self.targets = [t for t in TRACED if wanted is None or t[0] in wanted]
        self.counts = counts
        self.spans: list[list] = []  # [name, start, end, parent, run]
        self.failed = Counter()
        self.run = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _observe(self, name, args, kwargs, result):
        c = self.counts
        if c is None:
            return
        if name == "autodiff.backward_grad":
            c.after_backward(args, result)
        elif name == "optim.Adam.step":
            c.after_adam(args, result)
        elif name == "gaussian.kl_matrix":
            c.after_kl(args, result)
        elif name == "transductive.sharpen":
            c.after_sharpen(self.run, result)
        elif name.startswith("serialize.save_"):
            c.wrote(_path_arg(args, kwargs))
        elif name.startswith("serialize.load_"):
            c.read(_path_arg(args, kwargs))
            if name == "serialize.load_checkpoint":
                c.after_load_checkpoint(result)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None, self.run])
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[layer_of(name)] += 1
                raise
            finally:
                spans[sid][2] = clock()
                stack.pop()
            self._observe(name, args, kwargs, result)
            return result

        setattr(traced, _MARK, fn)
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _modules()
        plan = []
        for name, home, attr in self.targets:
            owner = importlib.import_module(f"dgzsl.{home}")
            if "." in attr:  # a method: patch it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                plan.append((cls, meth, cls.__dict__[meth], name))
                continue
            original = getattr(owner, attr)
            plan.extend(
                (mod, attr, original, name)
                for mod in modules
                if vars(mod).get(attr) is original
            )
        for owner, attr, original, name in plan:
            if hasattr(original, _MARK):
                raise RuntimeError(f"{name} is already wrapped")
            setattr(owner, attr, self._wrap(name, original))
            self._patched.append((owner, attr, original))
        return self

    def remove(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()


def is_clean() -> bool:
    """True when no tracer wrapper is left anywhere in dgzsl."""
    for mod in _modules():
        for value in vars(mod).values():
            if hasattr(value, _MARK):
                return False
            if isinstance(value, type) and any(
                hasattr(v, _MARK) for v in vars(value).values()
            ):
                return False
    return True


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for sid, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(sid)
    out = []
    for sid, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for cid in sorted(children[sid], key=lambda c: spans[c][1]):
            lo, hi = max(spans[cid][1], reach), min(spans[cid][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def step_seconds(spans) -> list[tuple[str, float]]:
    """(objective name, seconds) per optimizer step: objective start to the
    end of the Adam.step that consumes its gradients (the next Adam.step
    under the same parent span)."""
    objectives = {"inductive.inductive_objective", "transductive.transductive_objective"}
    last = {}
    out = []
    for name, start, end, parent, _ in spans:
        if name in objectives:
            last[parent] = (name, start)
        elif name == "optim.Adam.step" and parent in last:
            kind, begun = last.pop(parent)
            out.append((kind, end - begun))
    return out
