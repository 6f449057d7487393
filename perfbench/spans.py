"""Function patching and the span tracer of the traced benchmark run.

Everything here wraps the package from outside: nothing under ``src/`` knows
it is measured. ``patch`` swaps one function for a wrapper in every
``bfpcnn`` module that imported it; ``Tracer`` uses it to record a span
around the public functions of each module, every model layer's
``forward``, ``Tensor.backward`` and each tape node's backward closure.
A span's self time is its duration minus the spans it encloses. Calls made
under ``untraced()``, the benchmark's own checks, are left out.
"""

from __future__ import annotations

import contextlib
import os
import sys
import tracemalloc
from collections import Counter
from time import perf_counter

import numpy as np

from bfpcnn import cli, data, model, preprocess, tensor, train

# Backward closures reported per op kind: the kernels the roadmap's
# tape, im2col and fused-attention items change.
BWD_OPS = ("conv2d", "depthwise_conv2d", "maxpool2d", "batchnorm", "bmm", "matmul",
           "softmax", "dropout", "gather_positions", "dense", "relu", "reshape")
FWD_GROUPS = ("stem", "pool", "refine", "inception1", "attention", "sep", "spatial",
              "inception2", "residual", "head")
# model.py layer names that belong to the dense head
_HEAD_LAYERS = {"flatten", "head", "head_dropout", "classify", "softmax"}
_paused = False  # inside untraced()

# (module, function name, span name); every module that imported the
# function by name sees the wrapper too.
_SPANS = (
    (data, "ingest", "data.ingest"),
    (data, "load_dataset", "data.load_dataset"),
    (preprocess, "read_pgm", "preprocess.read_pgm"),
    (preprocess, "histogram_equalize", "preprocess.equalize"),
    (preprocess, "median_filter", "preprocess.median"),
    (preprocess, "resize", "preprocess.resize"),
    (preprocess, "normalize", "preprocess.normalize"),
    (preprocess, "write_pgm", "preprocess.write_pgm"),
    (model, "forward", "model.forward"),
    (train, "cross_entropy_loss", "train.loss"),
    (train, "optimizer_step", "train.optimizer"),
    (train, "evaluate", "train.evaluate"),
    (cli, "cmd_predict", "cli.predict"),
)


@contextlib.contextmanager
def patch(module, name: str, make_wrapper, everywhere: bool = True):
    """Replace ``module.name`` by ``make_wrapper(current)``, and with
    ``everywhere`` also in every other bfpcnn module that holds the same
    object; restore all of them on exit."""
    current = getattr(module, name)
    wrapper = make_wrapper(current)
    swapped = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "bfpcnn" or mod_name.startswith("bfpcnn.")):
            continue
        if not everywhere and mod is not module:
            continue
        for attr, value in list(vars(mod).items()):
            if value is current:
                setattr(mod, attr, wrapper)
                swapped.append((mod, attr))
    try:
        yield wrapper
    finally:
        for mod, attr in swapped:
            setattr(mod, attr, current)


@contextlib.contextmanager
def untraced():
    """Keep the calls in the block out of every span, count and peak."""
    global _paused
    outer, _paused = _paused, True
    try:
        yield
    finally:
        _paused = outer


def _tensor_bytes(graph) -> int:
    return sum(t.data.nbytes for _, t, _ in graph.named_tensors())


class _CountingNumpy:
    """Stands in for ``numpy`` inside bfpcnn.tensor to count the gradient
    buffers ``Tensor.backward`` zero-fills."""

    def __init__(self, counts: Counter):
        self._counts = counts

    def __getattr__(self, name):
        return getattr(np, name)

    def zeros_like(self, *args, **kwargs):
        if not _paused:
            self._counts["grad_buffers"] += 1
        return np.zeros_like(*args, **kwargs)


class Tracer:
    """Per-span call counts, total and self seconds, plus a few counters."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self._stack: list[list] = []  # [name, seconds spent in child spans]

    def timed(self, name: str, fn, *args, **kwargs):
        if _paused:
            return fn(*args, **kwargs)
        self._stack.append([name, 0.0])
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            _, child = self._stack.pop()
            stat = self.spans.setdefault(name, [0, 0.0, 0.0])
            stat[0] += 1
            stat[1] += dt
            stat[2] += dt - child
            if self._stack:
                self._stack[-1][1] += dt

    def span(self, name: str, fn):
        def wrapped(*args, **kwargs):
            return self.timed(name, fn, *args, **kwargs)
        return wrapped

    def _peak(self, name: str, value: float) -> None:
        if _paused:
            return
        self.peaks[name] = max(self.peaks.get(name, 0.0), value)

    @contextlib.contextmanager
    def installed(self):
        """Wrap the package for the duration of the block."""
        with contextlib.ExitStack() as stack:
            for module, name, span_name in _SPANS:
                stack.enter_context(patch(module, name, lambda f, s=span_name: self.span(s, f)))
            stack.enter_context(patch(model, "build_model", self._wrap_build))
            stack.enter_context(patch(model, "save_checkpoint", self._wrap_save))
            stack.enter_context(patch(model, "load_checkpoint", self._wrap_load))
            stack.enter_context(self._wrap_tape())
            yield self

    @contextlib.contextmanager
    def _wrap_tape(self):
        node_init = tensor.TapeNode.__init__
        backward = tensor.Tensor.backward
        tracer = self

        def init(node, op_kind, inputs, backward_fn):
            if not _paused:
                tracer.counts["tape_nodes"] += 1
            node_init(node, op_kind, inputs, tracer.span(f"bwd.{op_kind}", backward_fn))

        def traced_backward(t):
            return tracer.timed("tensor.backward", backward, t)

        tensor.TapeNode.__init__ = init
        tensor.Tensor.backward = traced_backward
        tensor.np = _CountingNumpy(self.counts)
        try:
            yield
        finally:
            tensor.TapeNode.__init__ = node_init
            tensor.Tensor.backward = backward
            tensor.np = np

    def _wrap_build(self, build):
        def wrapped(cfg):
            inside_load = bool(self._stack) and self._stack[-1][0] == "model.load_checkpoint"
            graph = self.timed("model.ckpt_load.build" if inside_load else "model.build",
                               build, cfg)
            for name, layer in graph.layers:
                group = ("head" if name in _HEAD_LAYERS
                         else "sep" if name.startswith("sep") else name.split(".")[0])
                if group == "attention":
                    layer.forward = self._attention(layer.forward)
                else:
                    layer.forward = self.span(f"fwd.{group}", layer.forward)
            return graph
        return wrapped

    def _attention(self, fwd):
        def wrapped(x, mode, rng):
            n, _, h, w = x.shape
            self._peak("attention.scores_mb", n * (h * w) ** 2 * 4 / 1e6)  # one float32 [N,T,T]
            return self.timed("fwd.attention", fwd, x, mode, rng)
        return wrapped

    def _with_alloc_peak(self, name: str, fn, *args):
        """Run fn under tracemalloc, which sees numpy buffers; returns the
        result and the peak bytes allocated during the call."""
        if _paused:
            return fn(*args), 0
        tracemalloc.start()
        try:
            result = self.timed(name, fn, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak

    def _wrap_save(self, save):
        def wrapped(graph, path):
            _, peak = self._with_alloc_peak("model.save_checkpoint", save, graph, path)
            self._peak("model.ckpt_save.peak_alloc_ratio", peak / _tensor_bytes(graph))
            self._peak("model.ckpt_bytes", os.path.getsize(path))
        return wrapped

    def _wrap_load(self, load):
        def wrapped(path, cfg=None):
            graph, peak = self._with_alloc_peak("model.load_checkpoint", load, path, cfg)
            self._peak("model.ckpt_load.peak_alloc_ratio", peak / _tensor_bytes(graph))
            return graph
        return wrapped

    # -- reported metrics ------------------------------------------------------

    def _stat(self, name: str) -> list:
        return self.spans.get(name, [0, 0.0, 0.0])

    def _per(self, name: str, denominator: int, index: int = 1) -> float:
        """Milliseconds of span ``name`` per unit of ``denominator``; zero
        when the workload never reaches that code."""
        return 1e3 * self._stat(name)[index] / denominator if denominator else 0.0

    def _per_call(self, name: str, index: int = 1) -> float:
        return self._per(name, self._stat(name)[0], index)

    def metrics(self) -> dict[str, float]:
        backwards = self._stat("tensor.backward")[0]
        forwards = self._stat("model.forward")[0]
        out = {
            "tensor.backward_ms": self._per_call("tensor.backward"),
            "tensor.backward_self_ms": self._per_call("tensor.backward", index=2),
            "tensor.grad_buffers": self.counts["grad_buffers"] / backwards if backwards else 0.0,
            "tensor.tape_nodes": self.counts["tape_nodes"] / forwards if forwards else 0.0,
        }
        for op in BWD_OPS:
            out[f"bwd_ms.{op}"] = self._per(f"bwd.{op}", backwards)
        for group in FWD_GROUPS:
            out[f"fwd_ms.{group}"] = self._per(f"fwd.{group}", forwards)
        out["attention.scores_mb"] = self.peaks.get("attention.scores_mb", 0.0)
        out["model.build_ms"] = self._per_call("model.build")
        out["model.ckpt_load.build_ms"] = self._per_call("model.ckpt_load.build")
        for key in ("model.ckpt_load.peak_alloc_ratio", "model.ckpt_save.peak_alloc_ratio",
                    "model.ckpt_bytes"):
            out[key] = self.peaks.get(key, 0.0)
        for key in ("train.optimizer", "train.loss", "train.evaluate", "data.ingest",
                    "data.load_dataset"):
            out[f"{key}_ms"] = self._per_call(key)
        for stage in ("read_pgm", "equalize", "median", "resize", "write_pgm"):
            out[f"preprocess.{stage}_ms"] = self._per_call(f"preprocess.{stage}")
        out["cli.predict_self_ms"] = self._per_call("cli.predict", index=2)
        return out
