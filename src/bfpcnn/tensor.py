"""N-dimensional float32 tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a row-major numpy float32 array. Operations on tracked
tensors record a ``TapeNode`` holding the inputs and a backward closure;
``Tensor.backward()`` walks the resulting DAG once in reverse topological
order and sums the gradients each tensor receives, so fan-out adds up. Only
leaves (tracked tensors no op produced) keep a ``.grad``, which each sweep
adds to; intermediate gradients live only for the sweep. Inside ``no_tape()``
no op records a node, so nothing outlives the values a caller keeps.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np


_recording = True  # False inside no_tape()


@contextlib.contextmanager
def no_tape():
    """Record no tape node inside the block, whatever the inputs; the
    previous setting comes back on exit, also on an exception."""
    global _recording
    outer, _recording = _recording, False
    try:
        yield
    finally:
        _recording = outer


class TapeNode:
    """One recorded operation: kind, input tensors, backward closure.

    The closure captures whatever forward values the backward pass needs,
    receives the output gradient and returns one float32 gradient of each
    input's exact shape, in input order (``None`` for an untracked input).
    It writes nothing, not even into the gradient it receives.
    """

    __slots__ = ("op_kind", "inputs", "backward_fn")

    def __init__(self, op_kind: str, inputs: tuple["Tensor", ...],
                 backward_fn: Callable[[np.ndarray], tuple]):
        self.op_kind = op_kind
        self.inputs = inputs
        self.backward_fn = backward_fn


def _positive_dims(shape: Sequence[int]) -> list[int]:
    dims = [int(d) for d in shape]
    if any(d < 1 for d in dims):
        raise ValueError(f"invalid shape {dims}: every dimension must be >= 1")
    return dims


class Tensor:
    """Row-major float32 array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "node")

    def __init__(self, shape: Sequence[int], fill=0.0, requires_grad: bool = False):
        dims = _positive_dims(shape)
        if np.isscalar(fill):
            data = np.full(dims, fill, dtype=np.float32)
        else:
            data = np.array(fill, dtype=np.float32, order="C").reshape(dims)
        self.data: np.ndarray = data
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.node: TapeNode | None = None

    @classmethod
    def _wrap(cls, data: np.ndarray) -> "Tensor":
        # fast path for op outputs: no validation, no copy
        t = object.__new__(cls)
        t.data = data
        t.grad = None
        t.requires_grad = False
        t.node = None
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Tensor") -> "Tensor":
        if self.shape != other.shape:
            raise ValueError(f"add: {self.shape} vs {other.shape}")
        return apply_op("add", (self, other), self.data + other.data, lambda g: (g, g))

    def __mul__(self, other: "Tensor") -> "Tensor":
        if self.shape != other.shape:
            raise ValueError(f"mul: {self.shape} vs {other.shape}")
        a_data, b_data = self.data, other.data
        return apply_op("mul", (self, other), a_data * b_data,
                        lambda g: (g * b_data, g * a_data))

    def sum(self) -> "Tensor":
        # accumulate in float64, round once: keeps scalar losses accurate
        # enough for finite-difference checks
        total = np.float32(self.data.sum(dtype=np.float64))
        return apply_op("sum", (self,), total, lambda g: (np.full_like(self.data, g),))

    def reshape(self, shape: Sequence[int]) -> "Tensor":
        dims = [int(d) for d in shape]
        old_shape = self.shape
        return apply_op("reshape", (self,), self.data.reshape(dims),
                        lambda g: (g.reshape(old_shape),))

    def transpose(self, *axes: int) -> "Tensor":
        perm = tuple(axes)
        inv = tuple(np.argsort(perm))
        return apply_op("transpose", (self,), self.data.transpose(perm),
                        lambda g: (g.transpose(inv),))

    # -- reverse-mode sweep -------------------------------------------------

    def backward(self) -> None:
        """Add this scalar's gradient to the ``.grad`` of every leaf it depends on."""
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar, got shape {self.shape}")
        if not self.requires_grad:
            raise ValueError("backward() on a value with no recorded computation")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            t, emitted = stack.pop()
            if emitted:
                topo.append(t)
                continue
            if id(t) in seen:
                continue
            seen.add(id(t))
            stack.append((t, True))
            if t.node is not None:
                stack.extend((inp, False) for inp in t.node.inputs if inp.requires_grad)
        grads = {id(self): np.ones_like(self.data)}
        for t in reversed(topo):
            g = grads.pop(id(t))
            if t.node is None:
                t.grad = g if t.grad is None else t.grad + g
                continue
            for inp, g_in in zip(t.node.inputs, t.node.backward_fn(g)):
                if inp.requires_grad:
                    grads[id(inp)] = g_in if id(inp) not in grads else grads[id(inp)] + g_in


def records(inputs: Sequence[Tensor]) -> bool:
    """Whether an op on ``inputs`` records a tape node: some input is tracked
    and the op runs outside ``no_tape()``."""
    return _recording and any(t.requires_grad for t in inputs)


def apply_op(op_kind: str, inputs: Sequence[Tensor], data: np.ndarray,
             backward_fn: Callable[[np.ndarray], tuple]) -> Tensor:
    """Wrap an op result, recording a tape node when ``records(inputs)``."""
    out = Tensor._wrap(np.asarray(data, dtype=np.float32))
    if records(inputs):
        out.requires_grad = True
        out.node = TapeNode(op_kind, tuple(inputs), backward_fn)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul needs rank-2 operands, got {a.shape} and {b.shape}")
    a_data, b_data = a.data, b.data
    return apply_op("matmul", (a, b), a_data @ b_data,
                    lambda g: (g @ b_data.T, a_data.T @ g))
