"""Reverse-mode autograd on numpy arrays, over the primitive registry.

A :class:`Tensor` wraps an ``ndarray``.  Every operation on it is one
:data:`~repro.nn.primitives.PRIMITIVES` entry run through :func:`apply`:
the primitive's ``forward_res`` computes the value and, when a gradient is
needed, the output keeps its parents and a backward hook that calls the
primitive's ``vjp``.  ``Tensor.backward()`` topologically sorts those
nodes and accumulates gradients.  Each op's numerics therefore live in
one place, checked against finite differences in the test suite.

While :func:`recording` is active (see :func:`repro.runtime.tape.record_tape`)
:func:`apply` hands every application to the recorder instead, which
appends a tape op; the models run unchanged in both modes.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError
from repro.nn.primitives import (  # noqa: F401  (is_sparse_matrix re-exported)
    PRIMITIVES,
    Primitive,
    is_sparse_matrix,
)

_GRAD_ENABLED = [True]

#: the active tape recorder of this thread/context (None when eager)
_RECORDER: ContextVar = ContextVar("repro_nn_recorder", default=None)

_NO_ATTRS: dict = {}


@contextlib.contextmanager
def no_grad():
    """Context manager disabling tape recording (inference mode)."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


def grad_enabled() -> bool:
    return _GRAD_ENABLED[-1]


@contextlib.contextmanager
def recording(recorder):
    """Route every :func:`apply` in this context to
    ``recorder.record(prim, inputs, attrs)``, which returns the output."""
    token = _RECORDER.set(recorder)
    try:
        yield
    finally:
        _RECORDER.reset(token)


class Tensor:
    """A numpy array with an autograd tape."""

    # ``_recorded_as`` is set only on values a recorder emits:
    # ``(recorder, slot)``, which it reads back when an op consumes them
    __slots__ = (
        "data", "grad", "requires_grad", "_backward", "_parents", "_recorded_as",
    )

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad and _GRAD_ENABLED[-1]
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    # -- properties ---------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        grad_flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    # -- autograd ----------------------------------------------------------------

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.copy() if isinstance(grad, np.ndarray) else np.asarray(grad)
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor (must be scalar unless grad given)."""
        if not self.requires_grad:
            raise ModelError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise ModelError(
                    "backward() without an explicit gradient requires a scalar"
                )
            grad = np.ones_like(self.data)
        # topological order of the tape
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        return apply(_ADD, (self, as_tensor(other)))

    def __radd__(self, other) -> "Tensor":
        return apply(_ADD, (as_tensor(other), self))

    def __mul__(self, other) -> "Tensor":
        return apply(_MUL, (self, as_tensor(other)))

    def __rmul__(self, other) -> "Tensor":
        return apply(_MUL, (as_tensor(other), self))

    def __sub__(self, other) -> "Tensor":
        return apply(_SUB, (self, as_tensor(other)))

    def __rsub__(self, other) -> "Tensor":
        return apply(_SUB, (as_tensor(other), self))

    def __neg__(self) -> "Tensor":
        return apply(_NEG, (self,))

    def __truediv__(self, other) -> "Tensor":
        return apply(_DIV, (self, as_tensor(other)))

    def __rtruediv__(self, other) -> "Tensor":
        return apply(_DIV, (as_tensor(other), self))

    def __matmul__(self, other) -> "Tensor":
        return apply(_MATMUL, (self, as_tensor(other)))

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise ModelError("Tensor ** only supports scalar exponents")
        return apply(_POW, (self,), {"exponent": float(exponent)})

    # -- elementwise nonlinearities -------------------------------------------------

    def exp(self) -> "Tensor":
        return apply(_EXP, (self,))

    def log(self) -> "Tensor":
        return apply(_LOG, (self,))

    def tanh(self) -> "Tensor":
        return apply(_TANH, (self,))

    def sigmoid(self) -> "Tensor":
        return apply(_SIGMOID, (self,))

    def relu(self) -> "Tensor":
        return apply(_RELU, (self,))

    # -- reductions ------------------------------------------------------------------

    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        return apply(_SUM, (self,), {"axis": axis, "keepdims": keepdims})

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        return apply(_MAX, (self,), {"axis": axis, "keepdims": keepdims})

    # -- shape manipulation --------------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        return apply(_RESHAPE, (self,), {"shape": shape})

    def transpose(self) -> "Tensor":
        return apply(_TRANSPOSE, (self,))

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, key) -> "Tensor":
        return apply(_INDEX, (self,), {"key": key})

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Row gather (embedding lookup / SortPooling selection)."""
        indices = np.asarray(indices, dtype=np.int64)
        return apply(_GATHER, (self,), {"indices": indices})


_ADD, _SUB, _MUL, _DIV, _MATMUL = (
    PRIMITIVES[name] for name in ("add", "sub", "mul", "div", "matmul")
)
_NEG, _POW, _EXP, _LOG, _TANH, _SIGMOID, _RELU = (
    PRIMITIVES[name]
    for name in ("neg", "pow", "exp", "log", "tanh", "sigmoid", "relu")
)
_SUM, _MAX, _RESHAPE, _TRANSPOSE, _INDEX, _GATHER, _CONCAT, _ADJ_MATMUL = (
    PRIMITIVES[name]
    for name in (
        "sum", "max", "reshape", "transpose", "index", "gather", "concat",
        "adj_matmul",
    )
)


def apply(prim: Primitive, inputs: tuple, attrs: dict = _NO_ATTRS) -> Tensor:
    """Run ``prim`` on ``inputs``: Tensors, or structure objects (an
    adjacency matrix, a sizes vector) that never take a gradient.

    Eagerly, the output's backward hook calls ``prim.vjp`` and accumulates
    into every parent that requires a gradient; a single-input scatter op
    (``prim.vjp_into``) adds straight into its parent's gradient buffer.
    Under :func:`recording` the recorder emits the op instead.
    """
    recorder = _RECORDER.get()
    if recorder is not None:
        return recorder.record(prim, inputs, attrs)
    # unary and all-Tensor binary calls are the hot cases: unrolled
    if len(inputs) == 1:
        (a,) = inputs
        ins = (a.data,)
        needed = (a.requires_grad,)
    elif len(inputs) == 2 and isinstance(inputs[0], Tensor) and isinstance(
        inputs[1], Tensor
    ):
        a, b = inputs
        ins = (a.data, b.data)
        needed = (a.requires_grad, b.requires_grad)
    else:
        ins = tuple([t.data if isinstance(t, Tensor) else t for t in inputs])
        needed = tuple([isinstance(t, Tensor) and t.requires_grad for t in inputs])
    if prim.fwd_res is None:
        data, res = prim.fwd(ins, attrs, None), None
    else:
        data, res = prim.fwd_res(ins, attrs)
    if True not in needed or not _GRAD_ENABLED[-1]:
        return Tensor(data)
    # a partial, not a closure: two GC-tracked objects per node instead of
    # a function plus one cell per captured name
    if prim.vjp_into is not None:
        backward = partial(_pull_into, prim.vjp_into, inputs[0], ins, attrs)
    else:
        backward = partial(_pull, prim.vjp, ins, data, res, attrs, needed, inputs)
    parents = inputs
    if False in needed:
        parents = tuple([t for t, need in zip(inputs, needed) if need])
    return Tensor(data, True, parents, backward)


def _pull(vjp, ins, data, res, attrs, needed, inputs, grad) -> None:
    """Backward of one node: accumulate each input's VJP partial."""
    for t, part in zip(inputs, vjp(grad, ins, data, res, attrs, needed)):
        if part is not None:
            t._accumulate(part)


def _pull_into(vjp_into, src, ins, attrs, grad) -> None:
    """Backward of a scatter node: add into ``src.grad`` in place."""
    src.grad = vjp_into(src.grad, grad, ins, attrs)


def as_tensor(value, requires_grad: bool = False) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation."""
    return apply(_CONCAT, tuple([as_tensor(t) for t in tensors]), {"axis": axis})


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stacking along a new axis (a concat of reshapes)."""
    tensors = [as_tensor(t) for t in tensors]
    expanded = np.expand_dims(tensors[0].data, axis).shape
    return concat([t.reshape(*expanded) for t in tensors], axis=axis)


def sparse_matmul(matrix, h: Tensor) -> Tensor:
    """Differentiable ``matrix @ h`` for a *constant* structure ``matrix``.

    ``matrix`` is ``(m, n)``, a scipy sparse matrix or a dense ndarray;
    ``h`` is a ``(n, f)`` Tensor; the result is a dense ``(m, f)`` Tensor.
    Only ``h`` receives gradients (the matrix is graph structure, not a
    parameter): the VJP is ``matrixᵀ @ grad``.  A sparse block-diagonal
    matrix propagates a packed batch of graphs without materializing the
    dense ``(m, n)`` adjacency, which would be quadratic in the batch size.
    """
    return apply(_ADJ_MATMUL, (matrix, as_tensor(h)))

