"""The op registry: the one definition of every op's forward and VJP.

Every numeric operation the models perform is one of the primitives
below.  Each primitive carries

* ``forward(inputs, attrs, out=None)`` — the numpy computation (clips,
  masks and epsilon floors included), optionally writing into a
  caller-owned ``out`` buffer so the tape interpreter can reuse
  allocations across calls;
* ``forward_res(inputs, attrs)`` — forward plus the *residuals* the
  backward pass needs for data-dependent ops (dropout masks, SortPooling
  gather indices);
* ``vjp(grad, inputs, out, res, attrs, needed)`` — one gradient per input
  (``None`` where ``needed`` is False or the input is non-differentiable);
* ``vjp_into(acc, grad, inputs, attrs)`` — for the single-input scatter
  ops (``index``, ``gather``) only: adds the input gradient into ``acc``
  in place and returns it (allocating when ``acc`` is None), so an eager
  sweep that slices one tensor per time step allocates nothing per step.

Two front ends dispatch through this table and nowhere else:
:func:`repro.nn.tensor.apply` runs a primitive eagerly (and records an
autograd node whose backward calls its ``vjp``), and while
:func:`repro.runtime.tape.record_tape` is active the same call appends a
tape op instead.  The tape interpreter and its mechanical backward replay
the recorded names through the same entries.

Classification flags drive the interpreter's optimizations:

* ``kind`` — ``"unary_ew"`` / ``"binary_ew"`` primitives are candidates
  for adjacent-elementwise fusion; ``"other"`` ops break a chain.
* ``fresh`` — True when the output never aliases an input (a fresh
  allocation or the provided ``out`` buffer), i.e. it is safe to execute a
  fused chain in place on top of it and to back it with a reused buffer.
  View-producing ops (reshape/transpose/basic indexing) are not fresh.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import ModelError
from repro.utils.rng import RngLike, ensure_rng

Arrays = Tuple[np.ndarray, ...]
Attrs = Dict[str, object]


class Primitive:
    """One registered tape op: forward, residual forward, and VJP."""

    __slots__ = (
        "name", "fwd", "fwd_res", "vjp", "vjp_into", "kind", "fresh", "out_shape",
    )

    def __init__(
        self,
        name: str,
        fwd: Callable[[Arrays, Attrs, Optional[np.ndarray]], np.ndarray],
        vjp: Callable[..., Tuple[Optional[np.ndarray], ...]],
        kind: str = "other",
        fresh: bool = True,
        out_shape: Optional[Callable[[Arrays, Attrs], Tuple[int, ...]]] = None,
        fwd_res: Optional[Callable[[Arrays, Attrs], Tuple[np.ndarray, object]]] = None,
        vjp_into: Optional[Callable[..., np.ndarray]] = None,
    ) -> None:
        self.name = name
        self.fwd = fwd
        self.vjp = vjp
        self.vjp_into = vjp_into
        self.kind = kind
        self.fresh = fresh
        self.out_shape = out_shape
        self.fwd_res = fwd_res

    def forward(self, ins: Arrays, attrs: Attrs, out=None) -> np.ndarray:
        return self.fwd(ins, attrs, out)

    def forward_res(self, ins: Arrays, attrs: Attrs):
        """(output, residual) — residual is None for data-independent ops."""
        if self.fwd_res is not None:
            return self.fwd_res(ins, attrs)
        return self.fwd(ins, attrs, None), None

    @property
    def elementwise(self) -> bool:
        return self.kind in ("unary_ew", "binary_ew")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Primitive({self.name!r})"


PRIMITIVES: Dict[str, Primitive] = {}


def _register(prim: Primitive) -> Primitive:
    if prim.name in PRIMITIVES:
        raise ModelError(f"duplicate primitive {prim.name!r}")
    PRIMITIVES[prim.name] = prim
    return prim


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    grad = np.asarray(grad)
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _is_basic_index(key) -> bool:
    """True when ``key`` uses only ints/slices (basic, non-aliasing indexing)."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(isinstance(p, (int, np.integer, slice)) or p is Ellipsis for p in parts)


def is_sparse_matrix(value) -> bool:
    """True when ``value`` is a scipy sparse matrix/array (duck-typed so the
    registry stays importable without scipy)."""
    return hasattr(value, "toarray") and hasattr(value, "tocsr")


def dropout_mask(
    shape, rate: float, rng: RngLike = None
) -> Optional[np.ndarray]:
    """Inverted-dropout mask, or None when rate is 0."""
    if rate <= 0.0:
        return None
    if rate >= 1.0:
        raise ModelError("dropout rate must be < 1")
    generator = ensure_rng(rng)
    keep = 1.0 - rate
    return (generator.random(shape) < keep).astype(np.float64) / keep


def _finish(result: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
    """Land ``result`` in ``out`` when a buffer was provided."""
    if out is None:
        return result
    np.copyto(out, result)
    return out


# -- elementwise binaries ----------------------------------------------------


def _broadcast_shape(ins: Arrays, attrs: Attrs) -> Tuple[int, ...]:
    return np.broadcast_shapes(ins[0].shape, ins[1].shape)


def _same_shape(ins: Arrays, attrs: Attrs) -> Tuple[int, ...]:
    return ins[0].shape


_register(Primitive(
    "add",
    lambda ins, attrs, out: np.add(ins[0], ins[1], out=out),
    lambda g, ins, out, res, attrs, needed: (
        _unbroadcast(g, ins[0].shape) if needed[0] else None,
        _unbroadcast(g, ins[1].shape) if needed[1] else None,
    ),
    kind="binary_ew", out_shape=_broadcast_shape,
))

_register(Primitive(
    "sub",
    lambda ins, attrs, out: np.subtract(ins[0], ins[1], out=out),
    lambda g, ins, out, res, attrs, needed: (
        _unbroadcast(g, ins[0].shape) if needed[0] else None,
        _unbroadcast(-g, ins[1].shape) if needed[1] else None,
    ),
    kind="binary_ew", out_shape=_broadcast_shape,
))

_register(Primitive(
    "mul",
    lambda ins, attrs, out: np.multiply(ins[0], ins[1], out=out),
    lambda g, ins, out, res, attrs, needed: (
        _unbroadcast(g * ins[1], ins[0].shape) if needed[0] else None,
        _unbroadcast(g * ins[0], ins[1].shape) if needed[1] else None,
    ),
    kind="binary_ew", out_shape=_broadcast_shape,
))

_register(Primitive(
    "div",
    lambda ins, attrs, out: np.divide(ins[0], ins[1], out=out),
    lambda g, ins, out, res, attrs, needed: (
        _unbroadcast(g / ins[1], ins[0].shape) if needed[0] else None,
        _unbroadcast(-g * ins[0] / (ins[1] ** 2), ins[1].shape)
        if needed[1] else None,
    ),
    kind="binary_ew", out_shape=_broadcast_shape,
))


# -- elementwise unaries -----------------------------------------------------


_register(Primitive(
    "neg",
    lambda ins, attrs, out: np.negative(ins[0], out=out),
    lambda g, ins, out, res, attrs, needed: ((-g) if needed[0] else None,),
    kind="unary_ew", out_shape=_same_shape,
))

_register(Primitive(
    "pow",
    lambda ins, attrs, out: np.power(ins[0], attrs["exponent"], out=out),
    lambda g, ins, out, res, attrs, needed: (
        (g * attrs["exponent"] * ins[0] ** (attrs["exponent"] - 1))
        if needed[0] else None,
    ),
    kind="unary_ew", out_shape=_same_shape,
))


def _tanh_vjp(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``g * (1.0 - out ** 2)``: the same three operations, landing in one
    fresh buffer instead of three."""
    grad = out ** 2
    np.subtract(1.0, grad, out=grad)
    return np.multiply(g, grad, out=grad)


_register(Primitive(
    "tanh",
    lambda ins, attrs, out: np.tanh(ins[0], out=out),
    lambda g, ins, out, res, attrs, needed: (
        _tanh_vjp(g, out) if needed[0] else None,
    ),
    kind="unary_ew", out_shape=_same_shape,
))

_register(Primitive(
    "relu",
    # x * (x > 0), not maximum(x, 0): the trained goldens pin these bits
    lambda ins, attrs, out: np.multiply(ins[0], ins[0] > 0.0, out=out),
    lambda g, ins, out, res, attrs, needed: (
        (g * (ins[0] > 0.0)) if needed[0] else None,
    ),
    kind="unary_ew", out_shape=_same_shape,
))

_register(Primitive(
    "sigmoid",
    lambda ins, attrs, out: _finish(
        1.0 / (1.0 + np.exp(-np.clip(ins[0], -500.0, 500.0))), out
    ),
    lambda g, ins, out, res, attrs, needed: (
        (g * out * (1.0 - out)) if needed[0] else None,
    ),
    kind="unary_ew", out_shape=_same_shape,
))

_register(Primitive(
    "exp",
    lambda ins, attrs, out: np.exp(np.clip(ins[0], -700.0, 700.0), out=out),
    lambda g, ins, out, res, attrs, needed: ((g * out) if needed[0] else None,),
    kind="unary_ew", out_shape=_same_shape,
))

_register(Primitive(
    "log",
    lambda ins, attrs, out: np.log(np.maximum(ins[0], 1e-300), out=out),
    lambda g, ins, out, res, attrs, needed: (
        (g / np.maximum(ins[0], 1e-300)) if needed[0] else None,
    ),
    kind="unary_ew", out_shape=_same_shape,
))


# -- linear algebra ----------------------------------------------------------


def _matmul_fwd(ins: Arrays, attrs: Attrs, out) -> np.ndarray:
    a, b = ins
    if out is not None and a.ndim == 2 and b.ndim == 2:
        return np.matmul(a, b, out=out)
    return _finish(a @ b, out) if out is not None else a @ b


def _matmul_vjp(g, ins, out, res, attrs, needed):
    a, b = ins
    da = db = None
    if needed[0]:
        da = np.outer(g, b) if b.ndim == 1 else g @ b.T
    if needed[1]:
        db = np.outer(a, g) if a.ndim == 1 else a.T @ g
    return da, db


def _matmul_shape(ins: Arrays, attrs: Attrs):
    a, b = ins
    if a.ndim == 2 and b.ndim == 2:
        return (a.shape[0], b.shape[1])
    return np.broadcast_shapes(a.shape[:-1] + b.shape[1:])  # pragma: no cover


_register(Primitive("matmul", _matmul_fwd, _matmul_vjp, out_shape=_matmul_shape))


def _csr_product(matrix, h: np.ndarray, transpose: bool = False):
    """``matrix @ h`` (``matrix.T @ h`` with ``transpose``) for a scipy CSR
    ``matrix``, or None when another route must take it.

    It calls the kernel ``matrix @ h`` itself ends in, with scipy's own
    dispatch: ``csr_matvec`` for a vector or a one-column ``h``,
    ``csr_matvecs`` for several columns, and their CSC twins on the same
    three arrays for the transpose (``matrix.T`` is a CSC view of them).
    The kernel adds each row's products in stored order into a zeroed
    result, as scipy's does, so every sum comes out bit for bit the same;
    what is skipped is the Python dispatch around it.
    """
    if getattr(matrix, "format", None) != "csr":
        return None
    kernels = _sparse_kernels()
    if (
        kernels is None
        or matrix.ndim != 2
        or type(h) is not np.ndarray
        or h.dtype != matrix.data.dtype
        or h.dtype.char not in "fd"
        or not 1 <= h.ndim <= 2
    ):
        return None
    rows, cols = matrix.shape
    if transpose:
        rows, cols = cols, rows
    if h.shape[0] != cols:
        return None
    out = np.zeros((rows,) + h.shape[1:], dtype=h.dtype)
    kind = "csc" if transpose else "csr"
    arrays = (matrix.indptr, matrix.indices, matrix.data)
    if h.ndim == 1 or h.shape[1] == 1:
        getattr(kernels, kind + "_matvec")(
            rows, cols, *arrays, h.ravel(), out.reshape(rows)
        )
    else:
        getattr(kernels, kind + "_matvecs")(
            rows, cols, h.shape[1], *arrays, h.ravel(), out.reshape(-1)
        )
    return out


def _sparse_kernels():
    """scipy's compiled sparse kernels, imported on first use (scipy is
    loaded already whenever a sparse matrix exists); None when this scipy
    does not have them where expected, and scipy's product runs."""
    global _SPARSETOOLS
    if _SPARSETOOLS is _UNRESOLVED:
        try:
            from scipy.sparse import _sparsetools
        except ImportError:  # pragma: no cover - depends on the scipy build
            _sparsetools = None
        _SPARSETOOLS = _sparsetools
    return _SPARSETOOLS


_UNRESOLVED = object()
_SPARSETOOLS = _UNRESOLVED


def _adj_matmul_fwd(ins: Arrays, attrs: Attrs, out) -> np.ndarray:
    matrix, h = ins
    result = _csr_product(matrix, h)
    if result is not None:
        return _finish(result, out)
    return _finish(np.asarray(matrix @ h), out)


def _adj_matmul_vjp(g, ins, out, res, attrs, needed):
    matrix, _h = ins
    if not needed[1]:
        return None, None
    if is_sparse_matrix(matrix):
        # scipy sparse: matrixᵀ is a free CSC view whose product sums each
        # output row in the same order as the CSR transpose would
        result = _csr_product(matrix, g, transpose=True)
        if result is None:
            result = np.asarray(matrix.T @ g)
        return None, result
    return None, np.asarray(matrix).T @ g


_register(Primitive("adj_matmul", _adj_matmul_fwd, _adj_matmul_vjp))


# -- reductions --------------------------------------------------------------


def _reduce_shape(ins: Arrays, attrs: Attrs):
    a = ins[0]
    axis, keepdims = attrs.get("axis"), attrs.get("keepdims", False)
    if axis is None:
        return (1,) * a.ndim if keepdims else ()
    shape = list(a.shape)
    if keepdims:
        shape[axis] = 1
    else:
        del shape[axis]
    return tuple(shape)


def _sum_vjp(g, ins, out, res, attrs, needed):
    if not needed[0]:
        return (None,)
    a = ins[0]
    axis, keepdims = attrs.get("axis"), attrs.get("keepdims", False)
    g = np.asarray(g)
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return (np.broadcast_to(g, a.shape).copy(),)


_register(Primitive(
    "sum",
    lambda ins, attrs, out: _finish(
        ins[0].sum(axis=attrs.get("axis"), keepdims=attrs.get("keepdims", False)),
        out,
    ),
    _sum_vjp,
    out_shape=_reduce_shape,
))


def _max_vjp(g, ins, out, res, attrs, needed):
    if not needed[0]:
        return (None,)
    a = ins[0]
    axis, keepdims = attrs["axis"], attrs.get("keepdims", False)
    expanded = a.max(axis=axis, keepdims=True)
    mask = a == expanded
    counts = mask.sum(axis=axis, keepdims=True)
    g = np.asarray(g)
    if not keepdims:
        g = np.expand_dims(g, axis)
    return (mask * g / counts,)


_register(Primitive(
    "max",
    lambda ins, attrs, out: _finish(
        ins[0].max(axis=attrs["axis"], keepdims=attrs.get("keepdims", False)),
        out,
    ),
    _max_vjp,
    out_shape=_reduce_shape,
))


# -- shape / gather (view-producing ops are not ``fresh``) -------------------


_register(Primitive(
    "reshape",
    lambda ins, attrs, out: ins[0].reshape(attrs["shape"]),
    lambda g, ins, out, res, attrs, needed: (
        g.reshape(ins[0].shape) if needed[0] else None,
    ),
    fresh=False,
))

_register(Primitive(
    "transpose",
    lambda ins, attrs, out: ins[0].T,
    lambda g, ins, out, res, attrs, needed: (g.T if needed[0] else None,),
    fresh=False,
))


def _index_vjp_into(acc, g, ins, attrs):
    """Add ``g`` into ``acc[key]``: in place for slices and ints (they never
    alias), unbuffered ``np.add.at`` for integer-array keys, which may
    repeat an index."""
    key = attrs["key"]
    if acc is None:
        acc = np.zeros_like(ins[0])
    if _is_basic_index(key):
        acc[key] += g
    else:
        np.add.at(acc, key, g)
    return acc


def _index_vjp(g, ins, out, res, attrs, needed):
    return (_index_vjp_into(None, g, ins, attrs) if needed[0] else None,)


_register(Primitive(
    "index",
    lambda ins, attrs, out: ins[0][attrs["key"]],
    _index_vjp,
    fresh=False,
    vjp_into=_index_vjp_into,
))


def _gather_vjp_into(acc, g, ins, attrs):
    """Scatter-add ``g`` back onto the gathered rows.

    Into a fresh gradient, one ``bincount`` over the flat
    ``row * C + column`` keys equals ``np.add.at`` into zeros bit for bit:
    both start every cell at 0.0 and add its entries one at a time in
    index order, duplicates included.  (Only where two NaNs meet in one
    cell may the sum carry the other NaN's sign or payload.)  Indices are
    row numbers (never negative), as the tracer records them.  Into an
    existing gradient the entries are added in place, in the same order.
    """
    indices = attrs["indices"]
    if acc is not None:
        np.add.at(acc, indices, g)
        return acc
    x = ins[0]
    rows = x.shape[0]
    cols = x.size // rows if rows else 0
    keys = indices.ravel()
    if cols != 1:
        keys = (keys[:, None] * cols + np.arange(cols)).ravel()
    grad_in = np.bincount(keys, weights=g.ravel(), minlength=rows * cols)
    return grad_in.reshape(x.shape)


def _gather_vjp(g, ins, out, res, attrs, needed):
    return (_gather_vjp_into(None, g, ins, attrs) if needed[0] else None,)


_register(Primitive(
    "gather",
    lambda ins, attrs, out: (
        np.take(ins[0], attrs["indices"], axis=0, out=out)
        if out is not None else ins[0][attrs["indices"]]
    ),
    _gather_vjp,
    out_shape=lambda ins, attrs: attrs["indices"].shape + ins[0].shape[1:],
    vjp_into=_gather_vjp_into,
))


def _concat_fwd(ins: Arrays, attrs: Attrs, out) -> np.ndarray:
    axis = attrs.get("axis", 0)
    if out is not None:
        return np.concatenate(ins, axis=axis, out=out)
    return np.concatenate(ins, axis=axis)


def _concat_vjp(g, ins, out, res, attrs, needed):
    axis = attrs.get("axis", 0)
    offsets = np.cumsum([0] + [a.shape[axis] for a in ins])
    grads = []
    for pos, a in enumerate(ins):
        if not needed[pos]:
            grads.append(None)
            continue
        index = [slice(None)] * g.ndim
        index[axis] = slice(offsets[pos], offsets[pos + 1])
        grads.append(g[tuple(index)])
    return tuple(grads)


def _concat_shape(ins: Arrays, attrs: Attrs):
    axis = attrs.get("axis", 0)
    shape = list(ins[0].shape)
    shape[axis] = sum(a.shape[axis] for a in ins)
    return tuple(shape)


_register(Primitive("concat", _concat_fwd, _concat_vjp, out_shape=_concat_shape))


# -- data-dependent ops (carry residuals for backward) -----------------------


@functools.lru_cache(maxsize=64)
def _sort_pool_layout(sizes_key: bytes, k: int):
    """What a sort pool over segments of these sizes keeps, whatever the
    values: ``(seg_ids, taken, kept, padded, total)``.

    ``seg_ids`` is each row's segment (the primary sort key); the rows at
    positions ``taken`` of the sorted order — the first ``min(size, k)``
    of each segment — land in the output slots ``kept``; the slots in
    ``padded`` get the sentinel row ``total``.  Keyed by the int64 bytes
    of ``sizes``, so the two views of one pack share one layout; the
    arrays are read-only.
    """
    sizes = np.frombuffer(sizes_key, dtype=np.int64)
    num = sizes.shape[0]
    offsets = np.zeros(num + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    take = np.minimum(sizes, k)
    starts = np.cumsum(take) - take
    rank = np.arange(int(take.sum())) - np.repeat(starts, take)
    taken = np.repeat(offsets[:-1], take) + rank
    kept = np.repeat(np.arange(num) * k, take) + rank
    padded = np.ones(num * k, dtype=bool)
    padded[kept] = False
    layout = (
        np.repeat(np.arange(num), sizes), taken, kept,
        np.flatnonzero(padded), int(offsets[-1]),
    )
    for array in layout[:4]:
        array.setflags(write=False)
    return layout


def _sort_pool(x: np.ndarray, sizes, k: int, out=None):
    """``(pooled, indices)`` of a per-segment sort pool.

    ``indices`` is, per segment, the stable descending argsort of the last
    channel (``np.argsort(-x[seg, -1], kind="stable")`` order: lexsort is
    stable too, so ties keep their row order) truncated to ``k`` and
    padded with the sentinel row ``total``; ``pooled`` gathers those rows
    with zeros at the sentinel.  The layout comes from
    :func:`_sort_pool_layout`, so a call is one lexsort and one scatter.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    seg_ids, taken, kept, padded, total = _sort_pool_layout(
        sizes.tobytes(), int(k)
    )
    order = np.lexsort((-x[:, -1], seg_ids))
    if padded.size:
        indices = np.full(sizes.shape[0] * int(k), total, dtype=np.int64)
        indices[kept] = order[taken]
    else:
        indices = order[taken]
    # "clip" maps the sentinel onto a real row, zeroed below; it also
    # spares np.take the buffered copy of "raise" when writing into out
    pooled = np.take(x, indices, axis=0, out=out, mode="clip")
    if padded.size:
        pooled[padded] = 0.0
    return pooled, indices


def _segment_sort_pool_fwd_res(ins: Arrays, attrs: Attrs):
    x, sizes = ins
    return _sort_pool(x, sizes, attrs["k"])


def _segment_sort_pool_fwd(ins: Arrays, attrs: Attrs, out) -> np.ndarray:
    x, sizes = ins
    return _sort_pool(x, sizes, attrs["k"], out)[0]


def _segment_sort_pool_vjp(g, ins, out, res, attrs, needed):
    if not needed[0]:
        return None, None
    x = ins[0]
    indices = res
    grad_in = np.zeros_like(x)
    live = indices < x.shape[0]
    # live rows are distinct (each row is picked at most once), so a plain
    # assignment equals np.add.at into zeros; ``+ 0.0`` maps -0.0 to +0.0
    # exactly as that add does
    picked = g[live]
    picked += 0.0
    grad_in[indices[live]] = picked
    return grad_in, None


_register(Primitive(
    "segment_sort_pool",
    _segment_sort_pool_fwd,
    _segment_sort_pool_vjp,
    out_shape=lambda ins, attrs: (
        len(ins[1]) * int(attrs["k"]),
    ) + ins[0].shape[1:],
    fwd_res=_segment_sort_pool_fwd_res,
))


def _dropout_fwd_res(ins: Arrays, attrs: Attrs):
    x = ins[0]
    mask = dropout_mask(x.shape, attrs["rate"], attrs["rng"])
    return x * mask, mask


def _dropout_fwd(ins: Arrays, attrs: Attrs, out) -> np.ndarray:
    x = ins[0]
    mask = dropout_mask(x.shape, attrs["rate"], attrs["rng"])
    return np.multiply(x, mask, out=out)


_register(Primitive(
    "dropout",
    _dropout_fwd,
    lambda g, ins, out, res, attrs, needed: (
        (g * res) if needed[0] else None, ),
    out_shape=_same_shape,
    fwd_res=_dropout_fwd_res,
))


# -- quantized inference primitives (precision="fast") -----------------------
#
# Int8 counterparts of the hot ops, emitted by
# :func:`repro.runtime.qtape.quantize_tape` when an Engine replays a tape at
# precision="fast".  They use *simulated* quantization: operands are snapped
# onto the symmetric int8 grid (round-tripped through quantize/dequantize)
# but kept in the tape's float32 dtype, so the heavy contraction stays a
# BLAS GEMM — numerically identical to dequantized-int8 arithmetic (every
# grid point is exactly representable in float32), at float speed.  The
# ``act_scale`` attr carries the calibrated activation scale; ``None`` falls
# back to a dynamic per-call abs-max scale.  Inference-only: their VJPs
# raise, and the tracer never emits them — only tape rewriting does.


def _quantized_vjp(g, ins, out, res, attrs, needed):
    raise ModelError(
        "quantized primitives are inference-only and have no VJP; "
        "train and backprop through the exact (float) tape"
    )


def _grid_snap(x: np.ndarray, scale) -> np.ndarray:
    """Fresh copy of ``x`` snapped to the int8 grid, in ``x``'s dtype.

    With a calibrated ``scale`` the grid saturates at +/-127 (that is what
    a recorded scale *means*: activations past the calibration-time peak
    clip).  A dynamic scale (``scale=None``) is this call's abs-max / 127,
    so no value can land past the grid edge and the clip pass is skipped.
    """
    if scale is None:
        from repro.nn.quantize import symmetric_scale

        s = x.dtype.type(symmetric_scale(x))
        snapped = x / s
        np.rint(snapped, out=snapped)
        snapped *= s
        return snapped
    s = x.dtype.type(scale)
    snapped = x / s
    np.rint(snapped, out=snapped)
    np.clip(snapped, -127, 127, out=snapped)
    snapped *= s
    return snapped


def _qmatmul_fwd(ins: Arrays, attrs: Attrs, out) -> np.ndarray:
    a, w = ins  # w arrives pre-quantized (round-tripped) from the tape
    scale = attrs.get("act_scale")
    if scale is not None and attrs.get("folded"):
        # calibrated + scale folded into the baked weight (w = w_q * s):
        # the activation stays in int8 *units*, saving the rescale pass —
        # this is exactly the (a_q @ w_q) * s_a * s_w int8-GEMM algebra
        s = a.dtype.type(scale)
        aq = a / s
        np.rint(aq, out=aq)
        np.clip(aq, -127, 127, out=aq)
    else:
        aq = _grid_snap(a, scale)
    if out is not None and aq.ndim == 2 and w.ndim == 2:
        return np.matmul(aq, w, out=out)
    return _finish(aq @ w, out) if out is not None else aq @ w


_register(Primitive(
    "qmatmul", _qmatmul_fwd, _quantized_vjp, out_shape=_matmul_shape,
))


def _qadj_matmul_fwd(ins: Arrays, attrs: Attrs, out) -> np.ndarray:
    matrix, h = ins
    hq = _grid_snap(h, attrs.get("act_scale"))
    result = _csr_product(matrix, hq)
    if result is None:
        result = np.asarray(matrix @ hq)
    return _finish(result, out)


_register(Primitive("qadj_matmul", _qadj_matmul_fwd, _quantized_vjp))


def _qsegment_sort_pool_fwd(ins: Arrays, attrs: Attrs, out) -> np.ndarray:
    x, sizes = ins
    pooled = _sort_pool(x, sizes, attrs["k"], out)[0]
    # snap the pooled activations in place (the buffer is op-owned)
    scale = attrs.get("act_scale")
    if scale is None:
        from repro.nn.quantize import symmetric_scale

        s = pooled.dtype.type(symmetric_scale(pooled))
        pooled /= s
        np.rint(pooled, out=pooled)
        pooled *= s
        return pooled
    s = pooled.dtype.type(scale)
    pooled /= s
    np.rint(pooled, out=pooled)
    np.clip(pooled, -127, 127, out=pooled)
    pooled *= s
    return pooled


_register(Primitive(
    "qsegment_sort_pool",
    _qsegment_sort_pool_fwd,
    _quantized_vjp,
    out_shape=lambda ins, attrs: (
        len(ins[1]) * int(attrs["k"]),
    ) + ins[0].shape[1:],
))


def get_primitive(name: str) -> Primitive:
    prim = PRIMITIVES.get(name)
    if prim is None:
        raise ModelError(f"unknown primitive {name!r}")
    return prim
