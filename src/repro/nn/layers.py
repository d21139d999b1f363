"""Neural layers: Module base, Dense, GraphConv, Conv1D, SortPooling, Dropout.

GraphConv implements the DGCNN propagation rule (Zhang et al. 2018),
``H' = act(D̃⁻¹ Ã H W)`` with Ã = A + I; :func:`normalized_adjacency`
precomputes D̃⁻¹Ã for a graph once, since the adjacency is constant per
example.  SortPooling sorts nodes by their last feature channel and keeps
the top ``k`` rows (zero-padded), exactly as in the DGCNN paper / Fig. 6.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError
from repro.nn.init import glorot_uniform, zeros_init
from repro.nn.primitives import PRIMITIVES
from repro.nn.tensor import Tensor, apply, as_tensor, sparse_matmul
from repro.utils.rng import RngLike, ensure_rng


class Parameter(Tensor):
    """A trainable tensor."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class with parameter discovery and train/eval mode."""

    def __init__(self) -> None:
        self.training = True

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        seen = set()
        for value in self.__dict__.values():
            for param in _collect(value):
                if id(param) not in seen:
                    seen.add(id(param))
                    params.append(param)
        return params

    def named_parameters(self) -> Dict[str, Parameter]:
        out: Dict[str, Parameter] = {}
        for name, value in self.__dict__.items():
            for sub_name, param in _collect_named(value):
                key = f"{name}{sub_name}"
                if key in out:
                    raise ModelError(f"duplicate parameter name {key!r}")
                out[key] = param
        return out

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def train(self) -> "Module":
        self._set_mode(True)
        return self

    def eval(self) -> "Module":
        self._set_mode(False)
        return self

    def _set_mode(self, training: bool) -> None:
        self.training = training
        for value in self.__dict__.values():
            for module in _collect_modules(value):
                module._set_mode(training)

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())


def _collect(value) -> Iterator[Parameter]:
    if isinstance(value, Parameter):
        yield value
    elif isinstance(value, Module):
        yield from value.parameters()
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _collect(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _collect(item)


def _collect_named(value) -> Iterator[Tuple[str, Parameter]]:
    if isinstance(value, Parameter):
        yield "", value
    elif isinstance(value, Module):
        for name, param in value.named_parameters().items():
            yield f".{name}", param
    elif isinstance(value, (list, tuple)):
        for pos, item in enumerate(value):
            for name, param in _collect_named(item):
                yield f".{pos}{name}", param
    elif isinstance(value, dict):
        for key, item in value.items():
            for name, param in _collect_named(item):
                yield f".{key}{name}", param


def _collect_modules(value) -> Iterator[Module]:
    if isinstance(value, Module):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _collect_modules(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _collect_modules(item)


class Dense(Module):
    """Fully connected layer ``y = act(x W + b)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: Optional[str] = None,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        rng = ensure_rng(rng)
        self.weight = Parameter(glorot_uniform((in_features, out_features), rng))
        self.bias = Parameter(zeros_init((out_features,)))
        self.activation = activation
        self.in_features = in_features
        self.out_features = out_features

    def __call__(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        if x.shape[-1] != self.in_features:
            raise ModelError(
                f"Dense expected last dim {self.in_features}, got {x.shape}"
            )
        out = x @ self.weight + self.bias
        return _activate(out, self.activation)


class GraphConv(Module):
    """DGCNN graph convolution: ``H' = act(Â H W)`` with Â precomputed."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: str = "tanh",
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        self.weight = Parameter(glorot_uniform((in_features, out_features), rng))
        self.activation = activation
        self.in_features = in_features
        self.out_features = out_features

    def __call__(self, h: Tensor, adj_norm) -> Tensor:
        """Propagate ``(n, in_features)`` node rows through ``adj_norm``.

        ``adj_norm`` is a dense ``(n, n)`` ndarray for one graph, or a scipy
        sparse block-diagonal matrix for a packed batch of graphs (see
        :mod:`repro.nn.batching`) — the propagation never mixes rows across
        blocks, so both paths compute the same per-graph result.
        """
        h = as_tensor(h)
        if h.shape[0] != adj_norm.shape[0]:
            raise ModelError(
                f"GraphConv: {h.shape[0]} node rows vs {adj_norm.shape[0]} adj rows"
            )
        # the adjacency is structure, not a Tensor: a tape records it as an
        # execution-time input slot
        out = sparse_matmul(adj_norm, h) @ self.weight
        return _activate(out, self.activation)


def normalized_adjacency(
    adjacency: np.ndarray, add_self_loops: bool = True
) -> np.ndarray:
    """Row-normalized adjacency ``D̃⁻¹ Ã`` used by the DGCNN propagation."""
    adjacency = np.asarray(adjacency, dtype=np.float64)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise ModelError(f"adjacency must be square, got {adjacency.shape}")
    a_tilde = adjacency + np.eye(adjacency.shape[0]) if add_self_loops else adjacency
    degrees = a_tilde.sum(axis=1)
    degrees[degrees == 0.0] = 1.0
    return a_tilde / degrees[:, None]


class SortPooling(Module):
    """DGCNN SortPooling: sort nodes by the last feature channel, keep k."""

    def __init__(self, k: int) -> None:
        super().__init__()
        if k <= 0:
            raise ModelError("SortPooling k must be positive")
        self.k = k

    def segment_call(self, h: Tensor, sizes: Sequence[int]) -> Tensor:
        """Per-segment SortPooling over a packed node matrix.

        ``h`` is ``(sum(sizes), channels)`` — the node rows of ``len(sizes)``
        graphs stacked contiguously; segment ``g`` occupies rows
        ``[offset_g, offset_g + sizes[g])``.  Each segment is sorted and
        truncated/zero-padded independently (a stable descending sort on the
        last channel, the top ``k`` rows, zero rows below), and the results
        are restacked: the output is ``(len(sizes) * k, channels)`` with
        graph ``g`` at rows ``[g*k, (g+1)*k)``.  One graph is
        ``sizes=[n]``.
        """
        h = as_tensor(h)
        total = int(sum(sizes))
        if h.shape[0] != total:
            raise ModelError(
                f"SortPooling.segment_call: {h.shape[0]} rows vs "
                f"sum(sizes)={total}"
            )
        # the sort order is data-dependent: the primitive derives it from
        # the values each time it runs, so a tape never bakes one batch's
        # order in
        return apply(_SEGMENT_SORT_POOL, (h, sizes), {"k": int(self.k)})


class Conv1D(Module):
    """1-D convolution over packed (length, channels) segments, stride support.

    Implemented with an unfold + matmul so the whole op stays on BLAS; the
    DGCNN uses kernel = total channel count with equal stride (one output
    per node row) followed by a smaller kernel conv.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        activation: Optional[str] = "relu",
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        rng = ensure_rng(rng)
        self.weight = Parameter(
            glorot_uniform((kernel_size * in_channels, out_channels), rng)
        )
        self.bias = Parameter(zeros_init((out_channels,)))
        self.kernel_size = kernel_size
        self.stride = stride
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.activation = activation

    def segment_call(self, x: Tensor, num_segments: int, length: int) -> Tensor:
        """Apply the convolution independently per contiguous segment.

        ``x`` is ``(num_segments * length, in_channels)`` — ``num_segments``
        sequences of identical ``length`` stacked along axis 0.  Patches never
        straddle a segment boundary; the output is
        ``(num_segments * n_out, out_channels)`` with
        ``n_out = (length - kernel) // stride + 1``, segment ``g`` at rows
        ``[g*n_out, (g+1)*n_out)`` — row-for-row identical to running each
        segment alone.
        """
        x = as_tensor(x)
        if x.shape != (num_segments * length, self.in_channels):
            raise ModelError(
                f"Conv1D.segment_call expected shape "
                f"({num_segments * length}, {self.in_channels}), got {x.shape}"
            )
        n_out = (length - self.kernel_size) // self.stride + 1
        if n_out <= 0:
            raise ModelError(
                f"Conv1D segment length {length} too short for kernel "
                f"{self.kernel_size} / stride {self.stride}"
            )
        starts = np.arange(n_out) * self.stride
        base = np.arange(num_segments) * length
        patch_rows = (
            base[:, None, None]
            + starts[None, :, None]
            + np.arange(self.kernel_size)[None, None, :]
        )
        patches = x.take_rows(patch_rows.reshape(-1)).reshape(
            num_segments * n_out, self.kernel_size * self.in_channels
        )
        out = patches @ self.weight + self.bias
        return _activate(out, self.activation)


class MaxPool1D(Module):
    """Max pooling over the length axis of packed (length, channels) segments."""

    def __init__(self, pool_size: int = 2) -> None:
        super().__init__()
        if pool_size <= 0:
            raise ModelError("pool_size must be positive")
        self.pool_size = pool_size

    def segment_call(self, x: Tensor, num_segments: int, length: int) -> Tensor:
        """Pool each contiguous length-``length`` segment independently.

        ``x`` is ``(num_segments * length, channels)``; the output is
        ``(num_segments * n_out, channels)`` with ``n_out = length // pool``
        (identity when ``length < pool``: the graph is too small for one
        window), segment ``g`` at rows ``[g*n_out, (g+1)*n_out)``; a tail
        shorter than one window is dropped.
        """
        x = as_tensor(x)
        channels = x.shape[1]
        if x.shape[0] != num_segments * length:
            raise ModelError(
                f"MaxPool1D.segment_call expected {num_segments * length} "
                f"rows, got {x.shape[0]}"
            )
        n_out = length // self.pool_size
        if n_out == 0:
            return x
        kept = n_out * self.pool_size
        if kept != length:
            segmented = x.reshape(num_segments, length, channels)
            x = segmented[:, :kept, :].reshape(num_segments * kept, channels)
        windows = x.reshape(num_segments * n_out, self.pool_size, channels)
        return windows.max(axis=1)


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, rate: float, rng: RngLike = None) -> None:
        super().__init__()
        self.rate = rate
        self._rng = ensure_rng(rng)

    def __call__(self, x: Tensor) -> Tensor:
        if not self.training or self.rate <= 0.0:
            return x
        # the mask is drawn from this layer's rng when the op runs, so a
        # tape replays the same draw order as the eager forward
        return apply(
            _DROPOUT, (as_tensor(x),), {"rate": float(self.rate), "rng": self._rng}
        )


_SEGMENT_SORT_POOL = PRIMITIVES["segment_sort_pool"]
_DROPOUT = PRIMITIVES["dropout"]


def _activate(x: Tensor, activation: Optional[str]) -> Tensor:
    if activation is None or activation == "linear":
        return x
    if activation == "tanh":
        return x.tanh()
    if activation == "relu":
        return x.relu()
    if activation == "sigmoid":
        return x.sigmoid()
    raise ModelError(f"unknown activation {activation!r}")
