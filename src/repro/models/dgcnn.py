"""Deep Graph Convolutional Neural Network (Zhang et al. 2018, paper Fig. 6).

Architecture: a stack of graph convolutions with tanh activations whose
outputs are concatenated channel-wise; SortPooling to a fixed ``k`` rows;
two 1-D convolutions (the first with kernel = total channels and equal
stride so each output position corresponds to one sorted node); max pooling;
and a dense layer.  ``embed_batch()`` returns the input of the final dense
classifier — the vector the multi-view model consumes ("We take the input of
the fully connected layer into the multi-view model", Section III-D).

There is one forward: the packed one.  It runs over the node rows of many
graphs stacked in one block-diagonal batch (:mod:`repro.nn.batching`); a
single graph is a pack of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.errors import ModelError
from repro.nn.batching import pad_segments
from repro.nn.layers import (
    Conv1D,
    Dense,
    Dropout,
    GraphConv,
    MaxPool1D,
    Module,
    SortPooling,
)
from repro.nn.tensor import Tensor, concat
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs


@dataclass
class DGCNNConfig:
    """Hyper-parameters (defaults follow Zhang et al. / the paper)."""

    in_features: int = 200
    conv_channels: Tuple[int, ...] = (32, 32, 32, 1)
    sortpool_k: int = 135            # paper Section IV-B
    conv1d_channels: Tuple[int, int] = (16, 32)
    conv1d_kernel: int = 5
    dense_units: int = 128
    dropout: float = 0.5
    num_classes: int = 2

    @property
    def total_channels(self) -> int:
        return sum(self.conv_channels)


class DGCNN(Module):
    """End-to-end DGCNN graph classifier."""

    def __init__(self, config: DGCNNConfig, rng: RngLike = None) -> None:
        super().__init__()
        rng = ensure_rng(rng)
        rngs = spawn_rngs(rng, len(config.conv_channels) + 4)
        self.config = config

        self.graph_convs: List[GraphConv] = []
        in_dim = config.in_features
        for pos, channels in enumerate(config.conv_channels):
            self.graph_convs.append(
                GraphConv(in_dim, channels, activation="tanh", rng=rngs[pos])
            )
            in_dim = channels

        self.sortpool = SortPooling(config.sortpool_k)
        total = config.total_channels
        base = len(config.conv_channels)
        self.conv1 = Conv1D(
            1,
            config.conv1d_channels[0],
            kernel_size=total,
            stride=total,
            activation="relu",
            rng=rngs[base],
        )
        self.pool = MaxPool1D(2)
        self.conv2 = Conv1D(
            config.conv1d_channels[0],
            config.conv1d_channels[1],
            kernel_size=config.conv1d_kernel,
            stride=1,
            activation="relu",
            rng=rngs[base + 1],
        )
        conv2_len = max(1, config.sortpool_k // 2 - config.conv1d_kernel + 1)
        self.flat_dim = conv2_len * config.conv1d_channels[1]
        self.dense = Dense(
            self.flat_dim, config.dense_units, activation="relu", rng=rngs[base + 2]
        )
        self.dropout = Dropout(config.dropout, rng=rngs[base + 3])
        self.classifier = Dense(
            config.dense_units, config.num_classes, rng=rngs[base + 3]
        )

    # -- forward pieces -----------------------------------------------------

    def node_representations_batch(self, x, adj_norm) -> Tensor:
        """Packed-batch graph convolutions, shape ``(N_nodes, total_channels)``.

        ``x`` stacks the node features of many graphs contiguously —
        ``(N_nodes, in_features)`` with ``N_nodes = sum(sizes)`` — and
        ``adj_norm`` is their *pre-normalized* block-diagonal adjacency
        (:func:`repro.nn.batching.block_diagonal_adjacency`, or
        :func:`repro.nn.layers.normalized_adjacency` for a single graph).
        This does not normalize: the caller has already applied ``D̃⁻¹Ã``
        per block.
        """
        if x.shape[1] != self.config.in_features:
            raise ModelError(
                f"DGCNN expected {self.config.in_features} input features, "
                f"got {x.shape[1]}"
            )
        h = x if isinstance(x, Tensor) else Tensor(x)
        outputs: List[Tensor] = []
        for conv in self.graph_convs:
            h = conv(h, adj_norm)
            outputs.append(h)
        return concat(outputs, axis=1)

    def embed_batch(self, x, adj_norm, sizes: Sequence[int]) -> Tensor:
        """The dense-layer output consumed by the multi-view model, one
        packed pass over ``len(sizes)`` graphs.

        Shape contract: ``x`` is ``(sum(sizes), in_features)`` stacked node
        features (graph ``g`` at rows ``[offsets[g], offsets[g]+sizes[g])``),
        ``adj_norm`` the matching normalized block-diagonal adjacency; the
        result is ``(len(sizes), dense_units)``, row ``g`` equal (to fp
        tolerance) to graph ``g`` packed alone.
        """
        num_graphs = len(sizes)
        if num_graphs == 0:
            raise ModelError("embed_batch needs at least one graph")
        reps = self.node_representations_batch(x, adj_norm)
        k = self.config.sortpool_k
        channels = self.config.total_channels
        pooled = self.sortpool.segment_call(reps, sizes)     # (B*k, C)
        flat = pooled.reshape(num_graphs * k * channels, 1)
        c1 = self.conv1.segment_call(flat, num_graphs, k * channels)
        length = k // self.pool.pool_size
        if length == 0:
            p1, length = c1, k                # MaxPool1D: identity below one window
        else:
            p1 = self.pool.segment_call(c1, num_graphs, k)
        if length < self.config.conv1d_kernel:
            p1 = pad_segments(
                p1, num_graphs, length, self.config.conv1d_kernel
            )
            length = self.config.conv1d_kernel
        c2 = self.conv2.segment_call(p1, num_graphs, length)
        per_graph = c2.shape[0] // num_graphs * c2.shape[1]
        flat2 = c2.reshape(num_graphs, per_graph)
        if per_graph != self.flat_dim:
            raise ModelError(
                f"DGCNN flatten mismatch: got {per_graph}, "
                f"expected {self.flat_dim} (check sortpool_k)"
            )
        hidden = self.dense(flat2)            # (B, dense_units)
        return self.dropout(hidden)

    def forward_batch(self, x, adj_norm, sizes: Sequence[int]) -> Tensor:
        """Class logits for a packed batch, shape ``(len(sizes), num_classes)``."""
        return self.classifier(self.embed_batch(x, adj_norm, sizes))
