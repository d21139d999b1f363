"""MV-GNN: the paper's multi-view model (Fig. 3, Eq. 5).

Two independent DGCNNs examine each loop sub-PEG from two views:

* **node-feature view** — semantic node features (inst2vec means + dynamic
  features, 200-d);
* **structural-pattern view** — anonymous-walk distributions projected
  through a learned walk-type embedding (the 400-unit layer of Section
  III-C) and a 200-d reduction so "both DGCNNs are set with 200 node feature
  dimensions" (Section IV-B).

Their penultimate representations are fused by Eq. 5,
``h = W · tanh([h_n ⊕ h_s]) + b``, and a temperature-0.5 softmax produces
the prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError
from repro.models.dgcnn import DGCNN, DGCNNConfig
from repro.nn.layers import Dense, Module
from repro.nn.tensor import Tensor, as_tensor, concat
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs


@dataclass
class MVGNNConfig:
    """MV-GNN hyper-parameters."""

    semantic_features: int = 200      # node-view input dimension
    walk_types: int = 15              # structural-view input dimension
    walk_embedding_units: int = 400   # Section III-C projection layer
    view_features: int = 200          # per-view DGCNN node feature dims
    node_view: DGCNNConfig = field(default_factory=DGCNNConfig)
    struct_view: DGCNNConfig = field(default_factory=DGCNNConfig)
    fusion_hidden: int = 0            # 0 = Eq. 5 literal (W maps to logits)
    num_classes: int = 2
    temperature: float = 0.5

    def __post_init__(self) -> None:
        self.node_view.in_features = self.semantic_features
        self.struct_view.in_features = self.view_features


class MVGNN(Module):
    """The multi-view parallelism classifier."""

    def __init__(self, config: MVGNNConfig, rng: RngLike = None) -> None:
        super().__init__()
        rng = ensure_rng(rng)
        rngs = spawn_rngs(rng, 6)
        self.config = config

        # structural projection: walk distribution -> 400 -> view dims
        self.walk_embed = Dense(
            config.walk_types,
            config.walk_embedding_units,
            activation="tanh",
            rng=rngs[0],
        )
        self.walk_reduce = Dense(
            config.walk_embedding_units, config.view_features, rng=rngs[1]
        )

        self.node_dgcnn = DGCNN(config.node_view, rng=rngs[2])
        self.struct_dgcnn = DGCNN(config.struct_view, rng=rngs[3])

        fusion_in = (
            config.node_view.dense_units + config.struct_view.dense_units
        )
        if config.fusion_hidden > 0:
            self.fusion = Dense(
                fusion_in, config.fusion_hidden, activation=None, rng=rngs[4]
            )
            self.head: Optional[Dense] = Dense(
                config.fusion_hidden, config.num_classes, rng=rngs[5]
            )
        else:
            # Eq. 5 literal: W maps the fused tanh vector straight to logits
            self.fusion = Dense(fusion_in, config.num_classes, rng=rngs[4])
            self.head = None

    # -- views ----------------------------------------------------------------

    def structural_input(self, x_structural: np.ndarray) -> Tensor:
        """Walk-type embedding lookup + reduction (Section III-C)."""
        if x_structural.shape[1] != self.config.walk_types:
            raise ModelError(
                f"expected {self.config.walk_types} walk types, "
                f"got {x_structural.shape[1]}"
            )
        return self.walk_reduce(self.walk_embed(as_tensor(x_structural)))

    def view_embeddings_batch(
        self,
        x_semantic,
        x_structural,
        adj_norm,
        sizes: Sequence[int],
    ) -> Tuple[Tensor, Tensor]:
        """Per-view embeddings for a packed batch: two ``(B, dense_units)``.

        Inputs follow the packed layout of :mod:`repro.nn.batching`:
        ``x_semantic`` ``(sum(sizes), semantic_features)`` and
        ``x_structural`` ``(sum(sizes), walk_types)`` stack the node rows of
        ``B = len(sizes)`` graphs; ``adj_norm`` is their normalized
        block-diagonal adjacency.
        """
        h_n = self.node_dgcnn.embed_batch(x_semantic, adj_norm, sizes)
        struct_nodes = self.structural_input(x_structural)
        h_s = self.struct_dgcnn.embed_batch(struct_nodes, adj_norm, sizes)
        return h_n, h_s

    # -- fusion ---------------------------------------------------------------------

    def forward_batch(
        self,
        x_semantic,
        x_structural,
        adj_norm,
        sizes: Sequence[int],
    ) -> Tensor:
        """Class logits for a packed batch, shape ``(len(sizes), num_classes)``.

        Shape contract: ``x_semantic`` is ``(N, semantic_features)`` node
        features, ``x_structural`` ``(N, walk_types)`` anonymous-walk
        distributions, ``N = sum(sizes)``; ``adj_norm`` is the normalized
        block-diagonal adjacency.  Row ``g`` equals (to fp tolerance) graph
        ``g`` packed alone; the Eq. 5 fusion runs once on the
        ``(B, 2 * dense_units)`` stacked view embeddings.
        """
        h_n, h_s = self.view_embeddings_batch(
            x_semantic, x_structural, adj_norm, sizes
        )
        fused = self.fusion(concat([h_n, h_s], axis=1).tanh())
        if self.head is not None:
            fused = self.head(fused.relu())
        return fused
