"""Single-view models: the view-importance ablation (Fig. 8).

For Fig. 8 the paper evaluates each view alone "by putting the output of
each view into an LSTM layer, followed by a fully connected layer": we feed
the view's SortPooled node sequence through an LSTM and classify from the
final hidden state.

The Static-GNN baseline (Shen et al. 2021, "GNNs with Static Information")
needs no model of its own: it is the node view's DGCNN over static-only
features, :class:`repro.train.adapters.StaticGNNAdapter`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ModelError
from repro.models.dgcnn import DGCNN, DGCNNConfig
from repro.nn.layers import Dense, Module
from repro.nn.rnn import LSTM
from repro.nn.tensor import Tensor
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs


class SingleViewModel(Module):
    """One view's DGCNN front-end + LSTM + dense classifier (Fig. 8 setup).

    ``view`` selects which input the model consumes: ``"node"`` uses the
    semantic features, ``"structural"`` the walk distributions (after a
    projection supplied by the caller via ``project`` or raw if None).
    """

    def __init__(
        self,
        view: str,
        dgcnn_config: DGCNNConfig,
        lstm_units: int = 64,
        num_classes: int = 2,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        if view not in ("node", "structural"):
            raise ModelError(f"view must be 'node' or 'structural', got {view!r}")
        rng = ensure_rng(rng)
        rngs = spawn_rngs(rng, 4)
        self.view = view
        self.dgcnn = DGCNN(dgcnn_config, rng=rngs[0])
        self.projection: Optional[Dense] = None
        self.lstm = LSTM(dgcnn_config.total_channels, lstm_units, rng=rngs[1])
        self.classifier = Dense(lstm_units, num_classes, rng=rngs[2])

    def with_projection(self, in_dim: int, rng: RngLike = None) -> "SingleViewModel":
        """Attach an input projection (structural view: walk types -> dims)."""
        self.projection = Dense(
            in_dim, self.dgcnn.config.in_features, activation="tanh",
            rng=ensure_rng(rng),
        )
        return self

    def forward(self, x: np.ndarray, adj_norm: np.ndarray) -> Tensor:
        """Logits of one graph; ``adj_norm`` is ``normalized_adjacency`` of
        its adjacency, which the caller normalizes once per sample."""
        node_input = x
        if self.projection is not None:
            node_input = self.projection(Tensor(x))
        # the DGCNN's packed front end on a pack of one graph
        reps = self.dgcnn.node_representations_batch(node_input, adj_norm)
        pooled = self.dgcnn.sortpool.segment_call(reps, [x.shape[0]])
        _seq, (h_final, _c) = self.lstm(pooled)
        return self.classifier(h_final)

    __call__ = forward

