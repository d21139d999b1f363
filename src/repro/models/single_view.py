"""Single-view models: the view-importance ablation (Fig. 8).

For Fig. 8 the paper evaluates each view alone "by putting the output of
each view into an LSTM layer, followed by a fully connected layer": we feed
the view's SortPooled node sequence through an LSTM and classify from the
final hidden state.  The model has one forward, over a packed batch of
graphs, which the training adapter records onto a tape like the other
graph models (:class:`repro.train.adapters.SingleViewAdapter`).

The Static-GNN baseline (Shen et al. 2021, "GNNs with Static Information")
needs no model of its own: it is the node view's DGCNN over static-only
features, :class:`repro.train.adapters.StaticGNNAdapter`.
"""

from __future__ import annotations

from typing import Optional, Sequence

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
    projection attached with :meth:`with_projection`, or raw without one).
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

    def forward_batch(self, x, adj_norm, sizes: Sequence[int]) -> Tensor:
        """Class logits for a packed batch, shape ``(len(sizes), num_classes)``.

        ``x`` stacks the view's node inputs of ``len(sizes)`` graphs and
        ``adj_norm`` is their normalized block-diagonal adjacency, as for
        :meth:`repro.models.dgcnn.DGCNN.forward_batch`.  SortPooling gives
        every graph exactly ``k`` rows, so the LSTM runs over a
        ``(B, k, C)`` batch with no padding mask.
        """
        node_input = x if self.projection is None else self.projection(x)
        reps = self.dgcnn.node_representations_batch(node_input, adj_norm)
        pooled = self.dgcnn.sortpool.segment_call(reps, sizes)   # (B*k, C)
        sequences = pooled.reshape(
            len(sizes), self.dgcnn.config.sortpool_k, self.lstm.input_size
        )
        _states, h_last = self.lstm.forward_batch(sequences)
        return self.classifier(h_last)
