"""GraphSAGE-style unsupervised pretraining (Section III-E).

"Upon that, the unsupervised objective of GraphSAGE is adopted for learning
and making predictions."  (paper, after Eq. 5)

The GraphSAGE unsupervised loss (Hamilton et al. 2017, Eq. 1) pulls
representations of nodes that co-occur on short random walks together and
pushes random negatives apart:

    L = -log σ(z_u · z_v) - Q · E_{n ~ P_neg} log σ(-z_u · z_n)

We apply it to the graph-convolution stack of a DGCNN over the training
sub-PEGs: positives are pairs within ``walk_window`` steps on a random walk,
negatives are sampled uniformly from other graphs' nodes.  Pretraining the
conv stack this way before supervised fine-tuning regularizes the scarce-
label regime — the usage the paper's Section V motivates ("additional
datasets for unsupervised model training").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.dataset.types import LoopDataset, LoopSample
from repro.errors import ConfigError
from repro.models.dgcnn import DGCNN
from repro.nn.layers import normalized_adjacency
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class PretrainConfig:
    epochs: int = 5
    lr: float = 1e-3
    walk_length: int = 3
    walks_per_node: int = 2
    negatives: int = 3
    max_graphs_per_epoch: int = 64
    seed: int = 23


def _random_walk_pairs(
    adjacency: np.ndarray,
    walk_length: int,
    walks_per_node: int,
    rng: np.random.Generator,
) -> List[Tuple[int, int]]:
    """(anchor, positive) node-index pairs from short random walks."""
    n = adjacency.shape[0]
    neighbors = [np.nonzero(adjacency[i])[0] for i in range(n)]
    pairs: List[Tuple[int, int]] = []
    for start in range(n):
        for _ in range(walks_per_node):
            current = start
            for _step in range(walk_length):
                nbrs = neighbors[current]
                if nbrs.size == 0:
                    break
                current = int(nbrs[rng.integers(nbrs.size)])
                if current != start:
                    pairs.append((start, current))
    return pairs


def graphsage_unsupervised_loss(
    dgcnn: DGCNN,
    sample: LoopSample,
    x: np.ndarray,
    negatives_pool: Sequence[np.ndarray],
    config: PretrainConfig,
    rng: np.random.Generator,
) -> Optional[Tensor]:
    """The unsupervised loss of one graph, or None when it has no walks."""
    pairs = _random_walk_pairs(
        sample.adjacency, config.walk_length, config.walks_per_node, rng
    )
    if not pairs:
        return None
    z = dgcnn.node_representations_batch(
        x, normalized_adjacency(sample.adjacency)
    )  # (n, channels)

    anchors = np.array([p[0] for p in pairs])
    positives = np.array([p[1] for p in pairs])
    z_anchor = z.take_rows(anchors)
    z_positive = z.take_rows(positives)
    pos_score = (z_anchor * z_positive).sum(axis=1)
    loss = -(pos_score.sigmoid() + Tensor(1e-12)).log().mean()

    # negatives: random node rows from other graphs, pushed through the
    # same conv stack against this graph's anchors
    if negatives_pool:
        neg_rows = []
        for _ in range(config.negatives):
            other = negatives_pool[int(rng.integers(len(negatives_pool)))]
            neg_rows.append(other[int(rng.integers(other.shape[0]))])
        z_neg = Tensor(np.stack(neg_rows))          # raw features as proxies
        # project negatives through the first conv's weight so the spaces
        # match (cheap single-layer negative encoder)
        w = dgcnn.graph_convs[0].weight
        z_neg_enc = (z_neg @ w).tanh()
        channels = z_neg_enc.shape[1]
        neg_score = (
            z_anchor[:, :channels].mean(axis=0) @ z_neg_enc.T
        )
        loss = loss - ((-neg_score).sigmoid() + Tensor(1e-12)).log().mean()
    return loss


def pretrain_dgcnn(
    dgcnn: DGCNN,
    data: LoopDataset,
    config: Optional[PretrainConfig] = None,
    use_structural: bool = False,
    rng: RngLike = None,
) -> List[float]:
    """Unsupervised pretraining of ``dgcnn``'s conv stack over ``data``.

    ``use_structural`` selects the walk-distribution features instead of the
    semantic ones (for pretraining a structural-view DGCNN).  Returns the
    per-epoch mean losses.
    """
    config = config or PretrainConfig()
    if not len(data):
        raise ConfigError("empty pretraining set")
    rng = ensure_rng(rng if rng is not None else config.seed)

    conv_params = [p for conv in dgcnn.graph_convs for p in conv.parameters()]
    optimizer = Adam(conv_params, lr=config.lr)

    def features_of(sample: LoopSample) -> np.ndarray:
        return sample.x_structural if use_structural else sample.x_semantic

    history: List[float] = []
    samples = list(data)
    for _epoch in range(config.epochs):
        order = rng.permutation(len(samples))[: config.max_graphs_per_epoch]
        epoch_losses: List[float] = []
        for pos in order:
            sample = samples[int(pos)]
            x = features_of(sample)
            if x.shape[1] != dgcnn.config.in_features:
                raise ConfigError(
                    f"pretraining features ({x.shape[1]}) do not match the "
                    f"DGCNN input width ({dgcnn.config.in_features})"
                )
            pool = [
                features_of(samples[int(i)])
                for i in rng.integers(len(samples), size=4)
            ]
            optimizer.zero_grad()
            loss = graphsage_unsupervised_loss(
                dgcnn, sample, x, pool, config, rng
            )
            if loss is None:
                continue
            loss.backward()
            optimizer.step()
            epoch_losses.append(loss.item())
        history.append(float(np.mean(epoch_losses)) if epoch_losses else 0.0)
    return history
