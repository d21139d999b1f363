"""Classification models: DGCNN, MV-GNN, single-view ablations, NCC."""

from repro.models.dgcnn import DGCNN, DGCNNConfig
from repro.models.mvgnn import MVGNN, MVGNNConfig
from repro.models.single_view import SingleViewModel
from repro.models.ncc import NCC, NCCConfig

__all__ = [
    "DGCNN", "DGCNNConfig",
    "MVGNN", "MVGNNConfig",
    "SingleViewModel",
    "NCC", "NCCConfig",
]
