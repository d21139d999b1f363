"""Best-epoch checkpointing in the trainer."""

import numpy as np

from repro.dataset.types import LoopDataset, LoopSample
from repro.models.dgcnn import DGCNNConfig
from repro.train import StaticGNNAdapter, TrainConfig, train_model


def _toy(n=16, features=8, seed=0):
    rng = np.random.default_rng(seed)
    samples = []
    for pos in range(n):
        label = pos % 2
        nodes = 4
        adj = np.ones((nodes, nodes)) - np.eye(nodes)
        x = rng.normal(size=(nodes, features)) + 2.0 * label
        samples.append(
            LoopSample(
                sample_id=f"s{pos}", loop_id=f"l{pos}", program_name="p",
                app="T", suite="NPB", label=label, adjacency=adj,
                x_semantic=x, x_structural=np.zeros((nodes, 3)),
                statements=["x"], loop_features=np.zeros(7),
            )
        )
    return LoopDataset(samples, "toy")


class TestCheckpointing:
    def test_best_epoch_recorded(self):
        data = _toy()
        adapter = StaticGNNAdapter(DGCNNConfig(in_features=8, sortpool_k=4), rng=0)
        curves = train_model(
            adapter, data, TrainConfig(epochs=8, lr=3e-3, batch_size=8)
        )
        assert 0 <= curves.best_epoch < 8

    def test_restored_parameters_score_best_loss(self):
        """After training, a fresh pass over the data at the restored
        parameters reproduces (approximately) the best recorded loss, not a
        worse final-epoch loss."""
        data = _toy()
        adapter = StaticGNNAdapter(DGCNNConfig(in_features=8, sortpool_k=4), rng=1)
        # aggressive lr provokes end-of-run oscillation
        curves = train_model(
            adapter, data, TrainConfig(epochs=12, lr=2e-2, batch_size=8)
        )
        best_recorded = min(curves.loss)
        adapter.module.eval()
        from repro.nn.tensor import no_grad

        with no_grad():
            loss, _ = adapter.loss_and_correct_batched(
                list(data), temperature=0.5
            )
        final_loss = loss.item() / len(data)
        # the restored model must not be dramatically worse than the best
        # epoch (dropout randomness allows slack)
        assert final_loss <= max(curves.loss) + 1e-9
        assert final_loss <= best_recorded * 2.0 + 0.2

    def test_single_epoch_keeps_its_parameters(self):
        data = _toy()
        adapter = StaticGNNAdapter(DGCNNConfig(in_features=8, sortpool_k=4), rng=2)
        curves = train_model(
            adapter, data, TrainConfig(epochs=1, lr=1e-3, batch_size=8)
        )
        assert curves.best_epoch == 0
