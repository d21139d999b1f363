"""Training harness: adapters, trainer, evaluation, importance."""

import numpy as np
import pytest

from repro.dataset.types import LoopDataset, LoopSample
from repro.errors import ConfigError, DatasetError
from repro.models.dgcnn import DGCNNConfig
from repro.models.mvgnn import MVGNNConfig
from repro.models.ncc import NCCConfig
from repro.train import (
    MVGNNAdapter,
    NCCAdapter,
    SingleViewAdapter,
    StaticGNNAdapter,
    TrainConfig,
    evaluate_adapter,
    evaluate_tool_votes,
    train_model,
    view_importance,
)
from repro.train.eval import count_identified_parallel


def _toy_dataset(n=24, features=10, walk_types=5, seed=0):
    """Synthetic loop samples where the label is encoded in the features."""
    rng = np.random.default_rng(seed)
    samples = []
    for pos in range(n):
        label = pos % 2
        nodes = int(rng.integers(3, 7))
        adj = (rng.random((nodes, nodes)) < 0.4).astype(float)
        adj = np.maximum(adj, adj.T)
        np.fill_diagonal(adj, 0)
        x_sem = rng.normal(size=(nodes, features)) + label * 1.5
        x_struct = rng.dirichlet(np.ones(walk_types), size=nodes)
        samples.append(
            LoopSample(
                sample_id=f"s{pos}", loop_id=f"l{pos}",
                program_name=f"p{pos % 6}", app="TOY", suite="NPB",
                label=label, adjacency=adj, x_semantic=x_sem,
                x_structural=x_struct,
                statements=["ldvar <sym>", "add <reg> <reg>"] * (2 + label),
                loop_features=np.full(7, float(label)),
                tool_votes={"Pluto": label, "AutoPar": 1, "DiscoPoP": label},
            )
        )
    return LoopDataset(samples, name="toy")


def _mv_config(features=10, walk_types=5):
    return MVGNNConfig(
        semantic_features=features,
        walk_types=walk_types,
        view_features=8,
        node_view=DGCNNConfig(in_features=features, sortpool_k=5),
        struct_view=DGCNNConfig(in_features=8, sortpool_k=5),
    )


class TestTrainConfig:
    def test_paper_settings(self):
        config = TrainConfig.paper()
        assert config.epochs == 200
        assert config.lr == 1e-5
        assert config.sortpool_k == 135

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(lr=-1.0)


class TestTrainer:
    def test_mvgnn_overfits_toy_data(self):
        data = _toy_dataset()
        adapter = MVGNNAdapter(_mv_config(), rng=0)
        config = TrainConfig(epochs=20, lr=3e-3, batch_size=8, sortpool_k=5)
        curves = train_model(adapter, data, config, test_data=data)
        assert curves.loss[-1] < curves.loss[0]
        assert curves.train_accuracy[-1] > 0.8
        assert curves.final_test_accuracy() > 0.8

    def test_curves_lengths_match(self):
        data = _toy_dataset(12)
        adapter = StaticGNNAdapter(DGCNNConfig(in_features=10, sortpool_k=5), rng=0)
        config = TrainConfig(epochs=4, lr=1e-3, batch_size=6, eval_every=2)
        curves = train_model(adapter, data, config, test_data=data)
        assert len(curves.epochs) == len(curves.loss)
        assert len(curves.loss) == len(curves.train_accuracy)

    def test_empty_training_set_rejected(self):
        adapter = StaticGNNAdapter(DGCNNConfig(in_features=10, sortpool_k=5), rng=0)
        with pytest.raises(ConfigError):
            train_model(adapter, LoopDataset([], "empty"), TrainConfig.smoke())

    def test_max_train_samples_subsamples(self):
        data = _toy_dataset(20)
        adapter = StaticGNNAdapter(DGCNNConfig(in_features=10, sortpool_k=5), rng=0)
        config = TrainConfig(epochs=1, max_train_samples=6)
        train_model(adapter, data, config)  # must not crash

    def test_ncc_adapter_trains(self, tiny_inst2vec):
        data = _toy_dataset(16)
        adapter = NCCAdapter(
            NCCConfig(
                embedding_dim=tiny_inst2vec.dim, lstm_units=8,
                dense_units=4, max_length=12,
            ),
            tiny_inst2vec,
            rng=0,
        )
        config = TrainConfig(epochs=2, lr=3e-3, batch_size=8)
        curves = train_model(adapter, data, config)
        assert len(curves.loss) == 2

    def test_single_view_adapters_train(self):
        data = _toy_dataset(12)
        node = SingleViewAdapter(
            "node", DGCNNConfig(in_features=10, sortpool_k=5), rng=0
        )
        struct = SingleViewAdapter(
            "structural", DGCNNConfig(in_features=6, sortpool_k=5),
            walk_types=5, rng=0,
        )
        config = TrainConfig.smoke()
        for adapter in (node, struct):
            curves = train_model(adapter, data, config)
            assert curves.loss


class TestEvaluation:
    def test_evaluate_adapter_range(self):
        data = _toy_dataset(10)
        adapter = StaticGNNAdapter(DGCNNConfig(in_features=10, sortpool_k=5), rng=0)
        acc = evaluate_adapter(adapter, data)
        assert 0.0 <= acc <= 1.0

    def test_empty_eval_rejected(self):
        adapter = StaticGNNAdapter(DGCNNConfig(in_features=10, sortpool_k=5), rng=0)
        with pytest.raises(DatasetError):
            evaluate_adapter(adapter, LoopDataset([], "empty"))

    def test_tool_votes_accuracy(self):
        data = _toy_dataset(10)
        assert evaluate_tool_votes("Pluto", data) == 1.0      # votes == labels
        assert evaluate_tool_votes("AutoPar", data) == 0.5    # always 1
        assert evaluate_tool_votes("Unknown", data) == 0.5    # defaults to 0

    def test_count_identified_parallel_bounds(self):
        data = _toy_dataset(10)
        adapter = StaticGNNAdapter(DGCNNConfig(in_features=10, sortpool_k=5), rng=0)
        count = count_identified_parallel(adapter, data)
        assert 0 <= count <= len(data)


class TestImportance:
    def test_importance_structure(self):
        data = _toy_dataset(12)
        multi = MVGNNAdapter(_mv_config(), rng=0)
        node = SingleViewAdapter(
            "node", DGCNNConfig(in_features=10, sortpool_k=5), rng=1
        )
        struct = SingleViewAdapter(
            "structural", DGCNNConfig(in_features=6, sortpool_k=5),
            walk_types=5, rng=2,
        )
        config = TrainConfig(epochs=6, lr=3e-3, batch_size=8)
        for adapter in (multi, node, struct):
            train_model(adapter, data, config)
        importance = view_importance(multi, node, struct, {"NPB": data})
        row = importance["NPB"]
        assert set(row) == {
            "N_multi", "N_n", "N_s", "IMP_n", "IMP_s",
            "acc_multi", "acc_n", "acc_s",
        }
        assert row["IMP_n"] >= 0 and row["IMP_s"] >= 0
        for adapter, key in ((multi, "acc_multi"), (node, "acc_n"),
                             (struct, "acc_s")):
            assert row[key] == evaluate_adapter(adapter, data)

    def test_empty_suite_rejected(self):
        multi = MVGNNAdapter(_mv_config(), rng=0)
        with pytest.raises(DatasetError):
            view_importance(multi, multi, multi, {"X": LoopDataset([], "x")})
