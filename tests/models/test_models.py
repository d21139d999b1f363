"""Model architectures: shapes, gradient flow, overfit sanity checks.

The graph models have one forward, the packed ``forward_batch``; the cases
here run it on one-graph packs.
"""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.models.dgcnn import DGCNN, DGCNNConfig
from repro.models.mvgnn import MVGNN, MVGNNConfig
from repro.models.ncc import NCC, NCCConfig
from repro.models.single_view import SingleViewModel
from repro.nn.batching import block_diagonal_adjacency
from repro.nn.functional import softmax_cross_entropy_batch
from repro.nn.optim import Adam


def _graph(rng, n=8, features=12):
    adj = (rng.random((n, n)) < 0.3).astype(float)
    adj = np.maximum(adj, adj.T)
    np.fill_diagonal(adj, 0.0)
    return rng.normal(size=(n, features)), adj


def _pack_of_one(adj):
    """(normalized adjacency, sizes) of a one-graph pack."""
    return block_diagonal_adjacency([adj]), [adj.shape[0]]


def dgcnn_logits(model, x, adj):
    return model.forward_batch(x, *_pack_of_one(adj))


def mvgnn_logits(model, x, walks, adj):
    return model.forward_batch(x, walks, *_pack_of_one(adj))


@pytest.fixture(scope="module")
def rng_mod():
    return np.random.default_rng(42)


class TestDGCNN:
    def _config(self, in_features=12):
        return DGCNNConfig(in_features=in_features, sortpool_k=6)

    def test_logit_shape(self, rng_mod):
        model = DGCNN(self._config(), rng=0)
        x, adj = _graph(rng_mod)
        assert dgcnn_logits(model, x, adj).shape == (1, 2)

    def test_embed_shape_matches_dense_units(self, rng_mod):
        config = self._config()
        model = DGCNN(config, rng=0)
        x, adj = _graph(rng_mod)
        assert model.embed_batch(x, *_pack_of_one(adj)).shape == (
            1, config.dense_units,
        )

    def test_wrong_feature_width_rejected(self, rng_mod):
        model = DGCNN(self._config(), rng=0)
        x, adj = _graph(rng_mod, features=5)
        with pytest.raises(ModelError):
            dgcnn_logits(model, x, adj)

    def test_tiny_graph_padded(self, rng_mod):
        model = DGCNN(self._config(), rng=0)
        x, adj = _graph(rng_mod, n=2)
        assert dgcnn_logits(model, x, adj).shape == (1, 2)

    def test_large_graph_truncated(self, rng_mod):
        model = DGCNN(self._config(), rng=0)
        x, adj = _graph(rng_mod, n=40)
        assert dgcnn_logits(model, x, adj).shape == (1, 2)

    def test_gradients_reach_first_conv(self, rng_mod):
        model = DGCNN(self._config(), rng=0)
        x, adj = _graph(rng_mod)
        softmax_cross_entropy_batch(dgcnn_logits(model, x, adj), [1]).backward()
        assert model.graph_convs[0].weight.grad is not None
        assert np.abs(model.graph_convs[0].weight.grad).sum() > 0

    def test_eval_mode_deterministic(self, rng_mod):
        model = DGCNN(self._config(), rng=0)
        model.eval()
        x, adj = _graph(rng_mod)
        a = dgcnn_logits(model, x, adj).data
        b = dgcnn_logits(model, x, adj).data
        np.testing.assert_array_equal(a, b)

    def test_overfits_small_set(self):
        rng = np.random.default_rng(0)
        model = DGCNN(self._config(), rng=1)
        model.train()
        data = []
        for label in (0, 1) * 3:
            x, adj = _graph(rng)
            x += label * 2.0
            data.append((x, adj, label))
        opt = Adam(model.parameters(), lr=3e-3)
        for _ in range(60):
            opt.zero_grad()
            total = None
            for x, adj, label in data:
                loss = softmax_cross_entropy_batch(
                    dgcnn_logits(model, x, adj), [label]
                )
                total = loss if total is None else total + loss
            total.backward()
            opt.step()
        model.eval()
        correct = sum(
            int(np.argmax(dgcnn_logits(model, x, adj).data) == label)
            for x, adj, label in data
        )
        assert correct == len(data)


class TestMVGNN:
    def _config(self):
        config = MVGNNConfig(
            semantic_features=12,
            walk_types=5,
            view_features=8,
            node_view=DGCNNConfig(in_features=12, sortpool_k=6),
            struct_view=DGCNNConfig(in_features=8, sortpool_k=6),
        )
        return config

    def test_forward_shape(self, rng_mod):
        model = MVGNN(self._config(), rng=0)
        x, adj = _graph(rng_mod)
        walks = rng_mod.dirichlet(np.ones(5), size=x.shape[0])
        assert mvgnn_logits(model, x, walks, adj).shape == (1, 2)

    def test_wrong_walk_width_rejected(self, rng_mod):
        model = MVGNN(self._config(), rng=0)
        x, adj = _graph(rng_mod)
        with pytest.raises(ModelError):
            mvgnn_logits(
                model, x, rng_mod.dirichlet(np.ones(9), size=x.shape[0]), adj
            )

    def test_view_embeddings_distinct(self, rng_mod):
        model = MVGNN(self._config(), rng=0)
        model.eval()
        x, adj = _graph(rng_mod)
        walks = rng_mod.dirichlet(np.ones(5), size=x.shape[0])
        h_n, h_s = model.view_embeddings_batch(x, walks, *_pack_of_one(adj))
        assert h_n.shape == h_s.shape
        assert np.abs(h_n.data - h_s.data).sum() > 1e-6

    def test_all_used_parameters_receive_gradient(self, rng_mod):
        model = MVGNN(self._config(), rng=0)
        x, adj = _graph(rng_mod)
        walks = rng_mod.dirichlet(np.ones(5), size=x.shape[0])
        softmax_cross_entropy_batch(
            mvgnn_logits(model, x, walks, adj), [0], 0.5
        ).backward()
        # the per-view DGCNN classifier heads are intentionally unused in
        # multi-view mode (fusion consumes the dense-layer embeddings)
        unused = {
            id(model.node_dgcnn.classifier.weight),
            id(model.node_dgcnn.classifier.bias),
            id(model.struct_dgcnn.classifier.weight),
            id(model.struct_dgcnn.classifier.bias),
        }
        for param in model.parameters():
            if id(param) in unused:
                assert param.grad is None
            else:
                assert param.grad is not None

    def test_fusion_hidden_variant(self, rng_mod):
        config = self._config()
        config.fusion_hidden = 8
        model = MVGNN(config, rng=0)
        x, adj = _graph(rng_mod)
        walks = rng_mod.dirichlet(np.ones(5), size=x.shape[0])
        assert mvgnn_logits(model, x, walks, adj).shape == (1, 2)


class TestNCC:
    def test_forward_and_batch_agree(self):
        """Each sequence alone equals its row of a ragged batch: padding
        and masking never leak between sequences."""
        rng = np.random.default_rng(0)
        model = NCC(NCCConfig(embedding_dim=10, lstm_units=8, max_length=20), rng=0)
        model.eval()
        seqs = [rng.normal(size=(n, 10)) for n in (6, 2, 9, 1)]
        batch = model.forward_batch(seqs).data
        for pos, seq in enumerate(seqs):
            np.testing.assert_allclose(
                model.forward_batch([seq]).data[0], batch[pos], atol=1e-10
            )

    def test_truncation(self):
        """Statements past ``max_length`` do not reach the model."""
        rng = np.random.default_rng(1)
        model = NCC(NCCConfig(embedding_dim=4, lstm_units=4, max_length=5), rng=0)
        long = rng.normal(size=(50, 4))
        out = model.forward_batch([long])
        assert out.shape == (1, 2)
        np.testing.assert_array_equal(
            out.data, model.forward_batch([long[:5]]).data
        )

    def test_batch_loss_backward(self):
        rng = np.random.default_rng(1)
        model = NCC(NCCConfig(embedding_dim=6, lstm_units=5, max_length=10), rng=0)
        seqs = [rng.normal(size=(rng.integers(2, 9), 6)) for _ in range(4)]
        logits = model.forward_batch(seqs)
        softmax_cross_entropy_batch(logits, [0, 1, 0, 1]).backward()
        assert model.lstm1.w_x.grad is not None

    def test_empty_batch_rejected(self):
        model = NCC(NCCConfig(embedding_dim=4, lstm_units=4), rng=0)
        with pytest.raises(ModelError):
            model.forward_batch([])

    def test_bad_rank_rejected(self):
        model = NCC(NCCConfig(embedding_dim=4, lstm_units=4), rng=0)
        with pytest.raises(ModelError):
            model.forward_batch([np.ones(4)])


class TestSingleView:
    def test_node_view_forward(self, rng_mod):
        model = SingleViewModel(
            "node", DGCNNConfig(in_features=12, sortpool_k=6), rng=0
        )
        x, adj = _graph(rng_mod)
        assert model.forward_batch(x, *_pack_of_one(adj)).shape == (1, 2)

    def test_structural_view_needs_projection(self, rng_mod):
        model = SingleViewModel(
            "structural", DGCNNConfig(in_features=8, sortpool_k=6), rng=0
        ).with_projection(5, rng=0)
        x, adj = _graph(rng_mod)
        walks = rng_mod.dirichlet(np.ones(5), size=x.shape[0])
        assert model.forward_batch(walks, *_pack_of_one(adj)).shape == (1, 2)

    def test_invalid_view_rejected(self):
        with pytest.raises(ModelError):
            SingleViewModel("both", DGCNNConfig(in_features=4), rng=0)
