"""Neural layers: shapes, modes, parameter discovery, layer-level grads."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.nn.functional import softmax, softmax_cross_entropy_batch
from repro.nn.layers import (
    Conv1D,
    Dense,
    Dropout,
    GraphConv,
    MaxPool1D,
    Module,
    Parameter,
    SortPooling,
    normalized_adjacency,
)
from repro.nn.tensor import Tensor


class TestDense:
    def test_shape(self):
        layer = Dense(4, 3, rng=0)
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_wrong_input_dim_raises(self):
        layer = Dense(4, 3, rng=0)
        with pytest.raises(ModelError):
            layer(Tensor(np.ones((5, 2))))

    def test_activation_applied(self):
        layer = Dense(2, 2, activation="relu", rng=0)
        out = layer(Tensor(-np.ones((1, 2)) * 100))
        assert (out.data >= 0).all()

    def test_unknown_activation_rejected(self):
        layer = Dense(2, 2, activation="gelu", rng=0)
        with pytest.raises(ModelError):
            layer(Tensor(np.ones((1, 2))))


class TestNormalizedAdjacency:
    def test_rows_sum_to_one(self):
        adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        norm = normalized_adjacency(adj)
        np.testing.assert_allclose(norm.sum(axis=1), 1.0)

    def test_isolated_node_handled(self):
        adj = np.zeros((3, 3))
        norm = normalized_adjacency(adj)
        assert np.isfinite(norm).all()

    def test_non_square_rejected(self):
        with pytest.raises(ModelError):
            normalized_adjacency(np.zeros((2, 3)))


class TestGraphConv:
    def test_shape_and_grad(self):
        rng = np.random.default_rng(0)
        adj = normalized_adjacency(np.ones((4, 4)) - np.eye(4))
        conv = GraphConv(5, 3, rng=rng)
        h = Tensor(rng.normal(size=(4, 5)))
        out = conv(h, adj)
        assert out.shape == (4, 3)
        (out ** 2.0).sum().backward()
        assert conv.weight.grad is not None

    def test_row_mismatch_rejected(self):
        conv = GraphConv(5, 3, rng=0)
        adj = normalized_adjacency(np.eye(3))
        with pytest.raises(ModelError):
            conv(Tensor(np.ones((4, 5))), adj)

    def test_isolated_graph_propagates_self_loops(self):
        conv = GraphConv(2, 2, activation=None, rng=0)
        adj = normalized_adjacency(np.zeros((3, 3)))
        h = Tensor(np.eye(3, 2))
        out = conv(h, adj)
        np.testing.assert_allclose(out.data, h.data @ conv.weight.data)


class TestSortPooling:
    """One graph is a one-segment pack: ``segment_call(h, [n])``."""

    def test_truncates_to_k(self):
        pool = SortPooling(2)
        h = Tensor(np.array([[1.0, 0.1], [2.0, 0.9], [3.0, 0.5]]))
        out = pool.segment_call(h, [3])
        assert out.shape == (2, 2)
        # sorted descending by last channel: rows with 0.9 then 0.5
        np.testing.assert_allclose(out.data[:, 1], [0.9, 0.5])

    def test_pads_small_graphs(self):
        pool = SortPooling(5)
        out = pool.segment_call(Tensor(np.ones((2, 3))), [2])
        assert out.shape == (5, 3)
        np.testing.assert_allclose(out.data[2:], 0.0)

    def test_invalid_k_rejected(self):
        with pytest.raises(ModelError):
            SortPooling(0)

    def test_gradient_flows_through_selection(self):
        pool = SortPooling(2)
        param = Parameter(np.array([[1.0, 0.1], [2.0, 0.9], [3.0, 0.5]]))
        pool.segment_call(param, [3]).sum().backward()
        assert param.grad is not None
        # unselected row (last channel 0.1) receives zero gradient
        np.testing.assert_allclose(param.grad[0], 0.0)


class TestConv1D:
    """One sequence is a one-segment pack: ``segment_call(x, 1, length)``."""

    def test_output_length(self):
        conv = Conv1D(2, 4, kernel_size=3, stride=1, rng=0)
        out = conv.segment_call(Tensor(np.ones((10, 2))), 1, 10)
        assert out.shape == (8, 4)

    def test_stride_equals_kernel(self):
        conv = Conv1D(1, 4, kernel_size=5, stride=5, rng=0)
        out = conv.segment_call(Tensor(np.ones((20, 1))), 1, 20)
        assert out.shape == (4, 4)

    def test_too_short_input_rejected(self):
        conv = Conv1D(1, 2, kernel_size=5, rng=0)
        with pytest.raises(ModelError):
            conv.segment_call(Tensor(np.ones((3, 1))), 1, 3)

    def test_channel_mismatch_rejected(self):
        conv = Conv1D(2, 2, kernel_size=2, rng=0)
        with pytest.raises(ModelError):
            conv.segment_call(Tensor(np.ones((5, 3))), 1, 5)


class TestMaxPool1D:
    """One sequence is a one-segment pack: ``segment_call(x, 1, length)``."""

    def test_halves_length(self):
        pool = MaxPool1D(2)
        out = pool.segment_call(Tensor(np.arange(12.0).reshape(6, 2)), 1, 6)
        assert out.shape == (3, 2)

    def test_short_input_identity(self):
        pool = MaxPool1D(4)
        x = Tensor(np.ones((2, 3)))
        assert pool.segment_call(x, 1, 2).shape == (2, 3)

    def test_picks_maxima(self):
        pool = MaxPool1D(2)
        x = Tensor(np.array([[1.0], [5.0], [2.0], [3.0]]))
        np.testing.assert_allclose(
            pool.segment_call(x, 1, 4).data[:, 0], [5.0, 3.0]
        )


class TestDropout:
    def test_eval_mode_is_identity(self):
        layer = Dropout(0.5, rng=0)
        layer.eval()
        x = Tensor(np.ones((4, 4)))
        np.testing.assert_array_equal(layer(x).data, x.data)

    def test_train_mode_zeroes_some(self):
        layer = Dropout(0.5, rng=0)
        out = layer(Tensor(np.ones((20, 20))))
        assert (out.data == 0).any()
        assert (out.data != 0).any()

    def test_zero_rate_identity(self):
        layer = Dropout(0.0)
        x = Tensor(np.ones((3, 3)))
        assert layer(x) is x


class TestModule:
    def test_parameter_discovery_recurses(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.layers = [Dense(2, 3, rng=0), Dense(3, 1, rng=1)]
                self.extra = Parameter(np.zeros(4))

        net = Net()
        assert len(net.parameters()) == 5  # 2x(W, b) + extra

    def test_named_parameters_unique(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.a = Dense(2, 2, rng=0)
                self.b = Dense(2, 2, rng=1)

        names = Net().named_parameters()
        assert len(names) == 4
        assert "a.weight" in names and "b.bias" in names

    def test_train_eval_propagates(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.drop = Dropout(0.5, rng=0)

        net = Net()
        net.eval()
        assert not net.drop.training
        net.train()
        assert net.drop.training


class TestFunctional:
    def test_softmax_rows_sum_to_one(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
        probs = softmax(logits)
        np.testing.assert_allclose(probs.data.sum(axis=-1), 1.0)

    def test_temperature_sharpens(self):
        logits = Tensor(np.array([1.0, 2.0]))
        hot = softmax(logits, temperature=0.5).data
        cold = softmax(logits, temperature=2.0).data
        assert hot[1] > cold[1]

    def test_cross_entropy_decreases_with_correct_confidence(self):
        logits = np.array([[0.0, 5.0], [5.0, 0.0]])
        loss = [
            softmax_cross_entropy_batch(Tensor(row[None, :]), [1]).item()
            for row in logits
        ]
        # log-sum-exp oracle: log(1 + e^-5) and log(1 + e^5)
        np.testing.assert_allclose(
            loss, [np.log1p(np.exp(-5.0)), np.log1p(np.exp(5.0))], rtol=1e-12
        )
        assert loss[0] < loss[1]

    def test_bad_label_rejected(self):
        with pytest.raises(ModelError):
            softmax_cross_entropy_batch(Tensor(np.array([[0.0, 1.0]])), [5])
