"""Packing harness for the graph adapters' one training route.

``loss_and_correct_batched`` packs a minibatch into one block-diagonal
batch and runs it forward and backward through a recorded tape.  Packing
must be a pure optimization: the loss, the correct count and every
parameter gradient of a ragged pack have to equal the sums over the same
graphs packed one at a time, or graphs would leak into each other and
silently poison every downstream experiment.  These tests pin the two
together on ragged minibatches (1-node sub-PEGs, dropout on and off) with
same-seed twin adapters — MV-GNN, DGCNN, Static GNN and both Fig. 8
single-view LSTM models — and pin ``train_model`` itself to bit-stable
reproducibility.  The finite-difference gradcheck of the route is
``tests/train/test_adapter_gradcheck.py``.
"""

import numpy as np
import pytest

from repro.dataset.types import LoopDataset, LoopSample
from repro.models.dgcnn import DGCNNConfig
from repro.models.mvgnn import MVGNNConfig
from repro.nn.layers import normalized_adjacency
from repro.train import (
    DGCNNAdapter,
    MVGNNAdapter,
    SingleViewAdapter,
    StaticGNNAdapter,
    TrainConfig,
    train_model,
)

from tests.runtime.test_tape_differential import (
    eager_logits,
    eager_loss_and_correct,
)

FEATURES = 10
WALK_TYPES = 5
GRAD_TOL = dict(rtol=1e-6, atol=1e-6)


def _ragged_samples(node_counts, features=FEATURES, walk_types=WALK_TYPES,
                    seed=0):
    """One sample per entry of ``node_counts`` (1 = single-node sub-PEG)."""
    rng = np.random.default_rng(seed)
    samples = []
    for pos, nodes in enumerate(node_counts):
        label = pos % 2
        adj = (rng.random((nodes, nodes)) < 0.4).astype(float)
        adj = np.maximum(adj, adj.T)
        np.fill_diagonal(adj, 0.0)
        samples.append(
            LoopSample(
                sample_id=f"s{pos}", loop_id=f"l{pos}", program_name="p",
                app="T", suite="NPB", label=label, adjacency=adj,
                x_semantic=rng.normal(size=(nodes, features)) + 1.5 * label,
                x_structural=rng.dirichlet(np.ones(walk_types), size=nodes),
                statements=["x"], loop_features=np.zeros(7),
            )
        )
    return samples


RAGGED = [1, 3, 5, 1, 7, 4, 2, 6]


def _mv_config(dropout):
    return MVGNNConfig(
        semantic_features=FEATURES,
        walk_types=WALK_TYPES,
        view_features=8,
        node_view=DGCNNConfig(
            in_features=FEATURES, sortpool_k=5, dropout=dropout
        ),
        struct_view=DGCNNConfig(in_features=8, sortpool_k=5, dropout=dropout),
    )


def _dgcnn_config(dropout):
    return DGCNNConfig(in_features=FEATURES, sortpool_k=5, dropout=dropout)


ADAPTERS = {
    "mvgnn": lambda dropout: MVGNNAdapter(_mv_config(dropout), rng=0),
    "dgcnn": lambda dropout: DGCNNAdapter(_dgcnn_config(dropout), rng=0),
    "static-gnn": lambda dropout: StaticGNNAdapter(
        _dgcnn_config(dropout), n_dynamic=3, rng=0
    ),
    "view-node": lambda dropout: SingleViewAdapter(
        "node", _dgcnn_config(dropout), rng=0
    ),
    "view-structural": lambda dropout: SingleViewAdapter(
        "structural",
        DGCNNConfig(in_features=8, sortpool_k=5, dropout=dropout),
        walk_types=WALK_TYPES, rng=0,
    ),
}


def _grads(adapter):
    return {
        name: None if param.grad is None else np.array(param.grad)
        for name, param in adapter.module.named_parameters().items()
    }


def _packed(adapter, batch, temperature=0.5):
    """(loss, correct, grads) of the whole batch as one pack."""
    loss, correct = adapter.loss_and_correct_batched(batch, temperature)
    loss.backward()
    return loss.item(), correct, _grads(adapter)


def _one_at_a_time(adapter, batch, temperature=0.5):
    """(loss, correct, grads) summed over one-graph packs of ``batch``.

    Each backward accumulates into ``Parameter.grad``, so the gradients
    left behind are the sums.  A dropout layer draws its ``(1, d)`` masks
    from its own rng in graph order, the same stream a ``(B, d)`` mask of
    the whole pack reads.
    """
    total, correct = 0.0, 0
    for sample in batch:
        loss, hit = adapter.loss_and_correct_batched([sample], temperature)
        loss.backward()
        total += loss.item()
        correct += hit
    return total, correct, _grads(adapter)


def _assert_same(one_by_one, packed):
    (loss_one, correct_one, grads_one) = one_by_one
    (loss_pack, correct_pack, grads_pack) = packed
    np.testing.assert_allclose(loss_pack, loss_one, **GRAD_TOL)
    assert correct_pack == correct_one
    assert grads_one.keys() == grads_pack.keys()
    for name, grad_one in grads_one.items():
        if grad_one is None:
            # e.g. MVGNN never calls its sub-DGCNN classifier heads, nor a
        # single-view model its DGCNN's conv/dense head: packing
            # may not flow gradient into a parameter the one-graph packs skip
            assert grads_pack[name] is None, f"{name}: only the pack has grad"
            continue
        assert grads_pack[name] is not None, f"{name}: the pack left no grad"
        np.testing.assert_allclose(
            grads_pack[name], grad_one, err_msg=f"gradient of {name}",
            **GRAD_TOL,
        )


class TestDifferential:
    """A ragged pack vs the same graphs packed one at a time."""

    @pytest.mark.parametrize("adapter_name", sorted(ADAPTERS))
    def test_ragged_minibatch_no_dropout(self, adapter_name):
        batch = _ragged_samples(RAGGED)
        make = lambda: ADAPTERS[adapter_name](0.0)  # noqa: E731
        _assert_same(_one_at_a_time(make(), batch), _packed(make(), batch))

    @pytest.mark.parametrize("adapter_name", sorted(ADAPTERS))
    def test_ragged_minibatch_with_dropout(self, adapter_name):
        """Twin adapters share dropout rng streams: B one-graph ``(1, d)``
        masks equal one ``(B, d)`` mask, so the two agree even in training
        mode with dropout active."""
        batch = _ragged_samples(RAGGED)
        make = lambda: ADAPTERS[adapter_name](0.5)  # noqa: E731
        _assert_same(_one_at_a_time(make(), batch), _packed(make(), batch))

    @pytest.mark.parametrize("adapter_name", sorted(ADAPTERS))
    def test_batch_of_one_single_node_graph(self, adapter_name):
        """The shape class with the most padding (k > n, pooled rows below
        the second conv's kernel): the tape's loss and gradients equal the
        model's eager ``forward_batch`` followed by ``Tensor.backward``."""
        batch = _ragged_samples([1])
        eager = ADAPTERS[adapter_name](0.0)
        loss, correct = eager_loss_and_correct(eager, batch, 0.5)
        loss.backward()
        reference = (loss.item(), correct, _grads(eager))
        _assert_same(reference, _packed(ADAPTERS[adapter_name](0.0), batch))

    def test_predictions_match_reference(self):
        """``predict`` (packs of up to 32 through the eval tape) agrees with
        the model's eager forward on each graph packed alone."""
        samples = _ragged_samples(RAGGED + [3, 2, 9])
        reference, adapter = (
            MVGNNAdapter(_mv_config(0.5), rng=0) for _ in range(2)
        )
        reference.module.eval()
        one_by_one = np.asarray(
            [int(np.argmax(eager_logits(reference, [s]).data)) for s in samples]
        )
        np.testing.assert_array_equal(adapter.predict(samples), one_by_one)


class TestBatchedDispatch:
    def test_prepared_inputs_cached_across_calls(self):
        """Per-sample preparation (normalized adjacency, input transforms)
        is paid once, then reused by every later minibatch."""
        adapter = StaticGNNAdapter(_dgcnn_config(0.0), n_dynamic=3, rng=0)
        batch = _ragged_samples([4, 2])
        adapter.loss_and_correct_batched(batch, 0.5)
        first = {k: v for k, v in adapter._prepared.items()}
        adapter.loss_and_correct_batched(batch, 0.5)
        for sample in batch:
            assert adapter._prepared[sample.sample_id] is first[sample.sample_id]
        prepared = adapter._prepared[batch[0].sample_id]
        np.testing.assert_allclose(
            prepared.adj_norm, normalized_adjacency(batch[0].adjacency)
        )
        assert np.all(prepared.semantic[:, -3:] == 0.0)  # static zeroing


class _OneGraphPacks(MVGNNAdapter):
    """MVGNNAdapter whose minibatch is run as one-graph packs, summed."""

    def loss_and_correct_batched(self, batch, temperature):
        total, correct = None, 0
        for sample in batch:
            loss, hit = super().loss_and_correct_batched([sample], temperature)
            total = loss if total is None else total + loss
            correct += hit
        return total, correct


class TestReproducibility:
    def _dataset(self):
        return LoopDataset(_ragged_samples(RAGGED + [2, 5, 3, 1]), "toy")

    def _config(self):
        return TrainConfig(
            epochs=4, lr=2e-3, batch_size=4, sortpool_k=5, seed=11,
        )

    def test_same_seed_trains_identically(self):
        curves = []
        for _ in range(2):
            adapter = MVGNNAdapter(_mv_config(0.5), rng=3)
            curves.append(
                train_model(adapter, self._dataset(), self._config())
            )
        first, second = curves
        assert first.epochs == second.epochs
        assert first.loss == second.loss
        assert first.train_accuracy == second.train_accuracy
        assert first.best_epoch == second.best_epoch

    def test_batched_and_per_sample_converge_identically(self):
        """Full training runs over packed minibatches and over one-graph
        packs land on the same optimum: same best epoch, same final
        accuracy, losses within tolerance."""
        one_by_one = train_model(
            _OneGraphPacks(_mv_config(0.5), rng=3),
            self._dataset(),
            self._config(),
        )
        packed = train_model(
            MVGNNAdapter(_mv_config(0.5), rng=3),
            self._dataset(),
            self._config(),
        )
        assert packed.best_epoch == one_by_one.best_epoch
        np.testing.assert_allclose(
            packed.loss, one_by_one.loss, rtol=1e-6, atol=1e-6
        )
        assert (
            abs(packed.train_accuracy[-1] - one_by_one.train_accuracy[-1])
            <= 1e-9
        )
