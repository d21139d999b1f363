"""Finite-difference gradcheck of the graph adapters' training route
(MV-GNN, DGCNN and both Fig. 8 single-view LSTM models).

``loss_and_correct_batched`` runs a packed minibatch forward through a
recorded tape and its backward through the tape's mechanical VJP sweep.
The packing tests (``test_batched_training.py``) compare that route with
itself on other packs; this file checks it against an oracle that shares
no VJP with it: a central finite difference of the loss in each parameter
entry.  Planted faults — the ``segment_sort_pool`` VJP scaled by 1.5, and
the ``sigmoid`` VJP (the LSTM gates) scaled by 1.5 — must fail the check.

Dropout is off so that every loss evaluation is deterministic.  Biases
start at zero, which puts every zero-padded SortPooling row exactly on a
ReLU kink, so they are drawn at random first.  The checked entries of each
parameter are those with the largest analytic gradient, where a scaled VJP
moves the result most.
"""

import numpy as np
import pytest

from repro.dataset.types import LoopSample
from repro.models.dgcnn import DGCNNConfig
from repro.models.mvgnn import MVGNNConfig
from repro.nn.primitives import PRIMITIVES
from repro.train import DGCNNAdapter, MVGNNAdapter, SingleViewAdapter

FEATURES = 6
WALK_TYPES = 4
EPS = 1e-6
TOL = dict(rtol=1e-4, atol=1e-6)
ENTRIES_PER_PARAM = 3
SIZES = (1, 3, 5, 2)


def _samples():
    rng = np.random.default_rng(11)
    samples = []
    for pos, nodes in enumerate(SIZES):
        adj = (rng.random((nodes, nodes)) < 0.5).astype(float)
        adj = np.maximum(adj, adj.T)
        np.fill_diagonal(adj, 0.0)
        samples.append(
            LoopSample(
                sample_id=f"g{pos}", loop_id=f"l{pos}", program_name="p",
                app="T", suite="NPB", label=pos % 2, adjacency=adj,
                x_semantic=rng.normal(size=(nodes, FEATURES)),
                x_structural=rng.dirichlet(np.ones(WALK_TYPES), size=nodes),
                statements=["x"], loop_features=np.zeros(7),
            )
        )
    return samples


ADAPTERS = {
    "mvgnn": lambda: MVGNNAdapter(
        MVGNNConfig(
            semantic_features=FEATURES,
            walk_types=WALK_TYPES,
            walk_embedding_units=10,
            view_features=5,
            node_view=DGCNNConfig(sortpool_k=4, dropout=0.0),
            struct_view=DGCNNConfig(sortpool_k=4, dropout=0.0),
        ),
        rng=2,
    ),
    "dgcnn": lambda: DGCNNAdapter(
        DGCNNConfig(in_features=FEATURES, sortpool_k=4, dropout=0.0), rng=3
    ),
    "view-node": lambda: SingleViewAdapter(
        "node", DGCNNConfig(in_features=FEATURES, sortpool_k=4), rng=4
    ),
    "view-structural": lambda: SingleViewAdapter(
        "structural", DGCNNConfig(in_features=5, sortpool_k=4),
        walk_types=WALK_TYPES, rng=5,
    ),
}


def _off_the_kinks(adapter):
    rng = np.random.default_rng(0)
    for param in adapter.module.parameters():
        if not param.data.any():
            param.data[...] = rng.normal(scale=0.1, size=param.data.shape)
    return adapter


def gradcheck(adapter, batch, temperature=0.5):
    """Assert the route's gradients match central finite differences."""
    _off_the_kinks(adapter)
    loss, _ = adapter.loss_and_correct_batched(batch, temperature)
    loss.backward()

    def loss_value():
        return adapter.loss_and_correct_batched(batch, temperature)[0].item()

    checked = 0
    for name, param in sorted(adapter.module.named_parameters().items()):
        if param.grad is None:
            # MVGNN's unused sub-DGCNN classifier heads, a single view's
            # unused DGCNN conv/dense head
            continue
        analytic = param.grad.ravel()
        flat = param.data.ravel()
        for pos in np.argsort(-np.abs(analytic), kind="stable")[:ENTRIES_PER_PARAM]:
            orig = flat[pos]
            flat[pos] = orig + EPS
            up = loss_value()
            flat[pos] = orig - EPS
            down = loss_value()
            flat[pos] = orig
            np.testing.assert_allclose(
                analytic[pos], (up - down) / (2 * EPS),
                err_msg=f"{name}[{pos}]", **TOL,
            )
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("name", sorted(ADAPTERS))
def test_route_gradients_match_finite_differences(name):
    gradcheck(ADAPTERS[name](), _samples())


def _scale_vjp(monkeypatch, prim_name):
    prim = PRIMITIVES[prim_name]
    original = prim.vjp

    def scaled(*args):
        return tuple(None if p is None else 1.5 * p for p in original(*args))

    monkeypatch.setattr(prim, "vjp", scaled)


@pytest.fixture()
def scaled_sortpool_vjp(monkeypatch):
    _scale_vjp(monkeypatch, "segment_sort_pool")


@pytest.mark.parametrize("name", sorted(ADAPTERS))
def test_gradcheck_rejects_a_scaled_sortpool_vjp(name, scaled_sortpool_vjp):
    with pytest.raises(AssertionError):
        gradcheck(ADAPTERS[name](), _samples())


def test_gradcheck_rejects_a_scaled_sigmoid_vjp(monkeypatch):
    _scale_vjp(monkeypatch, "sigmoid")
    with pytest.raises(AssertionError):
        gradcheck(ADAPTERS["view-node"](), _samples())
