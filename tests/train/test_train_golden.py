"""Golden training digest: the batched, tape-compiled training path must
not drift by a single bit.

Four fixed runs go through ``train_model``: a small MV-GNN (node-feature
view + structural view with its walk projection, default gradient clip,
dropout on), a small DGCNN (dropout on, a clip tight enough to bite on
most steps), and the Fig. 8 LSTM ablation on each view (the node view's
semantic features, and the structural view's walk distributions through
its projection).  Each contributes the sha256 of its final parameters (name, dtype,
shape and raw bytes, in name order) and of its per-epoch loss curve
(``float.hex``), compared against ``tests/train/goldens/train_digest.json``.

Float64 bits depend on the BLAS kernels' summation order as well as on
the code.  The golden therefore also records a probe: the bytes of a few
fixed matrix products.  On a host whose BLAS computes them differently
the digest cannot be compared and the test skips; on a host where they
match, any digest difference is a change in the training path.

Regenerate after an intentional numeric change with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/train/test_train_golden.py -q
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.dataset.types import LoopDataset, LoopSample
from repro.models.dgcnn import DGCNNConfig
from repro.models.mvgnn import MVGNNConfig
from repro.train import (
    DGCNNAdapter,
    MVGNNAdapter,
    SingleViewAdapter,
    TrainConfig,
    train_model,
)

GOLDEN = Path(__file__).resolve().parent / "goldens" / "train_digest.json"
_UPDATE = os.environ.get("REPRO_UPDATE_GOLDENS") == "1"

FEATURES = 12
WALK_TYPES = 6
NODE_COUNTS = [1, 4, 7, 3, 9, 2, 5, 6, 1, 8, 3, 4, 10, 2, 6, 5, 7, 3]


def _samples():
    rng = np.random.default_rng(20260)
    samples = []
    for pos, nodes in enumerate(NODE_COUNTS):
        label = int(rng.random() < 0.5)
        adj = (rng.random((nodes, nodes)) < 0.35).astype(float)
        adj = np.maximum(adj, adj.T)
        np.fill_diagonal(adj, 0.0)
        samples.append(
            LoopSample(
                sample_id=f"g{pos}", loop_id=f"l{pos}", program_name="p",
                app="T", suite="NPB", label=label, adjacency=adj,
                x_semantic=rng.normal(size=(nodes, FEATURES)) + 0.8 * label,
                x_structural=rng.dirichlet(np.ones(WALK_TYPES), size=nodes),
                statements=["x"], loop_features=np.zeros(7),
            )
        )
    return LoopDataset(samples, "golden")


def _mvgnn():
    return MVGNNAdapter(
        MVGNNConfig(
            semantic_features=FEATURES,
            walk_types=WALK_TYPES,
            walk_embedding_units=40,
            view_features=16,
            node_view=DGCNNConfig(sortpool_k=6, dropout=0.3),
            struct_view=DGCNNConfig(sortpool_k=6, dropout=0.3),
        ),
        rng=5,
    )


def _dgcnn():
    return DGCNNAdapter(
        DGCNNConfig(in_features=FEATURES, sortpool_k=6, dropout=0.4), rng=6
    )


def _view_node():
    return SingleViewAdapter(
        "node", DGCNNConfig(in_features=FEATURES, sortpool_k=6), rng=7
    )


def _view_structural():
    return SingleViewAdapter(
        "structural", DGCNNConfig(in_features=16, sortpool_k=6),
        walk_types=WALK_TYPES, rng=8,
    )


RUNS = {
    "mvgnn": (_mvgnn, dict(epochs=4, lr=2e-3, batch_size=5, seed=3)),
    "dgcnn": (_dgcnn, dict(epochs=4, lr=3e-3, batch_size=4, seed=4,
                           grad_clip=0.01)),
    "view-node": (_view_node, dict(epochs=3, lr=3e-3, batch_size=4, seed=9)),
    "view-structural": (_view_structural,
                        dict(epochs=3, lr=3e-3, batch_size=4, seed=10)),
}


def run_digest(name):
    make_adapter, config = RUNS[name]
    adapter = make_adapter()
    curves = train_model(
        adapter, _samples(), TrainConfig(sortpool_k=6, **config)
    )
    params = hashlib.sha256()
    for key, param in sorted(adapter.module.named_parameters().items()):
        data = np.ascontiguousarray(param.data)
        params.update(f"{key} {data.dtype} {data.shape}\n".encode())
        params.update(data.tobytes())
    loss = "\n".join(float(v).hex() for v in curves.loss)
    return {
        "params": params.hexdigest(),
        "loss": hashlib.sha256(loss.encode()).hexdigest(),
        "best_epoch": curves.best_epoch,
    }


def blas_probe():
    """Digest of a few fixed float64 products (matrix-matrix, matrix-
    vector, transposed operands): equal digests mean the BLAS sums in the
    same order as on the host that recorded the golden."""
    rng = np.random.default_rng(0)
    digest = hashlib.sha256()
    for m, k, n in ((37, 53, 29), (64, 400, 16), (5, 12, 1)):
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(k, n))
        for product in (a @ b, a.T.T @ b, (b.T @ a.T).T):
            digest.update(np.ascontiguousarray(product).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def golden():
    if _UPDATE:
        data = {"blas_probe": blas_probe(),
                "runs": {name: run_digest(name) for name in RUNS}}
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    assert GOLDEN.exists(), (
        f"missing golden {GOLDEN.name}; regenerate with REPRO_UPDATE_GOLDENS=1"
    )
    data = json.loads(GOLDEN.read_text())
    if data["blas_probe"] != blas_probe():
        pytest.skip("this host's BLAS sums in a different order than the "
                    "host that recorded the golden")
    return data["runs"]


def test_golden_covers_every_run(golden):
    assert sorted(golden) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_training_digest_matches_golden(golden, name):
    assert run_digest(name) == golden[name], (
        f"{name}: training drifted from the golden digest"
    )
