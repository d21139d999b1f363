"""View-importance analysis (Fig. 8).

"For each benchmark, we set N_multi, N_n, N_s as the number of parallelism
identified by our approach, the node feature view and the structural pattern
view correspondingly.  Then the importance of the view is represented as a
normalized value IMP_view = N_view / N_multi."  (Section IV-D)
"""

from __future__ import annotations

from typing import Dict

from repro.dataset.types import LoopDataset
from repro.errors import DatasetError
from repro.mlbase.metrics import accuracy
from repro.train.adapters import ModelAdapter


def view_importance(
    multi_adapter: ModelAdapter,
    node_adapter: ModelAdapter,
    struct_adapter: ModelAdapter,
    suites: Dict[str, LoopDataset],
) -> Dict[str, Dict[str, float]]:
    """IMP_n / IMP_s per suite, plus the raw identified-parallel counts and
    each model's accuracy (``acc_multi``, ``acc_n``, ``acc_s``, as
    fractions), all from one prediction per model and suite."""
    out: Dict[str, Dict[str, float]] = {}
    for suite, data in suites.items():
        if not len(data):
            raise DatasetError(f"empty suite {suite!r} for view importance")
        labels = data.labels()
        preds = [
            adapter.predict(data)
            for adapter in (multi_adapter, node_adapter, struct_adapter)
        ]
        n_multi, n_node, n_struct = (int(p.sum()) for p in preds)
        denom = max(n_multi, 1)
        out[suite] = {
            "N_multi": float(n_multi),
            "N_n": float(n_node),
            "N_s": float(n_struct),
            "IMP_n": n_node / denom,
            "IMP_s": n_struct / denom,
            "acc_multi": accuracy(labels, preds[0]),
            "acc_n": accuracy(labels, preds[1]),
            "acc_s": accuracy(labels, preds[2]),
        }
    return out
