"""Shared experiment plumbing: dataset context + configured adapters.

``REPRO_FULL=1`` in the environment switches every experiment from the
CPU-friendly fast configuration to the paper-fidelity one (3100+3100
dataset, six pipelines, 200 epochs, SortPooling k=135) — hours of CPU time;
EXPERIMENTS.md records results from both.

Every trained model comes from :meth:`ExperimentContext.trained`, which
trains each (model, seed) once per context: Table III, Table IV, Fig. 7
and Fig. 8 share one MV-GNN and its curves.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

import numpy as np

from repro.dataset.assemble import AssembledData, DatasetConfig, assemble_dataset
from repro.models.dgcnn import DGCNNConfig
from repro.models.mvgnn import MVGNNConfig
from repro.models.ncc import NCCConfig
from repro.train.adapters import (
    ModelAdapter,
    MVGNNAdapter,
    NCCAdapter,
    SingleViewAdapter,
    StaticGNNAdapter,
)
from repro.train.config import TrainConfig
from repro.train.trainer import TrainingCurves, train_model


def full_mode() -> bool:
    return os.environ.get("REPRO_FULL", "0") not in ("0", "", "false")


@dataclass
class ExperimentContext:
    """Dataset + configs shared by all experiments in one run."""

    data: AssembledData
    train_config: TrainConfig
    seed: int = 17
    _trained: Dict[Tuple[str, int], Tuple[ModelAdapter, TrainingCurves]] = field(
        default_factory=dict, init=False, repr=False
    )

    def trained(
        self, model: str, seed: Optional[int] = None
    ) -> Tuple[ModelAdapter, TrainingCurves]:
        """``model`` (a key of :data:`MODELS`) trained on the train split,
        with its curves; trained once per (model, seed) per context.

        A seed shifts the model's initialisation and the trainer's seed by
        ``seed - self.seed``, so ``self.seed`` is the default run."""
        seed = self.seed if seed is None else seed
        key = (model, seed)
        if key not in self._trained:
            make, cap = MODELS[model]
            adapter = make(self, seed)
            config = self.train_config
            if cap is not None and not full_mode():
                config = replace(
                    config, epochs=min(cap[0], config.epochs), lr=2e-3,
                    batch_size=32, max_train_samples=cap[1],
                )
            config = replace(config, seed=config.seed + seed - self.seed)
            # MV-GNN records the test-split curves Fig. 7 plots
            test = self.data.test if model == "MV-GNN" else None
            curves = train_model(adapter, self.data.train, config, test_data=test)
            self._trained[key] = (adapter, curves)
        return self._trained[key]

    @property
    def walk_types(self) -> int:
        return self.data.walk_space.num_types

    @property
    def semantic_dim(self) -> int:
        return self.data.config.semantic_dim


def build_context(
    seed: int = 17,
    dataset_config: Optional[DatasetConfig] = None,
    train_config: Optional[TrainConfig] = None,
) -> ExperimentContext:
    if dataset_config is None:
        dataset_config = (
            DatasetConfig() if full_mode() else DatasetConfig.fast()
        )
    if train_config is None:
        train_config = TrainConfig.paper() if full_mode() else TrainConfig.fast()
    data = assemble_dataset(dataset_config)
    return ExperimentContext(data=data, train_config=train_config, seed=seed)


def _dgcnn_config(ctx: ExperimentContext, in_features: int) -> DGCNNConfig:
    return DGCNNConfig(
        in_features=in_features,
        sortpool_k=ctx.train_config.sortpool_k,
        # paper uses 0.5 on a 6200-example dataset; the fast configuration
        # trains on far fewer examples and needs less regularization
        dropout=0.5 if full_mode() else 0.3,
    )


def make_mvgnn_adapter(
    ctx: ExperimentContext, seed: Optional[int] = None
) -> MVGNNAdapter:
    config = MVGNNConfig(
        semantic_features=ctx.semantic_dim,
        walk_types=ctx.walk_types,
        node_view=_dgcnn_config(ctx, ctx.semantic_dim),
        struct_view=_dgcnn_config(ctx, 200),
        temperature=ctx.train_config.temperature,
    )
    return MVGNNAdapter(config, rng=ctx.seed if seed is None else seed)


def make_static_gnn_adapter(
    ctx: ExperimentContext, seed: Optional[int] = None
) -> StaticGNNAdapter:
    return StaticGNNAdapter(
        _dgcnn_config(ctx, ctx.semantic_dim),
        rng=(ctx.seed if seed is None else seed) + 1,
    )


def make_ncc_adapter(
    ctx: ExperimentContext, seed: Optional[int] = None
) -> NCCAdapter:
    config = NCCConfig(
        embedding_dim=ctx.data.inst2vec.dim,
        lstm_units=200 if full_mode() else 64,
        max_length=160 if full_mode() else 48,
    )
    return NCCAdapter(
        config, ctx.data.inst2vec, rng=(ctx.seed if seed is None else seed) + 2
    )


def make_view_adapter(
    ctx: ExperimentContext, view: str, seed: Optional[int] = None
) -> SingleViewAdapter:
    """One single-view model of the Fig. 8 ablation (``"node"`` or
    ``"structural"``)."""
    node = view == "node"
    return SingleViewAdapter(
        view,
        _dgcnn_config(ctx, ctx.semantic_dim if node else 64),
        walk_types=0 if node else ctx.walk_types,
        rng=ctx.seed if seed is None else seed,
    )


#: model name -> (adapter factory taking (ctx, seed), fast-configuration
#: budget as (epoch cap, training-sample cap; 0 = all), or None for the
#: shared TrainConfig).  NCC's LSTMs dominate CPU cost.
MODELS = {
    "MV-GNN": (make_mvgnn_adapter, None),
    "Static GNN": (make_static_gnn_adapter, None),
    "NCC": (make_ncc_adapter, (10, 300)),
    "node view": (
        lambda ctx, seed: make_view_adapter(ctx, "node", seed), (15, 0)
    ),
    "structural view": (
        lambda ctx, seed: make_view_adapter(ctx, "structural", seed), (15, 0)
    ),
}


def majority_prior(labels: np.ndarray) -> float:
    """Accuracy (%) of always predicting the majority class of ``labels``."""
    share = float(np.mean(labels))
    return 100.0 * max(share, 1.0 - share)
