"""Model adapters: a uniform train/predict interface over heterogeneous
models (the packed graph GNNs, the single-view ablations, the batched-LSTM
NCC).

An adapter owns its model plus any input preprocessing (which features a
model sees is part of the baseline's definition — e.g. Static-GNN gets the
dynamic columns zeroed, a single-view model sees one view).  Each adapter
has exactly one training route,
:meth:`ModelAdapter.loss_and_correct_batched`: every graph model — MV-GNN,
DGCNN, Static GNN and both Fig. 8 single views — runs the packed minibatch
through a recorded tape, and NCC runs its batched LSTM eagerly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence

import numpy as np

from repro.dataset.types import LoopSample
from repro.embeddings.inst2vec import Inst2Vec
from repro.errors import ModelError
from repro.models.dgcnn import DGCNN, DGCNNConfig
from repro.models.mvgnn import MVGNN, MVGNNConfig
from repro.models.ncc import NCC, NCCConfig
from repro.models.single_view import SingleViewModel
from repro.nn.functional import softmax_cross_entropy_batch
from repro.nn.layers import Module, normalized_adjacency
from repro.nn.tensor import Tensor, no_grad
from repro.runtime.batch import GraphBatch
from repro.runtime.tape import Tape, record_tape
from repro.utils.rng import RngLike


class ModelAdapter:
    """Uniform interface the trainer drives."""

    name = "model"
    model: Module

    @property
    def module(self) -> Module:
        return self.model

    def loss_and_correct_batched(
        self, batch: Sequence[LoopSample], temperature: float
    ):
        """(loss Tensor summed over the minibatch, #correct)."""
        raise NotImplementedError

    def predict(self, samples: Iterable[LoopSample]) -> np.ndarray:
        """Predicted labels without recording gradients."""
        raise NotImplementedError

    def calibrate(self, samples: Sequence[LoopSample], batch_size: int = 32):
        """Per-layer int8 scale calibration from a held-out shard.

        Drives :meth:`repro.runtime.engine.Engine.calibrate` over this
        adapter's module and returns the recorded
        :class:`~repro.nn.quantize.Calibration` — persist it next to the
        weights with ``save_params(adapter.module, path, calibration=cal)``
        so serving engines can load both together.  Only engine-compatible
        modules (the MVGNN family) have a fast tier; for other adapters
        the engine's tracer raises.
        """
        from repro.runtime.engine import Engine

        engine = Engine(self.module, batch_size=batch_size, compile=True)
        return engine.calibrate(list(samples), batch_size=batch_size)


@dataclass
class _PreparedGraph:
    """One sample's model-ready arrays, computed once and reused each epoch.

    ``adj_norm`` is the row-normalized ``D̃⁻¹Ã`` block the packed batch
    stacks directly (``GraphBatch.from_arrays(..., pre_normalized=True)``);
    ``semantic`` already carries any adapter-specific input transformation
    (zeroed dynamic columns, view selection).
    """

    semantic: np.ndarray
    structural: np.ndarray
    adj_norm: np.ndarray
    sample_id: str


class _PerGraphAdapter(ModelAdapter):
    """Base for the graph models: each minibatch is one block-diagonal pack
    of its sub-PEGs, run forward and backward through a recorded tape.

    The input-preparation cache here plays the same role for training that
    :class:`repro.runtime.features.FeatureCache` plays for inference —
    per-sample work (input transforms, adjacency normalization) is paid
    once, not once per epoch.  Keys are ``sample_id``, which the dataset
    pipeline guarantees identify content.
    """

    def __init__(self) -> None:
        self._prepared: Dict[str, _PreparedGraph] = {}
        # the packed forward/backward (see repro.runtime.tape): one
        # recording per (graph count, train/eval mode) shape class
        self._tapes: Dict[tuple, Tape] = {}

    # -- packing -------------------------------------------------------------

    def _semantic_input(self, sample: LoopSample) -> np.ndarray:
        """The node-feature matrix this model consumes (hook for subclasses)."""
        return sample.x_semantic

    def _prepare(self, sample: LoopSample) -> _PreparedGraph:
        prepared = self._prepared.get(sample.sample_id)
        if prepared is None:
            prepared = _PreparedGraph(
                semantic=self._semantic_input(sample),
                structural=sample.x_structural,
                adj_norm=normalized_adjacency(sample.adjacency),
                sample_id=sample.sample_id,
            )
            self._prepared[sample.sample_id] = prepared
        return prepared

    def _pack(self, batch: Sequence[LoopSample]) -> GraphBatch:
        prepared = [self._prepare(sample) for sample in batch]
        return GraphBatch.from_arrays(
            [p.semantic for p in prepared],
            self._structural_inputs(prepared),
            [p.adj_norm for p in prepared],
            ids=[p.sample_id for p in prepared],
            pre_normalized=True,
        )

    # -- tape ----------------------------------------------------------------

    def _tape_arrays(self, pack: GraphBatch) -> Dict[str, np.ndarray]:
        """The float inputs of ``module.forward_batch``, by argument name;
        ``adj_norm`` and ``sizes`` are bound for every graph model."""
        return {"x": pack.x_semantic}

    def _structural_inputs(self, prepared: Sequence[_PreparedGraph]):
        """The structural matrices a pack carries: none, as
        :meth:`_tape_arrays` reads the semantic one alone."""
        return None

    def _batch_logits_compiled(self, pack: GraphBatch) -> Tensor:
        """``(num_graphs, num_classes)`` tape-executed logits whose backward
        runs the mechanical VJP sweep.

        The returned Tensor is a graph *leaf* carrying a backward hook: when
        the loss backpropagates into it, :meth:`repro.runtime.tape.Tape.backward`
        replays the recorded program in reverse and accumulates parameter
        gradients through the same primitive VJPs the eager sweep calls.
        """
        arrays = self._tape_arrays(pack)
        objects = {"adj_norm": pack.adj_norm, "sizes": pack.sizes}
        key = (pack.num_graphs, self.module.training)
        tape = self._tapes.get(key)
        if tape is None:
            tape = record_tape(
                self.module.forward_batch, arrays, objects,
                self.module.named_parameters(),
            )
            self._tapes[key] = tape
        values, residuals = tape.forward_values({**arrays, **objects})
        out = values[tape.output]

        def backward(grad: np.ndarray) -> None:
            tape.backward(grad, values, residuals)

        return Tensor(
            np.array(out), requires_grad=True, _parents=(), _backward=backward
        )

    def loss_and_correct_batched(self, batch, temperature):
        logits = self._batch_logits_compiled(self._pack(batch))
        labels = np.array([s.label for s in batch], dtype=np.int64)
        loss = softmax_cross_entropy_batch(
            logits, labels, temperature, reduction="sum"
        )
        correct = int((np.argmax(logits.data, axis=1) == labels).sum())
        return loss, correct

    def predict(self, samples) -> np.ndarray:
        self.module.eval()
        samples = list(samples)
        out = np.zeros(len(samples), dtype=np.int64)
        with no_grad():
            for start in range(0, len(samples), 32):
                chunk = samples[start : start + 32]
                logits = self._batch_logits_compiled(self._pack(chunk))
                out[start : start + len(chunk)] = np.argmax(logits.data, axis=1)
        self.module.train()
        return out


class MVGNNAdapter(_PerGraphAdapter):
    """The paper's multi-view model."""

    name = "MV-GNN"

    def __init__(self, config: MVGNNConfig, rng: RngLike = None) -> None:
        super().__init__()
        self.model = MVGNN(config, rng=rng)

    def _tape_arrays(self, pack: GraphBatch) -> Dict[str, np.ndarray]:
        return {
            "x_semantic": pack.x_semantic,
            "x_structural": pack.x_structural,
        }

    def _structural_inputs(self, prepared: Sequence[_PreparedGraph]):
        return [p.structural for p in prepared]


class DGCNNAdapter(_PerGraphAdapter):
    """Node-feature-view DGCNN alone (full semantic features)."""

    name = "DGCNN"

    def __init__(self, config: DGCNNConfig, rng: RngLike = None) -> None:
        super().__init__()
        self.model = DGCNN(config, rng=rng)


class StaticGNNAdapter(DGCNNAdapter):
    """Shen et al. baseline: the same DGCNN but static features only —
    dynamic columns (the trailing 7) are zeroed."""

    name = "Static GNN"

    def __init__(
        self, config: DGCNNConfig, n_dynamic: int = 7, rng: RngLike = None
    ) -> None:
        super().__init__(config, rng=rng)
        self.n_dynamic = n_dynamic

    def _semantic_input(self, sample: LoopSample) -> np.ndarray:
        x = sample.x_semantic.copy()
        x[:, -self.n_dynamic :] = 0.0
        return x


class SingleViewAdapter(_PerGraphAdapter):
    """One view + LSTM + dense (the Fig. 8 importance setup), trained and
    predicted on the packed tape route like the other graph models; the
    view's node matrix is what the pack carries as its semantic input."""

    def __init__(
        self,
        view: str,
        dgcnn_config: DGCNNConfig,
        walk_types: int = 0,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        self.view = view
        self.name = f"view:{view}"
        self.model = SingleViewModel(view, dgcnn_config, rng=rng)
        if view == "structural":
            if walk_types <= 0:
                raise ModelError("structural view needs walk_types")
            self.model.with_projection(walk_types, rng=rng)

    def _semantic_input(self, sample: LoopSample) -> np.ndarray:
        return sample.x_semantic if self.view == "node" else sample.x_structural


class NCCAdapter(ModelAdapter):
    """NCC over inst2vec statement sequences, batched for speed."""

    name = "NCC"

    def __init__(
        self, config: NCCConfig, inst2vec: Inst2Vec, rng: RngLike = None
    ) -> None:
        self.model = NCC(config, rng=rng)
        self.inst2vec = inst2vec
        self._cache: dict = {}

    def _sequence(self, sample: LoopSample) -> np.ndarray:
        seq = self._cache.get(sample.sample_id)
        if seq is None:
            seq = self.inst2vec.embed_matrix(sample.statements)
            if seq.shape[1] != self.model.config.embedding_dim:
                # pad / trim the embedding dimension to the model's width
                width = self.model.config.embedding_dim
                padded = np.zeros((seq.shape[0], width))
                copy = min(width, seq.shape[1])
                padded[:, :copy] = seq[:, :copy]
                seq = padded
            self._cache[sample.sample_id] = seq
        return seq

    def loss_and_correct_batched(self, batch, temperature):
        sequences = [self._sequence(s) for s in batch]
        labels = np.array([s.label for s in batch], dtype=np.int64)
        logits = self.model.forward_batch(sequences)
        loss = softmax_cross_entropy_batch(logits, labels, temperature)
        correct = int((np.argmax(logits.data, axis=1) == labels).sum())
        # trainer expects a summed loss for consistent lr scaling
        return loss * float(len(batch)), correct

    def predict(self, samples) -> np.ndarray:
        self.module.eval()
        samples = list(samples)
        out = np.zeros(len(samples), dtype=np.int64)
        with no_grad():
            for start in range(0, len(samples), 32):
                chunk = samples[start : start + 32]
                logits = self.model.forward_batch(
                    [self._sequence(s) for s in chunk]
                )
                out[start : start + len(chunk)] = np.argmax(logits.data, axis=1)
        self.module.train()
        return out
