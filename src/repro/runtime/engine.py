"""The batched loop-classification engine.

:class:`Engine` is the throughput-oriented front door to the MV-GNN: callers
hand it many already featurized loops at once — each a
:class:`~repro.dataset.types.LoopSample` or a :class:`GraphInput` — and it
answers with one label per loop, amortizing the forward pass across
:class:`~repro.runtime.batch.GraphBatch` packs.  It never extracts
features: a sub-PEG becomes arrays in :mod:`repro.dataset.extraction`.

Forward tapes are traced with the model in eval mode (dropout off) and
never read its train/eval flag again, so serving a batch leaves the model's
mode untouched; only tracing and the interpreted ``compile=False`` forward
flip it to eval and restore it afterwards.  An Engine can therefore share a
model with a training loop.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dataset.types import LoopSample
from repro.errors import EngineError
from repro.models.mvgnn import MVGNN
from repro.nn.quantize import PRECISIONS, Calibration, symmetric_scale
from repro.nn.tensor import no_grad
from repro.runtime.batch import GraphBatch, iter_chunks
from repro.runtime.features import FeatureCache
from repro.runtime.qtape import (
    calibration_from_maxima,
    quantize_tape,
    record_activation_maxima,
)
from repro.runtime.tape import TapeExecutor, record_tape

@dataclass(frozen=True)
class GraphInput:
    """Pre-extracted model inputs for one loop sub-PEG.

    The wire-level input kind: callers (the serving layer, remote clients)
    that already hold the three feature arrays hand them over directly,
    with no dataset metadata and no extractor round-trip.  Shapes follow
    :class:`~repro.dataset.types.LoopSample`: ``adjacency`` is ``(n, n)``,
    the two feature matrices have ``n`` rows.
    """

    x_semantic: np.ndarray
    x_structural: np.ndarray
    adjacency: np.ndarray
    graph_id: str = ""


LoopInput = Union[LoopSample, GraphInput]


@dataclass
class EngineStats:
    """Cumulative counters across an Engine's lifetime."""

    graphs: int = 0
    batches: int = 0
    seconds: float = 0.0
    compiled_batches: int = 0
    fast_batches: int = 0

    @property
    def graphs_per_sec(self) -> float:
        return self.graphs / self.seconds if self.seconds > 0 else 0.0

    def summary(self) -> str:
        return (
            f"{self.graphs} graphs in {self.batches} batches "
            f"({self.compiled_batches} tape-compiled), "
            f"{self.seconds:.3f}s ({self.graphs_per_sec:.1f} graphs/sec)"
        )


class Engine:
    """Batched MV-GNN inference over many featurized loop sub-PEGs.

    Parameters
    ----------
    model:
        A (typically trained) :class:`~repro.models.mvgnn.MVGNN`.
    cache:
        Holds the memoized normalized adjacency blocks
        (:meth:`FeatureCache.normalized_block`); a fresh
        :class:`FeatureCache` over the default DiskCache when omitted.
    batch_size:
        Default number of graphs packed per forward pass.
    compile:
        When True (the default), the batched forward is trace-compiled into
        a :class:`~repro.runtime.tape.Tape` per batch-shape class and
        executed by the fusing, buffer-reusing interpreter — byte-identical
        to the interpreted path (differentially tested), just faster.
        ``compile=False`` is the escape hatch that keeps the layer-by-layer
        reference path.
    precision:
        Default execution tier: ``"exact"`` (the default) replays the
        float64 tape byte-identically to the interpreted path; ``"fast"``
        replays an int8-grid float32 rewrite of the same tape
        (:mod:`repro.runtime.qtape`) — verdict-preserving within the
        tolerances the differential wall pins, at higher throughput.
        Either tier can also be selected per call on
        :meth:`logits_many` / :meth:`predict_many`.  ``"fast"`` without
        ``compile`` falls back to the exact interpreted forward (the tier
        is a tape rewrite; there is no tape to rewrite).
    calibration:
        Optional :class:`~repro.nn.quantize.Calibration` with per-layer
        int8 scales for the fast tier (from :meth:`calibrate` or
        :func:`repro.nn.serialize.load_calibration`).  Without one, fast
        tapes use dynamic per-call activation scales.
    """

    def __init__(
        self,
        model: MVGNN,
        cache: Optional[FeatureCache] = None,
        batch_size: int = 32,
        compile: bool = True,
        precision: str = "exact",
        calibration: Optional[Calibration] = None,
    ) -> None:
        if batch_size <= 0:
            raise EngineError(f"batch_size must be positive, got {batch_size}")
        if precision not in PRECISIONS:
            raise EngineError(
                f"precision must be one of {PRECISIONS}, got {precision!r}"
            )
        self.model = model
        self.cache = cache if cache is not None else FeatureCache()
        self.batch_size = batch_size
        self.compile = bool(compile)
        self.precision = precision
        self.calibration = calibration
        self.stats = EngineStats()
        # One recorded tape per batch-shape class (keyed by graph count);
        # the fast tier keeps its quantized rewrites in a sibling cache
        # (together: one tape per (batch-shape, precision)).  Output
        # buffers are per-thread so concurrent predict_many calls never
        # share scratch memory.
        self._tapes: dict = {}
        self._fast_tapes: dict = {}
        self._tape_lock = threading.Lock()
        self._tls = threading.local()
        # Serializes stats mutation and the model's eval/train mode flips so
        # predict_many is safe to call from several threads at once (the
        # serving layer's inference executor does exactly that).  The
        # forward pass itself runs outside the lock — it only reads model
        # weights — so concurrent batches still overlap inside BLAS.
        self._state_lock = threading.Lock()
        self._active_calls = 0
        self._restore_training = False

    # -- input adaptation ----------------------------------------------------

    def _arrays_for(
        self, loop: LoopInput, pos: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, str]:
        if isinstance(loop, LoopSample):
            return loop.x_semantic, loop.x_structural, loop.adjacency, loop.sample_id
        if isinstance(loop, GraphInput):
            return (
                loop.x_semantic, loop.x_structural, loop.adjacency,
                loop.graph_id or f"graph-{pos}",
            )
        raise EngineError(
            f"unsupported loop input #{pos}: {type(loop).__name__} "
            "(expected LoopSample or GraphInput)"
        )

    def _batch_for(self, loops: Sequence[LoopInput], start: int) -> GraphBatch:
        semantic, structural, adjacencies, ids = [], [], [], []
        for pos, loop in enumerate(loops, start=start):
            sem, struct, adj, loop_id = self._arrays_for(loop, pos)
            semantic.append(sem)
            structural.append(struct)
            adjacencies.append(adj)
            ids.append(loop_id)
        # graph-structure hoisting: the normalized D̃⁻¹Ã block lives in the
        # feature cache, keyed by adjacency content, so re-classifying a
        # known loop skips the per-batch normalization entirely
        blocks = [self.cache.normalized_block(adj) for adj in adjacencies]
        return GraphBatch.from_arrays(
            semantic, structural, blocks, ids, pre_normalized=True
        )

    # -- prediction ----------------------------------------------------------

    def logits_many(
        self,
        loops: Sequence[LoopInput],
        batch_size: Optional[int] = None,
        precision: Optional[str] = None,
    ) -> np.ndarray:
        """``(len(loops), num_classes)`` logits, batched forward passes.

        Output row ``i`` corresponds to ``loops[i]`` regardless of batch
        boundaries, and equals the logits of ``loops[i]`` packed alone to
        floating-point tolerance (exactly, at ``precision="exact"``).
        ``precision`` overrides the engine default for this call.
        """
        loops = list(loops)
        if not loops:
            return np.zeros((0, self.model.config.num_classes))
        size = batch_size if batch_size is not None else self.batch_size
        if size <= 0:
            raise EngineError(f"batch_size must be positive, got {size}")
        tier = self.precision if precision is None else precision
        if tier not in PRECISIONS:
            raise EngineError(
                f"precision must be one of {PRECISIONS}, got {tier!r}"
            )
        fast = tier == "fast" and self.compile
        if fast:
            forward = partial(self._forward_compiled, precision="fast")
        elif self.compile:
            # exact keeps the 1-arg call shape: test harnesses wrap
            # _forward_compiled(self, batch) to inject skew
            forward = self._forward_compiled
        else:
            forward = self._forward_interpreted
        started = time.perf_counter()

        # a recorded tape never reads Module.training, so only the
        # interpreted forward runs under the eval flip (tracing takes its
        # own, in _executor_for)
        rows: List[np.ndarray] = []
        with nullcontext() if self.compile else self._eval_mode():
            start = 0
            for chunk in iter_chunks(loops, size):
                rows.append(forward(self._batch_for(chunk, start)))
                start += len(chunk)
        batches = len(rows)
        compiled = batches if self.compile else 0

        elapsed = time.perf_counter() - started
        with self._state_lock:
            self.stats.batches += batches
            self.stats.compiled_batches += compiled
            if fast:
                self.stats.fast_batches += compiled
            self.stats.graphs += len(loops)
            self.stats.seconds += elapsed
        return np.concatenate(rows, axis=0)

    def _forward_interpreted(self, batch: GraphBatch) -> np.ndarray:
        """The layer-by-layer reference forward (``compile=False``)."""
        with no_grad():
            return self.model.forward_batch(
                batch.x_semantic, batch.x_structural, batch.adj_norm,
                batch.sizes,
            ).data

    # -- tape compilation ----------------------------------------------------

    def _executor_for(self, batch: GraphBatch) -> TapeExecutor:
        key = batch.num_graphs
        executor = self._tapes.get(key)
        if executor is None:
            with self._tape_lock:
                executor = self._tapes.get(key)
                if executor is None:
                    # the trace is the one compiled step that reads
                    # Module.training: record the eval forward (no dropout)
                    with self._eval_mode():
                        tape = record_tape(
                            self.model.forward_batch,
                            arrays={
                                "x_semantic": batch.x_semantic,
                                "x_structural": batch.x_structural,
                            },
                            objects={
                                "adj_norm": batch.adj_norm,
                                "sizes": batch.sizes,
                            },
                            params=self.model.named_parameters(),
                        )
                    executor = TapeExecutor(tape)
                    self._tapes[key] = executor
        return executor

    def _fast_executor_for(self, batch: GraphBatch) -> TapeExecutor:
        """Quantized rewrite of the batch-shape class's exact tape."""
        key = batch.num_graphs
        executor = self._fast_tapes.get(key)
        if executor is None:
            exact = self._executor_for(batch)  # trace (or reuse) the source
            with self._tape_lock:
                executor = self._fast_tapes.get(key)
                if executor is None:
                    executor = TapeExecutor(
                        quantize_tape(exact.tape, self.calibration)
                    )
                    self._fast_tapes[key] = executor
        return executor

    def reset_fast_tapes(self) -> None:
        """Drop quantized tapes (and their baked weights).

        Fast tapes bake int8-round-tripped copies of the weights, so they
        go stale when weights change in place — the fleet worker calls
        this after a hot reload; :meth:`calibrate` calls it after
        recording new scales.  Exact tapes read parameters live and are
        unaffected.
        """
        with self._tape_lock:
            self._fast_tapes.clear()

    def _forward_compiled(
        self, batch: GraphBatch, precision: str = "exact"
    ) -> np.ndarray:
        if precision == "fast":
            executor = self._fast_executor_for(batch)
        else:
            executor = self._executor_for(batch)
        pools = getattr(self._tls, "buffers", None)
        if pools is None:
            pools = self._tls.buffers = {}
        key = (precision, batch.num_graphs)
        buffers = pools.get(key)
        if buffers is None:
            buffers = pools[key] = executor.new_buffers()
        return executor.run(
            {
                "x_semantic": batch.x_semantic,
                "x_structural": batch.x_structural,
                "adj_norm": batch.adj_norm,
                "sizes": batch.sizes,
            },
            buffers,
        )

    def warm_up(self, batch_sizes: Optional[Sequence[int]] = None) -> int:
        """Pre-record forward tapes so first requests skip tracing.

        Traces (and buffer-allocates) the shape classes an engine serves
        most — a full ``batch_size`` pack and a single-graph pack — by
        classifying a synthetic two-node graph; the serving fleet calls
        this from worker startup.  Returns the number of batch-shape
        classes warmed (fast-default engines warm both tiers per class).
        """
        if not self.compile:
            return 0
        config = self.model.config
        graph = GraphInput(
            x_semantic=np.zeros((2, config.semantic_features)),
            x_structural=np.zeros((2, config.walk_types)),
            adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]),
            graph_id="tape-warmup",
        )
        sizes = sorted(set(batch_sizes or ()) | {1, self.batch_size})
        # a fast-default engine warms both tiers (its fast tapes rewrite
        # the exact ones, and explicit ?precision=exact requests still
        # land on the float tape); an exact-default engine warms exact only
        tiers = ("exact",) if self.precision == "exact" else ("exact", "fast")
        graphs = 0
        fast_batches = 0
        for tier in tiers:
            for size in sizes:
                self.predict_many([graph] * size, batch_size=size,
                                  precision=tier)
                graphs += size
                fast_batches += tier == "fast"
        # synthetic warm-up packs are not served inputs: back their
        # accounting out so the ledger stays exact (graphs counts every
        # real input once).  Each warm size runs as one compiled batch.
        with self._state_lock:
            self.stats.graphs -= graphs
            self.stats.batches -= len(sizes) * len(tiers)
            self.stats.compiled_batches -= len(sizes) * len(tiers)
            self.stats.fast_batches -= fast_batches
        return len(sizes)

    def calibrate(
        self,
        loops: Sequence[LoopInput],
        batch_size: Optional[int] = None,
    ) -> Calibration:
        """Record per-layer int8 scales from a held-out shard of loops.

        Runs the exact tape over ``loops`` tracking the absolute maximum
        of every quantizable activation (keyed by op position — the op
        sequence is batch-size-invariant, so the scales serve every
        batch-shape class), derives weight scales from the live
        parameters, installs the result as this engine's calibration
        (dropping any cached fast tapes), and returns it.  Persist it next
        to a checkpoint with
        ``repro.nn.serialize.save_params(model, path, calibration=cal)``.
        """
        loops = list(loops)
        if not loops:
            raise EngineError("calibration needs at least one loop")
        if not self.compile:
            raise EngineError(
                "calibration requires a compiled engine (compile=True)"
            )
        size = batch_size if batch_size is not None else self.batch_size
        if size <= 0:
            raise EngineError(f"batch_size must be positive, got {size}")
        maxima: dict = {}
        prim_names = None
        tape = None
        with self._eval_mode():
            start = 0
            for chunk in iter_chunks(loops, size):
                batch = self._batch_for(chunk, start)
                tape = self._executor_for(batch).tape
                names = tuple(op.prim for op in tape.ops)
                if prim_names is None:
                    prim_names = names
                elif names != prim_names:
                    raise EngineError(
                        "calibration batches traced different op "
                        "sequences; cannot key scales by position"
                    )
                record_activation_maxima(
                    tape,
                    {
                        "x_semantic": batch.x_semantic,
                        "x_structural": batch.x_structural,
                        "adj_norm": batch.adj_norm,
                        "sizes": batch.sizes,
                    },
                    maxima,
                )
                start += len(chunk)
        param_scales = {
            tape.param_slots[op.inputs[1]]: symmetric_scale(
                tape.params[op.inputs[1]].data
            )
            for op in tape.ops
            if op.prim == "matmul" and op.inputs[1] in tape.params
        }
        calibration = calibration_from_maxima(
            prim_names, maxima, param_scales
        )
        self.calibration = calibration
        self.reset_fast_tapes()
        return calibration

    @contextmanager
    def _eval_mode(self):
        """Eval mode for the body; the first concurrent holder flips the
        model, the last one out restores its training flag."""
        with self._state_lock:
            if self._active_calls == 0:
                self._restore_training = self.model.training
                if self._restore_training:
                    self.model.eval()
            self._active_calls += 1
        try:
            yield
        finally:
            with self._state_lock:
                self._active_calls -= 1
                if self._active_calls == 0 and self._restore_training:
                    self.model.train()
                    self._restore_training = False

    def predict_many(
        self,
        loops: Sequence[LoopInput],
        batch_size: Optional[int] = None,
        precision: Optional[str] = None,
    ) -> np.ndarray:
        """Predicted labels for many loops: ``(len(loops),)`` int64.

        Accepts :class:`LoopSample` and :class:`GraphInput` objects; the
        two kinds may be mixed in one call.  Identical to running each loop
        alone as a pack of one through ``model.forward_batch``, but packs
        ``batch_size`` graphs per numpy-level pass.  ``precision``
        overrides the engine's default execution tier for this call.
        """
        logits = self.logits_many(
            loops, batch_size=batch_size, precision=precision
        )
        return np.argmax(logits, axis=1).astype(np.int64)

    def predict(self, loop: LoopInput) -> int:
        """Single-loop convenience wrapper over :meth:`predict_many`."""
        return int(self.predict_many([loop])[0])
