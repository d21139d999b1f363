"""GraphBatch: pack N loop sub-PEGs into one block-diagonal model input.

A forward pays Python-level overhead — dozens of small Tensor ops — per
call, whatever its size.  A :class:`GraphBatch` stacks the node-feature
matrices of many graphs contiguously ("packed" layout) and joins their
adjacencies into one normalized block-diagonal sparse matrix, so the
models' packed forward (``forward_batch``) covers N graphs in one
numpy-level pass.

Layout: graph ``g`` with ``sizes[g]`` nodes owns rows
``[offsets[g], offsets[g] + sizes[g])`` of every stacked matrix; blocks never
interact through the adjacency, so batched outputs equal per-graph outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, TypeVar

import numpy as np

from repro.dataset.types import LoopSample
from repro.errors import EngineError
from repro.nn.batching import block_diagonal_adjacency, segment_offsets

T = TypeVar("T")


@dataclass
class GraphBatch:
    """N sub-PEGs packed for one batched forward pass.

    ``x_semantic`` is ``(N_nodes, d_sem)`` and ``x_structural`` is
    ``(N_nodes, walk_types)``, both stacking per-graph node rows in batch
    order (``x_structural`` is None in a pack for a model that reads one
    node matrix); ``adj_norm`` is the ``(N_nodes, N_nodes)`` row-normalized
    block-diagonal adjacency (scipy CSR when available); ``sizes[g]`` is
    graph ``g``'s node count; ``ids`` carries caller identifiers through to
    prediction output.
    """

    x_semantic: np.ndarray
    x_structural: Optional[np.ndarray]
    adj_norm: object
    sizes: np.ndarray
    ids: List[str] = field(default_factory=list)

    @property
    def num_graphs(self) -> int:
        return int(self.sizes.shape[0])

    @property
    def num_nodes(self) -> int:
        return int(self.sizes.sum())

    @property
    def offsets(self) -> np.ndarray:
        """``(B + 1,)`` row offsets of each graph in the packed matrices."""
        return segment_offsets(self.sizes)

    @classmethod
    def from_arrays(
        cls,
        semantic: Sequence[np.ndarray],
        structural: Optional[Sequence[np.ndarray]],
        adjacencies: Sequence[np.ndarray],
        ids: Optional[Sequence[str]] = None,
        pre_normalized: bool = False,
    ) -> "GraphBatch":
        """Pack per-graph ``(n_g, ·)`` feature matrices and adjacencies.

        ``structural=None`` packs no structural matrix (a single-view
        model's pack).

        With ``pre_normalized=True`` each adjacency is taken to be already
        row-normalized (``D̃⁻¹Ã``) and is block-stacked as-is — the training
        path normalizes each sample's adjacency once and reuses it across
        every epoch instead of renormalizing per minibatch.
        """
        n_structural = len(semantic if structural is None else structural)
        if not (len(semantic) == n_structural == len(adjacencies)):
            raise EngineError(
                f"mismatched batch inputs: {len(semantic)} semantic, "
                f"{n_structural} structural, {len(adjacencies)} adjacency"
            )
        if not semantic:
            raise EngineError("cannot build an empty GraphBatch")
        sizes = []
        for pos, (sem, adj) in enumerate(zip(semantic, adjacencies)):
            n = adj.shape[0]
            struct_rows = n if structural is None else structural[pos].shape[0]
            if sem.shape[0] != n or struct_rows != n:
                raise EngineError(
                    f"graph {pos}: {sem.shape[0]} semantic / "
                    f"{struct_rows} structural rows vs {n} adjacency rows"
                )
            sizes.append(n)
        return cls(
            x_semantic=np.concatenate(semantic, axis=0),
            x_structural=(
                None if structural is None
                else np.concatenate(structural, axis=0)
            ),
            adj_norm=block_diagonal_adjacency(
                adjacencies, normalize=not pre_normalized
            ),
            sizes=np.asarray(sizes, dtype=np.int64),
            ids=list(ids) if ids is not None else [str(i) for i in range(len(sizes))],
        )

    @classmethod
    def from_samples(cls, samples: Sequence[LoopSample]) -> "GraphBatch":
        """Pack :class:`~repro.dataset.types.LoopSample` feature matrices."""
        return cls.from_arrays(
            [s.x_semantic for s in samples],
            [s.x_structural for s in samples],
            [s.adjacency for s in samples],
            ids=[s.sample_id for s in samples],
        )


def iter_chunks(items: Sequence[T], size: int) -> Iterator[Sequence[T]]:
    """Yield contiguous chunks of at most ``size`` items."""
    if size <= 0:
        raise EngineError(f"batch size must be positive, got {size}")
    for start in range(0, len(items), size):
        yield items[start : start + size]
