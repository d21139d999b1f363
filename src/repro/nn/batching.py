"""Segment-aware batching primitives for packing many graphs into one pass.

The batched inference runtime (:mod:`repro.runtime`) packs ``B`` sub-PEGs
into a single node matrix by stacking their rows contiguously ("packed"
layout): graph ``g`` with ``sizes[g]`` nodes occupies rows
``[offsets[g], offsets[g] + sizes[g])``.  Graph structure becomes one
block-diagonal normalized adjacency, so a single sparse-dense matmul
propagates every graph at once and the dense layers downstream see one big
matrix instead of ``B`` small ones.

The pieces here are deliberately model-agnostic; the model-specific batched
paths live in ``DGCNN.embed_batch`` / ``MVGNN.forward_batch``.
"""

from __future__ import annotations

import functools
from typing import List, Sequence, Tuple

import numpy as np
import scipy.sparse

from repro.errors import ModelError
from repro.nn.layers import normalized_adjacency
from repro.nn.tensor import Tensor, as_tensor, concat


def segment_offsets(sizes: Sequence[int]) -> np.ndarray:
    """Row offset of each segment in the packed layout: ``(B + 1,)`` ints."""
    return np.concatenate([[0], np.cumsum(np.asarray(sizes, dtype=np.int64))])


def block_diagonal_adjacency(
    adjacencies: Sequence[np.ndarray], normalize: bool = True
):
    """Block-diagonal (optionally row-normalized) adjacency of many graphs.

    Each ``adjacencies[g]`` is a square ``(n_g, n_g)`` matrix; the result is
    ``(N, N)`` with ``N = sum(n_g)``, graph ``g`` occupying the diagonal
    block at ``offsets[g]``.  With ``normalize=True`` every block is
    ``D̃⁻¹Ã`` (self-loops added), so propagating the packed node matrix
    through it equals running :func:`normalized_adjacency` per graph — the
    blocks never interact.

    Returns a scipy CSR matrix whose arrays equal
    ``scipy.sparse.block_diag(blocks, format="csr")``: every entry of every
    dense block is stored (explicit zeros included), rows in order, and
    the indices are int32 unless the entry count overflows it.  The arrays
    are packed directly — each row of block ``g`` holds ``n_g`` entries
    whose columns run from ``offsets[g]`` — instead of going through COO.
    """
    if not adjacencies:
        raise ModelError("block_diagonal_adjacency needs at least one graph")
    blocks: List[np.ndarray] = []
    for adjacency in adjacencies:
        adjacency = np.asarray(adjacency, dtype=np.float64)
        if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
            raise ModelError(
                f"adjacency must be square, got {adjacency.shape}"
            )
        blocks.append(
            normalized_adjacency(adjacency) if normalize else adjacency
        )
    sizes = tuple(block.shape[0] for block in blocks)
    if sum(n * n for n in sizes) <= _CACHED_PATTERN_NNZ:
        indices, indptr = (a.copy() for a in _small_pack_pattern(sizes))
    else:
        indices, indptr = _pack_pattern(sizes)
    total = int(indptr.shape[0]) - 1
    data = np.concatenate([block.ravel() for block in blocks])
    return scipy.sparse.csr_matrix(
        (data, indices, indptr), shape=(total, total)
    )


#: packs of at most this many entries copy a cached index pattern: a
#: server sees few distinct size tuples of one or two small graphs (a
#: pair of 22-node graphs fits), while a training pack of 32 graphs rarely
#: repeats and mostly does not fit.  The cache holds at most 64 patterns
#: of 8 KiB or less, whatever sizes clients send.
_CACHED_PATTERN_NNZ = 1024


@functools.lru_cache(maxsize=64)
def _small_pack_pattern(sizes: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_pack_pattern`, kept for the size tuples seen recently."""
    return _pack_pattern(sizes)


def _pack_pattern(sizes: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """``(indices, indptr)`` of dense blocks of these sizes stacked on the
    diagonal; they depend on the sizes alone.  Block ``g``'s rows each
    hold ``n_g`` entries, in columns ``offsets[g]`` to
    ``offsets[g] + n_g - 1``.  int32 unless the entry count overflows
    it."""
    counts = np.array(sizes, dtype=np.int64)
    squares = counts * counts
    nnz = int(squares.sum())
    index = np.int32 if nnz <= np.iinfo(np.int32).max else np.int64
    counts = counts.astype(index)
    row_len = np.repeat(counts, counts)
    indptr = np.zeros(row_len.shape[0] + 1, dtype=index)
    np.cumsum(row_len, out=indptr[1:])
    # entry p of a row of block g sits in column offsets[g] + (p - row start)
    shift = np.repeat(np.cumsum(counts) - counts, counts) - indptr[:-1]
    indices = np.arange(nnz, dtype=index) + np.repeat(shift, row_len)
    return indices, indptr


def pad_segments(
    x: Tensor, num_segments: int, length: int, target: int
) -> Tensor:
    """Zero-pad each contiguous length-``length`` segment to ``target`` rows.

    ``x`` is ``(num_segments * length, channels)``; the result is
    ``(num_segments * target, channels)`` with segment ``g``'s rows at
    ``[g*target, g*target + length)`` and zeros after.  The DGCNN uses it
    when SortPooling's ``k`` leaves fewer pooled rows than the second 1-D
    convolution's kernel.
    """
    x = as_tensor(x)
    if x.shape[0] != num_segments * length:
        raise ModelError(
            f"pad_segments expected {num_segments * length} rows, "
            f"got {x.shape[0]}"
        )
    if length > target:
        raise ModelError(f"cannot pad segments of {length} rows to {target}")
    if length == target:
        return x
    channels = x.shape[1]
    zero_row = num_segments * length
    indices = np.full(num_segments * target, zero_row, dtype=np.int64)
    for g in range(num_segments):
        indices[g * target : g * target + length] = np.arange(
            g * length, (g + 1) * length
        )
    extended = concat([x, Tensor(np.zeros((1, channels)))], axis=0)
    return extended.take_rows(indices)
