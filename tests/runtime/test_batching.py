"""Segment-aware nn ops: packed results must equal per-graph results,
computed here by numpy references written independently of the layers."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.nn.batching import (
    block_diagonal_adjacency,
    pad_segments,
    segment_offsets,
)
from repro.nn.layers import Conv1D, MaxPool1D, SortPooling, normalized_adjacency
from repro.nn.tensor import Tensor, is_sparse_matrix, sparse_matmul


def _sortpool_reference(h, k):
    """Stable descending argsort on the last channel, top k, zero pad."""
    order = np.argsort(-h[:, -1], kind="stable")[:k]
    out = np.zeros((k, h.shape[1]))
    out[: len(order)] = h[order]
    return out


def _conv1d_reference(conv, x):
    """Explicit patch loop: output row i reads rows [i*stride, +kernel)."""
    rows = []
    for start in range(0, x.shape[0] - conv.kernel_size + 1, conv.stride):
        patch = x[start : start + conv.kernel_size].reshape(-1)
        rows.append(np.maximum(patch @ conv.weight.data + conv.bias.data, 0.0))
    return np.stack(rows)


def _maxpool_reference(x, pool_size):
    """Reshape-max over whole windows; a shorter tail is dropped."""
    n_out = x.shape[0] // pool_size
    windows = x[: n_out * pool_size].reshape(n_out, pool_size, x.shape[1])
    return windows.max(axis=1)


def _random_adjacency(rng, n):
    adj = (rng.random((n, n)) < 0.4).astype(float)
    adj = np.maximum(adj, adj.T)
    np.fill_diagonal(adj, 0.0)
    return adj


class TestBlockDiagonal:
    def test_blocks_equal_per_graph_normalization(self, rng):
        adjs = [_random_adjacency(rng, n) for n in (1, 4, 7)]
        packed = block_diagonal_adjacency(adjs)
        dense = np.asarray(packed.todense()) if is_sparse_matrix(packed) else packed
        offsets = segment_offsets([a.shape[0] for a in adjs])
        for g, adj in enumerate(adjs):
            lo, hi = offsets[g], offsets[g + 1]
            np.testing.assert_allclose(
                dense[lo:hi, lo:hi], normalized_adjacency(adj)
            )
        # off-diagonal blocks are exactly zero: graphs never interact
        dense[offsets[0]:offsets[1], offsets[0]:offsets[1]] = 0.0
        dense[offsets[1]:offsets[2], offsets[1]:offsets[2]] = 0.0
        dense[offsets[2]:offsets[3], offsets[2]:offsets[3]] = 0.0
        assert np.abs(dense).sum() == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            block_diagonal_adjacency([])

    def test_non_square_rejected(self, rng):
        with pytest.raises(ModelError):
            block_diagonal_adjacency([np.zeros((2, 3))])


class TestSparseMatmul:
    def test_matches_dense_and_backward(self, rng):
        scipy_sparse = pytest.importorskip("scipy.sparse")
        dense = rng.normal(size=(5, 5)) * (rng.random((5, 5)) < 0.5)
        matrix = scipy_sparse.csr_matrix(dense)
        h = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        out = sparse_matmul(matrix, h)
        np.testing.assert_allclose(out.data, dense @ h.data)
        out.sum().backward()
        expected = dense.T @ np.ones((5, 3))
        np.testing.assert_allclose(h.grad, expected)


class TestSegmentOps:
    def test_sortpool_segment_matches_per_graph(self, rng):
        pool = SortPooling(4)
        sizes = [1, 6, 3, 9]
        parts = [rng.normal(size=(n, 5)) for n in sizes]
        packed = pool.segment_call(Tensor(np.concatenate(parts)), sizes)
        singles = [_sortpool_reference(p, 4) for p in parts]
        np.testing.assert_array_equal(packed.data, np.concatenate(singles))

    def test_sortpool_segment_size_mismatch_rejected(self, rng):
        with pytest.raises(ModelError):
            SortPooling(3).segment_call(Tensor(rng.normal(size=(5, 2))), [2, 2])

    def test_conv1d_segment_matches_per_graph(self, rng):
        conv = Conv1D(3, 4, kernel_size=2, stride=2, rng=0)
        parts = [rng.normal(size=(8, 3)) for _ in range(3)]
        packed = conv.segment_call(Tensor(np.concatenate(parts)), 3, 8)
        singles = [_conv1d_reference(conv, p) for p in parts]
        np.testing.assert_allclose(packed.data, np.concatenate(singles))

    def test_maxpool_segment_matches_per_graph(self, rng):
        pool = MaxPool1D(2)
        parts = [rng.normal(size=(7, 3)) for _ in range(4)]  # odd: trims tail
        packed = pool.segment_call(Tensor(np.concatenate(parts)), 4, 7)
        singles = [_maxpool_reference(p, 2) for p in parts]
        np.testing.assert_array_equal(packed.data, np.concatenate(singles))

    def test_maxpool_segment_identity_when_too_short(self, rng):
        pool = MaxPool1D(4)
        x = Tensor(rng.normal(size=(6, 2)))
        out = pool.segment_call(x, 2, 3)  # length 3 < pool 4
        np.testing.assert_allclose(out.data, x.data)

    def test_pad_segments(self, rng):
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        out = pad_segments(x, 2, 2, 5)
        assert out.shape == (10, 3)
        np.testing.assert_allclose(out.data[:2], x.data[:2])
        np.testing.assert_allclose(out.data[5:7], x.data[2:])
        assert np.abs(out.data[2:5]).sum() == 0.0
        assert np.abs(out.data[7:]).sum() == 0.0
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((4, 3)))

    def test_pad_segments_cannot_shrink(self, rng):
        with pytest.raises(ModelError):
            pad_segments(Tensor(rng.normal(size=(6, 2))), 2, 3, 2)
