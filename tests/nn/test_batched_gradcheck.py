"""Property-based finite-difference gradcheck of the batched graph ops.

The batched training path leans on four segment-aware ops: SortPooling
(the ``segment_sort_pool`` primitive), Conv1D and MaxPool1D (composed of
``gather``, ``reshape``, ``index`` and ``max``), and the sparse
block-diagonal ``sparse_matmul`` (``adj_matmul``).  Their VJPs are the
registered ones in :mod:`repro.nn.primitives`, which eager autograd and the
tape backward share.  Each test draws random ragged shapes
with :mod:`hypothesis`, builds a scalar loss ``sum(W * op(x))`` with a
fixed random projection ``W``, and compares the autograd gradient against
a central finite difference.

Two generation details keep the checks numerically honest:

* SortPooling/MaxPool inputs are built from a scaled permutation of
  ``arange`` plus small noise, so every pairwise value gap is orders of
  magnitude above the FD step — a +/-eps nudge can never flip a sort order
  or a max winner, where the true derivative is discontinuous.
* The Conv1D check runs with ``activation=None``; the ReLU kink at zero
  is a measure-zero set where FD is meaningless, and the affine part is
  what ``segment_call`` reimplements.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.nn.batching import block_diagonal_adjacency
from repro.nn.layers import Conv1D, MaxPool1D, SortPooling
from repro.nn.tensor import Tensor, sparse_matmul

EPS = 1e-6
TOL = dict(rtol=1e-4, atol=1e-6)


def _separated(rng, shape, gap=0.25):
    """Random values whose pairwise gaps all exceed ``gap`` >> EPS."""
    total = int(np.prod(shape))
    base = rng.permutation(total).astype(float) * gap
    return (base + rng.normal(size=total) * (gap / 20)).reshape(shape)


def _fd_grad(forward, x_data, eps=EPS):
    """Central finite-difference gradient of scalar ``forward()`` wrt x."""
    grad = np.zeros_like(x_data)
    flat, gflat = x_data.ravel(), grad.ravel()
    for pos in range(flat.size):
        orig = flat[pos]
        flat[pos] = orig + eps
        up = forward()
        flat[pos] = orig - eps
        down = forward()
        flat[pos] = orig
        gflat[pos] = (up - down) / (2 * eps)
    return grad


def _check(op, x_data, rng):
    """Autograd grad of sum(W * op(x)) must match finite differences."""
    probe = op(Tensor(x_data, requires_grad=False))
    weights = rng.normal(size=probe.data.shape)

    x = Tensor(x_data.copy(), requires_grad=True)
    (op(x) * Tensor(weights)).sum().backward()

    expected = _fd_grad(
        lambda: float((op(Tensor(x_data)).data * weights).sum()), x_data
    )
    np.testing.assert_allclose(x.grad, expected, **TOL)


@given(
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
    k=st.integers(1, 5),
    channels=st.integers(2, 4),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=25, deadline=None)
def test_segment_sortpooling_gradcheck(sizes, k, channels, seed):
    rng = np.random.default_rng(seed)
    layer = SortPooling(k)
    x_data = _separated(rng, (sum(sizes), channels))
    _check(lambda x: layer.segment_call(x, sizes), x_data, rng)


@given(
    num_segments=st.integers(1, 3),
    length=st.integers(2, 6),
    kernel=st.integers(1, 3),
    stride=st.integers(1, 2),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=25, deadline=None)
def test_segment_conv1d_gradcheck(num_segments, length, kernel, stride, seed):
    kernel = min(kernel, length)
    rng = np.random.default_rng(seed)
    layer = Conv1D(3, 2, kernel, stride=stride, activation=None, rng=rng)
    x_data = rng.normal(size=(num_segments * length, 3))
    _check(lambda x: layer.segment_call(x, num_segments, length), x_data, rng)

    # the weight and bias VJPs of the packed patch-matmul, same loss shape
    probe = layer.segment_call(Tensor(x_data, requires_grad=False),
                               num_segments, length)
    weights = rng.normal(size=probe.data.shape)

    def scalar():
        out = layer.segment_call(Tensor(x_data), num_segments, length)
        return float((out.data * weights).sum())

    layer.zero_grad()
    (layer.segment_call(Tensor(x_data), num_segments, length)
     * Tensor(weights)).sum().backward()
    for param in (layer.weight, layer.bias):
        expected = _fd_grad(scalar, param.data)
        np.testing.assert_allclose(param.grad, expected, **TOL)


@given(
    num_segments=st.integers(1, 3),
    length=st.integers(1, 8),
    pool=st.integers(1, 3),
    channels=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=25, deadline=None)
def test_segment_maxpool1d_gradcheck(num_segments, length, pool, channels,
                                     seed):
    rng = np.random.default_rng(seed)
    layer = MaxPool1D(pool)
    x_data = _separated(rng, (num_segments * length, channels))
    _check(lambda x: layer.segment_call(x, num_segments, length), x_data, rng)


@given(
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    features=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=25, deadline=None)
def test_sparse_block_diagonal_matmul_gradcheck(sizes, features, seed):
    rng = np.random.default_rng(seed)
    blocks = []
    for n in sizes:
        adj = (rng.random((n, n)) < 0.5).astype(float)
        np.fill_diagonal(adj, 0.0)
        blocks.append(adj)
    sparse = block_diagonal_adjacency(blocks, normalize=True)
    x_data = rng.normal(size=(sum(sizes), features))

    _check(lambda x: sparse_matmul(sparse, x), x_data, rng)

    # the sparse VJP must also equal the dense matmul's gradient exactly
    weights = rng.normal(size=x_data.shape)
    x_sparse = Tensor(x_data.copy(), requires_grad=True)
    (sparse_matmul(sparse, x_sparse) * Tensor(weights)).sum().backward()
    x_dense = Tensor(x_data.copy(), requires_grad=True)
    (Tensor(sparse.toarray()) @ x_dense * Tensor(weights)).sum().backward()
    np.testing.assert_allclose(x_sparse.grad, x_dense.grad,
                               rtol=1e-12, atol=1e-12)
