"""Bit-exact oracles for the sort-pool and sparse-product kernels.

* ``segment_sort_pool`` (forward into a buffer, forward without one, and
  the residual forward of training) against the per-graph loop it
  replaced, kept here as the oracle: per segment, a stable descending
  argsort of the last channel, truncated to ``k`` and padded with the
  sentinel row.  Hypothesis draws 1-40 segments of 1-20 rows, ``k`` up to
  past the largest segment, and last-channel values from a small set so
  ties (signed zeros included) are common.
* ``adj_matmul`` through scipy's compiled kernel against ``matrix @ h``,
  and its VJP against ``matrix.T @ g``, byte for byte: explicit zeros,
  one-node graphs, a non-contiguous ``h``, one-column and 1-D ``h``, both
  float widths.
"""

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given
from hypothesis import strategies as st

from repro.nn.batching import block_diagonal_adjacency
from repro.nn import primitives
from repro.nn.primitives import PRIMITIVES
from repro.nn.quantize import symmetric_scale


def bits(a):
    a = np.ascontiguousarray(a)
    return a.view(np.uint64 if a.dtype == np.float64 else np.uint32)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(bits(got), bits(want))


# -- sort pool ---------------------------------------------------------------


def oracle_sort_pool_indices(x, sizes, k):
    """The per-graph loop: stable descending order of the last channel
    within each segment, first ``k`` rows, sentinel ``total`` after."""
    sizes = np.asarray(sizes, dtype=np.int64)
    total = int(x.shape[0])
    num = int(sizes.shape[0])
    seg_ids = np.repeat(np.arange(num), sizes)
    order = np.lexsort((-x[:, -1], seg_ids))
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    indices = np.full(num * k, total, dtype=np.int64)
    for g in range(num):
        take = min(int(sizes[g]), k)
        indices[g * k : g * k + take] = order[offsets[g] : offsets[g] + take]
    return indices


def oracle_sort_pool(x, sizes, k):
    indices = oracle_sort_pool_indices(x, sizes, k)
    padded = indices == x.shape[0]
    pooled = x[np.where(padded, 0, indices)]
    pooled[padded] = 0.0
    return pooled, indices


TIE_VALUES = (-1.5, -0.0, 0.0, 0.25, 2.0)


@st.composite
def sort_pool_cases(draw):
    sizes = draw(st.lists(st.integers(1, 20), min_size=1, max_size=40))
    k = draw(st.integers(1, 24))
    channels = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**31 - 1))
    ties = draw(st.booleans())
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(sum(sizes), channels))
    if ties:
        x[:, -1] = rng.choice(TIE_VALUES, size=x.shape[0])
    return x, np.array(sizes, dtype=np.int64), k


@given(sort_pool_cases())
def test_sort_pool_matches_per_graph_loop(case):
    x, sizes, k = case
    want, want_indices = oracle_sort_pool(x, sizes, k)
    prim = PRIMITIVES["segment_sort_pool"]
    attrs = {"k": k}
    # training path: forward with residual indices
    pooled, indices = prim.forward_res((x, sizes), attrs)
    assert indices.dtype == np.int64
    assert np.array_equal(indices, want_indices)
    assert_same_bits(pooled, want)
    # inference path: without and into a (dirty) buffer
    assert_same_bits(prim.forward((x, sizes), attrs), want)
    buffer = np.full(want.shape, np.nan)
    result = prim.forward((x, sizes), attrs, buffer)
    assert result is buffer
    assert_same_bits(buffer, want)
    # sizes as a list, as the models pass them
    assert_same_bits(prim.forward((x, list(sizes)), attrs), want)


def test_sort_pool_layout_is_not_shared_state():
    """Two calls with one size tuple share the cached layout; neither
    result may alias it or the other."""
    rng = np.random.default_rng(0)
    sizes = np.array([3, 1, 4])
    prim = PRIMITIVES["segment_sort_pool"]
    x = rng.normal(size=(8, 2))
    first, first_idx = prim.forward_res((x, sizes), {"k": 5})
    first_idx[:] = -7
    second, second_idx = prim.forward_res((x, sizes), {"k": 5})
    want, want_idx = oracle_sort_pool(x, sizes, 5)
    assert np.array_equal(second_idx, want_idx)
    assert_same_bits(second, want)


def test_quantized_sort_pool_equals_oracle_then_snap():
    rng = np.random.default_rng(1)
    sizes = np.array([5, 2, 7])
    x = rng.normal(size=(14, 3)).astype(np.float32)
    x[:, -1] = rng.choice(np.float32(TIE_VALUES), size=14)
    want, _ = oracle_sort_pool(x, sizes, 4)
    scale = want.dtype.type(symmetric_scale(want))
    want /= scale
    np.rint(want, out=want)
    want *= scale
    got = PRIMITIVES["qsegment_sort_pool"].forward(
        (x, sizes), {"k": 4, "act_scale": None}
    )
    assert_same_bits(got, want)


# -- CSR product -------------------------------------------------------------


def _blocks(rng, sizes):
    """Dense 0/1 blocks: most cells explicit zeros in the CSR pack."""
    return [(rng.random((n, n)) < 0.3).astype(float) for n in sizes]


SIZE_CASES = [(1,), (1, 1, 1), (4,), (2, 5, 1, 3), tuple(range(1, 12))]


def _matrix(rng, sizes, dtype, normalize=True):
    matrix = block_diagonal_adjacency(_blocks(rng, sizes), normalize=normalize)
    return matrix.astype(dtype) if dtype != np.float64 else matrix


def _operands(rng, rows, dtype):
    wide = rng.normal(size=(rows, 5)).astype(dtype)
    return {
        "columns": rng.normal(size=(rows, 3)).astype(dtype),
        "one column": rng.normal(size=(rows, 1)).astype(dtype),
        "vector": rng.normal(size=rows).astype(dtype),
        "column slice": wide[:, 1:4],
        "fortran": np.asfortranarray(rng.normal(size=(rows, 4)).astype(dtype)),
        "transposed": rng.normal(size=(4, rows)).astype(dtype).T,
    }


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("sizes", SIZE_CASES)
def test_adj_matmul_equals_scipy_product(sizes, dtype):
    rng = np.random.default_rng(len(sizes))
    matrix = _matrix(rng, sizes, dtype)
    assert (matrix.data == 0).any() or sum(sizes) == len(sizes)
    fwd = PRIMITIVES["adj_matmul"].fwd
    for name, h in _operands(rng, matrix.shape[0], dtype).items():
        want = np.asarray(matrix @ h)
        assert primitives._csr_product(matrix, h) is not None, name
        assert_same_bits(fwd((matrix, h), {}, None), want)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("sizes", SIZE_CASES)
def test_adj_matmul_vjp_equals_scipy_transpose_product(sizes, dtype):
    rng = np.random.default_rng(10 + len(sizes))
    matrix = _matrix(rng, sizes, dtype, normalize=False)
    vjp = PRIMITIVES["adj_matmul"].vjp
    for name, g in _operands(rng, matrix.shape[0], dtype).items():
        assert primitives._csr_product(matrix, g, transpose=True) is not None, name
        h = np.zeros_like(g)
        none, got = vjp(g, (matrix, h), None, None, {}, (False, True))
        assert none is None
        assert_same_bits(got, np.asarray(matrix.T @ g))


def test_other_operands_take_scipy_route():
    """Mixed widths and non-CSR formats keep scipy's own product."""
    rng = np.random.default_rng(5)
    matrix = _matrix(rng, (3, 2), np.float64)
    fwd = PRIMITIVES["adj_matmul"].fwd
    h32 = rng.normal(size=(5, 2)).astype(np.float32)
    assert_same_bits(fwd((matrix, h32), {}, None), np.asarray(matrix @ h32))
    csc = matrix.tocsc()
    h = rng.normal(size=(5, 2))
    assert_same_bits(fwd((csc, h), {}, None), np.asarray(csc @ h))
    coo = scipy.sparse.coo_matrix(matrix)
    assert_same_bits(fwd((coo, h), {}, None), np.asarray(coo @ h))


def test_quantized_adj_matmul_equals_scipy_product():
    rng = np.random.default_rng(6)
    matrix = _matrix(rng, (4, 1, 3), np.float32)
    h = rng.normal(size=(8, 3)).astype(np.float32)
    attrs = {"act_scale": 0.05}
    got = PRIMITIVES["qadj_matmul"].fwd((matrix, h), attrs, None)
    snapped = np.clip(np.rint(h / np.float32(0.05)), -127, 127) * np.float32(0.05)
    assert_same_bits(got, np.asarray(matrix @ snapped.astype(np.float32)))
