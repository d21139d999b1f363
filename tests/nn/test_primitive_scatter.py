"""Bit-exact oracles for the training step's scatter VJPs, CSR pack and Adam.

Each fast form is compared with an independent reference on the raw bits
(``np.array_equal`` over the ``uint64`` view), never with a tolerance:

* the ``gather`` VJP against ``np.add.at`` into zeros, with duplicate
  indices and ``-0.0`` / ``inf`` / ``NaN`` gradients (where two NaNs meet
  in one cell, only NaN-ness is compared: see
  ``test_nan_where_add_at_gives_nan``);
* the ``segment_sort_pool`` VJP against ``np.add.at`` over its live rows
  (one pick per row, so NaNs compare on the bits too);
* the sparse ``adj_matmul`` VJP against the explicit CSR transpose, and
  against a dense ``A.T @ g`` on dyadic values (where every sum is exact,
  so the dense BLAS order cannot round differently);
* ``block_diagonal_adjacency`` against ``scipy.sparse.block_diag``,
  single graphs, 1-node graphs and repeated size tuples included;
* ``Adam`` against the textbook per-parameter update.
"""

import numpy as np
import pytest
import scipy.sparse

from repro.nn import batching
from repro.nn.batching import block_diagonal_adjacency
from repro.nn.layers import Parameter, normalized_adjacency
from repro.nn.optim import Adam
from repro.nn.primitives import PRIMITIVES

SEEDS = range(8)
NAN_FREE_SPECIALS = np.array([-0.0, 0.0, np.inf, -np.inf])


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(bits(got), bits(want))


def _with_specials(rng, shape, specials, share=0.35):
    """Normal draws with about ``share`` of them replaced by ``specials``."""
    g = rng.normal(size=shape)
    mask = rng.random(shape) < share
    g[mask] = rng.choice(specials, size=int(mask.sum()))
    return g


def _vjp(name, g, ins, out=None, res=None, attrs=None, needed=None):
    needed = needed if needed is not None else (True,) * len(ins)
    return PRIMITIVES[name].vjp(g, ins, out, res, attrs or {}, needed)


def _gather_case(seed, cols):
    """(x, indices) with few rows and many picks: most rows repeat."""
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 12))
    indices = rng.integers(0, rows, size=int(rng.integers(1, 40)))
    return rng, rng.normal(size=(rows, cols)), indices


def _gather_both(x, indices, g):
    (got,) = _vjp("gather", g, (x,), attrs={"indices": indices})
    want = np.zeros_like(x)
    with np.errstate(invalid="ignore"):
        np.add.at(want, indices, g)
    return got, want


class TestGatherVJP:
    @pytest.mark.parametrize("cols", [1, 5])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_add_at_with_signed_zeros_and_infs(self, seed, cols):
        rng, x, indices = _gather_case(seed, cols)
        g = _with_specials(rng, (indices.size, cols), NAN_FREE_SPECIALS)
        assert_same_bits(*_gather_both(x, indices, g))

    @pytest.mark.parametrize("cols", [1, 5])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_add_at_with_one_nan_per_cell(self, seed, cols):
        rng, x, indices = _gather_case(seed, cols)
        g = rng.normal(size=(indices.size, cols))
        # a NaN with a payload of its own, in one pick of every row
        nan = np.array([0x7FF8_0000_0000_1234], dtype=np.uint64).view(np.float64)
        first = np.unique(indices, return_index=True)[1]
        g[first, rng.integers(0, cols, size=first.size)] = nan[0]
        assert_same_bits(*_gather_both(x, indices, g))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_nan_where_add_at_gives_nan(self, seed):
        """When two NaNs meet in one cell (two NaN picks, or a NaN from
        ``inf + -inf`` plus another), which of them the sum carries depends
        on the compiled operand order, not on the arithmetic; every other
        cell still matches bit for bit."""
        rng, x, indices = _gather_case(seed, 3)
        g = _with_specials(rng, (indices.size, 3),
                           np.append(NAN_FREE_SPECIALS, np.nan))
        got, want = _gather_both(x, indices, g)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(bits(got)[~nan], bits(want)[~nan])

    def test_negative_zero_sums_like_add_at(self):
        x = np.zeros((3, 1))
        indices = np.array([0, 0, 2])
        got, want = _gather_both(x, indices, np.full((3, 1), -0.0))
        assert_same_bits(got, want)
        assert not np.signbit(got).any()  # 0.0 + -0.0 is +0.0

    def test_unpicked_rows_get_zero(self):
        got, _ = _gather_both(np.ones((4, 2)), np.array([2]), np.ones((1, 2)))
        assert_same_bits(got, np.array([[0.0, 0.0]] * 2 + [[1.0, 1.0]]
                                       + [[0.0, 0.0]]))

    def test_not_needed_returns_none(self):
        assert _vjp("gather", np.ones((1, 2)), (np.ones((2, 2)),),
                    attrs={"indices": np.array([0])},
                    needed=(False,)) == (None,)


class TestSortPoolVJP:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_add_at_over_live_rows(self, seed):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 9, size=int(rng.integers(1, 6)))
        k = int(rng.integers(1, 7))
        x = rng.normal(size=(int(sizes.sum()), 4))
        prim = PRIMITIVES["segment_sort_pool"]
        attrs = {"k": k}
        out, indices = prim.forward_res((x, sizes), attrs)
        live = indices < x.shape[0]
        assert np.unique(indices[live]).size == int(live.sum())  # distinct
        g = _with_specials(rng, out.shape,
                           np.append(NAN_FREE_SPECIALS, np.nan))
        got, sizes_grad = _vjp("segment_sort_pool", g, (x, sizes), out,
                               indices, attrs, (True, False))
        assert sizes_grad is None
        want = np.zeros_like(x)
        with np.errstate(invalid="ignore"):
            np.add.at(want, indices[live], g[live])
        assert_same_bits(got, want)


def _random_blocks(rng, count, max_nodes=9, dyadic=False):
    blocks = []
    for _ in range(count):
        n = int(rng.integers(1, max_nodes + 1))
        if dyadic:
            block = rng.integers(-4, 5, size=(n, n)) / 8.0
        else:
            block = (rng.random((n, n)) < 0.4).astype(float)
        blocks.append(block)
    return blocks


class TestAdjacencyVJP:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_explicit_csr_transpose(self, seed):
        rng = np.random.default_rng(seed)
        matrix = block_diagonal_adjacency(
            _random_blocks(rng, int(rng.integers(1, 6)))
        )
        h = rng.normal(size=(matrix.shape[0], 3))
        g = rng.normal(size=(matrix.shape[0], 3))
        got_matrix, got = _vjp("adj_matmul", g, (matrix, h), needed=(False, True))
        assert got_matrix is None
        assert_same_bits(got, np.asarray(matrix.T.tocsr() @ g))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_dense_transpose_on_exact_values(self, seed):
        rng = np.random.default_rng(seed)
        matrix = block_diagonal_adjacency(
            _random_blocks(rng, int(rng.integers(1, 6)), dyadic=True),
            normalize=False,
        )
        h = np.zeros((matrix.shape[0], 4))
        g = rng.integers(-8, 9, size=h.shape) / 4.0
        _, got = _vjp("adj_matmul", g, (matrix, h), needed=(False, True))
        assert_same_bits(got, matrix.toarray().T @ g)

    def test_dense_matrix_branch(self):
        rng = np.random.default_rng(0)
        dense = normalized_adjacency((rng.random((5, 5)) < 0.5).astype(float))
        g = rng.normal(size=(5, 2))
        _, got = _vjp("adj_matmul", g, (dense, np.zeros((5, 2))),
                      needed=(False, True))
        assert_same_bits(got, dense.T @ g)


class TestBlockDiagonalPack:
    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_arrays_equal_scipy_block_diag(self, seed, normalize):
        rng = np.random.default_rng(seed)
        count = 1 if seed == 0 else int(rng.integers(1, 33))
        blocks = _random_blocks(rng, count, max_nodes=14)
        if seed == 1:
            blocks = [np.zeros((1, 1))] * 3 + blocks   # 1-node graphs
        got = block_diagonal_adjacency(blocks, normalize=normalize)
        want = scipy.sparse.block_diag(
            [normalized_adjacency(b) if normalize else b for b in blocks],
            format="csr",
        )
        assert type(got) is type(want)
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            mine, theirs = getattr(got, name), getattr(want, name)
            assert mine.dtype == theirs.dtype, name
            assert np.array_equal(mine, theirs), name
        assert_same_bits(got.data, want.data)

    def test_single_one_node_graph(self):
        got = block_diagonal_adjacency([np.zeros((1, 1))])
        want = scipy.sparse.block_diag(
            [normalized_adjacency(np.zeros((1, 1)))], format="csr"
        )
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert got.indices.dtype == want.indices.dtype == np.int32

    @pytest.mark.parametrize("sizes", [
        (1,), (7,), (1, 1, 1, 1), (1, 5, 1), (3, 3, 3), (22, 22), (23, 23),
    ])
    def test_single_graphs_and_one_node_graphs(self, sizes):
        rng = np.random.default_rng(len(sizes))
        blocks = _random_blocks(rng, 0) + [
            (rng.random((n, n)) < 0.4).astype(float) for n in sizes
        ]
        want = scipy.sparse.block_diag(blocks, format="csr")
        for _ in range(2):   # the second pack reuses the cached pattern
            got = block_diagonal_adjacency(blocks, normalize=False)
            for name in ("indptr", "indices", "data"):
                mine, theirs = getattr(got, name), getattr(want, name)
                assert mine.dtype == theirs.dtype, name
                assert np.array_equal(mine, theirs), name
            assert got.indices.dtype == got.indptr.dtype == np.int32
            # every pack owns its arrays: writing one leaves the next intact
            got.indices[:] = -1
            got.indptr[:] = -1

    def test_only_small_packs_touch_the_pattern_cache(self):
        """A pack past the entry bound builds its pattern and keeps none,
        so clients sending large graphs cannot grow the cache."""
        cache = batching._small_pack_pattern
        for sizes, calls in (((23, 23), 0), ((22, 22), 1), ((64,), 0)):
            before = cache.cache_info()
            block_diagonal_adjacency([np.ones((n, n)) for n in sizes])
            after = cache.cache_info()
            assert (after.hits + after.misses) - (before.hits + before.misses) \
                == calls, sizes


def _textbook_adam(initial, grad_steps, lr, b1, b2, eps, clip):
    """Per-parameter Adam, written out as the textbook formula."""
    data = [np.array(d, copy=True) for d in initial]
    m = [np.zeros_like(d) for d in data]
    v = [np.zeros_like(d) for d in data]
    for t, grads in enumerate(grad_steps, start=1):
        for i, g in enumerate(grads):
            if g is None:
                continue
            if clip is not None:
                g = np.clip(g, -clip, clip)
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * g * g
            m_hat = m[i] / (1.0 - b1**t)
            v_hat = v[i] / (1.0 - b2**t)
            data[i] = data[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return data


class TestAdamOracle:
    SHAPES = [(7, 3), (4,), (), (20, 11), (1, 1), (5, 2)]
    NEVER = 3        # this parameter never receives a gradient
    SOMETIMES = 4    # this one only on every third step

    def _grad_steps(self, rng, steps):
        out = []
        for t in range(steps):
            grads = []
            for i, shape in enumerate(self.SHAPES):
                if i == self.NEVER or (i == self.SOMETIMES and t % 3):
                    grads.append(None)
                else:
                    grads.append(rng.normal(size=shape) * rng.choice([0.01, 3.0]))
            out.append(grads)
        return out

    @pytest.mark.parametrize("clip", [None, 0.5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_textbook_over_50_steps(self, seed, clip):
        rng = np.random.default_rng(seed)
        initial = [rng.normal(size=shape) for shape in self.SHAPES]
        grad_steps = self._grad_steps(rng, 50)
        hyper = dict(lr=3e-3, b1=0.9, b2=0.999, eps=1e-8, clip=clip)
        params = [Parameter(np.array(d, copy=True)) for d in initial]
        opt = Adam(params, lr=hyper["lr"], beta1=hyper["b1"],
                   beta2=hyper["b2"], eps=hyper["eps"], clip=clip)
        for grads in grad_steps:
            for param, g in zip(params, grads):
                param.grad = None if g is None else g.copy()
            opt.step()
        want = _textbook_adam(initial, grad_steps, **hyper)
        for param, expected in zip(params, want):
            assert_same_bits(param.data, expected)
        assert_same_bits(params[self.NEVER].data, initial[self.NEVER])

    def test_step_leaves_grads_untouched(self):
        param = Parameter(np.zeros(3))
        grad = np.array([10.0, -10.0, 0.1])
        param.grad = grad
        Adam([param], lr=0.1, clip=1.0).step()
        assert param.grad is grad
        assert_same_bits(grad, np.array([10.0, -10.0, 0.1]))
