"""Bit-exact oracle for inst2vec's ordered scatter-add and SGD step.

``_ordered_scatter_add`` must leave exactly the bits ``np.add.at`` leaves:
it adds every row's updates into the row's live value one at a time, in
occurrence order.  Each case is compared on the raw ``uint64`` bits, never
with a tolerance:

* d = 1 and d = 200, heavy duplicates, a single row, an empty index array;
* the lockstep: tied group lengths, all groups of one length (no
  accumulated tail), fewer groups than the lockstep cut, and one dominant
  row (~530 of 3,072 picks over 54 rows, the shape of a real ``w_out``
  step) at d = 1, 48 and 193; a planted variant that swaps two updates of
  one row must fail;
* ``±0.0``, ``±inf``, huge and subnormal values;
* one NaN per cell (where two NaNs meet in one cell the surviving payload
  depends on the compiled operand order, so that case is not generated);
* the merged contexts-then-negatives call of the SGD step against two
  sequential ``np.add.at`` calls;
* the whole ``Inst2Vec._sgd_step`` against the step it replaced (three
  ``np.add.at`` scatters on freshly allocated gradients), including the
  generator state afterwards, also across batch shapes that change the
  reused scratch pair; a trained model keeps no scratch.
"""

import pickle

import numpy as np
import pytest

from repro.embeddings import inst2vec as inst2vec_module
from repro.embeddings.inst2vec import (
    Inst2Vec,
    _TAIL_GROUPS,
    _ordered_scatter_add,
)

SEEDS = range(10)
SPECIALS = np.array([-0.0, 0.0, np.inf, -np.inf, 1e308, -1e308, 5e-324,
                     -5e-324, 2.2e-308, -1e-310])
FINITE_SPECIALS = SPECIALS[np.isfinite(SPECIALS)]
# no overflow to inf, so no cell can make a second NaN of its own
SMALL_SPECIALS = FINITE_SPECIALS[np.abs(FINITE_SPECIALS) < 1.0]


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(bits(got), bits(want))


def _with_specials(rng, shape, specials, share=0.3):
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3, size=shape)
    mask = rng.random(shape) < share
    values[mask] = rng.choice(specials, size=int(mask.sum()))
    return values


def _both(weights, indices, updates):
    want = weights.copy()
    with np.errstate(invalid="ignore", over="ignore"):
        np.add.at(want, indices, updates)
        got = weights.copy()
        _ordered_scatter_add(got, indices, updates)
    return got, want


def _case(seed, dim, rows, picks, specials):
    rng = np.random.default_rng(seed)
    weights = _with_specials(rng, (rows, dim), specials)
    # a skewed draw: one row takes most picks, as the unigram table does
    probs = rng.dirichlet(np.full(rows, 0.3))
    indices = rng.choice(rows, size=picks, p=probs)
    updates = _with_specials(rng, (picks, dim), specials)
    return weights, indices, updates


class TestOrderedScatter:
    @pytest.mark.parametrize("dim", [1, 200])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_heavy_duplicates_with_specials(self, seed, dim):
        case = _case(seed, dim, rows=int(seed) + 2, picks=300, specials=SPECIALS)
        assert_same_bits(*_both(*case))

    @pytest.mark.parametrize("dim", [1, 200])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_single_row(self, seed, dim):
        weights, indices, updates = _case(seed, dim, 1, 50, SPECIALS)
        assert np.all(indices == 0)
        assert_same_bits(*_both(weights, indices, updates))

    @pytest.mark.parametrize("dim", [1, 200])
    def test_single_update(self, dim):
        weights, _, updates = _case(0, dim, 5, 1, SPECIALS)
        assert_same_bits(*_both(weights, np.array([3]), updates))

    @pytest.mark.parametrize("dim", [1, 200])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_one_nan_per_cell(self, seed, dim):
        weights, indices, updates = _case(seed, dim, 6, 120, SMALL_SPECIALS)
        rng = np.random.default_rng(100 + seed)
        payloads = np.array([0x7FF8000000000001, 0xFFF8000000000123,
                             0x7FF0000000000042], dtype=np.uint64).view(np.float64)
        for row in np.unique(indices):
            occurrences = np.flatnonzero(indices == row)
            for col in range(dim):
                if rng.random() < 0.5:
                    updates[rng.choice(occurrences), col] = rng.choice(payloads)
                elif rng.random() < 0.2:
                    weights[row, col] = rng.choice(payloads)
        got, want = _both(weights, indices, updates)
        assert np.isnan(want).any()
        assert_same_bits(got, want)

    def test_subnormal_sums_stay_exact(self):
        weights = np.full((2, 3), 5e-324)
        indices = np.array([1, 0, 1, 1, 0])
        updates = np.full((5, 3), -5e-324) * np.arange(1, 6)[:, None]
        assert_same_bits(*_both(weights, indices, updates))

    @pytest.mark.parametrize("dim", [1, 200])
    def test_empty_index_array(self, dim):
        weights = np.random.default_rng(0).normal(size=(4, dim))
        indices = np.zeros(0, dtype=np.int64)
        updates = np.zeros((0, dim))
        got, want = _both(weights, indices, updates)
        assert_same_bits(got, want)
        assert_same_bits(got, weights)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_merged_call_equals_two_sequential_scatters(self, seed):
        rng = np.random.default_rng(seed)
        rows, batch, k, dim = 9, 40, 5, 200
        weights = _with_specials(rng, (rows, dim), SPECIALS)
        contexts = rng.integers(0, rows, size=batch)
        negatives = rng.integers(0, rows, size=batch * k)
        ctx_updates = _with_specials(rng, (batch, dim), SPECIALS)
        neg_updates = _with_specials(rng, (batch * k, dim), SPECIALS)
        want = weights.copy()
        got = weights.copy()
        with np.errstate(invalid="ignore", over="ignore"):
            np.add.at(want, contexts, ctx_updates)
            np.add.at(want, negatives, neg_updates)
            _ordered_scatter_add(
                got,
                np.concatenate((contexts, negatives)),
                np.concatenate((ctx_updates, neg_updates)),
            )
        assert_same_bits(got, want)

    def test_updates_left_untouched(self):
        weights, indices, updates = _case(3, 7, 4, 30, FINITE_SPECIALS)
        before = updates.copy()
        with np.errstate(over="ignore"):
            _ordered_scatter_add(weights, indices, updates)
        assert_same_bits(updates, before)


def _shuffled_groups(seed, counts):
    """Indices in which row ``r`` occurs ``counts[r]`` times, shuffled."""
    rng = np.random.default_rng(seed)
    return rng.permutation(np.repeat(np.arange(len(counts)), counts))


def _step_shape(seed):
    """A real ``w_out`` step: 3,072 picks over 54 rows, one row ~530."""
    rng = np.random.default_rng(seed)
    rest = rng.choice(np.arange(1, 54), size=3072 - 530,
                      p=rng.dirichlet(np.full(53, 1.0)))
    return rng.permutation(np.concatenate((np.zeros(530, np.int64), rest)))


def _scatter_case(seed, dim, indices, specials=SPECIALS):
    rng = np.random.default_rng(seed)
    rows = int(indices.max()) + 1
    weights = _with_specials(rng, (rows, dim), specials)
    updates = _with_specials(rng, (indices.size, dim), specials)
    return weights, indices, updates


class TestLockstep:
    @pytest.mark.parametrize("dim", [1, 48, 193])
    @pytest.mark.parametrize("seed", range(4))
    def test_tied_group_lengths(self, seed, dim):
        # ties at the cut, above it and below it
        counts = [9, 9, 7, 7, 7, 7, 7, 3, 3, 1, 1]
        indices = _shuffled_groups(seed, counts)
        assert_same_bits(*_both(*_scatter_case(seed, dim, indices)))

    @pytest.mark.parametrize("dim", [1, 48, 193])
    @pytest.mark.parametrize("groups", [_TAIL_GROUPS + 1, 12, 54])
    def test_equal_group_lengths_leave_no_tail(self, groups, dim):
        indices = _shuffled_groups(groups, [6] * groups)
        assert_same_bits(*_both(*_scatter_case(groups, dim, indices)))

    @pytest.mark.parametrize("dim", [1, 48, 193])
    @pytest.mark.parametrize("groups", range(1, _TAIL_GROUPS + 2))
    def test_around_the_lockstep_cut(self, groups, dim):
        # up to _TAIL_GROUPS groups every row is an accumulated tail
        counts = [40 - 7 * g for g in range(groups)]
        indices = _shuffled_groups(groups, counts)
        assert_same_bits(*_both(*_scatter_case(groups, dim, indices)))

    @pytest.mark.parametrize("dim", [1, 48, 193])
    @pytest.mark.parametrize("seed", range(3))
    def test_dominant_row_step_shape(self, seed, dim):
        indices = _step_shape(seed)
        assert np.bincount(indices).max() == 530
        assert_same_bits(*_both(*_scatter_case(seed, dim, indices)))

    def test_swapped_updates_fail_the_oracle(self, monkeypatch):
        """A lockstep that adds two updates of one row in swapped order
        rounds differently, and the raw-bit comparison sees it."""
        weights, indices, updates = _scatter_case(
            0, 193, _step_shape(0), SMALL_SPECIALS
        )
        assert_same_bits(*_both(weights, indices, updates))

        class SwappingNumpy:
            """numpy, except the first stable sort swaps the first two
            updates of the dominant row."""

            def __init__(self):
                self.sorts = 0

            def __getattr__(self, name):
                return getattr(np, name)

            def argsort(self, a, **kwargs):
                order = np.argsort(a, **kwargs)
                self.sorts += 1
                if self.sorts == 1:
                    first, second = np.flatnonzero(a[order] == 0)[:2]
                    order[[first, second]] = order[[second, first]]
                return order

        monkeypatch.setattr(inst2vec_module, "np", SwappingNumpy())
        got, want = _both(weights, indices, updates)
        assert not np.array_equal(bits(got), bits(want))
        # only the dominant row moves
        assert np.array_equal(bits(got[1:]), bits(want[1:]))


def _reference_sgd_step(model, centers, contexts, negatives, lr, probs, rng):
    """The update before the ordered scatter: fresh gradient arrays and
    three ``np.add.at`` scatters."""
    w_in, w_out = model.w_in, model.w_out
    batch = centers.size
    neg = rng.choice(probs.size, size=(batch, negatives), p=probs)
    v = w_in[centers]
    u_pos = w_out[contexts]
    u_neg = w_out[neg]
    pos_dot = np.clip(np.einsum("bd,bd->b", v, u_pos), -30.0, 30.0)
    neg_dot = np.clip(np.einsum("bd,bkd->bk", v, u_neg), -30.0, 30.0)
    pos_score = 1.0 / (1.0 + np.exp(-pos_dot))
    neg_score = 1.0 / (1.0 + np.exp(-neg_dot))
    g_pos = (pos_score - 1.0)[:, None]
    g_neg = neg_score[:, :, None]
    grad_v = g_pos * u_pos + np.einsum("bk,bkd->bd", neg_score, u_neg)
    grad_u_pos = g_pos * v
    grad_u_neg = g_neg * v[:, None, :]
    clip = 1.0
    np.add.at(w_in, centers, -lr * np.clip(grad_v, -clip, clip))
    np.add.at(w_out, contexts, -lr * np.clip(grad_u_pos, -clip, clip))
    np.add.at(
        w_out,
        neg.reshape(-1),
        -lr * np.clip(grad_u_neg.reshape(-1, model.dim), -clip, clip),
    )


def _model(seed, vocab, dim):
    rng = np.random.default_rng(seed)
    model = Inst2Vec(dim=dim)
    model.w_in = rng.normal(0.0, 0.5, size=(vocab, dim))
    model.w_out = rng.normal(0.0, 0.5, size=(vocab, dim))
    return model


class TestSgdStep:
    @pytest.mark.parametrize("batch,negatives,dim", [
        (512, 5, 48), (37, 3, 200), (1, 1, 1), (64, 2, 3),
    ])
    @pytest.mark.parametrize("seed", range(4))
    def test_step_equals_reference(self, seed, batch, negatives, dim):
        vocab = 11
        rng = np.random.default_rng(seed)
        centers = rng.integers(0, vocab, size=batch)
        contexts = rng.integers(0, vocab, size=batch)
        probs = rng.dirichlet(np.full(vocab, 0.5))
        got, want = _model(seed, vocab, dim), _model(seed, vocab, dim)
        got_rng = np.random.default_rng(seed + 50)
        want_rng = np.random.default_rng(seed + 50)
        for lr in (0.05, 0.0055, 4.0):  # 4.0 makes the clip bite
            got._sgd_step(centers, contexts, negatives, lr, probs, got_rng)
            _reference_sgd_step(want, centers, contexts, negatives, lr,
                                probs, want_rng)
        assert_same_bits(got.w_in, want.w_in)
        assert_same_bits(got.w_out, want.w_out)
        assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("dim", [48, 193])
    def test_scratch_follows_the_batch_shape(self, dim):
        """Full, short, full: a scratch pair left from another batch shape
        must never leak into a step."""
        vocab, negatives = 54, 5
        rng = np.random.default_rng(dim)
        probs = rng.dirichlet(np.full(vocab, 0.3))
        got, want = _model(dim, vocab, dim), _model(dim, vocab, dim)
        got_rng = np.random.default_rng(7)
        want_rng = np.random.default_rng(7)
        for batch in (512, 37, 512, 512, 1):
            centers = rng.integers(0, vocab, size=batch)
            contexts = rng.integers(0, vocab, size=batch)
            got._sgd_step(centers, contexts, negatives, 0.05, probs, got_rng)
            _reference_sgd_step(want, centers, contexts, negatives, 0.05,
                                probs, want_rng)
            assert_same_bits(got.w_in, want.w_in)
            assert_same_bits(got.w_out, want.w_out)

    def test_trained_model_keeps_no_scratch(self):
        """What the dataset pool pickles to every worker is the trained
        table alone: the same pickle as a model assembled from its fields."""
        from repro.benchsuite.registry import build_app
        from repro.ir.lowering import lower_program

        irs = [lower_program(p) for p in build_app("fib").programs]
        model = Inst2Vec(dim=16).train(irs, epochs=2, batch_size=64, rng=3)
        assert set(vars(model)) == {"dim", "vocab", "w_in", "w_out"}
        bare = Inst2Vec(dim=16)
        bare.vocab, bare.w_in, bare.w_out = model.vocab, model.w_in, model.w_out
        assert pickle.dumps(model) == pickle.dumps(bare)
