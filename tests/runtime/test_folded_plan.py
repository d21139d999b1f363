"""Differential wall for the folded replay plan.

``TapeExecutor`` replays ``build_plan(tape)``: no-op data movement folded
out (same-shape reshapes, in-order gathers, dead ops)
and elementwise chains fused.  The folded replay must equal the unfused
reference ``Tape.execute`` byte for byte:

* on the three golden-tape fixtures (the training tape's dropout draws
  are replayed from the same generator state);
* on the BT serving engine's tapes, exact and fast tiers, at 1, 2, 3, 5
  and 32 graphs per batch, over packs of other node counts than the one
  each tape was recorded on;
* on random recorded gather/reshape programs, unread branches included
  (hypothesis).

The construction check must account for every recorded op, and it fails
on a plan that loses a folded op or reads a slot no step writes.  Planted
wrong aliases — a permutation gather, a reshape to a new shape — account
for every op and read only written slots, so only the wall can catch them,
and it must.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import cli
from repro.benchsuite import build_app
from repro.errors import EngineError
from repro.nn.layers import Parameter
from repro.nn.tensor import Tensor, no_grad
from repro.runtime import TapeExecutor
from repro.runtime import tape as tape_mod
from repro.runtime.tape import build_plan, record_tape, unfuse_plan

from tests.runtime.test_tape_differential import _packed
from tests.runtime.test_tape_golden import CASES, SIZES

BT_BATCHES = (1, 2, 3, 5, 32)
TIERS = ("exact", "fast")


def _rngs(tape):
    return {
        id(op.attrs["rng"]): op.attrs["rng"]
        for op in tape.ops if "rng" in op.attrs
    }


def _reference_and_folded(tape, bindings, buffers=True):
    """``(Tape.execute, TapeExecutor.run)`` outputs from one rng state."""
    rngs = _rngs(tape)
    states = {key: rng.bit_generator.state for key, rng in rngs.items()}
    reference = tape.execute(bindings)
    for key, rng in rngs.items():
        rng.bit_generator.state = states[key]
    executor = TapeExecutor(tape)
    folded = executor.run(
        bindings, executor.new_buffers() if buffers else None
    )
    return reference, folded


def _fixture_bindings(name, seed):
    x_semantic, x_structural, adj_norm, sizes = _packed(
        np.random.default_rng(seed), SIZES
    )
    if name.startswith("dgcnn"):
        return {"x": x_semantic, "adj_norm": adj_norm, "sizes": sizes}
    return {
        "x_semantic": x_semantic,
        "x_structural": x_structural,
        "adj_norm": adj_norm,
        "sizes": sizes,
    }


def _accounts_for_every_op(tape):
    plan = build_plan(tape)
    flat = unfuse_plan(plan)
    return len(flat) == len(tape.ops) and all(
        a is b for a, b in zip(flat, tape.ops)
    )


class TestGoldenFixtures:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_folded_equals_reference(self, name, seed):
        tape = CASES[name]()
        for buffers in (True, False):
            reference, folded = _reference_and_folded(
                tape, _fixture_bindings(name, seed), buffers
            )
            assert folded.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_plan_accounts_for_every_op(self, name):
        tape = CASES[name]()
        assert _accounts_for_every_op(tape)
        plan = build_plan(tape)
        run = {id(step.base) for step in plan.steps}
        run.update(id(op) for step in plan.steps for op, _o, _l in step.chain)
        folded = {id(op) for op, _why in plan.folded}
        assert not run & folded
        assert len(run | folded) == len(tape.ops)

    def test_dgcnn_view_folds_five_steps(self):
        """Per DGCNN view: the flatten reshape goes dead, the conv1 im2col
        gather (kernel = stride = C), the reshape back, the conv2 im2col
        gather of a one-window segment and the dense input reshape alias."""
        plan = build_plan(CASES["dgcnn_eval_b2"]())
        folded = sorted(
            (op.prim, why) for op, why in plan.folded
        )
        assert folded == [
            ("gather", "alias"), ("gather", "alias"), ("reshape", "alias"),
            ("reshape", "alias"), ("reshape", "dead"),
        ]

    def test_training_tape_keeps_every_dropout(self):
        tape = CASES["mvgnn_train_b2"]()
        plan = build_plan(tape)
        dropped = [op for op, _why in plan.folded if op.prim == "dropout"]
        assert dropped == []


@pytest.fixture(scope="module")
def bt_engine():
    args = cli.build_parser().parse_args(["serve", "--app", "BT"])
    engine, samples = cli._build_app_engine(
        build_app("BT"), batch_size=32, epochs=1, seed=args.seed
    )
    return engine, samples


class TestBTEngine:
    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("graphs", BT_BATCHES)
    def test_folded_equals_reference(self, bt_engine, graphs, tier):
        engine, samples = bt_engine
        rng = np.random.default_rng(graphs)
        executor = None
        for _ in range(4):
            chunk = [samples[int(i)] for i in rng.integers(len(samples), size=graphs)]
            batch = engine._batch_for(chunk, 0)
            if executor is None:  # recorded on the first pack, replayed on all
                executor = (
                    engine._fast_executor_for(batch) if tier == "fast"
                    else engine._executor_for(batch)
                )
                buffers = executor.new_buffers()
            bindings = {
                "x_semantic": batch.x_semantic,
                "x_structural": batch.x_structural,
                "adj_norm": batch.adj_norm,
                "sizes": batch.sizes,
            }
            reference = executor.tape.execute(bindings)
            assert executor.run(bindings, buffers).tobytes() == reference.tobytes()
            assert executor.run(bindings, None).tobytes() == reference.tobytes()
            logits = engine.logits_many(chunk, batch_size=graphs, precision=tier)
            assert logits.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("tier", TIERS)
    def test_batch_of_two_runs_forty_steps(self, bt_engine, tier):
        engine, samples = bt_engine
        batch = engine._batch_for(samples[:2], 0)
        executor = (
            engine._fast_executor_for(batch) if tier == "fast"
            else engine._executor_for(batch)
        )
        assert len(executor.steps) == 40
        assert len(executor.plan.folded) == 10
        assert _accounts_for_every_op(executor.tape)


# -- random gather/reshape programs ------------------------------------------


def _gather_program(rows, cols, width, seed, ops):
    """(fn, x, params): ``x @ W`` followed by the drawn row-moving ops."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, cols))
    weight = Parameter(rng.normal(size=(cols, width)))
    picks = []
    for kind in ops:
        if kind in ("gather", "unread"):
            picks.append(rng.integers(0, rows, size=rows))
        elif kind == "permute":
            picks.append(rng.permutation(rows))
        else:
            picks.append(None)

    def fn(x):
        t = x @ weight
        for kind, pick in zip(ops, picks):
            if kind in ("gather", "permute"):
                t = t.take_rows(pick)
            elif kind == "arange":
                t = t.take_rows(np.arange(rows))
            elif kind == "flatten_back":
                t = t.reshape(rows * width, 1).reshape(rows, width)
            elif kind == "same_reshape":
                t = t.reshape(rows, width)
            elif kind == "tanh":
                t = t.tanh()
            elif kind == "fork":
                t = t.take_rows(np.arange(rows)) + t
            elif kind == "unread":  # a gather of a gather nothing reads
                t.take_rows(pick).take_rows(pick[::-1]).tanh()
            else:  # pragma: no cover - vocabulary drift guard
                raise AssertionError(kind)
        return t

    return fn, x, {"w": weight}


@st.composite
def gather_programs(draw):
    return (
        draw(st.integers(min_value=1, max_value=6)),
        draw(st.integers(min_value=1, max_value=4)),
        draw(st.integers(min_value=1, max_value=4)),
        draw(st.integers(min_value=0, max_value=2**31 - 1)),
        draw(st.lists(st.sampled_from((
            "gather", "permute", "arange", "flatten_back", "same_reshape",
            "tanh", "fork", "unread",
        )), min_size=1, max_size=8)),
    )


@given(gather_programs())
def test_random_gather_programs_fold_exactly(program):
    fn, x, params = _gather_program(*program)
    with no_grad():
        eager = fn(Tensor(x)).data
    tape = record_tape(fn, arrays={"x": x}, objects={}, params=params)
    assert _accounts_for_every_op(tape)
    reference, folded = _reference_and_folded(tape, {"x": x})
    assert reference.tobytes() == eager.tobytes()
    assert folded.tobytes() == reference.tobytes()


# -- planted faults ----------------------------------------------------------


def _two_permutations():
    """A tape of ``tanh((x @ W)[p1][arange][p2])`` with two permutations
    of 6 rows; each gather reads a fixed-shape value, C-ordered from the
    second gather on."""
    rows = 6
    rng = np.random.default_rng(3)
    x = rng.normal(size=(rows, 3))
    weight = Parameter(rng.normal(size=(3, 4)))
    first, second = np.array([1, 2, 3, 4, 5, 0]), np.array([3, 0, 4, 1, 5, 2])

    def fn(x):
        return (x @ weight).take_rows(first).take_rows(np.arange(rows)) \
            .take_rows(second).tanh()

    tape = record_tape(fn, arrays={"x": x}, objects={}, params={"w": weight})
    return tape, {"x": x}


def _flattened_rows():
    """A tape of ``(x @ W)[p].reshape(24, 1)[q]``: a reshape to a new
    shape between two gathers, whose rows ``q`` exist in either shape."""
    rows = 6
    rng = np.random.default_rng(4)
    x = rng.normal(size=(rows, 3))
    weight = Parameter(rng.normal(size=(3, 4)))
    first, second = np.array([1, 2, 3, 4, 5, 0]), np.array([5, 3, 1, 0])

    def fn(x):
        return (x @ weight).take_rows(first).reshape(rows * 4, 1) \
            .take_rows(second)

    tape = record_tape(fn, arrays={"x": x}, objects={}, params={"w": weight})
    return tape, {"x": x}


def _wall_holds(tape, bindings):
    reference, folded = _reference_and_folded(tape, bindings)
    return folded.tobytes() == reference.tobytes()


class TestPlantedFaults:
    def test_clean_plan_aliases_only_the_in_order_gather(self):
        tape, bindings = _two_permutations()
        plan = build_plan(tape)
        assert [(op.prim, why) for op, why in plan.folded] == [("gather", "alias")]
        assert plan.folded[0][0].attrs["indices"].tolist() == list(range(6))
        assert _wall_holds(tape, bindings)
        tape, bindings = _flattened_rows()
        assert build_plan(tape).folded == []
        assert _wall_holds(tape, bindings)

    def test_permutation_folded_into_alias_fails(self, monkeypatch):
        tape, bindings = _two_permutations()
        # a length-only identity test: every full-length gather aliases
        monkeypatch.setattr(
            tape_mod, "_identity_gather",
            lambda indices, rows: indices.ndim == 1 and indices.shape[0] == rows,
        )
        assert not _wall_holds(tape, bindings)

    def test_reshape_to_new_shape_folded_into_alias_fails(self, monkeypatch):
        tape, bindings = _flattened_rows()
        real = tape_mod._fold

        def alias_the_reshape(tape):
            kept, folded, output = real(tape)
            [(reshape, (source,))] = [
                (op, inputs) for op, inputs in kept if op.prim == "reshape"
            ]
            kept = [
                (op, tuple(source if s == reshape.out else s for s in inputs))
                for op, inputs in kept if op is not reshape
            ]
            return kept, folded + [(reshape, "alias")], output

        monkeypatch.setattr(tape_mod, "_fold", alias_the_reshape)
        TapeExecutor(tape)  # the ledger and the read check both pass
        assert not _wall_holds(tape, bindings)

    def test_lost_folded_op_fails_construction(self, monkeypatch):
        tape = CASES["dgcnn_eval_b2"]()
        real = tape_mod._fold

        def lossy(tape):
            kept, folded, output = real(tape)
            return kept, folded[1:], output

        monkeypatch.setattr(tape_mod, "_fold", lossy)
        with pytest.raises(EngineError, match="account for every recorded op"):
            TapeExecutor(tape)

    def test_dropped_live_op_fails_construction(self, monkeypatch):
        tape = CASES["dgcnn_eval_b2"]()
        real = tape_mod._fold

        def eager_dead_code(tape):
            kept, folded, output = real(tape)
            victim = kept.pop(len(kept) // 2)
            return kept, folded + [(victim[0], "dead")], output

        monkeypatch.setattr(tape_mod, "_fold", eager_dead_code)
        with pytest.raises(EngineError, match="before any step writes"):
            TapeExecutor(tape)
