"""The served forward path: no mode flip per batch, steps bound once.

* A compiled engine traces its tapes in eval mode and never touches the
  model's train/eval flag again: a warm ``predict_many`` on a
  training-mode model walks no module tree and leaves the flag alone,
  while its logits stay byte-identical to an eval-mode engine's on both
  tiers.  The interpreted ``compile=False`` path keeps its flip.
* :class:`~repro.runtime.tape.TapeExecutor` binds every plan step's
  primitive when it is built.  A planted fault (one swapped primitive)
  shows the byte-identity wall can fail, and pins when binding happens:
  an executor built after the swap diverges from the reference, one built
  before it does not.
"""

import numpy as np
import pytest

from repro.nn import layers
from repro.nn.primitives import PRIMITIVES, Primitive
from repro.runtime import Engine, TapeExecutor
from repro.runtime.tape import format_tape

from tests.runtime.test_engine import _mvgnn
from tests.runtime.test_tape_golden import GOLDEN_DIR, SIZES, _mvgnn_tape
from tests.runtime.test_tape_differential import _packed
from tests.runtime.test_thread_safety import _random_graphs

TIERS = ("exact", "fast")


def _engine(training, compile=True):
    model = _mvgnn()
    if training:
        model.train()
    return Engine(model, batch_size=4, compile=compile)


@pytest.fixture
def mode_flips(monkeypatch):
    """Counts every ``Module._set_mode`` call (one per module visited)."""
    calls = []
    original = layers.Module._set_mode

    def spy(self, training):
        calls.append(training)
        return original(self, training)

    monkeypatch.setattr(layers.Module, "_set_mode", spy)
    return calls


class TestNoModeFlip:
    def test_warm_predict_leaves_training_model_alone(self, rng, mode_flips):
        engine = _engine(training=True)
        graphs = _random_graphs(rng, 6)
        for tier in TIERS:
            engine.predict_many(graphs, precision=tier)  # trace both tiers
        mode_flips.clear()
        for tier in TIERS:
            engine.predict_many(graphs, precision=tier)
        assert mode_flips == []
        assert engine.model.training

    def test_training_model_traces_eval_tape(self, rng):
        trained = _engine(training=True)
        reference = _engine(training=False)
        graphs = _random_graphs(rng, 7)
        for tier in TIERS:
            got = trained.logits_many(graphs, precision=tier)
            want = reference.logits_many(graphs, precision=tier)
            assert got.tobytes() == want.tobytes(), tier
        assert trained._tapes  # one tape per batch-shape class
        for executor in trained._tapes.values():
            assert "dropout" not in {op.prim for op in executor.tape.ops}
        assert trained.model.training

    def test_interpreted_path_keeps_its_flip(self, rng, mode_flips):
        engine = _engine(training=True, compile=False)
        graphs = _random_graphs(rng, 5)
        logits = engine.logits_many(graphs)
        assert False in mode_flips  # ran in eval mode
        assert engine.model.training
        compiled = _engine(training=False).logits_many(graphs)
        assert logits.tobytes() == compiled.tobytes()


def _bindings():
    x_semantic, x_structural, adj_norm, sizes = _packed(
        np.random.default_rng(0), SIZES
    )
    return {
        "x_semantic": x_semantic,
        "x_structural": x_structural,
        "adj_norm": adj_norm,
        "sizes": sizes,
    }


def _swap_tanh(monkeypatch):
    """Replace the registered ``tanh`` with one that is off by 0.25."""
    real = PRIMITIVES["tanh"]

    def skewed(ins, attrs, out):
        result = np.tanh(ins[0], out=out)
        result += 0.25
        return result

    monkeypatch.setitem(PRIMITIVES, "tanh", Primitive(
        "tanh", skewed, real.vjp, kind=real.kind, fresh=real.fresh,
        out_shape=real.out_shape, fwd_res=real.fwd_res,
    ))


class TestBoundExecutor:
    def test_swapped_primitive_is_caught(self, monkeypatch):
        tape = _mvgnn_tape()  # the golden mvgnn_eval_b2 fixture
        golden = (GOLDEN_DIR / "mvgnn_eval_b2.tape").read_text()
        assert format_tape(tape, title="mvgnn_eval_b2") == golden
        assert "tanh" in {op.prim for op in tape.ops}
        bindings = _bindings()
        reference = tape.execute(bindings)
        before = TapeExecutor(tape)
        _swap_tanh(monkeypatch)
        after = TapeExecutor(tape)
        # the planted fault fails the byte-identity wall...
        faulty = after.run(bindings, after.new_buffers())
        assert not np.array_equal(faulty, reference)
        assert np.array_equal(faulty, tape.execute(bindings))
        # ...and an executor bound before the swap keeps the real tanh
        assert np.array_equal(
            before.run(bindings, before.new_buffers()), reference
        )

    def test_swap_reaches_a_freshly_built_engine(self, rng, monkeypatch):
        graphs = _random_graphs(rng, 4)
        clean = _engine(training=False).logits_many(graphs)
        warm = _engine(training=False)
        warm.logits_many(graphs)  # executors bound before the swap
        _swap_tanh(monkeypatch)
        assert warm.logits_many(graphs).tobytes() == clean.tobytes()
        fresh = _engine(training=False).logits_many(graphs)
        assert not np.array_equal(fresh, clean)
