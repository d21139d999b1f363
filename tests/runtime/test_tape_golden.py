"""Golden-tape regression: the recorded program text must stay stable.

``format_tape`` renders a tape deterministically (slot numbers, primitive
names, attrs, trace-time shapes, const digests).  These tests pin that
rendering for fixed model/input seeds against checked-in goldens in
``tests/runtime/goldens/`` so any change to the tracer, the primitive
registry, or the model forward that alters the recorded program is an
explicit, reviewed diff — not a silent drift.

Regenerate after an intentional change with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/runtime/test_tape_golden.py -q

and review the goldens diff before committing.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.models.dgcnn import DGCNN, DGCNNConfig
from repro.runtime.tape import format_tape, record_tape

from tests.runtime.test_engine import _mvgnn
from tests.runtime.test_tape_differential import _packed

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
_UPDATE = os.environ.get("REPRO_UPDATE_GOLDENS") == "1"

#: golden fixtures: name -> zero-arg tape builder.  Every builder is fully
#: seeded (model rng=0, data rng=0) so a re-trace is bit-reproducible.
SIZES = (2, 3)


def _mvgnn_tape(training=False):
    model = _mvgnn()
    if training:
        model.train()
    x_semantic, x_structural, adj_norm, sizes = _packed(
        np.random.default_rng(0), SIZES
    )
    return record_tape(
        model.forward_batch,
        arrays={"x_semantic": x_semantic, "x_structural": x_structural},
        objects={"adj_norm": adj_norm, "sizes": sizes},
        params=model.named_parameters(),
    )


def _dgcnn_tape():
    model = DGCNN(DGCNNConfig(in_features=12, sortpool_k=6), rng=0)
    model.eval()
    x_semantic, _x_structural, adj_norm, sizes = _packed(
        np.random.default_rng(0), SIZES
    )
    return record_tape(
        model.forward_batch,
        arrays={"x": x_semantic},
        objects={"adj_norm": adj_norm, "sizes": sizes},
        params=model.named_parameters(),
    )


CASES = {
    "mvgnn_eval_b2": lambda: _mvgnn_tape(training=False),
    "mvgnn_train_b2": lambda: _mvgnn_tape(training=True),
    "dgcnn_eval_b2": _dgcnn_tape,
}


def _golden_path(name):
    return GOLDEN_DIR / f"{name}.tape"


@pytest.mark.parametrize("name", sorted(CASES))
def test_tape_matches_golden(name):
    rendered = format_tape(CASES[name](), title=name)
    path = _golden_path(name)
    if _UPDATE:
        path.parent.mkdir(exist_ok=True)
        path.write_text(rendered)
    assert path.exists(), (
        f"missing golden {path.name}; regenerate with REPRO_UPDATE_GOLDENS=1"
    )
    assert rendered == path.read_text(), (
        f"recorded tape drifted from {path.name}; if the change is "
        f"intentional, regenerate with REPRO_UPDATE_GOLDENS=1 and review "
        f"the diff"
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_retrace_is_deterministic(name):
    first, second = CASES[name](), CASES[name]()
    assert format_tape(first) == format_tape(second)
    assert first.signature() == second.signature()


def test_signature_tracks_rendering():
    """signature() is a digest of format_tape, distinct across programs."""
    tapes = {name: build() for name, build in CASES.items()}
    signatures = {name: tape.signature() for name, tape in tapes.items()}
    assert len(set(signatures.values())) == len(signatures)
    # eval and train tapes of the same model differ (dropout ops recorded)
    assert signatures["mvgnn_eval_b2"] != signatures["mvgnn_train_b2"]
