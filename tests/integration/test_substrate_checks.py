"""Smoke checks of the substrate layers on the canonical mixed program.

The mixed program (``tests.helpers.build_mixed_program``) has four loops:
an init DoALL, a stencil, a recurrence and a reduction.  Each layer must do
real work on it: the interpreter runs well over a hundred steps, lowering
emits a non-trivial IR, unrolling grows it, and extraction with oracle
labels yields one sample per loop.  (Its four PEG loop nodes are pinned by
``tests/peg/test_builder.py``; its recorded dependences by
``tests/profiler/test_shadow.py``.)
"""

from repro.dataset.extraction import extract_loop_samples
from repro.embeddings.anonwalk import AnonymousWalkSpace
from repro.embeddings.inst2vec import Inst2Vec
from repro.ir.lowering import lower_program
from repro.ir.passes import apply_pipeline
from repro.profiler import Interpreter

from tests.helpers import build_mixed_program, lower_and_verify


def test_plain_run_takes_over_a_hundred_steps():
    ir = lower_and_verify(build_mixed_program())
    assert Interpreter(ir, record=False, rng=0).run().steps > 100


def test_lowering_emits_over_fifty_instructions():
    assert lower_program(build_mixed_program()).instruction_count() > 50


def test_unroll_pipeline_does_not_shrink_the_ir():
    ir = lower_and_verify(build_mixed_program())
    unrolled = apply_pipeline(ir, "O2-unroll")
    assert unrolled.instruction_count() >= ir.instruction_count()


def test_oracle_labelled_extraction_yields_one_sample_per_loop():
    program = build_mixed_program()
    inst2vec = Inst2Vec(dim=25).train(
        [lower_and_verify(program)], epochs=1, rng=0
    )
    samples = extract_loop_samples(
        program, None, inst2vec, AnonymousWalkSpace(4),
        suite="bench", app="mixed", gamma=20, rng=0,
    )
    assert len(samples) == 4
