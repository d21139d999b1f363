"""Unit behaviour of individual optimization passes."""

import pytest

from repro.ir.builder import ProgramBuilder
from repro.ir.linear import Imm, Opcode
from repro.ir.lowering import lower_program
from repro.ir.passes import (
    OPT_PIPELINES,
    apply_pipeline,
    clone_program,
    common_subexpression_elimination,
    constant_fold,
    dead_code_elimination,
    loop_invariant_code_motion,
    pipeline_names,
    strength_reduction,
    unroll_by_two,
)
from repro.ir.verify import verify_program
from repro.errors import ConfigError

from tests.helpers import build_mixed_program, run_and_state


def _count(ir, opcode, fn="main"):
    return sum(1 for i in ir.function(fn).instructions() if i.opcode is opcode)


def _simple_loop_program():
    pb = ProgramBuilder("p")
    pb.array("a", 8)
    with pb.function("main") as fb:
        fb.assign("n", 8.0)
        with fb.loop("i", 0, "n") as i:
            fb.store("a", i, fb.add(fb.mul(i, 1.0), fb.mul(2.0, 3.0)))
    return pb.build()


class TestClone:
    def test_clone_is_deep(self):
        ir = lower_program(_simple_loop_program())
        copy = clone_program(ir)
        copy.function("main").blocks[0].instrs.clear()
        assert ir.function("main").blocks[0].instrs  # original untouched

    def test_clone_preserves_loops(self):
        ir = lower_program(_simple_loop_program())
        copy = clone_program(ir)
        assert copy.function("main").loops.keys() == ir.function("main").loops.keys()


class TestConstantFold:
    def test_folds_constant_product(self):
        ir = lower_program(_simple_loop_program())
        folded = constant_fold(ir)
        verify_program(folded)
        # the 2*3 multiply's uses become the immediate 6
        imms = [
            op.value
            for i in folded.function("main").instructions()
            for op in i.operands
            if isinstance(op, Imm)
        ]
        assert 6.0 in imms

    def test_does_not_fold_division_by_zero(self):
        pb = ProgramBuilder("p")
        with pb.function("main") as fb:
            fb.assign("x", fb.div(1.0, fb.sub(2.0, 2.0)))
        ir = lower_program(pb.build())
        folded = constant_fold(ir)
        verify_program(folded)
        assert _count(folded, Opcode.DIV) == 1  # left for the runtime fault


class TestDCE:
    def test_removes_unused_pure_instruction(self):
        pb = ProgramBuilder("p")
        pb.array("a", 4)
        with pb.function("main") as fb:
            fb.assign("unused", fb.add(1.0, 2.0))
            fb.store("a", 0, 5.0)
        ir = lower_program(pb.build())
        # make the stvar of 'unused' survive but its recomputation chain...
        before = ir.instruction_count()
        after_dce = dead_code_elimination(constant_fold(ir))
        verify_program(after_dce)
        assert after_dce.instruction_count() <= before

    def test_never_removes_stores(self):
        ir = lower_program(_simple_loop_program())
        out = dead_code_elimination(clone_program(ir))
        assert _count(out, Opcode.STORE) == _count(ir, Opcode.STORE)
        assert _count(out, Opcode.STVAR) == _count(ir, Opcode.STVAR)


class TestCSE:
    def test_duplicate_loads_merged(self):
        pb = ProgramBuilder("p")
        pb.array("a", 4)
        with pb.function("main") as fb:
            fb.assign("x", fb.add(fb.load("a", 1), fb.load("a", 1)))
        ir = lower_program(pb.build())
        out = dead_code_elimination(
            common_subexpression_elimination(clone_program(ir))
        )
        verify_program(out)
        assert _count(out, Opcode.LOAD) < _count(ir, Opcode.LOAD)

    def test_store_invalidates_load(self):
        pb = ProgramBuilder("p")
        pb.array("a", 4)
        with pb.function("main") as fb:
            fb.assign("x", fb.load("a", 1))
            fb.store("a", 1, 9.0)
            fb.assign("y", fb.load("a", 1))
        ir = lower_program(pb.build())
        out = dead_code_elimination(common_subexpression_elimination(ir))
        verify_program(out)
        assert _count(out, Opcode.LOAD) == 2  # second load must stay
        rv, state = run_and_state(pb.build())
        assert state["a"][1] == 9.0


class TestLICM:
    def test_hoists_invariant_bound_load(self):
        ir = lower_program(_simple_loop_program())
        out = loop_invariant_code_motion(ir)
        verify_program(out)
        fn = out.function("main")
        info = next(iter(fn.loops.values()))
        header = fn.block(info.header)
        # the ldvar n re-evaluation left the header
        assert not any(
            i.opcode is Opcode.LDVAR and i.operands[0] == "n"
            for i in header.instrs
        )

    def test_induction_variable_not_hoisted(self):
        ir = lower_program(_simple_loop_program())
        out = loop_invariant_code_motion(ir)
        fn = out.function("main")
        info = next(iter(fn.loops.values()))
        header = fn.block(info.header)
        assert any(
            i.opcode is Opcode.LDVAR and i.operands[0] == "i"
            for i in header.instrs
        )


class TestStrength:
    def test_multiply_by_two_becomes_add(self):
        pb = ProgramBuilder("p")
        pb.array("a", 4)
        with pb.function("main") as fb:
            fb.assign("x", 3.0)
            fb.store("a", 0, fb.mul("x", 2.0))
        ir = lower_program(pb.build())
        out = strength_reduction(ir)
        verify_program(out)
        assert _count(out, Opcode.MUL) == 0
        rv, state = run_and_state(pb.build())
        assert state["a"][0] == 6.0

    def test_identity_operations_forwarded(self):
        pb = ProgramBuilder("p")
        pb.array("a", 4)
        with pb.function("main") as fb:
            fb.assign("x", 7.0)
            fb.store("a", 0, fb.add(fb.mul("x", 1.0), 0.0))
        ir = lower_program(pb.build())
        out = dead_code_elimination(strength_reduction(ir))
        verify_program(out)
        assert _count(out, Opcode.MUL) == 0
        assert _count(out, Opcode.ADD) == 0


class TestUnroll:
    def test_simple_loop_unrolls(self):
        ir = lower_program(_simple_loop_program())
        out = unroll_by_two(clone_program(ir))
        verify_program(out)
        assert _count(out, Opcode.STORE) == 2 * _count(ir, Opcode.STORE)

    def test_nested_outer_loop_not_unrolled(self):
        pb = ProgramBuilder("p")
        pb.array("m", 16)
        with pb.function("main") as fb:
            with fb.loop("i", 0, 4) as i:
                with fb.loop("j", 0, 4) as j:
                    fb.store("m", fb.add(fb.mul(i, 4.0), j), 1.0)
        ir = lower_program(pb.build())
        out = unroll_by_two(clone_program(ir))
        verify_program(out)
        # outer stays; inner (single-block body) unrolls
        outer_blocks = len(ir.function("main").blocks)
        assert len(out.function("main").blocks) == outer_blocks + 3


class TestPipelines:
    def test_six_pipelines_exist(self):
        assert len(OPT_PIPELINES) == 6
        assert "O0" in pipeline_names()

    def test_unknown_pipeline_raises(self):
        ir = lower_program(_simple_loop_program())
        with pytest.raises(ConfigError):
            apply_pipeline(ir, "O9")

    @pytest.mark.parametrize("name", list(OPT_PIPELINES))
    def test_every_pipeline_verifies(self, name):
        ir = lower_program(build_mixed_program())
        verify_program(apply_pipeline(ir, name))
