"""Interpreter execution semantics."""

import pytest

from repro.errors import InterpreterError, IRError
from repro.ir.builder import ProgramBuilder
from repro.ir.linear import (
    BasicBlock, Imm, Instr, IRFunction, IRProgram, Opcode, Reg,
)
from repro.ir.lowering import lower_program
from repro.profiler.interpreter import (
    POST,
    PRE,
    Interpreter,
    profile_program,
)

from tests.helpers import build_reduction_program, run_and_state


def _run_main(build_body, arrays=(), rng=0):
    pb = ProgramBuilder("t")
    for name, size in arrays:
        pb.array(name, size)
    with pb.function("main") as fb:
        build_body(fb)
    ir = lower_program(pb.build())
    interp = Interpreter(ir, record=False, rng=rng)
    report = interp.run()
    return report, interp


class TestArithmetic:
    def test_reduction_value(self):
        rv, state = run_and_state(build_reduction_program())
        # sum of 2*i for i in 0..11
        assert rv == sum(2.0 * i for i in range(12))

    def test_comparison_produces_binary(self):
        def body(fb):
            fb.assign("x", fb.cmp("<", 1.0, 2.0))
            fb.assign("y", fb.cmp(">", 1.0, 2.0))
            fb.ret(fb.add(fb.mul("x", 10.0), "y"))

        report, _ = _run_main(body)
        assert report.return_value == 10.0

    def test_min_max(self):
        def body(fb):
            fb.ret(fb.add(fb.cmp("min", 3.0, 5.0), fb.cmp("max", 3.0, 5.0)))

        report, _ = _run_main(body)
        assert report.return_value == 8.0

    def test_euclidean_mod_of_negative(self):
        def body(fb):
            fb.ret(fb.mod(-3.0, 8.0))

        report, _ = _run_main(body)
        assert report.return_value == 5.0  # Euclidean, not C fmod

    def test_division_by_zero_raises(self):
        def body(fb):
            fb.assign("z", 0.0)
            fb.ret(fb.div(1.0, "z"))

        with pytest.raises(InterpreterError, match="division by zero"):
            _run_main(body)

    def test_intrinsics(self):
        def body(fb):
            fb.ret(fb.add(fb.call("sqrt", 16.0), fb.call("fabs", -2.0)))

        report, _ = _run_main(body)
        assert report.return_value == 6.0

    def test_and_evaluates_both_operands(self):
        def body(fb):
            fb.ret(fb.add(fb.cmp("&&", 2.0, 0.0), fb.cmp("&&", 2.0, 3.0)))

        report, _ = _run_main(body)
        assert report.return_value == 1.0

        def faulting_rhs(fb):
            fb.ret(fb.cmp("&&", 0.0, fb.load("a", 10)))

        # no short circuit: the right operand runs even when the left is 0
        with pytest.raises(InterpreterError, match="out of bounds"):
            _run_main(faulting_rhs, arrays=[("a", 4)])

    def test_unknown_read_scalar_defaults_to_zero(self):
        def body(fb):
            fb.ret(fb.var("never_written"))

        report, _ = _run_main(body)
        assert report.return_value == 0.0


class TestControlFlow:
    def test_if_else(self):
        def body(fb):
            fb.assign("x", 5.0)
            with fb.if_block(fb.cmp("<", "x", 3.0)) as blk:
                fb.assign("y", 1.0)
            with blk.otherwise():
                fb.assign("y", 2.0)
            fb.ret("y")

        report, _ = _run_main(body)
        assert report.return_value == 2.0

    def test_while_loop(self):
        def body(fb):
            fb.assign("x", 0.0)
            with fb.while_loop(fb.cmp("<", "x", 5.0)):
                fb.assign("x", fb.add("x", 1.0))
            fb.ret("x")

        report, _ = _run_main(body)
        assert report.return_value == 5.0

    def test_break_exits_loop(self):
        def body(fb):
            fb.assign("last", -1.0)
            with fb.loop("i", 0, 100) as i:
                fb.assign("last", i)
                with fb.if_block(fb.cmp(">=", i, 3.0)):
                    fb.brk()
            fb.ret("last")

        report, _ = _run_main(body)
        assert report.return_value == 3.0

    def test_zero_trip_loop(self):
        def body(fb):
            fb.assign("count", 0.0)
            with fb.loop("i", 5, 2):
                fb.assign("count", fb.add("count", 1.0))
            fb.ret("count")

        report, _ = _run_main(body)
        assert report.return_value == 0.0

    def test_step_greater_than_one(self):
        def body(fb):
            fb.assign("count", 0.0)
            with fb.loop("i", 0, 10, step=3):
                fb.assign("count", fb.add("count", 1.0))
            fb.ret("count")

        report, _ = _run_main(body)
        assert report.return_value == 4.0  # i = 0, 3, 6, 9

    def test_step_budget_enforced(self):
        pb = ProgramBuilder("t")
        with pb.function("main") as fb:
            fb.assign("x", 0.0)
            with fb.while_loop(fb.cmp("<", "x", 1.0)):
                fb.assign("y", 1.0)  # x never changes: infinite loop
        ir = lower_program(pb.build())
        with pytest.raises(InterpreterError, match="step budget"):
            Interpreter(ir, record=False, max_steps=500).run()


class TestMemory:
    def test_out_of_bounds_store_raises(self):
        def body(fb):
            fb.store("a", 10, 1.0)

        with pytest.raises(InterpreterError, match="out of bounds"):
            _run_main(body, arrays=[("a", 4)])

    def test_negative_index_raises(self):
        def body(fb):
            fb.assign("x", fb.load("a", fb.sub(0.0, 1.0)))

        with pytest.raises(InterpreterError, match="out of bounds"):
            _run_main(body, arrays=[("a", 4)])

    def test_arrays_deterministically_initialized(self):
        def body(fb):
            fb.ret(fb.load("a", 0))

        r1, _ = _run_main(body, arrays=[("a", 4)], rng=5)
        r2, _ = _run_main(body, arrays=[("a", 4)], rng=5)
        r3, _ = _run_main(body, arrays=[("a", 4)], rng=6)
        assert r1.return_value == r2.return_value
        assert r1.return_value != r3.return_value


class TestFunctions:
    def test_call_with_return_value(self):
        pb = ProgramBuilder("t")
        with pb.function("double", params=("x",)) as hf:
            hf.ret(hf.mul("x", 2.0))
        with pb.function("main") as fb:
            fb.ret(fb.call("double", 21.0))
        ir = lower_program(pb.build())
        assert Interpreter(ir, record=False).run().return_value == 42.0

    def test_recursion(self):
        pb = ProgramBuilder("t")
        with pb.function("fact", params=("n",)) as hf:
            with hf.if_block(hf.cmp("<=", "n", 1.0)):
                hf.ret(1.0)
            hf.ret(hf.mul("n", hf.call("fact", hf.sub("n", 1.0))))
        with pb.function("main") as fb:
            fb.ret(fb.call("fact", 5.0))
        ir = lower_program(pb.build())
        assert Interpreter(ir, record=False).run().return_value == 120.0

    def test_scalars_are_frame_local(self):
        pb = ProgramBuilder("t")
        with pb.function("clobber", params=()) as hf:
            hf.assign("x", 999.0)
            hf.ret(0.0)
        with pb.function("main") as fb:
            fb.assign("x", 1.0)
            fb.assign("ignore", fb.call("clobber"))
            fb.ret("x")
        ir = lower_program(pb.build())
        assert Interpreter(ir, record=False).run().return_value == 1.0

    def test_wrong_arity_raises(self):
        pb = ProgramBuilder("t")
        with pb.function("helper", params=("a", "b")) as hf:
            hf.ret(hf.add("a", "b"))
        with pb.function("main") as fb:
            fb.ret(fb.call("helper", 1.0))
        ir = lower_program(pb.build())
        with pytest.raises(InterpreterError, match="expects 2 args"):
            Interpreter(ir, record=False).run()


class TestLoopStats:
    def test_iteration_counts(self):
        def body(fb):
            with fb.loop("i", 0, 7):
                fb.assign("x", 1.0)

        report, _ = _run_main(body)
        stats = next(iter(report.loop_stats.values()))
        assert stats.total_iterations == 7
        assert stats.entries == 1

    def test_nested_entry_counts(self):
        def body(fb):
            with fb.loop("i", 0, 3):
                with fb.loop("j", 0, 4):
                    fb.assign("x", 1.0)

        report, _ = _run_main(body)
        by_iters = sorted(
            report.loop_stats.values(), key=lambda s: s.total_iterations
        )
        assert by_iters[0].total_iterations == 3  # outer
        assert by_iters[1].total_iterations == 12  # inner: 3 entries x 4
        assert by_iters[1].entries == 3

    def test_dyn_instr_attribution(self):
        def body(fb):
            with fb.loop("i", 0, 5):
                fb.assign("x", 1.0)

        report, _ = _run_main(body)
        stats = next(iter(report.loop_stats.values()))
        assert stats.dyn_instr_count > 5  # body + header overhead


def _hand_built(blocks, arrays=None):
    """A one-function IR program from ``[(label, [Instr, ...]), ...]``."""
    fn = IRFunction(
        "main", (), [BasicBlock(label, list(instrs)) for label, instrs in blocks]
    )
    return IRProgram("hand", {"main": fn}, dict(arrays or {}))


class TestMalformedIR:
    def test_loopnext_outside_a_loop_is_an_interpreter_error(self):
        ir = _hand_built([("entry", [
            Instr(0, Opcode.LOOPNEXT, ("L0",)),
            Instr(1, Opcode.RET, ()),
        ])])
        with pytest.raises(InterpreterError, match="outside any loop"):
            Interpreter(ir, record=False).run()

    def test_loopnext_for_another_loop_is_an_interpreter_error(self):
        ir = _hand_built([("entry", [
            Instr(0, Opcode.LOOPENTER, ("L0",)),
            Instr(1, Opcode.LOOPNEXT, ("L1",)),
            Instr(2, Opcode.RET, ()),
        ])])
        with pytest.raises(InterpreterError, match="innermost loop is 'L0'"):
            Interpreter(ir, record=False).run()

    def test_dead_branch_to_unknown_block_does_not_fault(self):
        ir = _hand_built([
            ("entry", [Instr(0, Opcode.RET, (Imm(7.0),))]),
            ("dead", [Instr(1, Opcode.BR, ("nowhere",))]),
            ("dead2", [Instr(2, Opcode.CONDBR, (Imm(1.0), "entry", "nowhere"))]),
        ])
        assert Interpreter(ir, record=False).run().return_value == 7.0

    def test_untaken_unknown_condbr_target_does_not_fault(self):
        ir = _hand_built([
            ("entry", [Instr(0, Opcode.CONDBR, (Imm(0.0), "nowhere", "done"))]),
            ("done", [Instr(1, Opcode.RET, (Imm(3.0),))]),
        ])
        assert Interpreter(ir, record=False).run().return_value == 3.0

    @pytest.mark.parametrize("cond", [0.0, 1.0])
    def test_executed_branch_to_unknown_block_raises_ir_error(self, cond):
        ir = _hand_built([
            ("entry", [Instr(0, Opcode.CONDBR, (Imm(cond), "mid", "nowhere"))]),
            ("mid", [Instr(1, Opcode.BR, ("nowhere",))]),
        ])
        with pytest.raises(IRError, match="has no block 'nowhere'"):
            Interpreter(ir, record=False).run()

    def test_unknown_intrinsic_faults_only_when_executed(self):
        call = Instr(1, Opcode.CALL, ("nosuch", Imm(1.0)), Reg("r0"))
        dead = _hand_built([
            ("entry", [Instr(0, Opcode.RET, ())]), ("dead", [call]),
        ])
        assert Interpreter(dead, record=False).run().return_value is None
        live = _hand_built([("entry", [call, Instr(2, Opcode.RET, ())])])
        with pytest.raises(InterpreterError, match="unknown intrinsic 'nosuch'"):
            Interpreter(live, record=False).run()

    def test_ir_mutated_in_place_runs_fresh_code(self):
        ret = Instr(0, Opcode.RET, (Imm(1.0),))
        ir = _hand_built([("entry", [ret])])
        assert Interpreter(ir, record=False).run().return_value == 1.0
        ret.operands = (Imm(2.0),)
        assert Interpreter(ir, record=False).run().return_value == 2.0


def _threaded(build_body, arrays=(("a", 4), ("b", 4))):
    """``main`` with one loop ``t:main:L0`` built by ``build_body``,
    lowered, plus an interpreter over it."""
    pb = ProgramBuilder("t")
    for name, size in arrays:
        pb.array(name, size)
    with pb.function("main") as fb:
        build_body(fb)
    ir = lower_program(pb.build())
    return ir, Interpreter(ir, record=False)


def _collect(tokens):
    """A schedule that runs each thread to completion, in order, keeping
    the tokens it yields."""
    def schedule(threads):
        for thread in threads:
            tokens.extend(thread)
    return schedule


class TestThreads:
    LOOP = "t:main:L0"

    def test_yield_points(self):
        def body(fb):
            with fb.loop("i", 0, 2) as i:
                fb.assign("t", fb.load("a", i))        # private
                fb.assign("s", fb.add("s", "t"))       # shared
                fb.store("b", i, "t")

        _, interp = _threaded(body)
        tokens = []
        interp.execute({self.LOOP: frozenset({"i", "t"})}, _collect(tokens))
        # STVAR of a private scalar, of a shared one, then a STORE; the
        # induction variable's STVAR never yields
        per_iteration = [
            (PRE, False), (POST, False), (PRE, True), (POST, True),
            (PRE, True), (POST, True),
        ]
        assert tokens == per_iteration * 2

    def test_threaded_run_matches_plain_run(self):
        def body(fb):
            with fb.loop("i", 0, 4) as i:
                fb.store("b", i, fb.mul(fb.load("a", i), 2.0))
            fb.ret(fb.load("b", 3))

        _, interp = _threaded(body)
        plain = interp.execute()
        plain_arrays = interp.arrays
        threaded = interp.execute({self.LOOP: frozenset({"i"})}, _collect([]))
        assert threaded == plain
        assert interp.arrays == plain_arrays
        assert interp.arrays is not plain_arrays  # each run starts afresh

    def test_fault_inside_a_thread_raises(self):
        def body(fb):
            with fb.loop("i", 0, 4) as i:
                fb.store("b", fb.add(i, 2.0), 1.0)

        _, interp = _threaded(body)
        with pytest.raises(InterpreterError, match=r"store b\[4\] out of bounds"):
            interp.execute({self.LOOP: frozenset({"i"})}, _collect([]))

    def test_step_budget_cuts_inside_a_thread(self):
        def body(fb):
            with fb.loop("i", 0, 1000):
                fb.assign("x", 1.0)

        ir, _ = _threaded(body)
        interp = Interpreter(ir, record=False, max_steps=200)
        tokens = []
        with pytest.raises(InterpreterError, match="step budget of 200"):
            interp.execute({self.LOOP: frozenset({"i"})}, _collect(tokens))
        assert tokens  # the thread ran before the budget cut it
