"""Value-range abstract interpretation: lattice laws, transfer
precision, fixpoint facts, and the interpreter soundness probe."""

import math

import pytest

import repro.analysis.ranges as ranges_mod
from repro.analysis.ranges import (
    BOTTOM,
    TOP,
    Interval,
    analyze_program,
    check_soundness,
    harvest_enclosing_bounds,
    iv_add,
    iv_div,
    iv_mod,
    iv_mul,
    iv_sub,
)
from repro.benchsuite import build_app
from repro.ir import ast_nodes as ast
from repro.ir import lower_program
from repro.ir.builder import ProgramBuilder

INF = math.inf


def build(make):
    pb = ProgramBuilder("t")
    make(pb)
    return lower_program(pb.build())


class TestIntervalLattice:
    def test_join_covers_both(self):
        assert Interval(0, 2).join(Interval(5, 9)) == Interval(0, 9)

    def test_join_with_bottom_is_identity(self):
        assert BOTTOM.join(Interval(1, 2)) == Interval(1, 2)
        assert Interval(1, 2).join(BOTTOM) == Interval(1, 2)

    def test_meet_intersects(self):
        assert Interval(0, 5).meet(Interval(3, 9)) == Interval(3, 5)
        assert Interval(0, 1).meet(Interval(2, 3)).is_bottom

    def test_leq_partial_order(self):
        assert Interval(1, 2).leq(Interval(0, 3))
        assert not Interval(0, 3).leq(Interval(1, 2))
        assert BOTTOM.leq(Interval(0, 0))
        assert not TOP.leq(Interval(0, 0))

    def test_int_bounds_truncates_toward_zero(self):
        assert Interval(-2.7, 3.9).int_bounds() == (-2, 3)
        assert Interval(0.0, INF).int_bounds() is None
        assert BOTTOM.int_bounds() is None


class TestIntervalContract:
    """Behaviours callers rely on, whatever representation Interval takes."""

    def test_value_equality(self):
        assert Interval(0.0, 1.0) == Interval(0.0, 1.0)
        assert Interval(0.0, 1.0) != Interval(0.0, 2.0)
        assert not (Interval(0.0, 1.0) != Interval(0.0, 1.0))
        assert Interval(0.0, 1.0) != (0.0, 1.0)
        assert {"x": Interval(1.0, 2.0)} == {"x": Interval(1.0, 2.0)}

    def test_hash_follows_equality(self):
        assert hash(Interval(-INF, 3.0)) == hash(Interval(-INF, 3.0))
        assert len({Interval(0.0, 1.0), Interval(0.0, 1.0), TOP, BOTTOM}) == 3
        assert Interval(0.0, 1.0) in {Interval(0.0, 1.0)}

    @pytest.mark.parametrize("iv", [Interval(-2.5, 7.0), TOP, BOTTOM])
    def test_pickle_and_copy_round_trip(self, iv):
        import copy
        import pickle

        for proto in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(iv, protocol=proto))
            assert type(back) is Interval and back == iv
            assert (back.lo, back.hi) == (iv.lo, iv.hi)
        assert copy.deepcopy(iv) == iv

    def test_attributes_cannot_be_mutated(self):
        iv = Interval(0.0, 1.0)
        with pytest.raises(AttributeError):
            iv.lo = 5.0
        with pytest.raises(AttributeError):
            del iv.hi
        with pytest.raises(AttributeError):
            iv.extra = 1
        assert (iv.lo, iv.hi) == (0.0, 1.0)

    def test_join_returns_self_when_other_is_contained(self):
        outer = Interval(0.0, 10.0)
        assert outer.join(Interval(2.0, 3.0)) is outer
        assert outer.join(BOTTOM) is outer
        assert outer.join(Interval(2.0, 11.0)) == Interval(0.0, 11.0)


class TestWidenNarrow:
    def test_widen_without_thresholds_blows_to_infinity(self):
        w = Interval(0, 4).widen(Interval(0, 5))
        assert w == Interval(0, INF)
        w = Interval(0, 4).widen(Interval(-1, 4))
        assert w == Interval(-INF, 4)

    def test_widen_lands_on_nearest_threshold(self):
        # unstable upper bound jumps to the first constant >= new.hi,
        # not straight to +inf — this is what keeps pass-through
        # invariants finite inside nested loops
        w = Interval(0, 4).widen(Interval(0, 5), thresholds=(0.0, 9.0, 16.0))
        assert w == Interval(0, 9.0)
        w = Interval(2, 4).widen(Interval(-1, 4), thresholds=(-2.0, 0.0))
        assert w == Interval(-2.0, 4)

    def test_widen_exhausted_thresholds_fall_back_to_infinity(self):
        w = Interval(0, 4).widen(Interval(0, 99), thresholds=(9.0, 16.0))
        assert w == Interval(0, INF)

    def test_widen_terminates_through_threshold_chain(self):
        # each unstable step consumes at least one threshold, so any
        # ascending chain stabilizes after |thresholds| + 1 widenings
        thresholds = (1.0, 2.0, 3.0)
        cur = Interval(0, 0)
        steps = 0
        while True:
            widened = cur.widen(
                Interval(0, cur.hi + 0.5), thresholds=thresholds
            )
            if widened == cur:
                break
            cur = widened
            steps += 1
        assert cur.hi == INF
        assert steps <= len(thresholds) + 1

    def test_narrow_refines_only_infinite_bounds(self):
        assert Interval(0, INF).narrow(Interval(0, 7)) == Interval(0, 7)
        assert Interval(0, 9).narrow(Interval(0, 7)) == Interval(0, 9)


class TestTransfer:
    def test_arithmetic_soundly_bounds(self):
        assert iv_add(Interval(1, 2), Interval(10, 20)) == Interval(11, 22)
        assert iv_sub(Interval(1, 2), Interval(10, 20)) == Interval(-19, -8)
        assert iv_mul(Interval(-2, 3), Interval(4, 5)) == Interval(-10, 15)

    def test_div_by_interval_containing_zero_is_top(self):
        assert iv_div(Interval(1, 2), Interval(-1, 1)) == TOP

    def test_div_by_nonzero_interval_stays_finite(self):
        out = iv_div(Interval(10, 20), Interval(2, 5))
        assert out.is_finite
        for a in (10, 20):
            for b in (2, 5):
                assert out.contains(a / b)

    def test_mod_bounded_by_divisor(self):
        out = iv_mod(Interval(0, 100), Interval(4, 4))
        assert out.lo >= 0 and out.hi <= 4


class TestProgramFacts:
    def test_loop_var_interval_at_body_entry(self):
        ir = build(lambda pb: self._simple_loop(pb))
        ranges = analyze_program(ir)
        loop_id = next(iter(ir.all_loops()))
        iv = ranges.loop_var_interval(loop_id)
        assert iv is not None
        assert iv.lo == 0 and iv.hi <= 8

    @staticmethod
    def _simple_loop(pb):
        pb.array("a", 8)
        with pb.function("main") as fb:
            with fb.loop("i", 0, 8) as i:
                fb.store("a", i, i)
            fb.ret(0.0)

    def test_branch_refinement_narrows_variable(self):
        def make(pb):
            pb.array("a", 4)
            with pb.function("main") as fb:
                fb.assign("x", fb.load("a", 0.0))
                with fb.if_block(fb.cmp("<", "x", 2.0)):
                    fb.assign("y", "x")
                fb.ret(0.0)

        ir = build(make)
        ranges = analyze_program(ir)
        fn = ir.function("main")
        # y is only assigned under x < 2, so its value inherits the
        # refined bound; array cells initialize to [0, 1) so the load
        # already gives [0, 1] — the branch must not widen it
        for block in fn.blocks:
            for instr in block.instrs:
                if instr.opcode.name == "STVAR" and instr.operands[0] == "y":
                    fact = ranges.fact("main", instr.iid)
                    assert fact is not None and fact.value is not None
                    assert fact.value.hi <= 2.0

    def test_zero_trip_loop_detected(self):
        def make(pb):
            pb.array("a", 4)
            with pb.function("main") as fb:
                with fb.loop("i", 5, 2) as i:
                    fb.store("a", 0.0, i)
                fb.ret(0.0)

        ir = build(make)
        assert analyze_program(ir).zero_trip_loops()

    def test_store_index_cells_bounds_histogram(self):
        def make(pb):
            pb.array("a", 16)
            pb.array("hist", 16)
            with pb.function("main") as fb:
                with fb.loop("i", 0, 16) as i:
                    fb.store(
                        "hist", fb.mod(fb.load("a", i), 4.0), 1.0
                    )
                fb.ret(0.0)

        ir = build(make)
        ranges = analyze_program(ir)
        loop_id = next(iter(ir.all_loops()))
        fn = ir.function("main")
        line = next(
            instr.line
            for block in fn.blocks
            for instr in block.instrs
            if instr.opcode.name == "STORE" and instr.operands[0] == "hist"
        )
        cells = ranges.store_index_cells(loop_id, line, "hist")
        assert cells is not None
        lo, hi = cells
        assert lo >= 0 and hi <= 3

    def test_nested_symbolic_bound_stays_finite(self):
        # the regression the threshold widening exists for: `n` only
        # passes through the inner loop, and plain widening would blow
        # it to +inf with no way for narrowing to descend
        def make(pb):
            pb.array("a", 32)
            with pb.function("main") as fb:
                with fb.loop("n", 1, 9) as n:
                    with fb.loop("j", 0, "n") as j:
                        fb.store("a", j, j)
                fb.ret(0.0)

        ir = build(make)
        ranges = analyze_program(ir)
        inner = next(
            lid for lid, info in ir.all_loops().items() if info.var == "j"
        )
        iv = ranges.loop_var_interval(inner)
        assert iv is not None and iv.is_finite
        assert iv.lo >= 0 and iv.hi <= 9

    def test_enclosing_bounds_bracket_inner_loop(self):
        pb = ProgramBuilder("t")
        pb.array("a", 32)
        with pb.function("main") as fb:
            with fb.loop("n", 1, 9) as n:
                with fb.loop("j", 0, "n") as j:
                    fb.store("a", j, j)
            fb.ret(0.0)
        program = pb.build()
        bounds = harvest_enclosing_bounds(program)
        inner = next(
            lid for lid, facts in bounds.items()
            if any(b.var == "n" for b in facts)
        )
        fact = next(b for b in bounds[inner] if b.var == "n")
        assert fact.lo_const == 1


def _chain(pb):
    # a <- i, b <- a + 1, c <- 2b, then d[c[m]]: no array feeds itself
    for name, size in (("a", 17), ("b", 17), ("c", 17), ("d", 35)):
        pb.array(name, size)
    with pb.function("main") as fb:
        with fb.loop("i", 0, 16) as i:  # the engine bounds i by [0, 16]
            fb.store("a", i, i)
        with fb.loop("j", 0, 17) as j:
            fb.store("b", j, fb.add(fb.load("a", j), 1.0))
        with fb.loop("k", 0, 17) as k:
            fb.store("c", k, fb.mul(2.0, fb.load("b", k)))
        with fb.loop("m", 0, 17) as m:
            fb.store("d", fb.load("c", m), 1.0)
        fb.ret(0.0)


def _accumulator(pb):
    pb.array("a", 8)
    with pb.function("main") as fb:
        with fb.loop("i", 0, 8) as i:
            fb.store("a", i, fb.add(fb.load("a", i), 1.0))
        fb.ret(0.0)


def _saturating(pb):
    pb.array("a", 8)
    with pb.function("main") as fb:
        with fb.loop("i", 0, 8) as i:
            fb.store("a", i, ast.BinOp(
                "min", fb.add(fb.load("a", i), 1.0), ast.Const(5.0),
            ))
        fb.ret(0.0)


def _refined(pb):
    # ``a`` reaches ``b`` only through the branch refinement x < y
    pb.array("a", 4)
    pb.array("b", 4)
    with pb.function("main") as fb:
        fb.assign("x", fb.load("b", 0.0))
        fb.assign("y", fb.load("a", 0.0))
        with fb.if_block(fb.cmp("<", "x", "y")):
            fb.store("b", 1.0, "x")
        fb.ret(0.0)


def _through_call(pb):
    # ``a`` feeds ``f``'s parameter and takes its result; both are ⊤
    pb.array("a", 4)
    pb.array("b", 4)
    with pb.function("f", ("p",)) as fb:
        fb.store("b", 0.0, "p")
        fb.ret(fb.add("p", 1.0))
    with pb.function("main") as fb:
        fb.store("a", 0.0, fb.call("f", fb.load("a", 0.0)))
        fb.ret(0.0)


def _array_flow(ir):
    flow = {}
    for fn in ir.functions.values():
        for array, sinks in ranges_mod._FunctionCode(fn).array_flow.items():
            flow.setdefault(array, set()).update(sinks)
    return flow


class TestArraySchedule:
    """Self-feeding array summaries widen after one join round; every
    other array keeps the join rounds (and its precision)."""

    @staticmethod
    def _summaries_seen(monkeypatch, ir, array):
        """Run the engine; return ``array``'s summary as each function
        analysis saw it (one entry per ``_analyze_function`` call)."""
        seen = []
        real = ranges_mod._analyze_function

        def spy(code, arrays_iv, stores):
            seen.append(arrays_iv[array])
            return real(code, arrays_iv, stores)

        monkeypatch.setattr(ranges_mod, "_analyze_function", spy)
        return analyze_program(ir), seen

    def test_chain_keeps_finite_summaries(self):
        ir = build(_chain)
        ranges = analyze_program(ir)
        assert ranges_mod._self_feeding(
            ranges_mod._FunctionCode(fn) for fn in ir.functions.values()
        ) == set()
        assert ranges.arrays["a"] == Interval(0, 16)
        assert ranges.arrays["b"] == Interval(0, 17)
        assert ranges.arrays["c"] == Interval(0, 34)
        fn = ir.function("main")
        (store,) = [
            instr for block in fn.blocks for instr in block.instrs
            if instr.opcode.name == "STORE" and instr.operands[0] == "d"
        ]
        index = ranges.fact("main", store.iid).index
        assert index.int_bounds() == (0, 34)  # inside d[35]

    @pytest.mark.parametrize("make", [_accumulator, _saturating])
    def test_self_feeding_widens_after_one_join_round(self, monkeypatch, make):
        ir = build(make)
        ranges, seen = self._summaries_seen(monkeypatch, ir, "a")
        # round 0 reads the initialization, round 1 one join, round 2 ∞
        assert seen == [Interval(0, 1), Interval(0, 2), Interval(0, INF)]
        assert ranges.arrays["a"] == Interval(0, INF)

    def test_accumulator_runs_three_function_analyses(self, monkeypatch):
        # the old schedule joined four rounds first: six analyses
        _, seen = self._summaries_seen(monkeypatch, build(_accumulator), "a")
        assert len(seen) == 3

    def test_refinement_is_a_dependence_edge(self):
        assert _array_flow(build(_refined)) == {"a": {"b"}, "b": {"b"}}

    def test_no_dependence_through_callfn(self):
        assert _array_flow(build(_through_call)) == {"a": set()}

    @pytest.mark.parametrize(
        "make", [_chain, _accumulator, _saturating, _refined, _through_call]
    )
    def test_schedule_programs_are_sound(self, make):
        assert check_soundness(build(make), rng_seeds=(0, 1)) == []


class TestSoundness:
    @pytest.mark.parametrize("app", ["EP", "IS", "fib", "nqueens"])
    def test_bundled_apps_have_no_violations(self, app):
        for program in build_app(app).programs:
            ir = lower_program(program)
            violations = check_soundness(ir, rng_seeds=(0,))
            assert violations == [], violations
