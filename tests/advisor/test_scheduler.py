"""Simulated interleaving: determinism, adversarial seeding, race visibility."""

import pytest

from repro.advisor import (
    SCHEDULE_ADVERSARIAL,
    SCHEDULE_ROUNDROBIN,
    ScheduleSpec,
    apply_plan,
    build_advice_plans,
    run_interleaved,
)
from repro.advisor.driver import build_racy_demo
from repro.advisor.plan import AdvicePlan, Clause, TIER_MODEL_ONLY
from repro.errors import AdvisorError, InterpreterError
from repro.ir.builder import ProgramBuilder
from repro.ir.lowering import lower_program
from repro.profiler.interpreter import Interpreter

from tests.helpers import build_reduction_program, profile, run_and_state


@pytest.fixture(scope="module")
def reduction_transformed():
    program = build_reduction_program()
    ir, report = profile(program)
    plan = build_advice_plans(program, ir, report)["red:main:L1"]
    assert plan.advised
    return apply_plan(program, plan, 4)


def interleave(result, spec):
    """One interleaved run of ``result`` from the seed-0 arrays."""
    interpreter = Interpreter(lower_program(result.program), record=False)
    return run_interleaved(result, spec, interpreter)


def interleave_body(body, size=4):
    """Round-robin run of ``for i in [0, size): body(fb, i)`` over 2 threads."""
    pb = ProgramBuilder("ev")
    pb.array("a", 2)
    pb.array("b", size)
    with pb.function("main") as fb:
        with fb.loop("i", 0, size) as i:
            body(fb, i)
    program = pb.build()
    plan = AdvicePlan(
        loop_id="ev:main:L0",
        program=program.name,
        function="main",
        line=1,
        pattern="doall",
        advised=True,
        tier=TIER_MODEL_ONLY,
        clauses=(Clause(kind="parallel_for", provenance=("model:mvgnn",)),),
        pragma="#pragma omp parallel for",
        rationale="expression semantics under threads",
    )
    result = apply_plan(program, plan, 2)
    assert len(result.chunks) == 2
    return interleave(result, ScheduleSpec(SCHEDULE_ROUNDROBIN))


class TestScheduleSpec:
    def test_adversarial_requires_seed(self):
        with pytest.raises(AdvisorError):
            ScheduleSpec(SCHEDULE_ADVERSARIAL)

    def test_unknown_kind_rejected(self):
        with pytest.raises(AdvisorError):
            ScheduleSpec("random")

    def test_labels(self):
        assert ScheduleSpec(SCHEDULE_ROUNDROBIN).label == "roundrobin"
        assert ScheduleSpec(SCHEDULE_ADVERSARIAL, seed=7).label == "adversarial:7"


class TestEvalExpr:
    """Expressions evaluated inside chunk threads keep the interpreter's
    semantics: defaults, guarded intrinsics and faults."""

    def test_scalar_default_and_side_effect(self):
        def body(fb, i):
            fb.store("b", i, fb.add(fb.var("x"), 1.0))
            fb.assign("x", 5.0)

        run = interleave_body(body)
        # every thread reads the unwritten shared x as 0.0 before its first
        # write; the write then lands in the shared scalars
        assert run.arrays["b"][0] == 1.0
        assert run.scalars["x"] == 5.0

    def test_intrinsic_clamps(self):
        def body(fb, i):
            fb.store("b", i, fb.call("sqrt", fb.sub(-4.0, i)))

        run = interleave_body(body)
        assert list(run.arrays["b"]) == [0.0] * 4

    def test_load_bounds_checked(self):
        def body(fb, i):
            fb.store("b", i, fb.load("a", fb.add(i, 5.0)))

        with pytest.raises(InterpreterError, match="out of bounds"):
            interleave_body(body)

    def test_division_by_zero_raises(self):
        def body(fb, i):
            fb.store("b", i, fb.div(1.0, fb.sub(i, i)))

        with pytest.raises(InterpreterError, match="division by zero"):
            interleave_body(body)


class TestDeterminism:
    def test_same_seed_same_trace_and_state(self, reduction_transformed):
        spec = ScheduleSpec(SCHEDULE_ADVERSARIAL, seed=3)
        a = interleave(reduction_transformed, spec)
        b = interleave(reduction_transformed, spec)
        assert a.trace == b.trace
        assert a.scalars == b.scalars
        assert {k: list(v) for k, v in a.arrays.items()} == {
            k: list(v) for k, v in b.arrays.items()
        }

    def test_different_seed_different_trace(self, reduction_transformed):
        a = interleave(
            reduction_transformed, ScheduleSpec(SCHEDULE_ADVERSARIAL, seed=0)
        )
        b = interleave(
            reduction_transformed, ScheduleSpec(SCHEDULE_ADVERSARIAL, seed=1)
        )
        # the interleaving order differs even though the result agrees
        assert a.trace != b.trace

    def test_roundrobin_is_deterministic(self, reduction_transformed):
        spec = ScheduleSpec(SCHEDULE_ROUNDROBIN)
        a = interleave(reduction_transformed, spec)
        b = interleave(reduction_transformed, spec)
        assert a.trace == b.trace
        assert a.scalars == b.scalars

    def test_trace_names_all_chunks(self, reduction_transformed):
        run = interleave(
            reduction_transformed, ScheduleSpec(SCHEDULE_ADVERSARIAL, seed=0)
        )
        assert set(run.trace) == {0, 1, 2, 3}


class TestCorrectnessUnderSchedules:
    def test_privatized_reduction_matches_sequential(self, reduction_transformed):
        _, ref_arrays = run_and_state(build_reduction_program())
        for spec in (
            ScheduleSpec(SCHEDULE_ROUNDROBIN),
            ScheduleSpec(SCHEDULE_ADVERSARIAL, seed=0),
            ScheduleSpec(SCHEDULE_ADVERSARIAL, seed=1),
        ):
            run = interleave(reduction_transformed, spec)
            got = {k: tuple(v) for k, v in run.arrays.items()}
            assert got == ref_arrays, spec.label

    def test_unprivatized_racy_plan_diverges(self):
        # the planted race: `t` is shared because the plan omits private(t);
        # round-robin at every shared store interleaves the two writes
        program, bad_plan = build_racy_demo()
        result = apply_plan(program, bad_plan, 2)
        _, ref_arrays = run_and_state(program)
        run = interleave(result, ScheduleSpec(SCHEDULE_ROUNDROBIN))
        got = {k: tuple(v) for k, v in run.arrays.items()}
        assert got != ref_arrays
