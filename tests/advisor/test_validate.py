"""Execution validation: the sequential-vs-interleaved differential suite."""

import math
import re

import pytest

from repro.advisor import (
    AdvicePlan,
    Clause,
    TIER_MODEL_ONLY,
    VALIDATION_REFUTED,
    VALIDATION_UNVALIDATED,
    VALIDATION_VALIDATED,
    advise_program,
    bitwise_equal,
    build_advice_plans,
    self_check,
    ulp_diff,
    validate_plan,
)
from repro.advisor.driver import (
    build_privatization_demo,
    build_racy_demo,
    build_reduction_demo,
)
from repro.advisor.validate import OUT_ARRAY, _Reference, build_kernel
from repro.ir.builder import ProgramBuilder

from tests.helpers import (
    build_doall_program,
    build_mixed_program,
    build_reduction_program,
    build_sequential_program,
    profile,
)

SEEDS = (0, 1, 2)
THREADS = (2, 4)


def plans_for(program):
    ir, report = profile(program)
    return build_advice_plans(program, ir, report)


def doall_plan(program, loop_id):
    """A hand-made advised DOALL plan with no clauses but parallel_for."""
    return AdvicePlan(
        loop_id=loop_id,
        program=program.name,
        function="main",
        line=1,
        pattern="doall",
        advised=True,
        tier=TIER_MODEL_ONLY,
        clauses=(Clause(kind="parallel_for", provenance=("model:mvgnn",)),),
        pragma="#pragma omp parallel for",
        rationale="hand-made test plan",
    )


def count_lowerings(monkeypatch):
    """Names of the programs the validator lowers, as it lowers them."""
    import repro.advisor.validate as validate_module

    lowered = []
    lower = validate_module.lower_program

    def counting_lower(program):
        lowered.append(program.name)
        return lower(program)

    monkeypatch.setattr(validate_module, "lower_program", counting_lower)
    return lowered


class TestUlpMath:
    def test_identical_is_zero(self):
        assert ulp_diff(1.0, 1.0) == 0.0

    def test_adjacent_floats_are_one_ulp(self):
        nxt = math.nextafter(1.0, 2.0)
        assert ulp_diff(1.0, nxt) == 1.0

    def test_adjacent_negatives_are_one_ulp(self):
        a = -1.0
        b = math.nextafter(-1.0, 0.0)
        assert ulp_diff(a, b) == 1.0

    def test_sign_straddle_is_conservative(self):
        # crossing zero is never inside the reassociation tolerance
        a = math.nextafter(0.0, -1.0)
        b = math.nextafter(0.0, 1.0)
        assert ulp_diff(a, b) > 4.0

    def test_nan_mismatch_is_infinite(self):
        assert ulp_diff(float("nan"), 1.0) == math.inf
        assert ulp_diff(float("nan"), float("nan")) == 0.0

    def test_bitwise_equal_distinguishes_signed_zero(self):
        assert bitwise_equal(0.0, 0.0)
        assert not bitwise_equal(0.0, -0.0)


def compare_states(ref, got, reduction_slots, max_ulp):
    """The validator's comparison of a run's state against its reference."""
    return _Reference(ref, reduction_slots, max_ulp).mismatch(got)


class TestCompareStates:
    def test_equal_states_pass(self):
        state = {"a": [1.0, 2.0], OUT_ARRAY: [3.0]}
        assert compare_states(state, {k: list(v) for k, v in state.items()},
                              reduction_slots=(), max_ulp=4.0) is None

    def test_non_reduction_slot_requires_bitwise(self):
        ref = {"a": [1.0], OUT_ARRAY: [3.0]}
        got = {"a": [math.nextafter(1.0, 2.0)], OUT_ARRAY: [3.0]}
        assert compare_states(ref, got, reduction_slots=(), max_ulp=4.0)

    def test_reduction_slot_tolerates_ulps(self):
        ref = {OUT_ARRAY: [3.0]}
        got = {OUT_ARRAY: [math.nextafter(3.0, 4.0)]}
        assert compare_states(ref, got, reduction_slots=(0,),
                              max_ulp=4.0) is None
        far = {OUT_ARRAY: [3.0 + 1e-9]}
        assert compare_states(ref, far, reduction_slots=(0,), max_ulp=4.0)


class TestKernelHarness:
    def test_kernel_appends_spill_array_last(self):
        program = build_reduction_program()
        plan = plans_for(program)["red:main:L1"]
        kernel = build_kernel(program, plan)
        assert list(kernel.program.arrays)[-1] == OUT_ARRAY
        assert list(kernel.program.arrays)[:-1] == list(program.arrays)

    def test_kernel_liveouts_cover_accumulator(self):
        program = build_reduction_program()
        plan = plans_for(program)["red:main:L1"]
        kernel = build_kernel(program, plan)
        assert "s" in kernel.liveouts
        assert kernel.reduction_slots == (kernel.liveouts.index("s"),)


class TestDifferentialSuite:
    """Acceptance: ≥3 seeds × T ∈ {2, 4}, bitwise except reassociated sums."""

    @pytest.mark.parametrize("builder,loop_id", [
        (build_reduction_demo, "advdemo_red:main:L0"),
        (build_privatization_demo, "advdemo_priv:main:L0"),
        (build_doall_program, "doall:main:L0"),
        (build_doall_program, "doall:main:L1"),
        (build_reduction_program, "red:main:L1"),
    ])
    def test_advised_plan_validates(self, builder, loop_id):
        program = builder()
        plan = plans_for(program)[loop_id]
        assert plan.advised, plan.rationale
        validated = validate_plan(program, plan, threads=THREADS, seeds=SEEDS)
        record = validated.validation
        assert record.status == VALIDATION_VALIDATED, record.detail
        assert record.threads == THREADS
        assert record.seeds == SEEDS
        assert "roundrobin" in record.schedules
        assert any(s.startswith("adversarial:") for s in record.schedules)
        assert validated.advised

    def test_kernel_reference_runs_once(self, monkeypatch):
        lowered = count_lowerings(monkeypatch)
        program = build_doall_program()
        plan = plans_for(program)["doall:main:L0"]
        record = validate_plan(
            program, plan, threads=THREADS, seeds=SEEDS
        ).validation
        assert record.status == VALIDATION_VALIDATED, record.detail
        # the profiled kernel-context run doubles as the sequential
        # reference: one lowering of the kernel, then one per thread count
        # for the transformed program
        assert len(lowered) == 1 + len(THREADS)

    def test_untransformable_kernel_is_never_lowered(self, monkeypatch):
        lowered = count_lowerings(monkeypatch)
        pb = ProgramBuilder("nest")
        pb.array("a", 16)
        pb.array("c", 16)
        with pb.function("main") as fb:
            with fb.loop("i", 0, 4) as i:
                with fb.loop("j", 0, 4) as j:
                    k = fb.add(fb.mul(i, 4.0), j)
                    fb.store("c", k, fb.load("a", k))
        program = pb.build()
        plan = doall_plan(program, "nest:main:L0")
        record = validate_plan(program, plan, threads=THREADS).validation
        assert record.status == VALIDATION_UNVALIDATED
        assert record.detail == (
            "not transformable: nest:main:L0: non-straight-line statement For"
        )
        assert lowered == []

    def test_user_function_call_is_not_transformable(self):
        pb = ProgramBuilder("callee")
        pb.array("a", 8)
        pb.array("b", 8)
        with pb.function("twice", params=("x",)) as hf:
            hf.ret(hf.mul("x", 2.0))
        with pb.function("main") as fb:
            with fb.loop("i", 0, 8) as i:
                fb.store("b", i, fb.call("twice", fb.load("a", i)))
        program = pb.build()
        plan = doall_plan(program, "callee:main:L0")
        record = validate_plan(program, plan, threads=THREADS).validation
        assert record.status == VALIDATION_UNVALIDATED
        assert record.detail.endswith("call to non-intrinsic 'twice'")

    def test_fault_under_a_schedule_refutes(self):
        # k is shared because the plan omits private(k): run sequentially
        # every store hits b[i], but once another thread's k is read the
        # index leaves the array
        pb = ProgramBuilder("faulty")
        pb.array("a", 24)
        pb.array("b", 24)
        with pb.function("main") as fb:
            with fb.loop("i", 0, 24) as i:
                fb.assign("k", i)
                index = fb.add(i, fb.mul(fb.sub("k", i), 100.0))
                fb.store("b", index, fb.load("a", i))
        program = pb.build()
        plan = doall_plan(program, "faulty:main:L0")
        record = validate_plan(program, plan, threads=(2,), seeds=(0,)).validation
        assert record.status == VALIDATION_REFUTED
        assert record.detail.startswith(
            "runtime fault under roundrobin at T=2: store b["
        ), record.detail

    def test_racy_plan_refuted_and_stripped(self):
        program, bad_plan = build_racy_demo()
        refuted = validate_plan(program, bad_plan, threads=THREADS, seeds=SEEDS)
        record = refuted.validation
        assert record.status == VALIDATION_REFUTED
        assert "diverges" in record.detail or "T=" in record.detail
        # refutation strips the advice: never emitted as actionable
        assert not refuted.advised
        assert refuted.pragma is None

    def test_mismatch_detail_prints_plain_floats(self):
        program, bad_plan = build_racy_demo()
        detail = validate_plan(program, bad_plan, threads=(2,)).validation.detail
        # array elements are NumPy floats; the detail prints them as floats
        assert "np.float64" not in detail
        assert re.search(
            r"diverges: b\[\d+\]: [-+.e\d]+ vs [-+.e\d]+ \(bitwise\)$", detail
        ), detail

    def test_not_advised_plan_is_unvalidated(self):
        program = build_sequential_program()
        plans = plans_for(program)
        plan = next(p for p in plans.values() if not p.advised)
        record = validate_plan(program, plan).validation
        assert record.status == VALIDATION_UNVALIDATED
        assert "not advised" in record.detail


class TestAdviseProgram:
    def test_mixed_program_end_to_end(self):
        program = build_mixed_program()
        plans = advise_program(program, threads=THREADS, seeds=SEEDS)
        validated = [
            p for p in plans.values()
            if p.validation.status == VALIDATION_VALIDATED
        ]
        refuted = [
            p for p in plans.values()
            if p.validation.status == VALIDATION_REFUTED
        ]
        assert len(validated) >= 2
        # nothing the prover or scheduler rejected stays advised
        assert all(not p.advised for p in refuted)
        serial = plans["mixed:main:L2"]
        assert not serial.advised

    def test_validate_false_leaves_plans_pending(self):
        program = build_doall_program()
        plans = advise_program(program, validate=False)
        assert all(p.validation.status == "pending" for p in plans.values())


class TestSelfCheck:
    def test_known_answer_probes(self):
        check = self_check(threads=(2,), seeds=(0,))
        assert check.reduction_validated
        assert check.privatization_validated
        assert check.racy_refuted
        assert check.passed
        assert len(check.details) == 3
