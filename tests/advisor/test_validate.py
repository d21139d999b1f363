"""Execution validation: the sequential-vs-interleaved differential suite."""

import math

import pytest

from repro.advisor import (
    VALIDATION_REFUTED,
    VALIDATION_UNVALIDATED,
    VALIDATION_VALIDATED,
    advise_program,
    bitwise_equal,
    build_advice_plans,
    compare_states,
    self_check,
    ulp_diff,
    validate_plan,
)
from repro.advisor.driver import (
    build_privatization_demo,
    build_racy_demo,
    build_reduction_demo,
)
from repro.advisor.validate import OUT_ARRAY, build_kernel

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
        import repro.advisor.validate as validate_module

        lowered = []
        lower = validate_module.lower_program

        def counting_lower(program):
            lowered.append(program.name)
            return lower(program)

        monkeypatch.setattr(validate_module, "lower_program", counting_lower)
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

    def test_racy_plan_refuted_and_stripped(self):
        program, bad_plan = build_racy_demo()
        refuted = validate_plan(program, bad_plan, threads=THREADS, seeds=SEEDS)
        record = refuted.validation
        assert record.status == VALIDATION_REFUTED
        assert "diverges" in record.detail or "T=" in record.detail
        # refutation strips the advice: never emitted as actionable
        assert not refuted.advised
        assert refuted.pragma is None

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
