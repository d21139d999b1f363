"""Execution-validated parallelization advisor.

Fuses three verdict sources — the MV-GNN model, the ``static_dep``
prover, and the dynamic oracle's reduction/privatization evidence — into
typed :class:`AdvicePlan` objects, applies each plan to the MiniC AST as
an explicit chunked transformation, and *proves or refutes* the plan by
running the transformed loop under simulated adversarial interleavings
(see docs/ADVISOR.md).
"""

from repro.advisor.plan import (
    AdvicePlan,
    Clause,
    ValidationRecord,
    TIER_MODEL_ONLY,
    TIER_PROVER_CONFIRMED,
    TIER_PROVER_REFUTED,
    TIERS,
    VALIDATION_PENDING,
    VALIDATION_REFUTED,
    VALIDATION_UNVALIDATED,
    VALIDATION_VALIDATED,
    build_advice_plans,
    plan_from_wire,
)
from repro.advisor.transform import (
    Chunk,
    TransformResult,
    apply_plan,
    chunk_ranges,
    clone_program,
    concrete_bounds,
    find_loop,
)
from repro.advisor.scheduler import (
    InterleavedRun,
    SCHEDULE_ADVERSARIAL,
    SCHEDULE_ROUNDROBIN,
    SCHEDULES,
    ScheduleSpec,
    run_interleaved,
)
from repro.advisor.validate import (
    DEFAULT_MAX_ULP,
    DEFAULT_SEEDS,
    DEFAULT_THREADS,
    KernelSpec,
    bitwise_equal,
    build_kernel,
    ulp_diff,
    validate_plan,
)
from repro.advisor.driver import (
    AppAdvice,
    SelfCheckResult,
    advise_app,
    advise_program,
    build_privatization_demo,
    build_racy_demo,
    build_reduction_demo,
    render_table,
    self_check,
)

__all__ = [
    "AdvicePlan", "Clause", "ValidationRecord",
    "TIER_MODEL_ONLY", "TIER_PROVER_CONFIRMED", "TIER_PROVER_REFUTED",
    "TIERS",
    "VALIDATION_PENDING", "VALIDATION_REFUTED", "VALIDATION_UNVALIDATED",
    "VALIDATION_VALIDATED",
    "build_advice_plans", "plan_from_wire",
    "Chunk", "TransformResult", "apply_plan", "chunk_ranges",
    "clone_program", "concrete_bounds", "find_loop",
    "InterleavedRun", "SCHEDULE_ADVERSARIAL", "SCHEDULE_ROUNDROBIN",
    "SCHEDULES", "ScheduleSpec", "run_interleaved",
    "DEFAULT_MAX_ULP", "DEFAULT_SEEDS", "DEFAULT_THREADS",
    "KernelSpec", "bitwise_equal", "build_kernel", "ulp_diff",
    "validate_plan",
    "AppAdvice", "SelfCheckResult", "advise_app", "advise_program",
    "build_privatization_demo", "build_racy_demo", "build_reduction_demo",
    "render_table", "self_check",
]
