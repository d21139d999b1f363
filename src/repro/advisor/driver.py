"""High-level advisor entry points: per-program and per-app advice runs.

``advise_program`` is the whole pipeline for one MiniC program: lower +
profile, fuse verdicts into :class:`AdvicePlan` objects, then execution-
validate each advised plan by simulated interleaving.  ``advise_app``
maps it over a benchmark application and aggregates a Table-IV-style
summary row (advised / validated / refuted per app).

``self_check`` exercises the machinery on three hand-authored kernels
with *known* correct outcomes — a sum reduction the scheduler must
validate, a privatizable temporary it must validate, and a deliberately
broken plan (the same temporary left shared) it must refute.  The CLI
runs it on every ``repro advise`` invocation and the benchmark gates on
it: a validator that cannot refute a planted race proves nothing when it
validates everything else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.ast_nodes import Program
from repro.ir.builder import ProgramBuilder
from repro.ir.lowering import lower_program
from repro.ir.verify import verify_program
from repro.lint.shared_analysis import program_analysis
from repro.profiler.interpreter import profile_program
from repro.advisor.plan import (
    AdvicePlan,
    Clause,
    TIER_MODEL_ONLY,
    TIER_PROVER_CONFIRMED,
    VALIDATION_REFUTED,
    VALIDATION_UNVALIDATED,
    VALIDATION_VALIDATED,
    build_advice_plans,
)
from repro.advisor.validate import (
    DEFAULT_MAX_ULP,
    DEFAULT_SEEDS,
    DEFAULT_THREADS,
    validate_plan,
)


def advise_program(
    program: Program,
    model_verdicts: Optional[Dict[str, int]] = None,
    threads: Sequence[int] = DEFAULT_THREADS,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    max_ulp: float = DEFAULT_MAX_ULP,
    validate: bool = True,
    array_rng: int = 0,
) -> Dict[str, AdvicePlan]:
    """Build and (optionally) execution-validate plans for every loop."""
    analysis = program_analysis(program)
    # the shared analysis's O0 lowering is the one the plans profile; a
    # program it could not lower raises here, as lowering it would
    ir = analysis.ir if analysis.ir is not None else lower_program(program)
    verify_program(ir)
    report = profile_program(ir)
    plans = build_advice_plans(
        program, ir, report, model_verdicts, analysis=analysis
    )
    if not validate:
        return plans
    return {
        loop_id: validate_plan(
            program, plan, threads=threads, seeds=seeds,
            max_ulp=max_ulp, array_rng=array_rng,
        )
        for loop_id, plan in plans.items()
    }


@dataclass
class AppAdvice:
    """One application's advice run: plans plus the Table-IV tallies."""

    app: str
    plans: Dict[str, AdvicePlan] = field(default_factory=dict)

    @property
    def loops(self) -> int:
        return len(self.plans)

    @property
    def advised(self) -> int:
        return sum(1 for p in self.plans.values() if p.advised)

    @property
    def validated(self) -> int:
        return sum(
            1 for p in self.plans.values()
            if p.validation.status == VALIDATION_VALIDATED
        )

    @property
    def refuted(self) -> int:
        return sum(
            1 for p in self.plans.values()
            if p.validation.status == VALIDATION_REFUTED
        )

    @property
    def unvalidated(self) -> int:
        return sum(
            1 for p in self.plans.values()
            if p.advised
            and p.validation.status == VALIDATION_UNVALIDATED
        )

    @property
    def prover_confirmed(self) -> int:
        return sum(
            1 for p in self.plans.values()
            if p.advised and p.tier == TIER_PROVER_CONFIRMED
        )

    @property
    def model_only(self) -> int:
        return sum(
            1 for p in self.plans.values()
            if p.advised and p.tier == TIER_MODEL_ONLY
        )


def advise_app(
    spec,
    model_verdicts: Optional[Dict[str, int]] = None,
    threads: Sequence[int] = DEFAULT_THREADS,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    max_ulp: float = DEFAULT_MAX_ULP,
    validate: bool = True,
    array_rng: int = 0,
) -> AppAdvice:
    """Advise every program of one benchmark application."""
    advice = AppAdvice(app=spec.name)
    for program in spec.programs:
        advice.plans.update(advise_program(
            program, model_verdicts,
            threads=threads, seeds=seeds, max_ulp=max_ulp,
            validate=validate, array_rng=array_rng,
        ))
    return advice


TABLE_HEADER = (
    f"{'app':<12} {'loops':>5} {'advised':>7} {'prover':>6} "
    f"{'model':>5} {'validated':>9} {'refuted':>7} {'unvalid':>7}"
)


def render_table(advices: Sequence[AppAdvice]) -> str:
    """Table-IV-style per-application advisor report."""
    lines = [TABLE_HEADER, "-" * len(TABLE_HEADER)]
    total = AppAdvice(app="total")
    for a in advices:
        lines.append(
            f"{a.app:<12} {a.loops:>5} {a.advised:>7} {a.prover_confirmed:>6} "
            f"{a.model_only:>5} {a.validated:>9} {a.refuted:>7} "
            f"{a.unvalidated:>7}"
        )
        total.plans.update(a.plans)
    lines.append("-" * len(TABLE_HEADER))
    lines.append(
        f"{'total':<12} {total.loops:>5} {total.advised:>7} "
        f"{total.prover_confirmed:>6} {total.model_only:>5} "
        f"{total.validated:>9} {total.refuted:>7} {total.unvalidated:>7}"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Self-check kernels
# ---------------------------------------------------------------------------


def build_reduction_demo() -> Program:
    """``s += a[i] * a[i]`` — must validate with ``reduction(+: s)``."""
    pb = ProgramBuilder("advdemo_red")
    pb.array("a", 24)
    with pb.function("main") as fb:
        with fb.loop("i", 0, 24) as i:
            loaded = fb.load("a", i)
            fb.assign("s", fb.add(fb.var("s"), fb.mul(loaded, loaded)))
    return pb.build()


def build_privatization_demo() -> Program:
    """``t = 2*a[i]; b[i] = t + 1`` — must validate with ``private(t)``."""
    pb = ProgramBuilder("advdemo_priv")
    pb.array("a", 24)
    pb.array("b", 24)
    with pb.function("main") as fb:
        with fb.loop("i", 0, 24) as i:
            fb.assign("t", fb.mul(fb.load("a", i), fb.const(2.0)))
            fb.store("b", i, fb.add(fb.var("t"), fb.const(1.0)))
    return pb.build()


def build_racy_demo() -> Tuple[Program, AdvicePlan]:
    """The privatization kernel with a deliberately broken plan.

    The plan claims plain DOALL parallelism and omits ``private(t)``, so
    under any interleaved schedule the shared temporary is clobbered
    between its write and its read.  The scheduler must refute it.
    """
    pb = ProgramBuilder("advdemo_racy")
    pb.array("a", 24)
    pb.array("b", 24)
    with pb.function("main") as fb:
        with fb.loop("i", 0, 24) as i:
            fb.assign("t", fb.mul(fb.load("a", i), fb.const(2.0)))
            fb.store("b", i, fb.add(fb.var("t"), fb.const(1.0)))
    program = pb.build()
    loop_id = "advdemo_racy:main:L0"
    plan = AdvicePlan(
        loop_id=loop_id,
        program=program.name,
        function="main",
        line=1,
        pattern="doall",
        advised=True,
        tier=TIER_MODEL_ONLY,
        clauses=(Clause(kind="parallel_for", provenance=("model:mvgnn",)),),
        pragma="#pragma omp parallel for",
        rationale="deliberately unprivatized temporary (self-check)",
    )
    return program, plan


@dataclass
class SelfCheckResult:
    """Outcome of the three known-answer validator probes."""

    reduction_validated: bool
    privatization_validated: bool
    racy_refuted: bool
    details: Tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return (
            self.reduction_validated
            and self.privatization_validated
            and self.racy_refuted
        )


def self_check(
    threads: Sequence[int] = DEFAULT_THREADS,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    max_ulp: float = DEFAULT_MAX_ULP,
) -> SelfCheckResult:
    """Known-answer probes: validate two good kernels, refute one race."""
    details: List[str] = []

    def one_plan(program: Program) -> AdvicePlan:
        plans = advise_program(
            program, threads=threads, seeds=seeds, max_ulp=max_ulp
        )
        (plan,) = plans.values()
        return plan

    red = one_plan(build_reduction_demo())
    red_ok = (
        red.validation.status == VALIDATION_VALIDATED
        and bool(red.reduction_vars)
    )
    details.append(f"reduction demo: {red.validation.status} ({red.pragma})")

    priv = one_plan(build_privatization_demo())
    priv_ok = (
        priv.validation.status == VALIDATION_VALIDATED
        and "t" in priv.private_vars
    )
    details.append(
        f"privatization demo: {priv.validation.status} ({priv.pragma})"
    )

    racy_program, racy_plan = build_racy_demo()
    racy = validate_plan(
        racy_program, racy_plan,
        threads=threads, seeds=seeds, max_ulp=max_ulp,
    )
    racy_ok = (
        racy.validation.status == VALIDATION_REFUTED and not racy.advised
    )
    details.append(
        f"racy demo: {racy.validation.status} ({racy.validation.detail})"
    )

    return SelfCheckResult(
        reduction_validated=red_ok,
        privatization_validated=priv_ok,
        racy_refuted=racy_ok,
        details=tuple(details),
    )
