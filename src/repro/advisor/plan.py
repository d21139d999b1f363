"""Typed advice plans: model verdict + prover + analysis evidence, fused.

An :class:`AdvicePlan` is the advisor's unit of output — one per candidate
loop — recording *what* transformation is advised (parallel-for,
``reduction(op: var)`` clauses, privatization of named scalars), *who*
supported each clause (the provenance list), and *how much* to trust it
(the confidence tier):

``prover_confirmed``
    The static dependence prover (:mod:`repro.lint.static_dep`) proved the
    loop parallel under the oracle's semantics.
``model_only``
    The MV-GNN (or, without a model, the dynamic oracle) says parallel but
    the prover returned ``UNKNOWN`` — exactly the gap execution validation
    (:mod:`repro.advisor.validate`) exists to close.
``prover_refuted``
    The prover proved a blocking carried dependence; the plan is
    downgraded (``advised=False``) no matter what the model said, and is
    never emitted as an actionable pragma.

Plans serialize to plain JSON-ready dicts (:meth:`AdvicePlan.to_wire` /
:func:`plan_from_wire`) with deterministic field content, so the CLI
report, the on-disk artifacts linted by rule ``AD001``, and the
``POST /v1/advise`` endpoint all carry byte-identical plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.analysis.patterns import classify_all_patterns
from repro.analysis.reduction import find_reductions
from repro.analysis.suggestions import _bare, _is_inner_induction, render_pragma
from repro.errors import AdvisorError
from repro.ir import ast_nodes as ast
from repro.ir.linear import IRProgram
from repro.lint.static_dep import (
    StaticVerdict,
    build_prover_context,
    static_loop_verdicts,
)
from repro.profiler.report import ProfileReport
from repro.profiler.static_info import program_block_sets

if TYPE_CHECKING:
    from repro.lint.shared_analysis import ProgramAnalysis

#: Confidence tiers, in decreasing trust order.
TIER_PROVER_CONFIRMED = "prover_confirmed"
TIER_MODEL_ONLY = "model_only"
TIER_PROVER_REFUTED = "prover_refuted"
TIERS = (TIER_PROVER_CONFIRMED, TIER_MODEL_ONLY, TIER_PROVER_REFUTED)

#: Validation states an :class:`AdvicePlan` can carry.
VALIDATION_PENDING = "pending"
VALIDATION_VALIDATED = "validated"
VALIDATION_REFUTED = "refuted"
VALIDATION_UNVALIDATED = "unvalidated"


@dataclass(frozen=True)
class Clause:
    """One transformation clause with its evidence provenance.

    ``kind`` is ``"parallel_for"`` (var/operator None), ``"reduction"``
    (var = accumulator, operator = ``+``/``*``/``min``/``max``/``-``), or
    ``"private"`` (var = scalar name).  ``provenance`` names the views
    and provers that support the clause (``model:mvgnn``,
    ``oracle:dynamic``, ``prover:static_dep``, ``analysis:reduction``,
    ``analysis:privatization``).
    """

    kind: str
    var: Optional[str] = None
    operator: Optional[str] = None
    provenance: Tuple[str, ...] = ()

    def render(self) -> Optional[str]:
        """The OpenMP clause text (None for the bare parallel-for)."""
        if self.kind == "reduction":
            return f"reduction({self.operator}: {self.var})"
        if self.kind == "private":
            return f"private({self.var})"
        return None

    def to_wire(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "var": self.var,
            "operator": self.operator,
            "provenance": list(self.provenance),
        }


@dataclass(frozen=True)
class ValidationRecord:
    """Outcome of simulated-interleaving validation for one plan."""

    status: str = VALIDATION_PENDING
    threads: Tuple[int, ...] = ()
    seeds: Tuple[int, ...] = ()
    schedules: Tuple[str, ...] = ()
    max_ulp: float = 4.0
    detail: str = ""

    def to_wire(self) -> Dict[str, object]:
        return {
            "status": self.status,
            "threads": list(self.threads),
            "seeds": list(self.seeds),
            "schedules": list(self.schedules),
            "max_ulp": self.max_ulp,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class AdvicePlan:
    """One loop's fused, execution-checkable parallelization plan."""

    loop_id: str
    program: str
    function: str
    line: int
    pattern: str                      # ParallelPattern value string
    advised: bool
    tier: str
    clauses: Tuple[Clause, ...] = ()
    pragma: Optional[str] = None      # None when not advised
    static_verdict: str = StaticVerdict.UNKNOWN.value
    static_reasons: Tuple[str, ...] = ()
    model_label: Optional[int] = None
    oracle_label: int = 0
    rationale: str = ""
    validation: ValidationRecord = field(default_factory=ValidationRecord)

    @property
    def reduction_vars(self) -> Tuple[str, ...]:
        return tuple(
            c.var for c in self.clauses if c.kind == "reduction"
        )

    @property
    def reduction_ops(self) -> Dict[str, str]:
        return {
            c.var: c.operator for c in self.clauses if c.kind == "reduction"
        }

    @property
    def private_vars(self) -> Tuple[str, ...]:
        return tuple(c.var for c in self.clauses if c.kind == "private")

    def with_validation(
        self, record: ValidationRecord
    ) -> "AdvicePlan":
        """Attach a validation outcome; a refuted plan is *downgraded* —
        ``advised`` drops to False and the pragma is withdrawn, so a plan
        the scheduler disproved can never be emitted as actionable."""
        if record.status == VALIDATION_REFUTED:
            return replace(
                self, advised=False, pragma=None, validation=record
            )
        return replace(self, validation=record)

    def to_wire(self) -> Dict[str, object]:
        return {
            "loop_id": self.loop_id,
            "program": self.program,
            "function": self.function,
            "line": self.line,
            "pattern": self.pattern,
            "advised": self.advised,
            "tier": self.tier,
            "clauses": [c.to_wire() for c in self.clauses],
            "pragma": self.pragma,
            "static_verdict": self.static_verdict,
            "static_reasons": list(self.static_reasons),
            "model_label": self.model_label,
            "oracle_label": self.oracle_label,
            "rationale": self.rationale,
            "validation": self.validation.to_wire(),
        }


def plan_from_wire(obj: Mapping) -> AdvicePlan:
    """Inverse of :meth:`AdvicePlan.to_wire`; raises AdvisorError on junk."""
    try:
        clauses = tuple(
            Clause(
                kind=str(c["kind"]),
                var=c.get("var"),
                operator=c.get("operator"),
                provenance=tuple(c.get("provenance", ())),
            )
            for c in obj.get("clauses", ())
        )
        v = obj.get("validation", {})
        validation = ValidationRecord(
            status=str(v.get("status", VALIDATION_PENDING)),
            threads=tuple(int(t) for t in v.get("threads", ())),
            seeds=tuple(int(s) for s in v.get("seeds", ())),
            schedules=tuple(str(s) for s in v.get("schedules", ())),
            max_ulp=float(v.get("max_ulp", 4.0)),
            detail=str(v.get("detail", "")),
        )
        model_label = obj.get("model_label")
        return AdvicePlan(
            loop_id=str(obj["loop_id"]),
            program=str(obj["program"]),
            function=str(obj["function"]),
            line=int(obj["line"]),
            pattern=str(obj["pattern"]),
            advised=bool(obj["advised"]),
            tier=str(obj["tier"]),
            clauses=clauses,
            pragma=obj.get("pragma"),
            static_verdict=str(obj.get("static_verdict", "unknown")),
            static_reasons=tuple(obj.get("static_reasons", ())),
            model_label=None if model_label is None else int(model_label),
            oracle_label=int(obj.get("oracle_label", 0)),
            rationale=str(obj.get("rationale", "")),
            validation=validation,
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise AdvisorError(f"malformed plan wire object: {exc}") from exc


# ---------------------------------------------------------------------------
# Plan construction
# ---------------------------------------------------------------------------


def build_advice_plans(
    program: ast.Program,
    ir_program: IRProgram,
    report: ProfileReport,
    model_verdicts: Optional[Mapping[str, int]] = None,
    analysis: Optional[ProgramAnalysis] = None,
) -> Dict[str, AdvicePlan]:
    """Fuse verdicts, proofs, and analysis evidence into per-loop plans.

    ``model_verdicts`` maps loop ids to MV-GNN labels
    (:meth:`~repro.runtime.engine.Engine.predict_many` output); loops it
    omits — and every loop when it is None — fall back to the dynamic
    oracle's verdict, with provenance recorded accordingly.  Validation is
    *not* run here; plans come back ``pending`` and
    :func:`repro.advisor.validate.validate_plan` fills the record in.

    ``ir_program`` must be ``program``'s O0 lowering: the plans reuse the
    loop block sets the prover context computed on the shared analysis's
    O0 lowering of ``program``, which agrees with it block for block (the
    driver passes that lowering itself).  ``analysis`` is ``program``'s
    shared analysis when the caller already has it.
    """
    loops = ir_program.all_loops()
    context = (
        build_prover_context(program) if analysis is None else analysis.context
    )
    statics = static_loop_verdicts(program, context=context)
    if context is not None:
        block_sets = context.block_sets
    else:  # the analysis failed: once per function, here
        block_sets = program_block_sets(ir_program)
    patterns = classify_all_patterns(program, ir_program, report, block_sets)

    plans: Dict[str, AdvicePlan] = {}
    for loop_id, result in patterns.items():
        oracle = result.oracle
        info = loops[loop_id]
        static = statics.get(loop_id)
        static_verdict = (
            static.verdict if static is not None else StaticVerdict.UNKNOWN
        )
        static_reasons = tuple(static.reasons) if static is not None else ()
        range_facts = tuple(static.range_facts) if static is not None else ()
        # range-assisted verdicts name their evidence alongside the proof
        static_reasons = static_reasons + tuple(
            f"range: {fact}" for fact in range_facts
        )

        model_label = (
            None if model_verdicts is None else model_verdicts.get(loop_id)
        )
        verdict_parallel = (
            bool(model_label) if model_label is not None else oracle.parallel
        )
        verdict_source = (
            "model:mvgnn" if model_label is not None else "oracle:dynamic"
        )

        if static_verdict is StaticVerdict.PROVABLY_SERIAL:
            tier = TIER_PROVER_REFUTED
        elif static_verdict is StaticVerdict.PROVABLY_PARALLEL:
            tier = TIER_PROVER_CONFIRMED
        else:
            tier = TIER_MODEL_ONLY

        advised = (
            verdict_parallel
            and result.parallelizable
            and tier != TIER_PROVER_REFUTED
        )

        clauses: Tuple[Clause, ...] = ()
        pragma: Optional[str] = None
        if advised:
            clauses = _build_clauses(
                ir_program, loop_id, oracle, verdict_source, tier,
                block_sets, range_backed=bool(range_facts),
            )
            pragma = _render_clauses(clauses)

        if not verdict_parallel:
            rationale = f"{verdict_source} verdict: not parallel"
        elif tier == TIER_PROVER_REFUTED:
            rationale = "prover refuted: " + "; ".join(static_reasons[:1])
        elif not result.parallelizable:
            rationale = (
                f"{verdict_source} says parallel but pattern is "
                f"{result.pattern.value}: not corroborated"
            )
        else:
            rationale = f"{result.pattern.value}: " + "; ".join(
                result.evidence[:1]
            )

        plans[loop_id] = AdvicePlan(
            loop_id=loop_id,
            program=program.name,
            function=info.function,
            line=info.line,
            pattern=result.pattern.value,
            advised=advised,
            tier=tier,
            clauses=clauses,
            pragma=pragma,
            static_verdict=static_verdict.value,
            static_reasons=static_reasons,
            model_label=model_label,
            oracle_label=int(oracle.parallel),
            rationale=rationale,
        )
    return plans


def _build_clauses(
    ir_program: IRProgram,
    loop_id: str,
    oracle,
    verdict_source: str,
    tier: str,
    block_sets: Dict[str, Set[str]],
    range_backed: bool = False,
) -> Tuple[Clause, ...]:
    """Clause objects in the deterministic order of
    :func:`repro.analysis.suggestions.clause_strings`: the parallel-for,
    each reduction sorted by bare accumulator name, then each private
    scalar sorted by name."""
    base_prov = (verdict_source,)
    if tier == TIER_PROVER_CONFIRMED:
        base_prov = base_prov + ("prover:static_dep",)
        if range_backed:
            base_prov = base_prov + ("prover:ranges",)
    clauses: List[Clause] = [Clause("parallel_for", provenance=base_prov)]

    loop_info = ir_program.all_loops()[loop_id]
    fn = ir_program.function(loop_info.function)
    reductions = find_reductions(fn, loop_id, block_sets)
    for scoped in sorted(oracle.reductions, key=_bare):
        info = reductions.get(scoped)
        clauses.append(Clause(
            "reduction",
            var=_bare(scoped),
            operator=info.operator if info else "+",
            provenance=("analysis:reduction", "oracle:dynamic"),
        ))
    for name in sorted({
        _bare(scoped)
        for scoped in oracle.privatized
        if not _is_inner_induction(ir_program, loop_id, _bare(scoped))
    }):
        clauses.append(Clause(
            "private",
            var=name,
            provenance=("analysis:privatization", "oracle:dynamic"),
        ))
    return tuple(clauses)


def _render_clauses(clauses: Sequence[Clause]) -> str:
    """The pragma of a clause tuple, in the form of
    :func:`repro.analysis.suggestions.clause_strings`: every reduction
    clause, then one ``private(...)`` listing the private scalars."""
    texts = [c.render() for c in clauses if c.kind == "reduction"]
    private = [c.var for c in clauses if c.kind == "private"]
    if private:
        texts.append(f"private({', '.join(private)})")
    return render_pragma(texts)
