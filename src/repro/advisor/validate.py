"""Execution validation of advice plans by simulated interleaving.

The validator extracts the advised loop into a self-contained *kernel
program*, checks that the loop is transformable, runs the kernel
sequentially on the stock interpreter as the reference, then applies the
plan's transformation for each requested thread count and demands
equivalence twice over:

1. the transformed program run *sequentially* must already match the
   reference (the transformation itself must be semantics-preserving),
2. every simulated interleaving — the systematic round-robin schedule
   plus one seeded adversarial schedule per requested seed — must match
   the reference too.

Equivalence is **bitwise** for every array element except the live-out
slots of reduction accumulators, which the ordered merge reassociates;
those may differ by at most ``max_ulp`` units in the last place
(default 4).  Any mismatch *refutes* the plan: :meth:`AdvicePlan.with_validation`
downgrades it (``advised=False``, no pragma), so a refuted plan is never
emitted.  Loops the machinery cannot execute (symbolic bounds,
non-straight-line bodies) come back ``unvalidated`` before anything is
lowered or run — advice stands on its static/model tier alone, clearly
labeled.

Every run of a plan starts from copies of one draw of the kernel's
arrays, and each thread count lowers its transformed program once: one
:class:`~repro.profiler.interpreter.Interpreter` serves its sequential
run and all its schedules.

Kernel harness
--------------

Live-out scalars of the loop (assignment targets plus the induction
variable) are spilled to a synthetic ``advout`` array after the loop, so
scalar corruption is visible through array state — the interpreter's
scalars are frame-local and unobservable after the run.  ``advout`` is
appended *last* to the arrays table so the seeded initialization draws
for the program's real arrays are unchanged.  Free scalars the loop
reads get deterministic synthetic values: 0.0 when they appear in
subscripts or bounds (keeping indices in range), else ``0.5 + 0.37*j``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import AdvisorError, InterpreterError
from repro.ir import ast_nodes as ast
from repro.ir.lowering import lower_program
from repro.ir.verify import verify_program
from repro.profiler.interpreter import Interpreter, draw_arrays
from repro.advisor.plan import (
    AdvicePlan,
    ValidationRecord,
    VALIDATION_REFUTED,
    VALIDATION_UNVALIDATED,
    VALIDATION_VALIDATED,
)
from repro.advisor.scheduler import (
    SCHEDULE_ADVERSARIAL,
    SCHEDULE_ROUNDROBIN,
    ScheduleSpec,
    run_interleaved,
)
from repro.advisor.transform import (
    apply_plan,
    clone_stmt,
    find_loop,
    transform_blocker,
)

#: name of the synthetic live-out spill array
OUT_ARRAY = "advout"

DEFAULT_THREADS = (2, 4)
DEFAULT_SEEDS = (0, 1, 2)
DEFAULT_MAX_ULP = 4.0


# ---------------------------------------------------------------------------
# float comparison
# ---------------------------------------------------------------------------


def _ordered_bits(x: float) -> int:
    """Map a float64 to an ordered integer: adjacent floats differ by 1."""
    (i,) = struct.unpack("<q", struct.pack("<d", x))
    return i if i >= 0 else 0x8000000000000000 - i


def ulp_diff(a: float, b: float) -> float:
    """Distance in units-in-the-last-place; inf when either is a NaN."""
    if a != a or b != b:
        return 0.0 if (a != a and b != b) else float("inf")
    return float(abs(_ordered_bits(a) - _ordered_bits(b)))


def bitwise_equal(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


def _packed(values: List[float]) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


class _Reference:
    """A reference state, packed once, that run states are compared to.

    :meth:`mismatch` names the first difference under the policy, or
    returns None: bitwise equality everywhere, except ``advout`` elements
    listed in ``reduction_slots``, which tolerate ``max_ulp`` ULPs of
    reassociation.
    """

    def __init__(
        self,
        ref: Dict[str, List[float]],
        reduction_slots: Sequence[int],
        max_ulp: float,
    ) -> None:
        self.ref = ref
        self.slots = set(reduction_slots)
        self.max_ulp = max_ulp
        self.packed = {name: _packed(values) for name, values in ref.items()}

    def mismatch(self, got: Dict[str, List[float]]) -> Optional[str]:
        slots, max_ulp = self.slots, self.max_ulp
        for name, ref_vals in self.ref.items():
            got_vals = got.get(name)
            if got_vals is None or len(got_vals) != len(ref_vals):
                return f"array {name!r} missing or resized"
            exact = name != OUT_ARRAY or not slots
            if exact and self.packed[name] == _packed(got_vals):
                continue  # bitwise equal throughout
            for i, (a, b) in enumerate(zip(ref_vals, got_vals)):
                if name == OUT_ARRAY and i in slots:
                    diff = ulp_diff(a, b)
                    if diff > max_ulp:
                        return (
                            f"{name}[{i}] (reduction slot): {float(a)!r} vs "
                            f"{float(b)!r} ({diff:.0f} ulp > {max_ulp:g})"
                        )
                elif not bitwise_equal(a, b):
                    return f"{name}[{i}]: {float(a)!r} vs {float(b)!r} (bitwise)"
        return None


# ---------------------------------------------------------------------------
# Kernel extraction
# ---------------------------------------------------------------------------


@dataclass
class KernelSpec:
    """A self-contained single-loop program plus its live-out layout."""

    program: ast.Program
    loop_id: str
    liveouts: Tuple[str, ...]          # advout slot j holds liveouts[j]
    reduction_slots: Tuple[int, ...]   # advout slots holding reduction accs
    scalar_inits: Dict[str, float]
    loop: ast.For                      # the kernel's copy of the loop


def _vars_in(expr: ast.Expr) -> Set[str]:
    return {n.name for n in ast.walk_exprs(expr) if isinstance(n, ast.Var)}


def build_kernel(program: ast.Program, plan: AdvicePlan) -> KernelSpec:
    """Extract ``plan``'s loop into a standalone harness program."""
    fn_name, loop = find_loop(program, plan.loop_id)

    bound_vars: Set[str] = set()
    for e in (loop.lo, loop.hi, loop.step):
        bound_vars |= _vars_in(e)
    index_vars: Set[str] = set()
    read_vars: Set[str] = set()
    targets: List[str] = []
    for stmt in ast.walk_stmts(loop.body):
        for expr in ast.stmt_exprs(stmt):
            read_vars |= _vars_in(expr)
        if isinstance(stmt, ast.Store):
            index_vars |= _vars_in(stmt.index)
        if isinstance(stmt, ast.Assign) and stmt.name not in targets:
            targets.append(stmt.name)
        if isinstance(stmt, ast.For):
            for e in (stmt.lo, stmt.hi, stmt.step):
                read_vars |= _vars_in(e)
        for expr in ast.stmt_exprs(stmt):
            for node in ast.walk_exprs(expr):
                if isinstance(node, ast.Load):
                    index_vars |= _vars_in(node.index)

    inner_vars = {
        s.var for s in ast.walk_stmts(loop.body) if isinstance(s, ast.For)
    }
    free = sorted(
        (read_vars | bound_vars) - {loop.var} - inner_vars
    )
    scalar_inits: Dict[str, float] = {}
    for j, name in enumerate(free):
        if name in index_vars or name in bound_vars:
            scalar_inits[name] = 0.0
        else:
            scalar_inits[name] = 0.5 + 0.37 * j

    liveouts = tuple(sorted(set(targets) | {loop.var}))
    slot = {name: j for j, name in enumerate(liveouts)}
    reduction_slots = tuple(
        slot[v] for v in plan.reduction_vars if v in slot
    )

    prelude: List[ast.Stmt] = [
        ast.Assign(name, ast.Const(value), 0)
        for name, value in scalar_inits.items()
    ]
    epilogue: List[ast.Stmt] = [
        ast.Store(OUT_ARRAY, ast.Const(float(j)), ast.Var(name), 0)
        for j, name in enumerate(liveouts)
    ]
    kernel_loop = clone_stmt(loop)
    body = prelude + [kernel_loop] + epilogue
    arrays = dict(program.arrays)
    arrays[OUT_ARRAY] = max(1, len(liveouts))  # appended LAST: keeps the
    # rng draws for the program's real arrays identical to the original
    kernel = ast.Program(
        functions={fn_name: ast.Function(fn_name, (), body)},
        arrays=arrays,
        entry=fn_name,
        name=f"{program.name}__advkernel",
    )
    return KernelSpec(
        program=kernel,
        loop_id=plan.loop_id,
        liveouts=liveouts,
        reduction_slots=reduction_slots,
        scalar_inits=scalar_inits,
        loop=kernel_loop,
    )


def _kernel_context_blockers(
    kernel: KernelSpec, inputs: Dict[str, List[float]]
) -> Tuple[Optional[List[str]], Dict[str, List[float]]]:
    """Dependences the *synthetic* kernel context introduced, if any, and
    the kernel's final array state.

    An advised plan's loop is oracle-parallel in its real program.  The
    harness replaces loop-invariant context scalars with synthetic
    values, which can collapse an index space (``arr[i*k]`` with ``k``
    forced to 0) and manufacture overlaps the real program never has.
    Refuting the plan over those would be dishonest, so the validator
    profiles the kernel itself and bails to ``unvalidated`` when the
    kernel's own oracle disagrees with the real one.  Scalar races from
    a *bad plan* are unaffected — the oracle judges the loop (with
    privatization), not the plan.

    The profiled run is also the sequential reference: recording does
    not change values.
    """
    from repro.analysis.oracle import classify_loop

    ir = lower_program(kernel.program)
    verify_program(ir)
    interp = Interpreter(ir, record=True, arrays=inputs)
    report = interp.run()
    oracle = classify_loop(ir, report, kernel.loop_id)
    if oracle.parallel:
        return None, interp.arrays
    return list(oracle.blockers) or ["kernel-context dependence"], interp.arrays


# ---------------------------------------------------------------------------
# Validation driver
# ---------------------------------------------------------------------------


def validate_plan(
    program: ast.Program,
    plan: AdvicePlan,
    threads: Sequence[int] = DEFAULT_THREADS,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    max_ulp: float = DEFAULT_MAX_ULP,
    array_rng: int = 0,
) -> AdvicePlan:
    """Attach an execution verdict to ``plan``.

    Returns the plan with ``validation`` set to ``validated``,
    ``refuted`` (which also strips the advice), or ``unvalidated`` when
    the loop cannot be run through the machinery.
    """
    if not plan.advised:
        return plan.with_validation(ValidationRecord(
            status=VALIDATION_UNVALIDATED,
            detail="plan is not advised; nothing to validate",
        ))

    specs = [ScheduleSpec(SCHEDULE_ROUNDROBIN)] + [
        ScheduleSpec(SCHEDULE_ADVERSARIAL, seed=s) for s in seeds
    ]
    schedule_labels = tuple(s.label for s in specs)

    def record(status: str, detail: str) -> AdvicePlan:
        return plan.with_validation(ValidationRecord(
            status=status,
            threads=tuple(threads),
            seeds=tuple(seeds),
            schedules=schedule_labels,
            max_ulp=max_ulp,
            detail=detail,
        ))

    try:
        kernel = build_kernel(program, plan)
    except AdvisorError as exc:
        return record(VALIDATION_UNVALIDATED, f"kernel extraction failed: {exc}")
    reason = transform_blocker(kernel.loop, plan)
    if reason is not None:
        return record(
            VALIDATION_UNVALIDATED, f"not transformable: {plan.loop_id}: {reason}"
        )

    # one draw of the inputs: every run starts from copies of them
    inputs = draw_arrays(kernel.program.arrays, array_rng)
    try:
        blockers, ref = _kernel_context_blockers(kernel, inputs)
    except Exception as exc:  # noqa: BLE001 — any reference failure
        # (interpreter fault, lowering error) means the loop cannot be
        # execution-validated; advice falls back to its static tier
        return record(
            VALIDATION_UNVALIDATED, f"reference execution failed: {exc}"
        )
    if blockers is not None:
        return record(
            VALIDATION_UNVALIDATED,
            "synthetic kernel context introduces dependences: "
            + "; ".join(blockers[:2]),
        )
    reference = _Reference(ref, kernel.reduction_slots, max_ulp)

    for t in threads:
        try:
            transformed = apply_plan(kernel.program, plan, t)
        except AdvisorError as exc:
            return record(VALIDATION_UNVALIDATED, f"not transformable: {exc}")
        # one lowering per thread count, shared by its sequential run and
        # every schedule
        ir = lower_program(transformed.program)
        verify_program(ir)
        interp = Interpreter(ir, record=False, arrays=inputs)

        try:
            interp.execute()
        except InterpreterError as exc:
            return record(
                VALIDATION_REFUTED,
                f"transformed program faults sequentially at T={t}: {exc}",
            )
        mismatch = reference.mismatch(interp.arrays)
        if mismatch is not None:
            return record(
                VALIDATION_REFUTED,
                f"transform alters sequential semantics at T={t}: {mismatch}",
            )

        for spec in specs:
            try:
                run = run_interleaved(transformed, spec, interp)
            except (AdvisorError, InterpreterError) as exc:
                return record(
                    VALIDATION_REFUTED,
                    f"runtime fault under {spec.label} at T={t}: {exc}",
                )
            mismatch = reference.mismatch(run.arrays)
            if mismatch is not None:
                return record(
                    VALIDATION_REFUTED,
                    f"schedule {spec.label} at T={t} diverges: {mismatch}",
                )

    return record(
        VALIDATION_VALIDATED,
        f"equivalent under {len(specs)} schedules x T in "
        f"{{{', '.join(str(t) for t in threads)}}}",
    )
