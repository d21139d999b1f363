"""Apply an :class:`~repro.advisor.plan.AdvicePlan` to a MiniC program.

The transformation makes the plan's parallelism *explicit in the AST*:
the advised loop is split into T contiguous iteration chunks (one per
logical thread), each chunk gets its own renamed induction variable,
per-chunk copies of every privatized scalar (initialized from the shared
value, so a *wrongly* privatized read-first scalar still diverges under
interleaving), and per-chunk reduction partials initialized to the
operator identity.  After the chunks an ordered merge folds the partials
into the shared accumulator in chunk order, live-out privatized scalars
copy back from the last executing chunk, and the induction variable gets
its sequential exit value.

The transformed program is still a plain MiniC :class:`Program`: it
round-trips through :mod:`repro.ir.source_printer`, lowers through
:mod:`repro.ir.lowering`, and runs on the stock interpreter — running it
*sequentially* must reproduce the original program's outputs (bitwise,
modulo reduction reassociation), which the validator checks before any
interleaving runs.  The chunk structure is what the simulated
interleaving scheduler (:mod:`repro.advisor.scheduler`) executes in
parallel.  :func:`transform_blocker` is the one eligibility check: the
transformation and the validator both call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import AdvisorError
from repro.ir import ast_nodes as ast
from repro.ir.ast_nodes import clone_program, clone_stmt, rename_expr
from repro.advisor.plan import AdvicePlan

#: reduction operator -> identity element for the per-chunk partial
REDUCTION_IDENTITY = {
    "+": 0.0,
    "-": 0.0,           # "-" accumulates into the "+" class (s = s - x)
    "*": 1.0,
    "min": math.inf,
    "max": -math.inf,
}


@dataclass(frozen=True)
class Chunk:
    """One logical thread's slice of the iteration space."""

    index: int
    lo: int                       # first induction value of the chunk
    hi: int                       # exclusive bound (chunk loop condition)
    trips: int
    loop: ast.For                 # the renamed chunk loop
    rename: Dict[str, str]        # original scalar -> thread-local name

    @property
    def private_names(self) -> Tuple[str, ...]:
        return tuple(self.rename.values())


@dataclass
class TransformResult:
    """The transformed program plus the structure the scheduler needs."""

    program: ast.Program
    loop_id: str
    threads: int
    chunks: List[Chunk]           # non-empty chunks, in iteration order
    pre_stmts: List[ast.Stmt]     # privatized/partial initialization
    post_stmts: List[ast.Stmt]    # ordered merge + copy-back + exit value


# ---------------------------------------------------------------------------
# Eligibility checks
# ---------------------------------------------------------------------------


def concrete_bounds(loop: ast.For) -> Optional[Tuple[int, int, int]]:
    """(lo, hi, step) when all three are integer constants with step > 0.

    The public twin of the prover's internal iteration-space check: the
    transformer chunks the iteration space at plan-application time, so
    symbolic bounds are out of scope (the plan stays ``unvalidated``).
    """
    vals = []
    for e in (loop.lo, loop.hi, loop.step):
        if not isinstance(e, ast.Const) or not float(e.value).is_integer():
            return None
        vals.append(int(e.value))
    lo, hi, step = vals
    if step <= 0:
        return None
    return lo, hi, step


def straight_line_reason(loop: ast.For) -> Optional[str]:
    """Why ``loop`` cannot be transformed, or None when it can.

    The transformer handles straight-line bodies (``Assign``/``Store``
    with intrinsic-only calls) — the same restriction the static prover
    applies, because both need a closed-form view of every iteration.
    """
    for stmt in loop.body:
        if isinstance(stmt, ast.Assign):
            if stmt.name == loop.var:
                return "body assigns the induction variable"
        elif not isinstance(stmt, ast.Store):
            return f"non-straight-line statement {type(stmt).__name__}"
        for expr in ast.stmt_exprs(stmt):
            for node in ast.walk_exprs(expr):
                if isinstance(node, ast.CallExpr) and not node.is_intrinsic:
                    return f"call to non-intrinsic {node.fn!r}"
    return None


def transform_blocker(loop: ast.For, plan: AdvicePlan) -> Optional[str]:
    """Why :func:`apply_plan` cannot transform ``loop`` under ``plan``, or
    None when it can: the body must be straight-line, the bounds
    constant, and every reduction operator known.
    """
    reason = straight_line_reason(loop)
    if reason is not None:
        return reason
    if concrete_bounds(loop) is None:
        return "non-constant iteration space"
    for var, op in plan.reduction_ops.items():
        if op not in REDUCTION_IDENTITY:
            return f"unknown reduction operator {op!r} on {var!r}"
    return None


def find_loop(program: ast.Program, loop_id: str) -> Tuple[str, ast.For]:
    """(function name, For node) for ``loop_id``; raises when absent."""
    for name, fn in program.functions.items():
        for stmt in ast.walk_stmts(fn.body):
            if isinstance(stmt, ast.For) and stmt.loop_id == loop_id:
                return name, stmt
    raise AdvisorError(
        f"program {program.name!r} has no loop {loop_id!r}"
    )


# ---------------------------------------------------------------------------
# The transformation
# ---------------------------------------------------------------------------


def chunk_ranges(lo: int, hi: int, step: int, threads: int) -> List[Tuple[int, int, int]]:
    """Balanced contiguous (chunk_lo, chunk_hi, trips) per thread.

    Iteration i takes value ``lo + i*step``; thread k receives a
    contiguous run of iterations, earlier threads one extra when the trip
    count does not divide evenly — OpenMP static scheduling.  Empty
    chunks are omitted.
    """
    trips = max(0, -(-(hi - lo) // step))
    base, extra = divmod(trips, threads)
    out: List[Tuple[int, int, int]] = []
    start = 0
    for k in range(threads):
        size = base + (1 if k < extra else 0)
        if size <= 0:
            continue
        end = start + size
        out.append((lo + start * step, lo + end * step, size))
        start = end
    return out


def apply_plan(
    program: ast.Program, plan: AdvicePlan, threads: int
) -> TransformResult:
    """Clone ``program`` with the plan's loop split into ``threads`` chunks.

    Raises :class:`AdvisorError` when the loop is ineligible (symbolic
    bounds, non-straight-line body, unknown reduction operator) — the
    validator reports those as ``unvalidated`` rather than guessing.
    """
    if threads < 1:
        raise AdvisorError(f"threads must be >= 1, got {threads}")
    cloned = clone_program(program)
    fn_name, loop = find_loop(cloned, plan.loop_id)
    reason = transform_blocker(loop, plan)
    if reason is not None:
        raise AdvisorError(f"{plan.loop_id}: {reason}")
    lo, hi, step = concrete_bounds(loop)
    trips = max(0, -(-(hi - lo) // step))

    reduction_ops = plan.reduction_ops
    private_vars = tuple(plan.private_vars)

    pre_stmts: List[ast.Stmt] = []
    post_stmts: List[ast.Stmt] = []
    chunks: List[Chunk] = []
    for k, (clo, chi, csize) in enumerate(chunk_ranges(lo, hi, step, threads)):
        rename: Dict[str, str] = {loop.var: f"{loop.var}__t{k}"}
        for var in private_vars:
            rename[var] = f"{var}__t{k}"
        for var in reduction_ops:
            rename[var] = f"{var}__r{k}"
        chunk_loop = ast.For(
            var=rename[loop.var],
            lo=ast.Const(float(clo)),
            hi=ast.Const(float(chi)),
            body=[clone_stmt(s, rename) for s in loop.body],
            step=ast.Const(float(step)),
            loop_id=f"{plan.loop_id}@t{k}",
            line=loop.line,
        )
        # privatized copies start from the shared value (firstprivate
        # semantics): harmless for write-first scalars, and it makes a
        # wrongly privatized read-first scalar visibly diverge instead of
        # accidentally matching the sequential run
        for var in private_vars:
            pre_stmts.append(ast.Assign(rename[var], ast.Var(var), loop.line))
        for var, op in reduction_ops.items():
            pre_stmts.append(ast.Assign(
                rename[var], ast.Const(REDUCTION_IDENTITY[op]), loop.line
            ))
        chunks.append(Chunk(
            index=k, lo=clo, hi=chi, trips=csize,
            loop=chunk_loop, rename=rename,
        ))

    # ordered reduction merge: partials fold into the shared accumulator
    # in chunk (= iteration) order, so the reassociation is deterministic
    for var, op in reduction_ops.items():
        for chunk in chunks:
            partial = ast.Var(chunk.rename[var])
            if op in ("+", "-"):
                merged = ast.BinOp("+", ast.Var(var), partial)
            else:
                merged = ast.BinOp(op, ast.Var(var), partial)
            post_stmts.append(ast.Assign(var, merged, loop.line))
    # live-out privatized scalars take the last chunk's final value (the
    # sequential last iteration lives there); straight-line bodies write
    # them on every iteration, so the copy-back is well-defined
    if chunks:
        last = chunks[-1]
        for var in private_vars:
            post_stmts.append(ast.Assign(
                var, ast.Var(last.rename[var]), loop.line
            ))
    # the induction variable's sequential exit value
    post_stmts.append(ast.Assign(
        loop.var, ast.Const(float(lo + trips * step)), loop.line
    ))

    replacement: List[ast.Stmt] = (
        list(pre_stmts) + [c.loop for c in chunks] + list(post_stmts)
    )
    _replace_stmt(cloned.functions[fn_name].body, loop, replacement)
    return TransformResult(
        program=cloned,
        loop_id=plan.loop_id,
        threads=threads,
        chunks=chunks,
        pre_stmts=pre_stmts,
        post_stmts=post_stmts,
    )


def _replace_stmt(
    body: List[ast.Stmt], target: ast.Stmt, replacement: List[ast.Stmt]
) -> bool:
    """Splice ``replacement`` in place of ``target`` wherever it nests."""
    for i, stmt in enumerate(body):
        if stmt is target:
            body[i:i + 1] = replacement
            return True
        if isinstance(stmt, ast.For) or isinstance(stmt, ast.While):
            if _replace_stmt(stmt.body, target, replacement):
                return True
        elif isinstance(stmt, ast.If):
            if _replace_stmt(stmt.then_body, target, replacement):
                return True
            if _replace_stmt(stmt.else_body, target, replacement):
                return True
    return False
