"""Source-level augmentation transforms (Section IV-A, "Transformed dataset").

"We use transformations such as modifying the operation type and loop order
to generate more data."  Three transforms are provided; all operate on a
copied AST, and the pipeline *re-labels every transformed loop with the
dynamic oracle* (the paper relabels with DiscoPoP/Pluto when annotations do
not carry over):

* :func:`op_substitution` — swaps arithmetic operator types in value
  expressions (never in subscripts), usually label-preserving;
* :func:`loop_order_modification` — interchanges perfectly nested loops
  with constant bounds;
* :func:`dependence_injection` — threads a serializing accumulator through
  a loop body and stores it to a fresh array (the accumulator escapes, so
  this is a scan, not a reduction), reliably flipping DoALL loops to
  non-parallelizable — the main source of negative examples for class
  balancing.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import DatasetError
from repro.ir import ast_nodes as ast
from repro.ir.ast_nodes import (
    Assign,
    BinOp,
    Const,
    For,
    Load,
    Program,
    Store,
    Var,
    clone_program,
)
from repro.utils.rng import RngLike, ensure_rng


# ---------------------------------------------------------------------------
# operation-type substitution
# ---------------------------------------------------------------------------

_OP_SWAPS = {"+": "-", "-": "+", "*": "+", "min": "max", "max": "min"}


def _swap_ops(
    expr: ast.Expr, rng: np.random.Generator, rate: float
) -> ast.Expr:
    """``expr`` rebuilt with each swappable operator swapped with
    probability ``rate``; one draw per swappable operator, operands
    first (post-order)."""
    if isinstance(expr, BinOp):
        lhs = _swap_ops(expr.lhs, rng, rate)
        rhs = _swap_ops(expr.rhs, rng, rate)
        op = expr.op
        if op in _OP_SWAPS and rng.random() < rate:
            op = _OP_SWAPS[op]
        return BinOp(op, lhs, rhs)
    if isinstance(expr, Load):
        return Load(expr.array, expr.index)  # subscript untouched
    if isinstance(expr, ast.UnOp):
        return ast.UnOp(expr.op, _swap_ops(expr.operand, rng, rate))
    if isinstance(expr, ast.CallExpr):
        return ast.CallExpr(
            expr.fn, tuple(_swap_ops(a, rng, rate) for a in expr.args)
        )
    return expr


def op_substitution(
    program: Program, rng: RngLike = 0, rate: float = 0.4
) -> Program:
    """Swap operator types in value expressions with probability ``rate``.

    Subscript expressions are left untouched (changing them would change the
    access pattern, which is the other transforms' job); division is never
    introduced (fault safety).
    """
    rng = ensure_rng(rng)
    out = clone_program(program)
    for fn in out.functions.values():
        for stmt in ast.walk_stmts(fn.body):
            if isinstance(stmt, Assign):
                stmt.expr = _swap_ops(stmt.expr, rng, rate)
            elif isinstance(stmt, Store):
                stmt.expr = _swap_ops(stmt.expr, rng, rate)
    out.name = f"{out.name}+ops"
    return out


# ---------------------------------------------------------------------------
# loop interchange
# ---------------------------------------------------------------------------


def _is_perfect_nest(stmt: For) -> bool:
    return (
        len(stmt.body) == 1
        and isinstance(stmt.body[0], For)
        and isinstance(stmt.lo, Const)
        and isinstance(stmt.hi, Const)
        and isinstance(stmt.body[0].lo, Const)
        and isinstance(stmt.body[0].hi, Const)
        and isinstance(stmt.step, Const)
        and isinstance(stmt.body[0].step, Const)
    )


def loop_order_modification(program: Program, rng: RngLike = 0) -> Program:
    """Interchange every perfectly nested constant-bound 2-nest."""
    out = clone_program(program)
    changed = 0
    for fn in out.functions.values():
        for stmt in ast.walk_stmts(fn.body):
            if isinstance(stmt, For) and _is_perfect_nest(stmt):
                inner = stmt.body[0]
                stmt.var, inner.var = inner.var, stmt.var
                stmt.lo, inner.lo = inner.lo, stmt.lo
                stmt.hi, inner.hi = inner.hi, stmt.hi
                stmt.step, inner.step = inner.step, stmt.step
                changed += 1
    out.name = f"{out.name}+order"
    return out


# ---------------------------------------------------------------------------
# dependence injection
# ---------------------------------------------------------------------------


def dependence_injection(
    program: Program, rng: RngLike = 0, fraction: float = 0.6
) -> Program:
    """Serialize a fraction of top-level loops with an escaping accumulator.

    For a chosen loop over ``v``, appends ``carry = carry*0.5 + <first array
    read or v>; sink[v] = carry`` to the body and initializes ``carry``
    before the loop.  The carry chain is a genuine cross-iteration flow
    dependence whose value escapes through ``sink``, so the loop becomes
    non-parallelizable.
    """
    rng = ensure_rng(rng)
    out = clone_program(program)
    serial = 0
    for fn in out.functions.values():
        serial += _inject_in_body(out, fn.body, rng, fraction, serial)
    out.name = f"{out.name}+dep"
    return out


def _inject_in_body(
    program: Program,
    body: List[ast.Stmt],
    rng: np.random.Generator,
    fraction: float,
    serial: int,
) -> int:
    injected = 0
    insertions: List[Tuple[int, For]] = []
    for pos, stmt in enumerate(body):
        if isinstance(stmt, For) and rng.random() < fraction:
            insertions.append((pos, stmt))
    for offset, (pos, loop) in enumerate(insertions):
        tag = serial + injected
        carry = f"carry_{tag}"
        sink = f"sink_{tag}"
        size = max(64, _loop_bound_hint(loop))
        program.arrays[sink] = size
        value: ast.Expr = Var(loop.var)
        for inner in ast.walk_stmts(loop.body):
            for expr in _stmt_value_exprs(inner):
                load = next(
                    (e for e in ast.walk_exprs(expr) if isinstance(e, Load)),
                    None,
                )
                if load is not None:
                    value = load
                    break
            if isinstance(value, Load):
                break
        update = Assign(
            carry,
            BinOp("+", BinOp("*", Var(carry), Const(0.5)), value),
        )
        update.line = loop.line
        guard_idx = BinOp(
            "%", Var(loop.var), Const(float(max(1, min(program.arrays[sink], 64))))
        )
        escape = Store(sink, guard_idx, Var(carry))
        escape.line = loop.line
        loop.body.append(update)
        loop.body.append(escape)
        init = Assign(carry, Const(0.0))
        init.line = loop.line
        body.insert(pos + offset, init)
        injected += 1
    return injected


def _loop_bound_hint(loop: For) -> int:
    if isinstance(loop.hi, Const):
        return int(abs(loop.hi.value)) + 2
    return 64


def _stmt_value_exprs(stmt: ast.Stmt) -> List[ast.Expr]:
    if isinstance(stmt, Assign):
        return [stmt.expr]
    if isinstance(stmt, Store):
        return [stmt.expr]
    return []


TRANSFORM_NAMES = ("ops", "order", "dep")


def apply_transform(program: Program, name: str, rng: RngLike = 0) -> Program:
    """Apply a named transform to a fresh copy of ``program``."""
    if name == "ops":
        return op_substitution(program, rng)
    if name == "order":
        return loop_order_modification(program, rng)
    if name == "dep":
        return dependence_injection(program, rng)
    raise DatasetError(f"unknown transform {name!r}; known: {TRANSFORM_NAMES}")
