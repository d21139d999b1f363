"""Pluto-like static polyhedral parallelism detector.

Models the decision surface of Pluto (Bondhugula et al.) as used in the
paper's Table III: exact and aggressive on *affine* loop nests (GCD /
Banerjee-style dependence tests, so it proves strided accesses like
``a[2i]`` vs ``a[2i+1]`` independent), but blind outside the polyhedral
model —

* any non-affine subscript (indirect ``a[idx[i]]``, modulo wrap-around)
  makes the loop non-parallelizable;
* function calls are opaque: non-parallelizable;
* scalar writes are only tolerated when provably dead or privatizable by a
  trivial first-access-is-write scan; reductions are *not* recognized
  (classic Pluto has no reduction support), which is exactly why the paper
  measures it at 60.5% on reduction-heavy suites.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir import ast_nodes as ast
from repro.ir.ast_nodes import Program
from repro.ir.linear import IRProgram
from repro.profiler.report import ProfileReport
from repro.tools.affine import AffineForm, gcd_test, normalize_affine
from repro.tools.base import ParallelismTool, ToolPrediction


class _AccessScan:
    """One pre-order pass over a loop body (see :func:`_collect_accesses`)."""

    def __init__(self) -> None:
        self.accesses: List[Tuple[str, ast.Expr, bool]] = []
        self.scalar_events: List[Tuple[str, str]] = []  # ("w"/"r", name)
        self.has_call = False

    def expr(self, expr: ast.Expr) -> None:
        for node in ast.walk_exprs(expr):
            if isinstance(node, ast.Load):
                self.accesses.append((node.array, node.index, False))
            elif isinstance(node, ast.Var):
                self.scalar_events.append(("r", node.name))
            elif isinstance(node, ast.CallExpr) and not node.is_intrinsic:
                self.has_call = True

    def stmts(self, stmts: List[ast.Stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Assign):
                self.expr(stmt.expr)
                self.scalar_events.append(("w", stmt.name))
            elif isinstance(stmt, ast.Store):
                self.expr(stmt.index)
                self.expr(stmt.expr)
                self.accesses.append((stmt.array, stmt.index, True))
            elif isinstance(stmt, ast.For):
                self.expr(stmt.lo)
                self.expr(stmt.hi)
                self.expr(stmt.step)
                self.scalar_events.append(("w", stmt.var))
                self.stmts(stmt.body)
            elif isinstance(stmt, ast.While):
                self.expr(stmt.cond)
                self.stmts(stmt.body)
            elif isinstance(stmt, ast.If):
                self.expr(stmt.cond)
                self.stmts(stmt.then_body)
                self.stmts(stmt.else_body)
            elif isinstance(stmt, ast.CallStmt):
                for arg in stmt.args:
                    self.expr(arg)
                if stmt.fn not in ast.INTRINSICS:
                    self.has_call = True
            elif isinstance(stmt, ast.Return):
                if stmt.expr is not None:
                    self.expr(stmt.expr)


def _collect_accesses(
    body: List[ast.Stmt],
) -> Tuple[List[Tuple[str, ast.Expr, bool]], List[str], List[str], bool]:
    """(array accesses as (array, index, is_write), scalar writes in order,
    scalar reads in order as flattened pre-order, has_call)."""
    scan = _AccessScan()
    scan.stmts(body)
    writes = [n for k, n in scan.scalar_events if k == "w"]
    reads = [n for k, n in scan.scalar_events if k == "r"]
    return scan.accesses, writes, reads, scan.has_call


def _var_events_expr(
    expr: ast.Expr, var: str, events: List[Tuple[str, str]]
) -> None:
    for node in ast.walk_exprs(expr):
        if isinstance(node, ast.Var) and node.name == var:
            events.append(("r", node.name))


def _var_events(
    stmts: List[ast.Stmt], var: str, events: List[Tuple[str, str]]
) -> None:
    """Append the reads and writes of scalar ``var`` in textual order."""
    for stmt in stmts:
        if isinstance(stmt, ast.Assign):
            _var_events_expr(stmt.expr, var, events)
            if stmt.name == var:
                events.append(("w", var))
        elif isinstance(stmt, ast.Store):
            _var_events_expr(stmt.index, var, events)
            _var_events_expr(stmt.expr, var, events)
        elif isinstance(stmt, ast.For):
            _var_events_expr(stmt.lo, var, events)
            _var_events_expr(stmt.hi, var, events)
            if stmt.var == var:
                events.append(("w", var))
            _var_events(stmt.body, var, events)
            _var_events_expr(stmt.step, var, events)
        elif isinstance(stmt, ast.While):
            _var_events_expr(stmt.cond, var, events)
            _var_events(stmt.body, var, events)
        elif isinstance(stmt, ast.If):
            _var_events_expr(stmt.cond, var, events)
            _var_events(stmt.then_body, var, events)
            _var_events(stmt.else_body, var, events)
        elif isinstance(stmt, ast.CallStmt):
            for arg in stmt.args:
                _var_events_expr(arg, var, events)
        elif isinstance(stmt, ast.Return) and stmt.expr is not None:
            _var_events_expr(stmt.expr, var, events)


def _first_event_is_write(body: List[ast.Stmt], var: str) -> bool:
    """Trivial privatization scan: is the first textual access a write?"""
    events: List[Tuple[str, str]] = []
    _var_events(body, var, events)
    return bool(events) and events[0][0] == "w"


def _stmt_exprs_of(stmt: ast.Stmt) -> List[ast.Expr]:
    return list(ast.stmt_exprs(stmt))


class PlutoLite(ParallelismTool):
    """Static affine dependence tester."""

    name = "Pluto"

    def classify_program(
        self,
        ast_program: Program,
        ir_program: IRProgram,
        report: Optional[ProfileReport] = None,
    ) -> Dict[str, ToolPrediction]:
        out: Dict[str, ToolPrediction] = {}
        for fn in ast_program.functions.values():
            self._classify_body(fn.body, [], out)
        return out

    def _classify_body(
        self,
        body: List[ast.Stmt],
        enclosing_vars: List[str],
        out: Dict[str, ToolPrediction],
    ) -> None:
        for stmt in body:
            if isinstance(stmt, ast.For):
                loop_id = stmt.loop_id or f"anon@{stmt.line}"
                out[loop_id] = self._classify_loop(stmt, enclosing_vars)
                self._classify_body(
                    stmt.body, enclosing_vars + [stmt.var], out
                )
            elif isinstance(stmt, ast.While):
                self._classify_body(stmt.body, enclosing_vars, out)
            elif isinstance(stmt, ast.If):
                self._classify_body(stmt.then_body, enclosing_vars, out)
                self._classify_body(stmt.else_body, enclosing_vars, out)

    def _classify_loop(
        self, loop: ast.For, enclosing_vars: List[str]
    ) -> ToolPrediction:
        loop_id = loop.loop_id or f"anon@{loop.line}"
        reasons: List[str] = []
        accesses, scalar_writes, scalar_reads, has_call = _collect_accesses(
            loop.body
        )
        if has_call:
            return ToolPrediction(loop_id, False, ["opaque function call"])
        # the polyhedral model requires static control flow: data-dependent
        # ifs / whiles and non-affine intrinsic statements break the SCoP
        for inner in ast.walk_stmts(loop.body):
            if isinstance(inner, (ast.If, ast.While)):
                return ToolPrediction(
                    loop_id, False, ["data-dependent control flow (no SCoP)"]
                )
        for inner in ast.walk_stmts(loop.body):
            for expr in _stmt_exprs_of(inner):
                for node in ast.walk_exprs(expr):
                    if isinstance(node, ast.CallExpr):
                        return ToolPrediction(
                            loop_id, False,
                            ["intrinsic call breaks the SCoP"],
                        )

        loop_vars: Set[str] = set(enclosing_vars) | {loop.var}
        inner_vars = {
            s.var for s in ast.walk_stmts(loop.body) if isinstance(s, ast.For)
        }
        loop_vars |= inner_vars

        # scalar writes: Pluto has no reduction support; only trivially
        # privatizable scalars (first access is a write) are tolerated
        for name in set(scalar_writes):
            if name in inner_vars:
                continue  # inner loop counters are loop-local by construction
            if not _first_event_is_write(loop.body, name):
                reasons.append(f"unhandled scalar recurrence on {name}")

        # affine array dependence testing
        normalized: List[Tuple[str, Optional[AffineForm], bool]] = []
        for array, index, is_write in accesses:
            form = normalize_affine(index, loop_vars)
            normalized.append((array, form, is_write))
            if form is None and is_write:
                reasons.append(f"non-affine write subscript on {array}")
            elif form is None:
                reasons.append(f"non-affine read subscript on {array}")

        if not reasons:
            for pos, (array_a, form_a, write_a) in enumerate(normalized):
                for array_b, form_b, write_b in normalized[pos:]:
                    if array_a != array_b or not (write_a or write_b):
                        continue
                    if self._may_carry(form_a, form_b, loop.var):
                        reasons.append(
                            f"possible loop-carried dependence on {array_a}"
                        )
                        break
                if reasons:
                    break

        return ToolPrediction(loop_id, not reasons, reasons)

    @staticmethod
    def _may_carry(
        form_a: Optional[AffineForm], form_b: Optional[AffineForm], var: str
    ) -> bool:
        if form_a is None or form_b is None:
            return True
        if form_a.structurally_equal(form_b):
            # identical subscripts collide only at equal iterations of var
            # when var moves the address; a var-invariant address (e.g. a[0])
            # collides at every pair of iterations
            return not form_a.involves(var)
        return gcd_test(form_a, form_b, var)
