"""Lowering from MiniC AST to LinearIR.

The lowering mirrors what clang -O0 produces for the corresponding C: every
program variable lives in memory, expression temporaries get fresh virtual
registers, and loops become the canonical pre-header / header / body / latch
/ exit block structure.  Loop pseudo-instructions bracket every loop so the
profiler can maintain exact iteration vectors (see :mod:`repro.ir.linear`).

Loop shape emitted for ``for (v = lo; v < hi; v += step)``::

    <pre>:    eval lo; stvar v; loopenter L; br header
    header:   rv = ldvar v; rhi = eval hi; rc = cmp lt rv rhi
              condbr rc, body, exit
    body:     ... ; br latch
    latch:    rv = ldvar v; rn = add rv, step; stvar v; loopnext L; br header
    exit:     loopexit L ; ...

``hi`` is re-evaluated each iteration exactly as C semantics require; LICM
(:mod:`repro.ir.passes.licm`) hoists it when invariant, giving the six
augmentation pipelines genuinely different IR.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import LoweringError
from repro.ir import ast_nodes as ast
from repro.ir.linear import (
    BasicBlock,
    Imm,
    Instr,
    IRFunction,
    IRProgram,
    LoopInfo,
    Opcode,
    Operand,
    Reg,
    TERMINATORS,
)

_BINOP_OPCODES = {
    "+": Opcode.ADD,
    "-": Opcode.SUB,
    "*": Opcode.MUL,
    "/": Opcode.DIV,
    "%": Opcode.MOD,
    "min": Opcode.MIN,
    "max": Opcode.MAX,
    "&&": Opcode.AND,
    "||": Opcode.OR,
}

_CMP_PREDS = {"<": "lt", "<=": "le", ">": "gt", ">=": "ge", "==": "eq", "!=": "ne"}


@dataclass
class _LoopCtx:
    info: LoopInfo
    latch: str
    exit: str


class _FunctionLowering:
    """Stateful lowering of one function."""

    def __init__(self, fn: ast.Function, program: ast.Program) -> None:
        self.fn = fn
        self.program = program
        self.blocks: List[BasicBlock] = []
        self.loops: Dict[str, LoopInfo] = {}
        self._cur: Optional[BasicBlock] = None
        self._next_reg = 0
        self._next_label = 0
        self._next_iid = 0
        self._next_while = 0
        self._loop_stack: List[_LoopCtx] = []
        self._cur_line = 0

    # -- allocation ---------------------------------------------------------

    def _reg(self) -> Reg:
        reg = Reg(f"r{self._next_reg}")
        self._next_reg += 1
        return reg

    def _label(self, hint: str) -> str:
        label = f"{hint}{self._next_label}"
        self._next_label += 1
        return label

    def _new_block(self, hint: str) -> BasicBlock:
        block = BasicBlock(self._label(hint))
        self.blocks.append(block)
        return block

    def _set_block(self, block: BasicBlock) -> None:
        self._cur = block

    # -- emission ----------------------------------------------------------

    def emit(
        self,
        opcode: Opcode,
        operands: Tuple[Operand, ...] = (),
        result: Optional[Reg] = None,
        **meta: object,
    ) -> Instr:
        if self._cur is None:
            raise LoweringError("emission outside of a basic block")
        instrs = self._cur.instrs
        if instrs and instrs[-1].opcode in TERMINATORS:
            # Unreachable code after break/return inside the same MiniC block;
            # drop it silently the way a real compiler's CFG construction does.
            return Instr(-1, opcode, operands, result, dict(meta))
        instr = Instr(
            iid=self._next_iid,
            opcode=opcode,
            operands=operands,
            result=result,
            meta=dict(meta),
            line=self._cur_line,
            loop_id=self._loop_stack[-1].info.loop_id if self._loop_stack else None,
        )
        self._next_iid += 1
        instrs.append(instr)
        return instr

    # -- expressions --------------------------------------------------------

    def lower_expr(self, expr: ast.Expr) -> Operand:
        if isinstance(expr, ast.Const):
            return Imm(expr.value)
        if isinstance(expr, ast.Var):
            reg = self._reg()
            self.emit(Opcode.LDVAR, (expr.name,), reg)
            return reg
        if isinstance(expr, ast.Load):
            index = self.lower_expr(expr.index)
            reg = self._reg()
            self.emit(Opcode.LOAD, (expr.array, index), reg)
            return reg
        if isinstance(expr, ast.BinOp):
            return self._lower_binop(expr)
        if isinstance(expr, ast.UnOp):
            operand = self.lower_expr(expr.operand)
            reg = self._reg()
            opcode = Opcode.NEG if expr.op == "-" else Opcode.NOT
            self.emit(opcode, (operand,), reg)
            return reg
        if isinstance(expr, ast.CallExpr):
            args = tuple(self.lower_expr(a) for a in expr.args)
            reg = self._reg()
            if expr.is_intrinsic:
                self.emit(Opcode.CALL, (expr.fn,) + args, reg)
            else:
                if expr.fn not in self.program.functions:
                    raise LoweringError(f"call to undefined function {expr.fn!r}")
                self.emit(Opcode.CALLFN, (expr.fn,) + args, reg)
            return reg
        raise LoweringError(f"cannot lower expression {expr!r}")

    def _lower_binop(self, expr: ast.BinOp) -> Operand:
        lhs = self.lower_expr(expr.lhs)
        rhs = self.lower_expr(expr.rhs)
        reg = self._reg()
        if expr.op in _CMP_PREDS:
            self.emit(Opcode.CMP, (lhs, rhs), reg, pred=_CMP_PREDS[expr.op])
        elif expr.op in _BINOP_OPCODES:
            self.emit(_BINOP_OPCODES[expr.op], (lhs, rhs), reg, op=expr.op)
        else:
            raise LoweringError(f"cannot lower operator {expr.op!r}")
        return reg

    # -- statements -----------------------------------------------------------

    def lower_body(self, body: List[ast.Stmt]) -> None:
        for stmt in body:
            self._cur_line = stmt.line
            self.lower_stmt(stmt)

    def lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Assign):
            value = self.lower_expr(stmt.expr)
            self.emit(Opcode.STVAR, (stmt.name, value))
        elif isinstance(stmt, ast.Store):
            index = self.lower_expr(stmt.index)
            value = self.lower_expr(stmt.expr)
            self.emit(Opcode.STORE, (stmt.array, index, value))
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.CallStmt):
            args = tuple(self.lower_expr(a) for a in stmt.args)
            if stmt.fn in ast.INTRINSICS:
                self.emit(Opcode.CALL, (stmt.fn,) + args, self._reg())
            elif stmt.fn in self.program.functions:
                self.emit(Opcode.CALLFN, (stmt.fn,) + args)
            else:
                raise LoweringError(f"call to undefined function {stmt.fn!r}")
        elif isinstance(stmt, ast.Return):
            value = self.lower_expr(stmt.expr) if stmt.expr is not None else None
            self.emit(Opcode.RET, (value,) if value is not None else ())
        elif isinstance(stmt, ast.Break):
            if not self._loop_stack:
                raise LoweringError("break outside of a loop")
            self.emit(Opcode.BR, (self._loop_stack[-1].exit,))
        else:
            raise LoweringError(f"cannot lower statement {stmt!r}")

    def _lower_for(self, stmt: ast.For) -> None:
        loop_id = stmt.loop_id or f"{self.program.name}:{self.fn.name}:anonL{stmt.line}"
        header = self._new_block("header")
        body = self._new_block("body")
        latch = self._new_block("latch")
        exit_block = self._new_block("exit")

        end_line = stmt.line
        for inner in ast.walk_stmts(stmt.body):
            end_line = max(end_line, inner.line)

        info = LoopInfo(
            loop_id=loop_id,
            var=stmt.var,
            header=header.label,
            body_entry=body.label,
            exit=exit_block.label,
            line=stmt.line,
            end_line=end_line,
            depth=len(self._loop_stack),
            parent=self._loop_stack[-1].info.loop_id if self._loop_stack else None,
            function=self.fn.name,
        )
        self.loops[loop_id] = info

        # pre-header: init induction variable, enter the loop
        lo = self.lower_expr(stmt.lo)
        self.emit(Opcode.STVAR, (stmt.var, lo))
        self.emit(Opcode.LOOPENTER, (loop_id,))
        self.emit(Opcode.BR, (header.label,))

        self._loop_stack.append(_LoopCtx(info, latch.label, exit_block.label))

        # header: test v < hi
        self._set_block(header)
        var_reg = self._reg()
        self.emit(Opcode.LDVAR, (stmt.var,), var_reg)
        hi = self.lower_expr(stmt.hi)
        cond = self._reg()
        self.emit(Opcode.CMP, (var_reg, hi), cond, pred="lt")
        self.emit(Opcode.CONDBR, (cond, body.label, exit_block.label))

        # body
        self._set_block(body)
        self.lower_body(stmt.body)
        self.emit(Opcode.BR, (latch.label,))

        # latch: v += step
        self._set_block(latch)
        self._cur_line = stmt.line
        var_reg2 = self._reg()
        self.emit(Opcode.LDVAR, (stmt.var,), var_reg2)
        step = self.lower_expr(stmt.step)
        next_reg = self._reg()
        self.emit(Opcode.ADD, (var_reg2, step), next_reg, op="+")
        self.emit(Opcode.STVAR, (stmt.var, next_reg))
        self.emit(Opcode.LOOPNEXT, (loop_id,))
        self.emit(Opcode.BR, (header.label,))

        self._loop_stack.pop()

        # exit
        self._set_block(exit_block)
        self.emit(Opcode.LOOPEXIT, (loop_id,))

    def _lower_while(self, stmt: ast.While) -> None:
        loop_id = f"{self.program.name}:{self.fn.name}:W{self._next_while}"
        self._next_while += 1
        header = self._new_block("whdr")
        body = self._new_block("wbody")
        exit_block = self._new_block("wexit")

        end_line = stmt.line
        for inner in ast.walk_stmts(stmt.body):
            end_line = max(end_line, inner.line)

        info = LoopInfo(
            loop_id=loop_id,
            var="",
            header=header.label,
            body_entry=body.label,
            exit=exit_block.label,
            line=stmt.line,
            end_line=end_line,
            depth=len(self._loop_stack),
            parent=self._loop_stack[-1].info.loop_id if self._loop_stack else None,
            function=self.fn.name,
        )
        self.loops[loop_id] = info

        self.emit(Opcode.LOOPENTER, (loop_id,))
        self.emit(Opcode.BR, (header.label,))

        self._loop_stack.append(_LoopCtx(info, header.label, exit_block.label))

        self._set_block(header)
        cond = self.lower_expr(stmt.cond)
        self.emit(Opcode.CONDBR, (cond, body.label, exit_block.label))

        self._set_block(body)
        self.lower_body(stmt.body)
        self.emit(Opcode.LOOPNEXT, (loop_id,))
        self.emit(Opcode.BR, (header.label,))

        self._loop_stack.pop()

        self._set_block(exit_block)
        self.emit(Opcode.LOOPEXIT, (loop_id,))

    def _lower_if(self, stmt: ast.If) -> None:
        then_block = self._new_block("then")
        join_block = self._new_block("join")
        else_block = self._new_block("else") if stmt.else_body else join_block

        cond = self.lower_expr(stmt.cond)
        self.emit(Opcode.CONDBR, (cond, then_block.label, else_block.label))

        self._set_block(then_block)
        self.lower_body(stmt.then_body)
        self.emit(Opcode.BR, (join_block.label,))

        if stmt.else_body:
            self._set_block(else_block)
            self.lower_body(stmt.else_body)
            self.emit(Opcode.BR, (join_block.label,))

        self._set_block(join_block)

    # -- driver ----------------------------------------------------------------

    def run(self) -> IRFunction:
        entry = self._new_block("entry")
        self._set_block(entry)
        self.lower_body(self.fn.body)
        if self._cur is not None and self._cur.terminator is None:
            self.emit(Opcode.RET, ())
        # Any block left unterminated (e.g. exit of a trailing loop) returns.
        for block in self.blocks:
            if block.terminator is None:
                block.instrs.append(
                    Instr(self._next_iid, Opcode.RET, (), None, {}, 0, None)
                )
                self._next_iid += 1
        fn = IRFunction(self.fn.name, self.fn.params, self.blocks, self.loops)
        # Block order places exits after bodies; move blocks into reverse
        # post-ish layout order already guaranteed by construction.
        return fn


def lower_function(fn: ast.Function, program: ast.Program) -> IRFunction:
    """Lower one MiniC function to LinearIR."""
    return _FunctionLowering(fn, program).run()


def lower_program(program: ast.Program) -> IRProgram:
    """Lower a whole MiniC program to LinearIR."""
    functions = {
        name: lower_function(fn, program) for name, fn in program.functions.items()
    }
    return IRProgram(
        name=program.name,
        functions=functions,
        arrays=dict(program.arrays),
        entry=program.entry,
    )
