"""Constant folding with block-local constant propagation.

Folds pure arithmetic whose operands are all immediates, records the folded
register as an immediate, and rewrites later uses.  Division/modulo by a
constant zero is left unfolded (the interpreter raises at runtime, and we
must not change observable behaviour).  Folding is per-block; since lowering
only materializes immediates locally this captures everything in practice.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.ir.linear import Imm, Instr, IRFunction, IRProgram, Opcode, Reg


def _fold(instr: Instr) -> Optional[float]:
    ops = instr.operands
    values = []
    for op in ops:
        if not isinstance(op, Imm):
            return None
        values.append(op.value)
    opcode = instr.opcode
    if opcode is Opcode.ADD:
        return values[0] + values[1]
    if opcode is Opcode.SUB:
        return values[0] - values[1]
    if opcode is Opcode.MUL:
        return values[0] * values[1]
    if opcode is Opcode.DIV:
        return values[0] / values[1] if values[1] != 0.0 else None
    if opcode is Opcode.MOD:
        # Euclidean semantics, matching the interpreter (Python's %)
        return values[0] % values[1] if values[1] != 0.0 else None
    if opcode is Opcode.MIN:
        return min(values)
    if opcode is Opcode.MAX:
        return max(values)
    if opcode is Opcode.NEG:
        return -values[0]
    if opcode is Opcode.NOT:
        return 0.0 if values[0] != 0.0 else 1.0
    if opcode is Opcode.AND:
        return 1.0 if values[0] != 0.0 and values[1] != 0.0 else 0.0
    if opcode is Opcode.OR:
        return 1.0 if values[0] != 0.0 or values[1] != 0.0 else 0.0
    if opcode is Opcode.CMP:
        pred = instr.meta.get("pred")
        lhs, rhs = values
        result = {
            "lt": lhs < rhs,
            "le": lhs <= rhs,
            "gt": lhs > rhs,
            "ge": lhs >= rhs,
            "eq": lhs == rhs,
            "ne": lhs != rhs,
        }.get(pred)
        if result is None:
            return None
        return 1.0 if result else 0.0
    return None


def _fold_function(fn: IRFunction) -> None:
    for block in fn.blocks:
        consts: Dict[str, float] = {}
        new_instrs = []
        for instr in block.instrs:
            # substitute known-constant registers
            if any(
                isinstance(op, Reg) and op.name in consts for op in instr.operands
            ):
                instr.operands = tuple(
                    Imm(consts[op.name])
                    if isinstance(op, Reg) and op.name in consts
                    else op
                    for op in instr.operands
                )
            folded = _fold(instr)
            if folded is not None and instr.result is not None:
                # Record the constant and keep the (now trivially dead)
                # definition: a use in another block may still reference the
                # register after LICM has run.  DCE removes it when unused.
                consts[instr.result.name] = folded
            new_instrs.append(instr)
        block.instrs = new_instrs


def constant_fold(program: IRProgram) -> IRProgram:
    """Constant-fold ``program`` in place; returns it."""
    for fn in program.functions.values():
        _fold_function(fn)
    return program
