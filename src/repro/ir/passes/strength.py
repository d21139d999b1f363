"""Strength reduction and algebraic identity simplification.

* ``x * 2`` / ``2 * x``  ->  ``x + x``
* ``x * 1`` / ``1 * x`` / ``x / 1`` / ``x + 0`` / ``0 + x`` / ``x - 0``
  -> forwarded to ``x`` (dead definition left for DCE)

Like real -O pipelines, this changes instruction mixes (and therefore the
inst2vec token streams of the augmented variants) without changing values.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.ir.linear import Imm, Instr, IRFunction, IRProgram, Opcode, Reg


def _imm_is(op, value: float) -> bool:
    return isinstance(op, Imm) and op.value == value


def _forward_target(instr: Instr) -> Optional[Reg]:
    """If ``instr`` is an identity operation, the operand it forwards."""
    a, b = (instr.operands + (None, None))[:2]
    opcode = instr.opcode
    if opcode is Opcode.MUL:
        if _imm_is(b, 1.0) and isinstance(a, Reg):
            return a
        if _imm_is(a, 1.0) and isinstance(b, Reg):
            return b
    elif opcode is Opcode.DIV:
        if _imm_is(b, 1.0) and isinstance(a, Reg):
            return a
    elif opcode is Opcode.ADD:
        if _imm_is(b, 0.0) and isinstance(a, Reg):
            return a
        if _imm_is(a, 0.0) and isinstance(b, Reg):
            return b
    elif opcode is Opcode.SUB:
        if _imm_is(b, 0.0) and isinstance(a, Reg):
            return a
    return None


def _strength_function(fn: IRFunction) -> None:
    rename: Dict[str, Reg] = {}
    for block in fn.blocks:
        for instr in block.instrs:
            if any(
                isinstance(op, Reg) and op.name in rename for op in instr.operands
            ):
                instr.operands = tuple(
                    rename[op.name]
                    if isinstance(op, Reg) and op.name in rename
                    else op
                    for op in instr.operands
                )
            if instr.opcode is Opcode.MUL and instr.result is not None:
                a, b = instr.operands
                if _imm_is(b, 2.0) and isinstance(a, Reg):
                    instr.opcode = Opcode.ADD
                    instr.operands = (a, a)
                    instr.meta["op"] = "+"
                    continue
                if _imm_is(a, 2.0) and isinstance(b, Reg):
                    instr.opcode = Opcode.ADD
                    instr.operands = (b, b)
                    instr.meta["op"] = "+"
                    continue
            target = _forward_target(instr)
            if target is not None and instr.result is not None:
                resolved = rename.get(target.name, target)
                rename[instr.result.name] = resolved
    if rename:
        for block in fn.blocks:
            for instr in block.instrs:
                if any(
                    isinstance(op, Reg) and op.name in rename
                    for op in instr.operands
                ):
                    instr.operands = tuple(
                        rename[op.name]
                        if isinstance(op, Reg) and op.name in rename
                        else op
                        for op in instr.operands
                    )


def strength_reduction(program: IRProgram) -> IRProgram:
    """Apply strength reduction to ``program`` in place; returns it."""
    for fn in program.functions.values():
        _strength_function(fn)
    return program
