"""Dead code elimination.

Removes pure instructions (arithmetic, comparisons, loads) whose results are
never used anywhere in the function, iterating to a fixpoint.  Memory writes,
calls, terminators, and loop pseudo-ops always survive.  Removing dead loads
changes the *observable dependence surface* without changing semantics —
exactly the effect different clang -O levels have on DiscoPoP's input, which
is the point of the augmentation pipelines.
"""

from __future__ import annotations

from typing import Set

from repro.ir.linear import ARITH_OPS, IRFunction, IRProgram, Opcode, Reg

_REMOVABLE = ARITH_OPS | {Opcode.LDVAR, Opcode.LOAD, Opcode.CONST}


def _dce_function(fn: IRFunction) -> None:
    while True:
        used: Set[str] = set()
        for block in fn.blocks:
            for instr in block.instrs:
                for op in instr.operands:
                    if isinstance(op, Reg):
                        used.add(op.name)
        removed = 0
        for block in fn.blocks:
            kept = []
            for instr in block.instrs:
                if (
                    instr.opcode in _REMOVABLE
                    and instr.result is not None
                    and instr.result.name not in used
                ):
                    removed += 1
                    continue
                kept.append(instr)
            block.instrs = kept
        if removed == 0:
            return


def dead_code_elimination(program: IRProgram) -> IRProgram:
    """Remove ``program``'s dead pure instructions in place; returns it."""
    for fn in program.functions.values():
        _dce_function(fn)
    return program
