"""Common subexpression elimination (block-local value numbering).

Within each basic block, repeated pure computations with identical operands
reuse the first result; repeated ``ldvar``/``load`` reuse the earlier value
when no intervening write can have changed it:

* ``ldvar v`` is invalidated by ``stvar v`` (scalars are frame-local, so
  calls cannot clobber them);
* ``load a[i]`` is invalidated by any ``store`` to ``a`` or any ``callfn``
  (the callee may write global arrays).

Replaced registers are rewritten throughout the function (SSA makes the
substitution safe); the dead definitions are left for DCE.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.ir.linear import (
    ARITH_OPS,
    Imm,
    IRFunction,
    IRProgram,
    Opcode,
    Reg,
)


def _operand_key(op) -> Tuple:
    if isinstance(op, Reg):
        return ("r", op.name)
    if isinstance(op, Imm):
        return ("i", op.value)
    return ("s", op)


def _cse_function(fn: IRFunction) -> None:
    rename: Dict[str, Reg] = {}

    for block in fn.blocks:
        available: Dict[Tuple, Reg] = {}
        for instr in block.instrs:
            # apply pending renames first
            if any(
                isinstance(op, Reg) and op.name in rename for op in instr.operands
            ):
                instr.operands = tuple(
                    rename[op.name]
                    if isinstance(op, Reg) and op.name in rename
                    else op
                    for op in instr.operands
                )
            opcode = instr.opcode
            if opcode in ARITH_OPS and instr.result is not None:
                key = (
                    opcode.value,
                    instr.meta.get("pred"),
                    tuple(_operand_key(o) for o in instr.operands),
                )
                prior = available.get(key)
                if prior is not None:
                    rename[instr.result.name] = prior
                else:
                    available[key] = instr.result
            elif opcode is Opcode.LDVAR and instr.result is not None:
                key = ("ldvar", instr.operands[0])
                prior = available.get(key)
                if prior is not None:
                    rename[instr.result.name] = prior
                else:
                    available[key] = instr.result
            elif opcode is Opcode.STVAR:
                available.pop(("ldvar", instr.operands[0]), None)
                # a scalar write also invalidates value-numbered loads of it
            elif opcode is Opcode.LOAD and instr.result is not None:
                key = (
                    "load",
                    instr.operands[0],
                    _operand_key(instr.operands[1]),
                )
                prior = available.get(key)
                if prior is not None:
                    rename[instr.result.name] = prior
                else:
                    available[key] = instr.result
            elif opcode is Opcode.STORE:
                array = instr.operands[0]
                for key in [k for k in available if k[0] == "load" and k[1] == array]:
                    del available[key]
            elif opcode is Opcode.CALLFN:
                for key in [k for k in available if k[0] == "load"]:
                    del available[key]

    if rename:
        # flush renames everywhere (uses may sit in later blocks)
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


def common_subexpression_elimination(program: IRProgram) -> IRProgram:
    """Apply block-local CSE to ``program`` in place; returns it."""
    for fn in program.functions.values():
        _cse_function(fn)
    return program
