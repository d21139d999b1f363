"""Structural verification of LinearIR.

Run after lowering and after every optimization pass in tests; catches the
classic compiler-bug shapes early (dangling branch targets, use of undefined
registers, missing terminators, duplicated iids).
"""

from __future__ import annotations

from typing import Set

from repro.errors import IRError
from repro.ir.linear import (
    Instr,
    IRFunction,
    IRProgram,
    MEM_READS,
    Opcode,
    Reg,
    TERMINATORS,
)


def verify_function(fn: IRFunction, program: IRProgram) -> None:
    """Raise :class:`IRError` if ``fn`` violates a LinearIR invariant.

    LinearIR is SSA at function scope: every register has exactly one
    definition, and each use must be preceded by the definition in the same
    block or be in a block the defining block dominates (so passes like LICM
    may legally move definitions into dominating blocks).
    """
    from repro.ir.dominators import compute_dominators

    labels = {b.label for b in fn.blocks}
    if len(labels) != len(fn.blocks):
        raise IRError(f"{fn.name}: duplicate block labels")
    dom = compute_dominators(fn)
    # def site of every register: (block label, position)
    def_site: dict = {}
    seen_iids: Set[int] = set()
    for block in fn.blocks:
        instrs = block.instrs
        if not instrs:
            raise IRError(f"{fn.name}/{block.label}: empty basic block")
        last = len(instrs) - 1
        if instrs[last].opcode not in TERMINATORS:
            raise IRError(f"{fn.name}/{block.label}: missing terminator")
        for pos, instr in enumerate(instrs):
            if instr.iid in seen_iids:
                raise IRError(f"{fn.name}: duplicate iid {instr.iid}")
            seen_iids.add(instr.iid)
            if pos != last and instr.opcode in TERMINATORS:
                raise IRError(
                    f"{fn.name}/{block.label}: terminator not at block end"
                )
            if instr.result is not None:
                if instr.result.name in def_site:
                    raise IRError(
                        f"{fn.name}: register %{instr.result.name} "
                        "defined twice (SSA violation)"
                    )
                def_site[instr.result.name] = (block.label, pos)
        for target in block.successors():
            if target not in labels:
                raise IRError(
                    f"{fn.name}/{block.label}: branch to unknown block {target!r}"
                )
    for block in fn.blocks:
        dominators = dom.get(block.label, ())
        for pos, instr in enumerate(block.instrs):
            for op in instr.operands:
                if not isinstance(op, Reg):
                    continue
                site = def_site.get(op.name)
                if site is None:
                    raise IRError(
                        f"{fn.name}/{block.label}: iid {instr.iid} uses "
                        f"undefined register %{op.name}"
                    )
                def_block, def_pos = site
                if def_block == block.label:
                    if def_pos >= pos:
                        raise IRError(
                            f"{fn.name}/{block.label}: %{op.name} used at "
                            f"position {pos} before its definition at {def_pos}"
                        )
                elif def_block not in dominators:
                    raise IRError(
                        f"{fn.name}/{block.label}: use of %{op.name} not "
                        f"dominated by its definition in {def_block}"
                    )
            if instr.opcode in _SEMANTIC_OPCODES:
                _verify_semantic_operands(fn, program, block.label, instr)


#: the opcodes :func:`_verify_semantic_operands` checks
_SEMANTIC_OPCODES = frozenset(
    {Opcode.LOAD, Opcode.STORE, Opcode.CALLFN, Opcode.LOOPENTER,
     Opcode.LOOPNEXT, Opcode.LOOPEXIT}
) | MEM_READS


def _verify_semantic_operands(
    fn: IRFunction,
    program: IRProgram,
    label: str,
    instr: Instr,
) -> None:
    if instr.opcode in (Opcode.LOAD, Opcode.STORE):
        array = instr.operands[0]
        if not isinstance(array, str) or array not in program.arrays:
            raise IRError(
                f"{fn.name}/{label}: iid {instr.iid} touches unknown array {array!r}"
            )
    if instr.opcode is Opcode.CALLFN:
        target = instr.operands[0]
        if not isinstance(target, str) or target not in program.functions:
            raise IRError(
                f"{fn.name}/{label}: call to unknown function {target!r}"
            )
    if instr.opcode in MEM_READS and instr.result is None:
        raise IRError(f"{fn.name}/{label}: iid {instr.iid} load without result")
    if instr.opcode in (Opcode.LOOPENTER, Opcode.LOOPNEXT, Opcode.LOOPEXIT):
        loop_id = instr.operands[0]
        if loop_id not in fn.loops:
            raise IRError(
                f"{fn.name}/{label}: loop pseudo-op references unknown loop "
                f"{loop_id!r}"
            )


def verify_program(program: IRProgram) -> None:
    """Verify every function of ``program``; raises on the first violation."""
    if program.entry not in program.functions:
        raise IRError(f"entry function {program.entry!r} not found")
    for fn in program.functions.values():
        verify_function(fn, program)
