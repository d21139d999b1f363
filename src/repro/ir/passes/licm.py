"""Loop-invariant code motion (header-restricted, fault-safe).

Hoists invariant computations from a loop's *header* block into its
pre-header.  Restricting motion to the header keeps the pass strictly
semantics-preserving without speculation analysis: header instructions
execute at least once per loop entry, so executing them exactly once in the
pre-header can neither introduce nor hide a fault.  In practice this hoists
the per-iteration re-evaluation of loop bounds (``ldvar n`` chains), which
is the dominant LICM effect on the kernels we model — and it visibly changes
the dependence surface DiscoPoP-style profiling sees, which is what the
augmentation pipelines need.

Invariance rules inside the header:

* pure arithmetic whose register operands are defined outside the loop or by
  already-hoisted instructions;
* ``ldvar v`` where no ``stvar v`` occurs anywhere in the loop (scalars are
  frame-local, so calls cannot clobber them);
* ``load a[i]`` where ``i`` is invariant, no store to ``a`` occurs in the
  loop, and the loop contains no calls (callees may write global arrays).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.ir.linear import (
    ARITH_OPS,
    Instr,
    IRFunction,
    IRProgram,
    Opcode,
    Reg,
)
from repro.profiler.static_info import loop_block_sets


def _find_preheader(fn: IRFunction, loop_id: str) -> Optional[Instr]:
    """The LOOPENTER instruction of ``loop_id`` (hoist insertion point)."""
    for block in fn.blocks:
        for instr in block.instrs:
            if instr.opcode is Opcode.LOOPENTER and instr.operands[0] == loop_id:
                return instr
    return None


def _licm_function(fn: IRFunction) -> None:
    block_sets = loop_block_sets(fn)
    blocks_by_label = {b.label: b for b in fn.blocks}

    for loop_id, info in fn.loops.items():
        loop_blocks = block_sets.get(loop_id, set())
        header = blocks_by_label.get(info.header)
        if header is None:
            continue

        stored_scalars: Set[str] = set()
        stored_arrays: Set[str] = set()
        has_call = False
        defs_in_loop: Set[str] = set()
        for label in loop_blocks:
            for instr in blocks_by_label[label].instrs:
                if instr.opcode is Opcode.STVAR:
                    stored_scalars.add(instr.operands[0])
                elif instr.opcode is Opcode.STORE:
                    stored_arrays.add(instr.operands[0])
                elif instr.opcode is Opcode.CALLFN:
                    has_call = True
                if instr.result is not None:
                    defs_in_loop.add(instr.result.name)

        hoisted: List[Instr] = []
        hoisted_regs: Set[str] = set()
        remaining: List[Instr] = []
        for instr in header.instrs:
            if _is_invariant(
                instr,
                defs_in_loop,
                hoisted_regs,
                stored_scalars,
                stored_arrays,
                has_call,
            ):
                hoisted.append(instr)
                if instr.result is not None:
                    hoisted_regs.add(instr.result.name)
            else:
                remaining.append(instr)
        if not hoisted:
            continue
        header.instrs = remaining

        # insert before the LOOPENTER of this loop
        enter = _find_preheader(fn, loop_id)
        if enter is None:  # defensive: malformed loop, undo
            header.instrs = hoisted + remaining
            continue
        parent = info.parent
        for instr in hoisted:
            instr.loop_id = parent
        for block in fn.blocks:
            if enter in block.instrs:
                pos = block.instrs.index(enter)
                block.instrs[pos:pos] = hoisted
                break


def _is_invariant(
    instr: Instr,
    defs_in_loop: Set[str],
    hoisted_regs: Set[str],
    stored_scalars: Set[str],
    stored_arrays: Set[str],
    has_call: bool,
) -> bool:
    def operands_invariant() -> bool:
        for op in instr.operands:
            if isinstance(op, Reg):
                if op.name in defs_in_loop and op.name not in hoisted_regs:
                    return False
        return True

    if instr.opcode in ARITH_OPS or instr.opcode is Opcode.CONST:
        return operands_invariant()
    if instr.opcode is Opcode.LDVAR:
        return instr.operands[0] not in stored_scalars
    if instr.opcode is Opcode.LOAD:
        return (
            not has_call
            and instr.operands[0] not in stored_arrays
            and operands_invariant()
        )
    return False


def loop_invariant_code_motion(program: IRProgram) -> IRProgram:
    """Apply header-restricted LICM to ``program`` in place; returns it."""
    for fn in program.functions.values():
        _licm_function(fn)
    return program
