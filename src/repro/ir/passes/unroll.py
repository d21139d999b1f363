"""Loop unrolling by two (innermost, straight-line bodies).

Transforms::

    header: test -> body | exit
    body:   B ; br latch
    latch:  v += step ; loopnext ; br header

into::

    header: test -> body | exit
    body:   B ; br latch
    latch:  v += step ; loopnext ; br guard
    guard:  test' -> body2 | header
    body2:  B' ; br latch2
    latch2: v += step ; loopnext ; br header

where primed blocks are register-renamed, fresh-iid clones.  The guard
re-tests the bound between the two copies, so any trip count (including odd
and zero) executes identically; ``loopnext`` still fires once per logical
iteration, keeping the profiler's iteration vectors exact.

Only loops whose body is a single block with no nested loops, no breaks, and
a direct branch to the latch are unrolled; everything else is left alone
(the pipeline still differs through its other passes).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ir.linear import BasicBlock, Instr, IRFunction, IRProgram, Opcode, Reg


def _max_values(fn: IRFunction) -> (int, int):
    max_iid = -1
    max_reg = -1
    for block in fn.blocks:
        for instr in block.instrs:
            max_iid = max(max_iid, instr.iid)
            if instr.result is not None and instr.result.name.startswith("r"):
                suffix = instr.result.name[1:]
                if suffix.isdigit():
                    max_reg = max(max_reg, int(suffix))
    return max_iid, max_reg


class _Renamer:
    def __init__(self, next_iid: int, next_reg: int) -> None:
        self.next_iid = next_iid
        self.next_reg = next_reg
        self.mapping: Dict[str, Reg] = {}

    def clone(self, instr: Instr) -> Instr:
        operands = tuple(
            self.mapping.get(op.name, op) if isinstance(op, Reg) else op
            for op in instr.operands
        )
        result = instr.result
        if result is not None:
            fresh = Reg(f"r{self.next_reg}")
            self.next_reg += 1
            self.mapping[result.name] = fresh
            result = fresh
        cloned = Instr(
            iid=self.next_iid,
            opcode=instr.opcode,
            operands=operands,
            result=result,
            meta=dict(instr.meta),
            line=instr.line,
            loop_id=instr.loop_id,
        )
        self.next_iid += 1
        return cloned


def _unrollable(fn: IRFunction, loop_id) -> bool:
    info = fn.loops[loop_id]
    if any(other.parent == loop_id for other in fn.loops.values()):
        return False  # has nested loops
    if not info.var:
        return False  # while loops keep their shape
    body = fn.block(info.body_entry)
    term = body.terminator
    if term is None or term.opcode is not Opcode.BR:
        return False
    latch_label = term.operands[0]
    if latch_label in (info.exit, info.header):
        return False
    # body must be straight-line: single block branching to the latch, and
    # the latch must be the canonical increment block ending at the header.
    latch = fn.block(latch_label)
    latch_term = latch.terminator
    if latch_term is None or latch_term.opcode is not Opcode.BR:
        return False
    if latch_term.operands[0] != info.header:
        return False
    if not any(i.opcode is Opcode.LOOPNEXT for i in latch.instrs):
        return False
    # no other block may branch into the latch or body (no breaks/continues)
    for block in fn.blocks:
        if block.label in (info.body_entry,):
            continue
        for succ in block.successors():
            if succ == latch_label and block.label != info.body_entry:
                return False
    return True


def _unroll_loop(fn: IRFunction, loop_id: str) -> None:
    info = fn.loops[loop_id]
    header = fn.block(info.header)
    body = fn.block(info.body_entry)
    latch = fn.block(body.terminator.operands[0])

    max_iid, max_reg = _max_values(fn)
    renamer = _Renamer(max_iid + 1, max_reg + 1)

    guard_label = f"{info.header}_u2g"
    body2_label = f"{info.body_entry}_u2b"
    latch2_label = f"{latch.label}_u2l"

    # guard: clone of the header with the branch retargeted
    guard_instrs: List[Instr] = []
    for instr in header.instrs:
        if instr.opcode is Opcode.CONDBR:
            cond = instr.operands[0]
            cond = renamer.mapping.get(cond.name, cond) if isinstance(cond, Reg) else cond
            guard_instrs.append(
                Instr(
                    iid=renamer.next_iid,
                    opcode=Opcode.CONDBR,
                    operands=(cond, body2_label, info.header),
                    meta=dict(instr.meta),
                    line=instr.line,
                    loop_id=loop_id,
                )
            )
            renamer.next_iid += 1
        else:
            guard_instrs.append(renamer.clone(instr))

    body2_instrs: List[Instr] = []
    for instr in body.instrs:
        if instr.opcode is Opcode.BR:
            body2_instrs.append(
                Instr(
                    iid=renamer.next_iid,
                    opcode=Opcode.BR,
                    operands=(latch2_label,),
                    line=instr.line,
                    loop_id=loop_id,
                )
            )
            renamer.next_iid += 1
        else:
            body2_instrs.append(renamer.clone(instr))

    latch2_instrs: List[Instr] = []
    for instr in latch.instrs:
        if instr.opcode is Opcode.BR:
            latch2_instrs.append(
                Instr(
                    iid=renamer.next_iid,
                    opcode=Opcode.BR,
                    operands=(info.header,),
                    line=instr.line,
                    loop_id=loop_id,
                )
            )
            renamer.next_iid += 1
        else:
            latch2_instrs.append(renamer.clone(instr))

    # retarget the original latch to the guard
    latch.instrs[-1] = Instr(
        iid=renamer.next_iid,
        opcode=Opcode.BR,
        operands=(guard_label,),
        line=latch.instrs[-1].line,
        loop_id=loop_id,
    )

    position = fn.blocks.index(latch) + 1
    fn.blocks[position:position] = [
        BasicBlock(guard_label, guard_instrs),
        BasicBlock(body2_label, body2_instrs),
        BasicBlock(latch2_label, latch2_instrs),
    ]
    fn._block_index = None  # invalidate cache


def unroll_by_two(program: IRProgram) -> IRProgram:
    """Unroll ``program``'s eligible innermost loops in place; returns it."""
    for fn in program.functions.values():
        for loop_id in list(fn.loops):
            if _unrollable(fn, loop_id):
                _unroll_loop(fn, loop_id)
    return program
