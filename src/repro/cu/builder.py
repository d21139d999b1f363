"""Computational Unit construction.

A CU (DiscoPoP terminology, Fig. 4 of the paper) is a maximal group of
instructions that follow a *read–compute–write* pattern around shared
variables.  We form CUs per basic block as connected components of the
def-use graph where instructions are linked by

* virtual-register def-use (expression temporaries), and
* accesses to the same memory symbol within the block (the "pivot variable"
  linkage that groups lines 3/5/6/7 of the paper's Fig. 4 example into the
  CU of ``x``).

Loop pseudo-instructions and branch terminators attach to no CU; components
without any memory access (pure control glue) are discarded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ir.linear import (
    Instr,
    IRFunction,
    MEM_READS,
    MEM_WRITES,
    Opcode,
    Reg,
    TERMINATORS,
)
from repro.profiler.report import InstrKey
from repro.profiler.static_info import block_loop_map


@dataclass
class CU:
    """One computational unit.

    ``cu_id`` is globally unique (``fn/block/ordinal``); START/END are the
    synthetic source lines spanned — the paper's ``<ID, START, END>`` node
    triple.
    """

    cu_id: str
    function: str
    block: str
    instrs: List[Instr] = field(default_factory=list)
    loop_id: Optional[str] = None  # innermost enclosing loop

    @property
    def start_line(self) -> int:
        lines = [i.line for i in self.instrs if i.line > 0]
        return min(lines) if lines else 0

    @property
    def end_line(self) -> int:
        lines = [i.line for i in self.instrs if i.line > 0]
        return max(lines) if lines else 0

    @property
    def instr_keys(self) -> List[InstrKey]:
        return [(self.function, i.iid) for i in self.instrs]

    def symbols_read(self) -> List[str]:
        return [i.symbol for i in self.instrs if i.opcode in MEM_READS]

    def symbols_written(self) -> List[str]:
        return [i.symbol for i in self.instrs if i.opcode in MEM_WRITES]

    def __len__(self) -> int:
        return len(self.instrs)


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


_SKIP_OPS = TERMINATORS | {Opcode.LOOPENTER, Opcode.LOOPNEXT, Opcode.LOOPEXIT}


def build_cus(fn: IRFunction) -> List[CU]:
    """Form CUs for every basic block of ``fn``."""
    owner = block_loop_map(fn)
    cus: List[CU] = []
    for block in fn.blocks:
        members = [i for i in block.instrs if i.opcode not in _SKIP_OPS]
        if not members:
            continue
        index = {id(instr): pos for pos, instr in enumerate(members)}
        uf = _UnionFind(len(members))
        reg_def: Dict[str, int] = {}
        last_access: Dict[str, int] = {}
        for pos, instr in enumerate(members):
            # register def-use linkage
            for op in instr.operands:
                if isinstance(op, Reg) and op.name in reg_def:
                    uf.union(reg_def[op.name], pos)
            if instr.result is not None:
                reg_def[instr.result.name] = pos
            # same-symbol linkage (the pivot-variable grouping)
            symbol = instr.symbol
            if symbol is not None:
                if symbol in last_access:
                    uf.union(last_access[symbol], pos)
                last_access[symbol] = pos
        groups: Dict[int, List[Instr]] = {}
        for pos, instr in enumerate(members):
            groups.setdefault(uf.find(pos), []).append(instr)
        ordinal = 0
        for root in sorted(groups, key=lambda r: groups[r][0].iid):
            instrs = groups[root]
            if not any(
                i.opcode in MEM_READS or i.opcode in MEM_WRITES for i in instrs
            ):
                continue  # pure control glue, no data
            cus.append(
                CU(
                    cu_id=f"{fn.name}/{block.label}/cu{ordinal}",
                    function=fn.name,
                    block=block.label,
                    instrs=instrs,
                    loop_id=owner.get(block.label),
                )
            )
            ordinal += 1
    return cus


def cu_index_by_instr(cus: List[CU]) -> Dict[InstrKey, str]:
    """Map each instruction key to its CU id."""
    index: Dict[InstrKey, str] = {}
    for cu in cus:
        for key in cu.instr_keys:
            index[key] = cu.cu_id
    return index
