"""LinearIR: a register-based, LLVM-like CFG intermediate representation.

Design notes
------------

* **Scalar program variables live in memory.**  Every MiniC variable read /
  write lowers to ``ldvar`` / ``stvar`` with address ``(name, 0)``; array
  accesses lower to ``load`` / ``store`` with address ``(array, index)``.
  This mirrors un-promoted LLVM IR (clang -O0 allocas) and gives the dynamic
  profiler a uniform view of all data flow — exactly what DiscoPoP's memory
  instrumentation observes.  The optimization passes may promote loop-local
  temporaries to registers, changing the observable dependence surface the
  same way real compiler flags change DiscoPoP's input.

* **Virtual registers** (``%rN``) hold expression temporaries in function-
  scope SSA (each register assigned exactly once; every use dominated by the
  definition).  Lowering never passes values across blocks in registers —
  all cross-block communication is via memory — so no phi nodes exist; the
  optimization passes (LICM, unrolling) may move or clone definitions as
  long as dominance is preserved, which the verifier checks.

* **Loop pseudo-instructions** ``loopenter`` / ``loopnext`` / ``loopexit``
  bracket every loop so the interpreter can maintain exact iteration vectors
  for loop-carried dependence attribution (DiscoPoP instruments loop entries
  and exits for the same reason).

Instruction operands are :class:`Reg`, :class:`Imm`, or plain strings (symbol
names for memory ops / labels for branches).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import IRError


class Opcode(enum.Enum):
    """LinearIR opcodes."""

    # data movement
    CONST = "const"        # result <- imm
    LDVAR = "ldvar"        # result <- memory[var, 0]
    STVAR = "stvar"        # memory[var, 0] <- value
    LOAD = "load"          # result <- memory[array, index]
    STORE = "store"        # memory[array, index] <- value
    # arithmetic / logic
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MOD = "mod"
    MIN = "min"
    MAX = "max"
    NEG = "neg"
    NOT = "not"
    AND = "and"
    OR = "or"
    CMP = "cmp"            # result <- lhs <pred> rhs ; pred in meta
    # calls
    CALL = "call"          # intrinsic math call, result <- fn(args...)
    CALLFN = "callfn"      # user function call (optionally with result)
    # control flow
    BR = "br"              # unconditional branch to label
    CONDBR = "condbr"      # conditional branch cond, true_label, false_label
    RET = "ret"            # return (optional value)
    # loop bracketing pseudo-ops (profiler bookkeeping)
    LOOPENTER = "loopenter"
    LOOPNEXT = "loopnext"
    LOOPEXIT = "loopexit"

    # members are singletons that compare by identity; enum's own hash
    # hashes the member name in Python on every set or dict lookup
    __hash__ = object.__hash__


#: Opcodes that terminate a basic block.
TERMINATORS = frozenset({Opcode.BR, Opcode.CONDBR, Opcode.RET})

#: Pure arithmetic opcodes: result depends only on operand values.
ARITH_OPS = frozenset({
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.MOD,
    Opcode.MIN, Opcode.MAX, Opcode.NEG, Opcode.NOT, Opcode.AND,
    Opcode.OR, Opcode.CMP,
})

#: Opcodes that read memory.
MEM_READS = frozenset({Opcode.LDVAR, Opcode.LOAD})

#: Opcodes that write memory.
MEM_WRITES = frozenset({Opcode.STVAR, Opcode.STORE})


@dataclass(frozen=True)
class Reg:
    """A virtual register reference."""

    name: str

    def __repr__(self) -> str:
        return f"%{self.name}"


@dataclass(frozen=True)
class Imm:
    """An immediate constant operand."""

    value: float

    def __repr__(self) -> str:
        return f"#{self.value:g}"


Operand = Union[Reg, Imm, str]


@dataclass
class Instr:
    """One LinearIR instruction.

    ``iid`` is unique within the function and is the key the profiler uses in
    dependence edges.  ``line`` is the synthetic source line of the MiniC
    statement the instruction was lowered from; ``loop_id`` is the id of the
    innermost enclosing loop (or None).
    """

    iid: int
    opcode: Opcode
    operands: Tuple[Operand, ...] = ()
    result: Optional[Reg] = None
    meta: Dict[str, object] = field(default_factory=dict)
    line: int = 0
    loop_id: Optional[str] = None

    def reads_memory(self) -> bool:
        return self.opcode in MEM_READS

    def writes_memory(self) -> bool:
        return self.opcode in MEM_WRITES

    @property
    def symbol(self) -> Optional[str]:
        """The memory symbol touched, if this is a memory op."""
        if self.opcode in (Opcode.LDVAR, Opcode.STVAR, Opcode.LOAD, Opcode.STORE):
            return self.operands[0]  # type: ignore[return-value]
        return None


@dataclass
class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator."""

    label: str
    instrs: List[Instr] = field(default_factory=list)

    @property
    def terminator(self) -> Optional[Instr]:
        if self.instrs and self.instrs[-1].opcode in TERMINATORS:
            return self.instrs[-1]
        return None

    def successors(self) -> Tuple[str, ...]:
        term = self.terminator
        if term is None:
            return ()
        if term.opcode is Opcode.BR:
            return (term.operands[0],)  # type: ignore[return-value]
        if term.opcode is Opcode.CONDBR:
            return (term.operands[1], term.operands[2])  # type: ignore[return-value]
        return ()


@dataclass
class LoopInfo:
    """Static loop metadata carried from the AST through lowering."""

    loop_id: str
    var: str
    header: str               # label of the header block
    body_entry: str           # label of the first body block
    exit: str                 # label of the exit block
    line: int                 # line of the For statement
    end_line: int             # last line of the loop body
    depth: int                # nesting depth (0 = outermost in function)
    parent: Optional[str]     # enclosing loop id, if any
    function: str = ""


@dataclass
class IRFunction:
    """A lowered function: blocks in layout order plus loop metadata."""

    name: str
    params: Tuple[str, ...]
    blocks: List[BasicBlock]
    loops: Dict[str, LoopInfo] = field(default_factory=dict)

    _block_index: Optional[Dict[str, BasicBlock]] = field(
        default=None, repr=False, compare=False
    )

    def block(self, label: str) -> BasicBlock:
        if self._block_index is None or len(self._block_index) != len(self.blocks):
            self._block_index = {b.label: b for b in self.blocks}
        try:
            return self._block_index[label]
        except KeyError:
            raise IRError(f"function {self.name!r} has no block {label!r}") from None

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"function {self.name!r} has no blocks")
        return self.blocks[0]

    def instructions(self) -> List[Instr]:
        """All instructions in layout order."""
        out: List[Instr] = []
        for block in self.blocks:
            out.extend(block.instrs)
        return out

    def instr_by_id(self) -> Dict[int, Instr]:
        return {ins.iid: ins for ins in self.instructions()}


@dataclass
class IRProgram:
    """A lowered program."""

    name: str
    functions: Dict[str, IRFunction]
    arrays: Dict[str, int]
    entry: str = "main"

    def function(self, name: str) -> IRFunction:
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"IR program {self.name!r} has no function {name!r}") from None

    def all_loops(self) -> Dict[str, LoopInfo]:
        loops: Dict[str, LoopInfo] = {}
        for fn in self.functions.values():
            loops.update(fn.loops)
        return loops

    def instruction_count(self) -> int:
        return sum(len(b.instrs) for fn in self.functions.values() for b in fn.blocks)
