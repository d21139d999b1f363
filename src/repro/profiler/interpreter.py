"""LinearIR interpreter with optional dependence profiling.

Memory model
------------

* **Arrays** are global, shared across functions, and initialized
  deterministically from a seeded generator before the run (kernels that
  need structured contents — e.g. index arrays for indirect accesses —
  initialize them with explicit loops, as the real benchmarks do).
* **Scalars** are frame-local.  Each function activation gets a fresh
  activation id, and the shadow address of a scalar is
  ``(f"{fn}::{var}", activation_id)`` — semantically a fresh stack slot per
  call, so locals of distinct activations never alias.  This keeps the
  dependence oracle exact; the *conservatism* real tools show around calls is
  modeled inside the tool baselines, not here.
* Values are Python floats; comparisons yield 1.0 / 0.0; array indices are
  truncated toward zero like a C cast.

Decoded form
------------

Each :class:`Interpreter` decodes an :class:`IRFunction` the first time
the function is called and runs the decoded form from then on.  Every
instruction becomes a tuple whose first field is an int kind, and the
dispatch loop tests the kinds in order of their execution frequency over
the bundled programs.  Operands are pre-resolved to register-dict keys:
a register is keyed by its name, an immediate by a small int, and every
activation's register dict starts out seeded with the function's
immediates, so reading any operand is one dict lookup.  Branches hold
the index of their target among the function's decoded blocks (an
index, not the block itself, so decoded code has no reference cycles
and is freed as soon as the interpreter is), scalar memory ops hold
their scoped symbol ``fn::var``, memory ops hold their ``(fn, iid)``
:data:`InstrKey`, and a comparison holds its predicate as an
:mod:`operator` function.  What cannot be decoded (a branch to an
unknown block, an unknown intrinsic, a malformed operand) becomes a
fault that raises the original error when, and only when, it executes.
Decoding is per interpreter, not memoised globally, so an IR mutated in
place by a pass never runs stale code.

Each decoded block is split into *segments*: runs of instructions that
always execute whole, because they end at a call or at the block's
terminator (whatever follows a terminator is dropped: it can never run).
Steps, the step budget and execution counts are charged once per segment
entry instead of once per instruction.  Loop markers carry the number of
segment steps still to come, so per-loop ``dyn_instr_count`` stays exact,
and a budget that runs out inside a segment cuts it at the exact
instruction where the budget ends, so a faulting run leaves the same
partial state (arrays, dependences, probe calls) as a per-step check.
Execution counts keep their order of first execution, because a segment's
instructions first execute together, before any call it ends with.

Dependences are recorded by :class:`ShadowMemory`, which keeps one
``(src, dst)`` table per dependence kind (see :mod:`repro.profiler.shadow`).

Threads
-------

The dispatch loop is a generator, so one loop also runs the advisor's
simulated threads (:mod:`repro.advisor.scheduler`).  A plain run drives
the entry activation to completion; calls are ``yield from``.  Given the
loops to run as threads, an activation that reaches the LOOPENTER of
one of them forks a thread that runs from there to that loop's
LOOPEXIT, and resumes itself just past the LOOPEXIT; at the region's
last loop the schedule drives the forked threads to completion.  Threads share the
activation's scalars, its registers (register names are unique per
function) and the arrays.  A thread yields ``(PRE, shared)`` before and
``(POST, shared)`` after every STORE and every STVAR but to its own
induction variable; ``shared`` is False for the thread's private
scalars.  Only threads yield, and they keep the step count in
``_steps`` across their yields, so the step budget still cuts inside
a thread.  Every run starts from fresh copies of the initial arrays and
reuses the decoded code, and :meth:`Interpreter.execute` runs without
recording or a report, so the validator's sequential run and every
schedule of a thread count share one interpreter.
"""

from __future__ import annotations

import math
import operator
from typing import (
    Callable, Dict, FrozenSet, Generator, Iterator, List, Optional, Tuple,
)

from repro.errors import InterpreterError, IRError
from repro.ir.linear import Instr, IRFunction, IRProgram, Opcode, Reg
from repro.profiler.report import ProfileReport
from repro.profiler.shadow import ShadowMemory
from repro.utils.rng import RngLike, ensure_rng

_INTRINSICS = {
    "sqrt": lambda a: math.sqrt(a) if a >= 0.0 else 0.0,
    "exp": lambda a: math.exp(min(a, 700.0)),
    "log": lambda a: math.log(a) if a > 0.0 else 0.0,
    "sin": math.sin,
    "cos": math.cos,
    "fabs": abs,
    "floor": math.floor,
    "pow": lambda a, b: math.pow(abs(a), b) if a != 0.0 or b > 0 else 0.0,
}

_DEFAULT_MAX_STEPS = 5_000_000

# Decoded instruction kinds, numbered in dispatch order: most frequently
# executed first (measured over the bundled programs at O0).
(
    _LDVAR, _ADD, _BR, _MUL, _LOAD, _STVAR, _CMP, _CONDBR, _LOOPNEXT,
    _STORE, _SUB, _LOOPENTER, _LOOPEXIT, _RET, _CALLFN, _MOD, _DIV,
    _BINARY, _CALL, _NEG, _NOT, _AND, _OR, _CONST, _FAULT,
) = range(25)

#: kind of every opcode (looked up once per instruction: an ``Opcode.X``
#: attribute read costs as much as this whole dict lookup)
_KINDS = {
    Opcode.LDVAR: _LDVAR, Opcode.ADD: _ADD, Opcode.BR: _BR,
    Opcode.MUL: _MUL, Opcode.LOAD: _LOAD, Opcode.STVAR: _STVAR,
    Opcode.CMP: _CMP, Opcode.CONDBR: _CONDBR, Opcode.LOOPNEXT: _LOOPNEXT,
    Opcode.STORE: _STORE, Opcode.SUB: _SUB, Opcode.LOOPENTER: _LOOPENTER,
    Opcode.LOOPEXIT: _LOOPEXIT, Opcode.RET: _RET, Opcode.CALLFN: _CALLFN,
    Opcode.MOD: _MOD, Opcode.DIV: _DIV, Opcode.MIN: _BINARY,
    Opcode.MAX: _BINARY, Opcode.CALL: _CALL, Opcode.NEG: _NEG,
    Opcode.NOT: _NOT, Opcode.AND: _AND, Opcode.OR: _OR, Opcode.CONST: _CONST,
}

#: kinds that end a basic block (nothing after them can execute)
_TERMINATOR_KINDS = frozenset({_BR, _CONDBR, _RET})

#: kinds shaped ``(kind, iid, result, lhs, rhs)``
_BINARY_SHAPED = frozenset({_ADD, _MUL, _SUB, _MOD, _DIV, _AND, _OR})

#: the rare pure binary opcodes, run through the generic ``_BINARY`` kind
_BINARY_FNS = {Opcode.MIN: min, Opcode.MAX: max}

#: CMP predicates; anything else compares ``!=``, as MiniC lowers "ne"
_CMP_FNS = {
    "lt": operator.lt, "le": operator.le, "gt": operator.gt,
    "ge": operator.ge, "eq": operator.eq,
}

#: what a thread yields around a write: ``(phase, shared)``, where
#: ``shared`` is False for a scalar private to the thread
Token = Tuple[str, bool]
PRE, POST = "pre", "post"
#: drives a parallel region's threads, in thread order, to completion
Schedule = Callable[[List[Iterator[Token]]], None]

#: a decoded block: the decoded instructions of one basic block
_Code = List[tuple]
#: a segment, ``[entries, length, iids]``: a run of instructions of one
#: block that always executes whole (it ends at a call or at the block's
#: terminator); ``entries`` counts this interpreter's entries into it
_Segment = list


class _Function:
    """One function's decoded form plus this interpreter's counters."""

    __slots__ = ("blocks", "entry_segment", "imms", "entered", "exits")

    def __init__(
        self, blocks: List[_Code], entry_segment: Optional[_Segment],
        imms: Dict[int, float],
    ) -> None:
        # decoded blocks in layout order, the entry block first; branches
        # name their targets by index, so decoded code holds no reference
        # cycles and is freed as soon as the interpreter is
        self.blocks = blocks
        self.entry_segment = entry_segment
        self.imms = imms  # register-dict seeds: immediate key -> value
        self.entered: List[_Segment] = []  # segments in first-entry order
        self.exits: Optional[Dict[str, Tuple[int, int]]] = None

    def reset(self) -> None:
        """Zero the segment entry counters for a new run."""
        for segment in self.entered:
            segment[0] = 0
        self.entered.clear()

    def past_exit(self, loop_id: str) -> Tuple[int, int]:
        """(block index, position) just past ``loop_id``'s LOOPEXIT."""
        if self.exits is None:
            self.exits = {
                ins[2]: (index, pos + 1)
                for index, code in enumerate(self.blocks)
                for pos, ins in enumerate(code) if ins[0] == _LOOPEXIT
            }
        return self.exits[loop_id]

    def exec_counts(self) -> Dict[int, int]:
        """Executions per iid, in order of first execution."""
        counts: Dict[int, int] = {}
        for entries, _, iids in self.entered:
            for iid in iids:
                counts[iid] = counts.get(iid, 0) + entries
        return counts


def _activation_scalars(fn: IRFunction, args: Tuple[float, ...]) -> Dict[str, float]:
    """The scalars a new activation of ``fn`` starts with."""
    if len(args) != len(fn.params):
        raise InterpreterError(
            f"{fn.name} expects {len(fn.params)} args, got {len(args)}"
        )
    return dict(zip(fn.params, (float(a) for a in args)))


class _Decoder:
    """Decodes one :class:`IRFunction` into kind-tagged tuples."""

    def __init__(self, fn: IRFunction) -> None:
        self.fn = fn
        self.imms: Dict[int, float] = {}
        self.scoped: Dict[str, str] = {}
        self.heads: List[_Segment] = [[0, 0, ()] for _ in fn.blocks]
        # branch targets: (block index, first segment); later blocks win
        # on duplicate labels, as in IRFunction.block
        self.targets: Dict[str, Tuple[int, _Segment]] = {
            block.label: (index, self.heads[index])
            for index, block in enumerate(fn.blocks)
        }

    def decode(self) -> _Function:
        blocks: List[_Code] = []
        for block, head in zip(self.fn.blocks, self.heads):
            blocks.append(self._fill(block, head))
        return _Function(blocks, self.heads[0] if blocks else None, self.imms)

    def _fill(self, block, segment: _Segment) -> _Code:
        """Decode ``block``, splitting it into segments that start with
        ``segment``."""
        code: _Code = []
        start = 0
        for instr in block.instrs:
            kind = _KINDS.get(instr.opcode)
            try:
                decoded = self._decode(instr, kind)
            except Exception as exc:  # noqa: BLE001 — raised on execution
                decoded = (_FAULT, instr.iid, exc)
            if decoded[0] == _CALLFN:
                # a call ends its segment; the callee's steps come between
                following: _Segment = [0, 0, ()]
                code.append(decoded + (following,))
                self._close(code, start, segment)
                start, segment = len(code), following
                continue
            code.append(decoded)
            if kind in _TERMINATOR_KINDS:
                break  # what follows a terminator never executes
        self._close(code, start, segment)
        return code

    @staticmethod
    def _close(code: _Code, start: int, segment: _Segment) -> None:
        """Finish the segment ``code[start:]``: its length, its iids, and
        the number of segment steps after each loop marker."""
        end = len(code)
        segment[1] = end - start
        segment[2] = tuple(ins[1] for ins in code[start:end])
        for pos in range(start, end):
            if code[pos][0] in (_LOOPENTER, _LOOPEXIT):
                code[pos] += (end - pos - 1,)

    def _key(self, operand):
        """Register-dict key of a value operand; immediates get int keys."""
        if type(operand) is Reg:
            return operand.name
        key = len(self.imms)
        self.imms[key] = operand.value
        return key

    def _sym(self, var: str) -> str:
        sym = self.scoped.get(var)
        if sym is None:
            sym = self.scoped[var] = f"{self.fn.name}::{var}"
        return sym

    def _target(self, label: str) -> Tuple[int, _Segment]:
        """(block index, first segment) of a branch target."""
        try:
            return self.targets[label]
        except KeyError:
            raise IRError(
                f"function {self.fn.name!r} has no block {label!r}"
            ) from None

    def _decode(self, instr: Instr, kind: Optional[int]) -> tuple:
        iid = instr.iid
        ops = instr.operands
        key = self._key
        if kind in _BINARY_SHAPED:
            return (kind, iid, instr.result.name, key(ops[0]), key(ops[1]))
        if kind == _LDVAR:
            return (_LDVAR, iid, ops[0], instr.result.name, self._sym(ops[0]),
                    (self.fn.name, iid))
        if kind == _STVAR:
            return (_STVAR, iid, ops[0], key(ops[1]), self._sym(ops[0]),
                    (self.fn.name, iid))
        if kind == _LOAD:
            return (_LOAD, iid, ops[0], key(ops[1]), instr.result.name,
                    (self.fn.name, iid))
        if kind == _STORE:
            return (_STORE, iid, ops[0], key(ops[1]), key(ops[2]),
                    (self.fn.name, iid))
        if kind == _BR:
            return (_BR, iid, *self._target(ops[0]))
        if kind == _CMP:
            lhs, rhs = key(ops[0]), key(ops[1])
            pred = _CMP_FNS.get(instr.meta["pred"], operator.ne)
            return (_CMP, iid, instr.result.name, lhs, rhs, pred)
        if kind == _CONDBR:
            cond = key(ops[0])
            targets = []
            for label in ops[1:3]:
                try:
                    targets.extend(self._target(label))
                except IRError as exc:
                    # an unknown target faults only when the branch takes it
                    targets.extend((exc, None))
            return (_CONDBR, iid, cond, *targets)
        if kind in (_LOOPNEXT, _LOOPENTER, _LOOPEXIT):
            return (kind, iid, ops[0])
        if kind == _RET:
            return (_RET, iid, key(ops[0]) if ops else None)
        result = instr.result.name if instr.result is not None else None
        if kind == _CALLFN:
            return (_CALLFN, iid, result, ops[0], tuple(key(a) for a in ops[1:]))
        if kind == _BINARY:
            return (_BINARY, iid, result, key(ops[0]), key(ops[1]),
                    _BINARY_FNS[instr.opcode])
        if kind == _CALL:
            intrinsic = _INTRINSICS.get(ops[0])
            if intrinsic is None:
                raise InterpreterError(f"unknown intrinsic {ops[0]!r}")
            args = tuple(key(a) for a in ops[1:])
            return (_CALL, iid, result, ops[0], intrinsic, args)
        if kind in (_NEG, _NOT):
            return (kind, iid, result, key(ops[0]))
        if kind == _CONST:
            return (_CONST, iid, result, ops[0])
        raise InterpreterError(f"unhandled opcode {instr.opcode}")


def draw_arrays(sizes: Dict[str, int], rng: RngLike = 0) -> Dict[str, List[float]]:
    """Deterministic array contents in [0, 1), drawn in ``sizes`` order."""
    rng = ensure_rng(rng)
    return {name: list(rng.random(size)) for name, size in sizes.items()}


class Interpreter:
    """Executes an :class:`IRProgram`, optionally recording dependences.

    ``arrays`` gives the initial array contents (never mutated); when
    omitted they are drawn from ``rng`` with :func:`draw_arrays`.  Every
    run starts from fresh copies of them and reuses the decoded code:
    :meth:`run` returns the profile report, :meth:`execute` runs without
    recording or building a report.  After a run, ``arrays`` holds the
    final array state and ``scalars`` the entry activation's scalars.
    """

    def __init__(
        self,
        program: IRProgram,
        record: bool = True,
        rng: RngLike = 0,
        max_steps: int = _DEFAULT_MAX_STEPS,
        probe=None,
        arrays: Optional[Dict[str, List[float]]] = None,
    ) -> None:
        self.program = program
        self.record = record
        self.max_steps = max_steps
        # optional observation hook ``probe(fn_name, iid, kind, value)``
        # with kind in {"value", "index", "divisor"} — the range-analysis
        # soundness self-check (repro.analysis.ranges.check_soundness)
        # attaches one to compare observed values against inferred
        # intervals; None costs a single pointer test per memory op
        self.probe = probe
        # Kernels that need structure (index arrays, zero accumulators)
        # initialize explicitly.
        self._inputs = (
            arrays if arrays is not None else draw_arrays(program.arrays, rng)
        )
        # decoded functions, in order of first activation
        self._functions: Dict[str, _Function] = {}
        self._forks: Optional[Dict[str, FrozenSet[str]]] = None
        self._schedule: Optional[Schedule] = None

    def _reset(self, report: Optional[ProfileReport]) -> None:
        """Fresh run state: arrays copied from the initial ones, zeroed
        counters, and the run's report (recorded into when ``record``)."""
        self.arrays: Dict[str, List[float]] = {
            name: list(values) for name, values in self._inputs.items()
        }
        self.report = report
        self.shadow: Optional[ShadowMemory] = (
            ShadowMemory(report) if report is not None and self.record else None
        )
        self.scalars: Dict[str, float] = {}  # the entry activation's
        self._steps = 0
        self._itervec: Tuple[Tuple[str, int, int], ...] = ()
        self._loop_entry_serial: Dict[str, int] = {}
        self._loop_step_stack: List[Tuple[str, int]] = []
        self._activation = 0
        for decoded in self._functions.values():
            decoded.reset()

    # -- public API -----------------------------------------------------------

    def run(self, args: Tuple[float, ...] = ()) -> ProfileReport:
        """Execute the entry function and return the profile report."""
        self._reset(ProfileReport(program_name=self.program.name))
        value = self._run_entry(args)
        report = self.report
        report.steps = self._steps
        report.return_value = value
        for fn_name, decoded in self._functions.items():
            for iid, count in decoded.exec_counts().items():
                report.exec_counts[(fn_name, iid)] = count
        return report

    def execute(
        self,
        threads: Optional[Dict[str, FrozenSet[str]]] = None,
        schedule: Optional[Schedule] = None,
    ) -> Optional[float]:
        """Execute the entry function, with no arguments, without
        recording or a report; return its value.

        ``threads`` maps each loop that runs as a thread to the scalars
        private to that thread, in thread order: an activation that
        reaches one of them forks a thread there instead of running it
        (see the module docstring), and at the last one ``schedule``
        drives the forked threads to completion.
        """
        self._reset(None)
        self._forks, self._schedule = threads, schedule
        try:
            return self._run_entry(())
        finally:
            self._forks = self._schedule = None

    # -- execution ------------------------------------------------------------

    def _run_entry(self, args: Tuple[float, ...]) -> Optional[float]:
        entry = self.program.function(self.program.entry)
        self.scalars = _activation_scalars(entry, args)
        frame = self._frame(entry, self.scalars)
        try:
            frame.send(None)
        except StopIteration as stop:
            return stop.value
        raise InterpreterError("a thread yielded outside its schedule")

    def _budget_cut(self, code: _Code, pos: int, steps: int, fn_name: str) -> _Code:
        """``code`` cut where the step budget runs out (``steps`` executed
        before ``pos``), then a fault raising the budget error."""
        end = pos + max(0, self.max_steps - steps)
        return code[:end] + [(_FAULT, None, InterpreterError(
            f"step budget of {self.max_steps} exceeded in {fn_name} "
            f"(likely non-terminating loop)"
        ))]

    def _frame(
        self, fn: IRFunction, scalars: Dict[str, float], thread=None
    ) -> Generator[Token, None, Optional[float]]:
        """The dispatch loop: one activation of ``fn``, or one thread.

        A thread is ``(loop_id, private, code, pos, registers, activation,
        itervec)``: it resumes the activation that forked it at ``code[pos]``
        (the loop's LOOPENTER), sharing its scalars and registers, and
        finishes at the loop's LOOPEXIT.  Only threads yield.
        """
        fn_name = fn.name
        decoded = self._functions.get(fn_name)
        if decoded is None:
            decoded = self._functions[fn_name] = _Decoder(fn).decode()
        blocks = decoded.blocks
        if not blocks:
            raise IRError(f"function {fn_name!r} has no blocks")
        entered = decoded.entered
        max_steps = self.max_steps

        if thread is None:
            self._activation += 1
            activation = self._activation
            code = blocks[0]
            pos = 0
            registers: Dict[object, float] = dict(decoded.imms)
            itervec = self._itervec
            step_stack = self._loop_step_stack
            forks = self._forks
            forked: List[Generator] = []
            stop_at = induction = private = None
            # Steps and exec counts are charged per segment on entering
            # it: the function entry, a branch, or the return from a call.
            segment = decoded.entry_segment
            steps = self._steps + segment[1]
            if steps > max_steps:
                code = self._budget_cut(code, 0, self._steps, fn_name)
            if not segment[0]:
                entered.append(segment)
            segment[0] += 1
        else:
            stop_at, private, code, pos, registers, activation, itervec = thread
            induction = fn.loops[stop_at].var
            step_stack = []
            forks = None
            steps = self._steps
        yields = thread is not None
        itervec_depth = len(itervec)
        loopstack_depth = len(step_stack)
        entry_serial = self._loop_entry_serial
        report = self.report
        shadow = self.shadow
        record = shadow is not None
        if record:
            shadow_read = shadow.read
            shadow_write = shadow.write
        probe = self.probe
        arrays = self.arrays

        while True:
            ins = code[pos]
            pos += 1
            kind = ins[0]

            if kind == _LDVAR:
                var = ins[2]
                value = scalars.get(var)
                if value is None:
                    value = scalars[var] = 0.0
                if record:
                    shadow_read(ins[4], activation, ins[5], itervec)
                if probe is not None:
                    probe(fn_name, ins[1], "value", value)
                registers[ins[3]] = value
            elif kind == _ADD:
                registers[ins[2]] = registers[ins[3]] + registers[ins[4]]
            elif kind == _BR:
                code = blocks[ins[2]]
                segment = ins[3]
                pos = 0
                steps += segment[1]
                if steps > max_steps:
                    code = self._budget_cut(code, 0, steps - segment[1], fn_name)
                if not segment[0]:
                    entered.append(segment)
                segment[0] += 1
            elif kind == _MUL:
                registers[ins[2]] = registers[ins[3]] * registers[ins[4]]
            elif kind == _LOAD:
                array_name = ins[2]
                index_f = registers[ins[3]]
                index = int(index_f)
                array = arrays[array_name]
                if index < 0 or index >= len(array):
                    raise InterpreterError(
                        f"load {array_name}[{index}] out of bounds "
                        f"(size {len(array)}) at iid {ins[1]} in {fn_name}"
                    )
                if record:
                    shadow_read(array_name, index, ins[5], itervec)
                if probe is not None:
                    probe(fn_name, ins[1], "index", index_f)
                    probe(fn_name, ins[1], "value", array[index])
                registers[ins[4]] = array[index]
            elif kind == _STVAR:
                var = ins[2]
                # a thread yields around every write but to its own
                # induction variable
                if yields and var != induction:
                    shared = var not in private
                    self._steps = steps
                    yield PRE, shared
                scalars[var] = value = registers[ins[3]]
                if probe is not None:
                    probe(fn_name, ins[1], "value", value)
                if record:
                    shadow_write(ins[4], activation, ins[5], itervec)
                if yields and var != induction:
                    yield POST, shared
                    steps = self._steps
            elif kind == _CMP:
                registers[ins[2]] = (
                    1.0 if ins[5](registers[ins[3]], registers[ins[4]]) else 0.0
                )
            elif kind == _CONDBR:
                if registers[ins[2]] != 0.0:
                    target = ins[3]
                    segment = ins[4]
                else:
                    target = ins[5]
                    segment = ins[6]
                if segment is None:
                    raise target  # the IRError of an unknown target
                code = blocks[target]
                pos = 0
                steps += segment[1]
                if steps > max_steps:
                    code = self._budget_cut(code, 0, steps - segment[1], fn_name)
                if not segment[0]:
                    entered.append(segment)
                segment[0] += 1
            elif kind == _LOOPNEXT:
                loop_id = ins[2]
                if not itervec:
                    raise InterpreterError(
                        f"loopnext for {loop_id!r} outside any loop"
                    )
                last = itervec[-1]
                if last[0] != loop_id:
                    raise InterpreterError(
                        f"loopnext for {loop_id!r} but innermost loop is {last[0]!r}"
                    )
                itervec = itervec[:-1] + ((loop_id, last[1], last[2] + 1),)
                if report is not None:
                    report.record_loop_iteration(loop_id)
            elif kind == _STORE:
                array_name = ins[2]
                index_f = registers[ins[3]]
                index = int(index_f)
                array = arrays[array_name]
                if index < 0 or index >= len(array):
                    raise InterpreterError(
                        f"store {array_name}[{index}] out of bounds "
                        f"(size {len(array)}) at iid {ins[1]} in {fn_name}"
                    )
                if yields:
                    self._steps = steps
                    yield PRE, True
                array[index] = registers[ins[4]]
                if record:
                    shadow_write(array_name, index, ins[5], itervec)
                if probe is not None:
                    probe(fn_name, ins[1], "index", index_f)
                    probe(fn_name, ins[1], "value", array[index])
                if yields:
                    yield POST, True
                    steps = self._steps
            elif kind == _SUB:
                registers[ins[2]] = registers[ins[3]] - registers[ins[4]]
            elif kind == _LOOPENTER:
                loop_id = ins[2]
                if forks is not None and loop_id in forks:
                    # fork a thread that runs the loop, resume past it
                    self._steps = steps
                    forked.append(self._frame(fn, scalars, (
                        loop_id, forks[loop_id], code, pos - 1, registers,
                        activation, itervec,
                    )))
                    target, pos = decoded.past_exit(loop_id)
                    code = blocks[target]
                    if len(forked) == len(forks):
                        self._schedule(forked)
                        forked = []
                        steps = self._steps
                    continue
                serial = entry_serial.get(loop_id, 0)
                entry_serial[loop_id] = serial + 1
                itervec = itervec + ((loop_id, serial, 0),)
                if report is not None:
                    report.record_loop_entry(loop_id)
                    # ins[3]: steps of this segment still to come
                    step_stack.append((loop_id, steps - ins[3]))
            elif kind == _LOOPEXIT:
                loop_id = ins[2]
                if itervec and itervec[-1][0] == loop_id:
                    itervec = itervec[:-1]
                if step_stack and step_stack[-1][0] == loop_id:
                    _, start = step_stack.pop()
                    stats = report.loop_stats.get(loop_id)
                    if stats is not None:
                        stats.dyn_instr_count += steps - ins[3] - start
                if loop_id == stop_at:
                    self._steps = steps
                    return None
            elif kind == _RET:
                # An early return may abandon active loops of this frame:
                # unwind their iteration-vector entries and attribute their
                # executed steps before leaving.
                self._itervec = itervec[:itervec_depth]
                self._steps = steps
                while len(step_stack) > loopstack_depth:
                    loop_id, start = step_stack.pop()
                    stats = report.loop_stats.get(loop_id)
                    if stats is not None:
                        stats.dyn_instr_count += steps - start
                if ins[2] is not None:
                    return registers[ins[2]]
                return None
            elif kind == _CALLFN:
                callee = self.program.function(ins[3])
                callee_scalars = _activation_scalars(
                    callee, tuple(registers[a] for a in ins[4])
                )
                self._itervec = itervec
                self._steps = steps
                result = yield from self._frame(callee, callee_scalars)
                itervec = self._itervec
                steps = self._steps
                if ins[2] is not None:
                    registers[ins[2]] = result if result is not None else 0.0
                segment = ins[5]
                steps += segment[1]
                if steps > max_steps:
                    code = self._budget_cut(code, pos, steps - segment[1], fn_name)
                if not segment[0]:
                    entered.append(segment)
                segment[0] += 1
            elif kind == _MOD:
                denom = registers[ins[4]]
                if denom == 0.0:
                    raise InterpreterError(
                        f"modulo by zero at iid {ins[1]} in {fn_name}"
                    )
                if probe is not None:
                    probe(fn_name, ins[1], "divisor", denom)
                # Euclidean semantics: result has the sign of the divisor, so
                # x % positive stays a valid array index even for negative x
                # (MiniC defines % this way; kernels rely on it for wrapping)
                registers[ins[2]] = registers[ins[3]] % denom
            elif kind == _DIV:
                denom = registers[ins[4]]
                if denom == 0.0:
                    raise InterpreterError(
                        f"division by zero at iid {ins[1]} in {fn_name}"
                    )
                if probe is not None:
                    probe(fn_name, ins[1], "divisor", denom)
                registers[ins[2]] = registers[ins[3]] / denom
            elif kind == _BINARY:
                registers[ins[2]] = ins[5](registers[ins[3]], registers[ins[4]])
            elif kind == _CALL:
                values = [registers[a] for a in ins[5]]
                try:
                    result_f = float(ins[4](*values))
                except (ValueError, OverflowError) as exc:
                    raise InterpreterError(
                        f"intrinsic {ins[3]} failed on {values}: {exc}"
                    ) from exc
                if probe is not None:
                    probe(fn_name, ins[1], "value", result_f)
                registers[ins[2]] = result_f
            elif kind == _NEG:
                registers[ins[2]] = -registers[ins[3]]
            elif kind == _NOT:
                registers[ins[2]] = 0.0 if registers[ins[3]] != 0.0 else 1.0
            elif kind == _AND:
                registers[ins[2]] = (
                    1.0
                    if registers[ins[3]] != 0.0 and registers[ins[4]] != 0.0
                    else 0.0
                )
            elif kind == _OR:
                registers[ins[2]] = (
                    1.0
                    if registers[ins[3]] != 0.0 or registers[ins[4]] != 0.0
                    else 0.0
                )
            elif kind == _CONST:
                registers[ins[2]] = float(ins[3].value)
            else:  # _FAULT: undecodable instruction or exhausted budget
                raise ins[2]


def profile_program(
    program: IRProgram,
    args: Tuple[float, ...] = (),
    rng: RngLike = 0,
    max_steps: int = _DEFAULT_MAX_STEPS,
) -> ProfileReport:
    """Execute ``program`` with full dependence profiling (DiscoPoP phase 1)."""
    return Interpreter(program, record=True, rng=rng, max_steps=max_steps).run(args)
