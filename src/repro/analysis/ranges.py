"""Value-range abstract interpretation over LinearIR.

Two cooperating layers:

* **Interval domain** (:class:`Interval`): closed intervals with ±∞
  endpoints, propagated through a worklist fixpoint over each function's
  CFG with widening (after a block's input changes too many times) and a
  narrowing pass (infinite bounds produced by widening are replaced by
  recomputed finite ones).  Branch targets are refined through the
  ``ldvar → cmp → condbr`` chain the lowering emits, so a loop body knows
  ``v < hi`` and the exit knows ``v >= hi``.  Array *contents* are
  summarized flow-insensitively program-wide: the deterministic ``[0, 1)``
  initialization joined with every value any ``store`` may write, iterated
  to its own fixpoint (functions communicate only through arrays, so this
  outer iteration is the whole interprocedural story; callee results and
  parameters are ⊤).  The iteration joins each summary for up to
  ``_ARRAY_ROUNDS`` rounds and then widens it, except that an array whose
  loaded values can flow back into its own stores (on a flow-insensitive
  value-dependence graph built while decoding) widens after one join
  round: an accumulator only grows, so the extra rounds bought nothing.

* **Symbolic facts** (:class:`EnclosingBound`): relational constraints
  harvested from enclosing ``For`` headers at the AST level — while a
  loop body runs, each enclosing induction variable ``j`` satisfies
  ``lo <= j < hi`` (and, when the loop was entered at all, ``hi > lo``).
  The dependence prover's row-disjointness disproof for flattened-2D
  ``v*N + j`` subscripts consumes these (``0 <= j < N`` implies rows
  ``v*N`` cannot collide across iterations).

Every transfer function mirrors the interpreter's concrete semantics
(:mod:`repro.profiler.interpreter`): Euclidean ``%`` follows the divisor's
sign, ``div``/``mod`` by zero raise (so their result intervals assume a
nonzero divisor), comparisons and logic yield {0, 1}, the clamped
intrinsics (``sqrt`` of a negative is 0, ``log`` of a non-positive is 0,
``exp`` saturates at 700) clamp the same way, and a scalar read before
any write yields 0.0.  :func:`check_soundness` enforces the mirror
empirically: it re-executes the program under the interpreter with a
probe attached and reports every observed value that escapes its
inferred interval.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple,
)

from repro.ir import ast_nodes as ast
from repro.ir.linear import (
    BasicBlock,
    Imm,
    Instr,
    IRFunction,
    IRProgram,
    Opcode,
    Reg,
)

#: Version of the range analysis.  Cached artifacts that embed range-backed
#: verdicts (dataset shards revalidated by lint) record this and are
#: invalidated when the analyzer changes.
RANGE_ANALYSIS_VERSION = 2

_INF = math.inf

#: input-change budget per block before widening kicks in
_WIDEN_AFTER = 6

#: narrowing sweeps after the ascending fixpoint stabilizes
_NARROW_PASSES = 2

#: rounds of the program-wide array-summary iteration before widening
_ARRAY_ROUNDS = 4


# ---------------------------------------------------------------------------
# Interval domain
# ---------------------------------------------------------------------------


class Interval:
    """A closed interval ``[lo, hi]``; ``lo > hi`` encodes ⊥ (no value).

    Immutable and compared by value (usable as a dict value, in sets and
    in pickles).  A plain ``__slots__`` class rather than a frozen
    dataclass: the fixpoint builds hundreds of thousands of these per
    program, and the dataclass's per-field ``object.__setattr__`` calls
    dominated its construction cost.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        _set_lo(self, lo)
        _set_hi(self, hi)

    def __setattr__(self, name, value):
        raise AttributeError(f"Interval is immutable (cannot set {name!r})")

    def __delattr__(self, name):
        raise AttributeError(f"Interval is immutable (cannot delete {name!r})")

    def __eq__(self, other):
        if other.__class__ is Interval:
            return (self.lo, self.hi) == (other.lo, other.hi)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __reduce__(self):
        return (Interval, (self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Interval(lo={self.lo!r}, hi={self.hi!r})"

    # -- lattice ---------------------------------------------------------

    @property
    def is_bottom(self) -> bool:
        return self.lo > self.hi

    @property
    def is_top(self) -> bool:
        return self.lo == -_INF and self.hi == _INF

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def join(self, other: "Interval") -> "Interval":
        lo, hi = self.lo, self.hi
        if lo > hi:
            return other
        olo, ohi = other.lo, other.hi
        if olo > ohi or (olo >= lo and ohi <= hi):
            return self  # ``other`` is ⊥ or already contained
        return Interval(min(lo, olo), max(hi, ohi))

    def meet(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def leq(self, other: "Interval") -> bool:
        if self.is_bottom:
            return True
        if other.is_bottom:
            return False
        return other.lo <= self.lo and self.hi <= other.hi

    def widen(
        self, new: "Interval", thresholds: Sequence[float] = ()
    ) -> "Interval":
        """Interval widening with thresholds: an unstable bound jumps to
        the nearest program constant beyond it (±∞ when none is left).

        Plain ±∞ widening loses outer-scope invariants inside nested
        loops: a variable like ``n`` that only *passes through* an inner
        loop gets widened there, and narrowing cannot descend because the
        inner loop's feedback is already a fixpoint.  Landing on the
        guard constant first keeps such variables finite.  ``thresholds``
        must be sorted ascending; termination holds because each bound
        can only step through the finite threshold list before ±∞.
        """
        if self.is_bottom:
            return new
        if new.is_bottom:
            return self
        lo, hi = self.lo, self.hi
        if new.lo < lo:
            lo = -_INF
            for t in reversed(thresholds):
                if t <= new.lo:
                    lo = t
                    break
        if new.hi > hi:
            hi = _INF
            for t in thresholds:
                if t >= new.hi:
                    hi = t
                    break
        return Interval(lo, hi)

    def narrow(self, new: "Interval") -> "Interval":
        """Standard interval narrowing: only infinite bounds are refined."""
        if self.is_bottom or new.is_bottom:
            return self
        return Interval(
            new.lo if self.lo == -_INF else self.lo,
            new.hi if self.hi == _INF else self.hi,
        )

    # -- helpers ---------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return not self.is_bottom and math.isfinite(self.lo) and math.isfinite(self.hi)

    def int_bounds(self) -> Optional[Tuple[int, int]]:
        """Bounds of ``int(x)`` (C-style truncation toward zero) over the
        interval, or None when unbounded/⊥.  Truncation is monotone, so
        the truncated endpoints bound every truncated member."""
        if not self.is_finite:
            return None
        return (math.trunc(self.lo), math.trunc(self.hi))

    @property
    def definitely_true(self) -> bool:
        """Every member is truthy (0.0 not contained)."""
        return not self.is_bottom and not self.contains(0.0)

    @property
    def definitely_false(self) -> bool:
        return self.lo == 0.0 and self.hi == 0.0

    def __str__(self) -> str:  # pragma: no cover - debug aid
        if self.is_bottom:
            return "⊥"
        return f"[{self.lo:g}, {self.hi:g}]"


_set_lo = Interval.lo.__set__
_set_hi = Interval.hi.__set__

TOP = Interval(-_INF, _INF)
BOTTOM = Interval(_INF, -_INF)
ZERO = Interval(0.0, 0.0)
BOOL = Interval(0.0, 1.0)
TRUE = Interval(1.0, 1.0)


def _mul1(a: float, b: float) -> float:
    # IEEE inf * 0 is nan; in interval arithmetic that product is 0
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def iv_add(a: Interval, b: Interval) -> Interval:
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    return Interval(a.lo + b.lo, a.hi + b.hi)


def iv_sub(a: Interval, b: Interval) -> Interval:
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    return Interval(a.lo - b.hi, a.hi - b.lo)


def iv_mul(a: Interval, b: Interval) -> Interval:
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    products = (
        _mul1(a.lo, b.lo), _mul1(a.lo, b.hi),
        _mul1(a.hi, b.lo), _mul1(a.hi, b.hi),
    )
    return Interval(min(products), max(products))


def iv_neg(a: Interval) -> Interval:
    if a.is_bottom:
        return BOTTOM
    return Interval(-a.hi, -a.lo)


def iv_div(a: Interval, b: Interval) -> Interval:
    """``a / b`` given the interpreter raises on a zero divisor — the
    result interval assumes ``b != 0``."""
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    if b.contains(0.0):
        # divisor may come arbitrarily close to zero on either side
        if a.lo == 0.0 and a.hi == 0.0:
            return ZERO
        return TOP
    quotients = (a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi)
    return Interval(min(quotients), max(quotients))


def iv_mod(a: Interval, b: Interval) -> Interval:
    """Euclidean ``%``: the result carries the divisor's sign (Python
    float semantics, which the interpreter uses verbatim)."""
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    if b.lo > 0.0:
        if 0.0 <= a.lo and a.hi < b.lo:
            return a  # x % d == x when 0 <= x < d for every divisor value
        return Interval(0.0, b.hi)
    if b.hi < 0.0:
        return Interval(b.lo, 0.0)
    return Interval(min(b.lo, 0.0), max(b.hi, 0.0))


def iv_min(a: Interval, b: Interval) -> Interval:
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    return Interval(min(a.lo, b.lo), min(a.hi, b.hi))


def iv_max(a: Interval, b: Interval) -> Interval:
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    return Interval(max(a.lo, b.lo), max(a.hi, b.hi))


def iv_not(a: Interval) -> Interval:
    if a.is_bottom:
        return BOTTOM
    if a.definitely_true:
        return ZERO
    if a.definitely_false:
        return TRUE
    return BOOL


def iv_and(a: Interval, b: Interval) -> Interval:
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    if a.definitely_false or b.definitely_false:
        return ZERO
    if a.definitely_true and b.definitely_true:
        return TRUE
    return BOOL


def iv_or(a: Interval, b: Interval) -> Interval:
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    if a.definitely_true or b.definitely_true:
        return TRUE
    if a.definitely_false and b.definitely_false:
        return ZERO
    return BOOL


def iv_cmp(pred: str, a: Interval, b: Interval) -> Interval:
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    if pred == "lt":
        if a.hi < b.lo:
            return TRUE
        if a.lo >= b.hi:
            return ZERO
    elif pred == "le":
        if a.hi <= b.lo:
            return TRUE
        if a.lo > b.hi:
            return ZERO
    elif pred == "gt":
        if a.lo > b.hi:
            return TRUE
        if a.hi <= b.lo:
            return ZERO
    elif pred == "ge":
        if a.lo >= b.hi:
            return TRUE
        if a.hi < b.lo:
            return ZERO
    elif pred == "eq":
        if a.hi < b.lo or b.hi < a.lo:
            return ZERO
        if a.lo == a.hi == b.lo == b.hi:
            return TRUE
    elif pred == "ne":
        if a.hi < b.lo or b.hi < a.lo:
            return TRUE
        if a.lo == a.hi == b.lo == b.hi:
            return ZERO
    return BOOL


def _iv_sqrt(a: Interval) -> Interval:
    # sqrt(x) if x >= 0 else 0
    hi = math.sqrt(a.hi) if a.hi > 0.0 else 0.0
    lo = math.sqrt(a.lo) if a.lo > 0.0 else 0.0
    return Interval(lo, hi)


def _iv_exp(a: Interval) -> Interval:
    return Interval(math.exp(min(a.lo, 700.0)), math.exp(min(a.hi, 700.0)))


def _iv_log(a: Interval) -> Interval:
    # log(x) if x > 0 else 0
    if a.hi <= 0.0:
        return ZERO
    hi = math.log(a.hi)
    if a.lo > 0.0:
        lo = math.log(a.lo)
    else:
        lo = -_INF  # arbitrarily small positive members
    if a.lo <= 0.0:  # the clamped-to-0 members
        lo, hi = min(lo, 0.0), max(hi, 0.0)
    return Interval(lo, hi)


def _iv_floor(a: Interval) -> Interval:
    lo = math.floor(a.lo) if math.isfinite(a.lo) else a.lo
    hi = math.floor(a.hi) if math.isfinite(a.hi) else a.hi
    return Interval(lo, hi)


_UNIT = Interval(-1.0, 1.0)

_INTRINSIC_TRANSFER = {
    "sqrt": lambda args: _iv_sqrt(args[0]),
    "exp": lambda args: _iv_exp(args[0]),
    "log": lambda args: _iv_log(args[0]),
    "sin": lambda args: _UNIT,
    "cos": lambda args: _UNIT,
    "fabs": lambda args: Interval(
        0.0 if args[0].contains(0.0) else min(abs(args[0].lo), abs(args[0].hi)),
        max(abs(args[0].lo), abs(args[0].hi)),
    ),
    "floor": lambda args: _iv_floor(args[0]),
    "pow": lambda args: Interval(0.0, _INF),  # pow(|a|, b), clamped at 0
}


# ---------------------------------------------------------------------------
# Per-instruction facts and per-function results
# ---------------------------------------------------------------------------


@dataclass
class InstrFacts:
    """Range facts attached to one instruction (by ``(fn, iid)``).

    ``value`` is the scalar read/written (``ldvar``/``stvar``), the value
    loaded/stored (``load``/``store``), or the call result; ``index`` is
    the float subscript operand *before* truncation; ``divisor`` is the
    second operand of ``div``/``mod``.  ``dead_edge`` marks a ``condbr``
    with a provably one-sided condition (label of the never-taken target).
    """

    value: Optional[Interval] = None
    index: Optional[Interval] = None
    divisor: Optional[Interval] = None
    dead_edge: Optional[str] = None


@dataclass
class FunctionRanges:
    """Fixpoint results for one function."""

    name: str
    block_in: Dict[str, Dict[str, Interval]] = field(default_factory=dict)
    facts: Dict[int, InstrFacts] = field(default_factory=dict)

    def reachable(self, label: str) -> bool:
        return label in self.block_in

    def var_at(self, label: str, var: str) -> Optional[Interval]:
        env = self.block_in.get(label)
        if env is None:
            return None
        return env.get(var, ZERO)


@dataclass(frozen=True)
class EnclosingBound:
    """Relational fact: while the body of loop ``loop_id`` executes,
    ``lo_expr <= var < hi_expr`` (and the enclosing loop was entered, so
    ``hi > lo`` held at least once)."""

    var: str
    lo: ast.Expr
    hi: ast.Expr

    @property
    def lo_const(self) -> Optional[float]:
        return self.lo.value if isinstance(self.lo, ast.Const) else None

    @property
    def hi_symbol(self) -> Optional[str]:
        return self.hi.name if isinstance(self.hi, ast.Var) else None


@dataclass
class ProgramRanges:
    """Program-level result: per-function ranges + array value summaries."""

    program: IRProgram
    functions: Dict[str, FunctionRanges]
    arrays: Dict[str, Interval]

    def fact(self, fn: str, iid: int) -> Optional[InstrFacts]:
        franges = self.functions.get(fn)
        return None if franges is None else franges.facts.get(iid)

    def loop_var_interval(self, loop_id: str) -> Optional[Interval]:
        """Interval of a loop's induction variable at body entry."""
        for fn_name, fn in self.program.functions.items():
            info = fn.loops.get(loop_id)
            if info is None:
                continue
            franges = self.functions.get(fn_name)
            if franges is None or not info.var:
                return None
            return franges.var_at(info.body_entry, info.var)
        return None

    def zero_trip_loops(self) -> List[str]:
        """Loops whose header is reachable but whose body never is."""
        out = []
        for fn_name, fn in self.program.functions.items():
            franges = self.functions.get(fn_name)
            if franges is None:
                continue
            for loop_id, info in fn.loops.items():
                if franges.reachable(info.header) and not franges.reachable(
                    info.body_entry
                ):
                    out.append(loop_id)
        return sorted(out)

    def store_index_cells(
        self, loop_id: str, line: int, array: str
    ) -> Optional[Tuple[int, int]]:
        """Truncated-integer cell bounds of the ``store`` lowered from the
        AST ``Store`` at ``line`` inside ``loop_id``, joined over every
        matching store instruction; None when any is unbounded."""
        cells: Optional[Tuple[int, int]] = None
        seen = False
        for fn_name, fn in self.program.functions.items():
            franges = self.functions.get(fn_name)
            if franges is None:
                continue
            for block in fn.blocks:
                for instr in block.instrs:
                    if (
                        instr.opcode is not Opcode.STORE
                        or instr.loop_id != loop_id
                        or instr.line != line
                        or instr.operands[0] != array
                    ):
                        continue
                    seen = True
                    fact = franges.facts.get(instr.iid)
                    if fact is None or fact.index is None:
                        return None
                    bounds = fact.index.int_bounds()
                    if bounds is None:
                        return None
                    if cells is None:
                        cells = bounds
                    else:
                        cells = (
                            min(cells[0], bounds[0]), max(cells[1], bounds[1])
                        )
        return cells if seen else None


# ---------------------------------------------------------------------------
# Transfer function
# ---------------------------------------------------------------------------

_BIN_TRANSFER = {
    Opcode.ADD: iv_add,
    Opcode.SUB: iv_sub,
    Opcode.MUL: iv_mul,
    Opcode.DIV: iv_div,
    Opcode.MOD: iv_mod,
    Opcode.MIN: iv_min,
    Opcode.MAX: iv_max,
    Opcode.AND: iv_and,
    Opcode.OR: iv_or,
}

_NEGATED_PRED = {
    "lt": "ge", "le": "gt", "gt": "le", "ge": "lt", "eq": "ne", "ne": "eq",
}


class _CmpOrigin:
    """Provenance of a ``cmp`` result inside one block transfer: the
    predicate plus, for each operand, the variable it was loaded from (if
    any, and not overwritten since) and its interval at compare time."""

    __slots__ = ("pred", "lhs_var", "lhs_iv", "rhs_var", "rhs_iv")

    def __init__(self, pred, lhs_var, lhs_iv, rhs_var, rhs_iv):
        self.pred = pred
        self.lhs_var = lhs_var
        self.lhs_iv = lhs_iv
        self.rhs_var = rhs_var
        self.rhs_iv = rhs_iv


def _refine(
    env: Dict[str, Interval], origin: _CmpOrigin, taken: bool
) -> Optional[Dict[str, Interval]]:
    """Refine ``env`` along a ``condbr`` edge; None when the edge is
    infeasible (a refined variable's interval became ⊥)."""
    pred = origin.pred if taken else _NEGATED_PRED.get(origin.pred)
    if pred is None:
        return env
    bounds: List[Tuple[Optional[str], Interval]] = []
    a, b = origin.lhs_iv, origin.rhs_iv
    if pred == "lt":      # lhs < rhs
        bounds = [(origin.lhs_var, Interval(-_INF, b.hi)),
                  (origin.rhs_var, Interval(a.lo, _INF))]
    elif pred == "le":
        bounds = [(origin.lhs_var, Interval(-_INF, b.hi)),
                  (origin.rhs_var, Interval(a.lo, _INF))]
    elif pred == "gt":    # lhs > rhs
        bounds = [(origin.lhs_var, Interval(b.lo, _INF)),
                  (origin.rhs_var, Interval(-_INF, a.hi))]
    elif pred == "ge":
        bounds = [(origin.lhs_var, Interval(b.lo, _INF)),
                  (origin.rhs_var, Interval(-_INF, a.hi))]
    elif pred == "eq":
        bounds = [(origin.lhs_var, b), (origin.rhs_var, a)]
    else:  # ne: no single-interval refinement
        return env
    for var, bound in bounds:
        if var is None:
            continue
        current = env.get(var, ZERO)
        refined = current.meet(bound)
        if refined.is_bottom:
            return None
        if refined != current:
            env = dict(env)
            env[var] = refined
    return env


# Decoded instruction kinds.  Each block is decoded once per analysis
# into flat tuples ``(kind, iid, result, a, b, c)`` whose value operands
# are a register name (str) or a pre-built constant Interval, so the hot
# loop below dispatches on small ints instead of hashing Opcode members.
(
    _K_CONST, _K_LDVAR, _K_STVAR, _K_LOAD, _K_STORE, _K_UNARY, _K_BIN,
    _K_DIVMOD, _K_CMP, _K_CALL, _K_CALLFN, _K_BR, _K_CONDBR,
) = range(13)

_UNARY_TRANSFER = {Opcode.NEG: iv_neg, Opcode.NOT: iv_not}


def _operand(op):
    """A value operand as the transfer reads it: register name or constant."""
    if type(op) is Reg:
        return op.name
    return Interval(op.value, op.value)  # Imm


def _decode_block(
    block: BasicBlock, consts: Set[float], deps: Dict[object, Set[object]]
) -> Tuple[tuple, ...]:
    """Decode one block, adding every finite immediate to ``consts`` and
    the block's value-dependence edges to ``deps`` (``source -> {sinks}``).

    Dependence nodes are register names (str), ``("s", scalar)`` and
    ``("a", array)``.  The graph over-approximates what the transfer can
    move between them: a load reads its array, a store writes its value
    (not its index) into its array, ``ldvar``/``stvar`` link registers
    and scalars, every other result reads its register operands, and a
    ``cmp`` of a scalar-loaded register against ``y`` feeds ``y`` into
    the scalar (the branch refinement).  ``callfn`` results and
    parameters are ⊤ in the engine and get no edge.
    """

    def edge(src, dst) -> None:
        if src.__class__ is not Interval:  # constants carry nothing
            deps.setdefault(src, set()).add(dst)

    out = []
    var_origin: Dict[str, str] = {}  # reg -> scalar, as the transfer tracks it
    for instr in block.instrs:
        op = instr.opcode
        ops = instr.operands
        for operand in ops:
            if type(operand) is Imm and math.isfinite(operand.value):
                consts.add(float(operand.value))
        iid = instr.iid
        res = instr.result.name if instr.result is not None else None
        if op is Opcode.CONST:
            out.append((_K_CONST, iid, res, _operand(ops[0]), None, None))
        elif op is Opcode.LDVAR:
            out.append((_K_LDVAR, iid, res, ops[0], None, None))
            edge(("s", ops[0]), res)
            var_origin[res] = ops[0]
        elif op is Opcode.STVAR:
            value = _operand(ops[1])
            out.append((_K_STVAR, iid, res, ops[0], value, None))
            edge(value, ("s", ops[0]))
            for reg in [r for r, v in var_origin.items() if v == ops[0]]:
                del var_origin[reg]
        elif op is Opcode.LOAD:
            out.append((_K_LOAD, iid, res, ops[0], _operand(ops[1]), None))
            edge(("a", ops[0]), res)
        elif op is Opcode.STORE:
            value = _operand(ops[2])
            out.append((_K_STORE, iid, res, ops[0], _operand(ops[1]), value))
            edge(value, ("a", ops[0]))
        elif op in _UNARY_TRANSFER:
            x = _operand(ops[0])
            out.append((_K_UNARY, iid, res, _UNARY_TRANSFER[op], x, None))
            edge(x, res)
        elif op in _BIN_TRANSFER:
            kind = _K_DIVMOD if op is Opcode.DIV or op is Opcode.MOD else _K_BIN
            x, y = _operand(ops[0]), _operand(ops[1])
            out.append((kind, iid, res, _BIN_TRANSFER[op], x, y))
            edge(x, res)
            edge(y, res)
        elif op is Opcode.CMP:
            x, y = _operand(ops[0]), _operand(ops[1])
            out.append((_K_CMP, iid, res, instr.meta.get("pred", "ne"), x, y))
            edge(x, res)
            edge(y, res)
            if x.__class__ is str and x in var_origin:
                edge(y, ("s", var_origin[x]))
            if y.__class__ is str and y in var_origin:
                edge(x, ("s", var_origin[y]))
        elif op is Opcode.CALL:
            args = tuple(_operand(a) for a in ops[1:])
            out.append((
                _K_CALL, iid, res, _INTRINSIC_TRANSFER.get(ops[0]), args, None,
            ))
            for arg in args:
                edge(arg, res)
        elif op is Opcode.CALLFN:
            if res is not None:
                out.append((_K_CALLFN, iid, res, None, None, None))
        elif op is Opcode.BR:
            out.append((_K_BR, iid, res, ops[0], None, None))
        elif op is Opcode.CONDBR:
            out.append((_K_CONDBR, iid, res, _operand(ops[0]), ops[1], ops[2]))
        # RET, LOOPENTER / LOOPNEXT / LOOPEXIT (profiler bookkeeping) and a
        # resultless CALLFN have no abstract effect
    return tuple(out)


class _FunctionCode:
    """One function's blocks decoded in a single walk, plus what the
    fixpoint needs beyond them: widening thresholds, the arrays it loads,
    and ``array_flow`` — for each loaded array, the arrays its values can
    reach through this function's registers, scalars and stores."""

    __slots__ = ("fn", "blocks", "thresholds", "loads", "array_flow")

    def __init__(self, fn: IRFunction) -> None:
        self.fn = fn
        # widening thresholds: every immediate constant in the function.
        # Guard constants are the ones that matter (a bound lands on them
        # and stabilizes); collecting all Imms is a cheap superset.
        consts: Set[float] = {0.0}
        deps: Dict[object, Set[object]] = {}
        self.blocks: Dict[str, Tuple[tuple, ...]] = {
            block.label: _decode_block(block, consts, deps)
            for block in fn.blocks
        }
        self.thresholds = tuple(sorted(consts))
        # an array node has out-edges exactly where the function loads it
        self.loads = frozenset(
            node[1] for node in deps if node.__class__ is tuple and node[0] == "a"
        )
        self.array_flow = {
            array: _reached_arrays(deps, ("a", array)) for array in self.loads
        }


def _reached_arrays(
    deps: Dict[object, Set[object]], source: object
) -> FrozenSet[str]:
    """Arrays reachable from ``source`` without passing through an array
    (those hops are composed program-wide by :func:`_self_feeding`)."""
    seen: Set[object] = set()
    stack = [source]
    arrays = set()
    while stack:
        for sink in deps.get(stack.pop(), ()):
            if sink in seen:
                continue
            seen.add(sink)
            if sink.__class__ is tuple and sink[0] == "a":
                arrays.add(sink[1])
            else:
                stack.append(sink)
    return frozenset(arrays)


def _self_feeding(codes: Iterable[_FunctionCode]) -> Set[str]:
    """Arrays whose loaded values can flow back into themselves, through
    any chain of functions and arrays (functions share nothing else)."""
    flow: Dict[str, Set[str]] = {}
    for code in codes:
        for array, sinks in code.array_flow.items():
            flow.setdefault(array, set()).update(sinks)
    out = set()
    for array in flow:
        seen: Set[str] = set()
        stack = [array]
        while stack:
            for sink in flow.get(stack.pop(), ()):
                if sink not in seen:
                    seen.add(sink)
                    stack.append(sink)
        if array in seen:
            out.add(array)
    return out


def _note(facts: Dict[int, InstrFacts], iid: int, name: str, iv) -> None:
    fact = facts.get(iid)
    if fact is None:
        fact = facts[iid] = InstrFacts()
    if name == "dead_edge":
        fact.dead_edge = iv
        return
    old = getattr(fact, name)
    setattr(fact, name, iv if old is None else old.join(iv))


def _transfer_block(
    code: Tuple[tuple, ...],
    env_in: Dict[str, Interval],
    arrays_iv: Dict[str, Interval],
    stores: Optional[List[Tuple[str, Interval]]] = None,
    facts: Optional[Dict[int, InstrFacts]] = None,
) -> Dict[str, Optional[Dict[str, Interval]]]:
    """Abstractly execute one decoded block from ``env_in``.

    Returns ``{successor_label: env_or_None}`` (None = provably-dead
    edge).  When ``stores`` is given, appends every ``(array, stored
    value)`` to it (the array-summary iteration); when ``facts`` is
    given, records per-instruction :class:`InstrFacts` (the final
    reporting pass).

    Environments are never mutated once built, so ``env_in`` is copied
    only at the first ``stvar`` and successors may share one dict.
    """
    env = env_in
    owned = False
    regs: Dict[str, Interval] = {}
    var_origin: Dict[str, str] = {}        # reg -> var it was loaded from
    cmp_origin: Dict[str, _CmpOrigin] = {}
    out: Dict[str, Optional[Dict[str, Interval]]] = {}
    for kind, iid, res, a, b, c in code:
        if kind == _K_CONST:
            regs[res] = a
        elif kind == _K_LDVAR:
            iv = env.get(a, ZERO)
            regs[res] = iv
            var_origin[res] = a
            if facts is not None:
                _note(facts, iid, "value", iv)
        elif kind == _K_STVAR:
            iv = regs.get(b, TOP) if b.__class__ is str else b
            if not owned:
                env = dict(env)
                owned = True
            env[a] = iv
            # a later refinement through a cmp that read the old value
            # must not constrain the new one
            stale = [r for r, v in var_origin.items() if v == a]
            for r in stale:
                del var_origin[r]
            for origin in cmp_origin.values():
                if origin.lhs_var == a:
                    origin.lhs_var = None
                if origin.rhs_var == a:
                    origin.rhs_var = None
            if facts is not None:
                _note(facts, iid, "value", iv)
        elif kind == _K_BIN:
            regs[res] = a(
                regs.get(b, TOP) if b.__class__ is str else b,
                regs.get(c, TOP) if c.__class__ is str else c,
            )
        elif kind == _K_LOAD:
            loaded = arrays_iv.get(a, TOP)
            regs[res] = loaded
            if facts is not None:
                _note(facts, iid, "index",
                      regs.get(b, TOP) if b.__class__ is str else b)
                _note(facts, iid, "value", loaded)
        elif kind == _K_CMP:
            x = regs.get(b, TOP) if b.__class__ is str else b
            y = regs.get(c, TOP) if c.__class__ is str else c
            regs[res] = iv_cmp(a, x, y)
            lhs_var = b if b.__class__ is str else None
            rhs_var = c if c.__class__ is str else None
            cmp_origin[res] = _CmpOrigin(
                a,
                var_origin.get(lhs_var) if lhs_var else None, x,
                var_origin.get(rhs_var) if rhs_var else None, y,
            )
        elif kind == _K_CONDBR:
            cond = regs.get(a, TOP) if a.__class__ is str else a
            true_env: Optional[Dict[str, Interval]] = env
            false_env: Optional[Dict[str, Interval]] = env
            if cond.definitely_true:
                false_env = None
            elif cond.definitely_false:
                true_env = None
            origin = cmp_origin.get(a) if a.__class__ is str else None
            if origin is not None:
                if true_env is not None:
                    true_env = _refine(true_env, origin, True)
                if false_env is not None:
                    false_env = _refine(false_env, origin, False)
            if facts is not None:
                if true_env is None and false_env is not None:
                    _note(facts, iid, "dead_edge", b)
                elif false_env is None and true_env is not None:
                    _note(facts, iid, "dead_edge", c)
            out[b] = true_env
            out[c] = false_env
        elif kind == _K_BR:
            out[a] = env
        elif kind == _K_STORE:
            stored = regs.get(c, TOP) if c.__class__ is str else c
            if stores is not None:
                stores.append((a, stored))
            if facts is not None:
                _note(facts, iid, "index",
                      regs.get(b, TOP) if b.__class__ is str else b)
                _note(facts, iid, "value", stored)
        elif kind == _K_DIVMOD:
            y = regs.get(c, TOP) if c.__class__ is str else c
            regs[res] = a(regs.get(b, TOP) if b.__class__ is str else b, y)
            if facts is not None:
                _note(facts, iid, "divisor", y)
        elif kind == _K_UNARY:
            regs[res] = a(regs.get(b, TOP) if b.__class__ is str else b)
        elif kind == _K_CALL:
            args = [regs.get(x, TOP) if x.__class__ is str else x for x in b]
            iv = a(args) if a is not None else TOP
            regs[res] = iv
            if facts is not None:
                _note(facts, iid, "value", iv)
        else:  # _K_CALLFN with a result
            regs[res] = TOP
    return out


# ---------------------------------------------------------------------------
# Fixpoint driver
# ---------------------------------------------------------------------------


def _join_env(
    a: Dict[str, Interval], b: Dict[str, Interval]
) -> Dict[str, Interval]:
    out = dict(a)
    for var, iv in b.items():
        out[var] = out.get(var, ZERO).join(iv)
    for var in a:
        if var not in b:
            out[var] = out[var].join(ZERO)
    return out


def _join_if_grows(
    old: Dict[str, Interval], new: Dict[str, Interval]
) -> Optional[Dict[str, Interval]]:
    """``old ⊔ new``, or None when that join is ⊑ ``old`` (the block
    input did not grow).  The join is built only once ``new`` is known
    to escape ``old`` somewhere: ``old ⊔ new ⊑ old`` iff ``new ⊑ old``."""
    for var, iv in new.items():
        lo, hi = iv.lo, iv.hi
        if lo <= hi:  # ⊥ is below everything
            o = old.get(var, ZERO)
            if not (o.lo <= lo and hi <= o.hi):
                return _join_env(old, new)
    for var, o in old.items():
        # a variable missing from ``new`` reads as 0.0 there
        if var not in new and not (o.lo <= 0.0 <= o.hi):
            return _join_env(old, new)
    return None


def _widen_env(
    old: Dict[str, Interval],
    new: Dict[str, Interval],
    thresholds: Sequence[float] = (),
) -> Dict[str, Interval]:
    out = {}
    for var in set(old) | set(new):
        out[var] = old.get(var, ZERO).widen(new.get(var, ZERO), thresholds)
    return out


def _narrow_env(
    old: Dict[str, Interval], new: Dict[str, Interval]
) -> Dict[str, Interval]:
    out = {}
    for var in set(old) | set(new):
        out[var] = old.get(var, ZERO).narrow(new.get(var, ZERO))
    return out


def _analyze_function(
    code: _FunctionCode,
    arrays_iv: Dict[str, Interval],
    stores: List[Tuple[str, Interval]],
) -> Dict[str, Dict[str, Interval]]:
    """Run the intra-procedural fixpoint; returns reachable block-input
    envs and appends every stored ``(array, value)`` to ``stores``.
    Parameters are ⊤ (any caller), unread scalars are 0.0."""
    fn = code.fn
    blocks = code.blocks
    entry_env: Dict[str, Interval] = {p: TOP for p in fn.params}
    entry = fn.entry.label
    thresholds = code.thresholds
    block_in: Dict[str, Dict[str, Interval]] = {entry: entry_env}
    # each block's last transfer: (successor envs, stores)
    last: Dict[str, tuple] = {}

    def transfer(label: str) -> None:
        block_stores: List[Tuple[str, Interval]] = []
        outs = _transfer_block(
            blocks[label], block_in[label], arrays_iv, block_stores
        )
        last[label] = (outs, block_stores)

    changes: Dict[str, int] = {}
    worklist = deque([entry])
    queued = {entry}

    while worklist:
        label = worklist.popleft()
        queued.discard(label)
        transfer(label)
        for target, env_out in last[label][0].items():
            if env_out is None:
                continue
            old = block_in.get(target)
            if old is None:
                block_in[target] = env_out
            else:
                joined = _join_if_grows(old, env_out)
                if joined is None:
                    continue
                count = changes.get(target, 0) + 1
                changes[target] = count
                if count > _WIDEN_AFTER:
                    joined = _widen_env(old, joined, thresholds)
                block_in[target] = joined
            if target not in queued:
                queued.add(target)
                worklist.append(target)

    # narrowing: recompute each reachable block's input from its
    # predecessors' refined edges, replacing only widened (infinite)
    # bounds — each sweep keeps the state a post-fixpoint, so any number
    # of sweeps is sound.  The ascending loop ran until no input grew, so
    # every block's last transfer there already read its current input:
    # the first sweep reuses those instead of recomputing them.
    labels = [b.label for b in fn.blocks if b.label in block_in]
    for sweep in range(_NARROW_PASSES):
        if sweep:
            for label in labels:
                transfer(label)
        edge_envs: Dict[str, List[Dict[str, Interval]]] = {}
        for label in labels:
            for target, env_out in last[label][0].items():
                if env_out is not None:
                    edge_envs.setdefault(target, []).append(env_out)
        changed = False
        for label in labels:
            incoming = edge_envs.get(label)
            if label == entry:
                incoming = (incoming or []) + [entry_env]
            if not incoming:
                continue  # kept reachable conservatively
            recomputed = incoming[0]
            for env in incoming[1:]:
                recomputed = _join_env(recomputed, env)
            narrowed = _narrow_env(block_in[label], recomputed)
            if narrowed != block_in[label]:
                block_in[label] = narrowed
                changed = True
        if not changed:
            break
    else:
        # the last sweep moved some input, so its transfers are stale
        for label in labels:
            transfer(label)

    # the stores of the transfers from the stabilized inputs (the store
    # pass), in layout order
    for label in labels:
        stores.extend(last[label][1])
    return block_in


def analyze_program(program: IRProgram) -> ProgramRanges:
    """Run the engine over every function of ``program``.

    Array value summaries are iterated to a program-level fixpoint: start
    from the deterministic ``[0, 1)`` initialization, analyze every
    function, join in everything any ``store`` may write, repeat.  An
    array whose loaded values can flow back into its own stores (an
    accumulator ``a[i] = a[i] + 1``, found on the value-dependence graph
    of :func:`_decode_block`) widens to ±∞ from the second round on;
    every other array gets ``_ARRAY_ROUNDS`` join rounds first, so chains
    like ``b[i] = a[i] + 1`` keep finite summaries.  Widening earlier is
    always sound; the price is that a self-feeding array which would
    have stabilized within the join rounds (a saturating
    ``a[i] = min(a[i] + 1, 5)``) now ends at ∞.

    A function's fixpoint reads the summaries only through ``load``, so
    each round re-runs just the functions that load an array whose
    summary changed; the others keep their previous block inputs and
    stores, which the same summaries would reproduce exactly.  Interval
    joins are exact, so the summaries equal re-running everything.  Once
    the summaries are stable, the last block inputs *are* the fixpoint
    under them, and one transfer sweep records the per-instruction facts.
    """
    init = Interval(0.0, 1.0)
    arrays_iv: Dict[str, Interval] = {name: init for name in program.arrays}
    codes = {name: _FunctionCode(fn) for name, fn in program.functions.items()}
    self_feeding = _self_feeding(codes.values())
    block_ins: Dict[str, Dict[str, Dict[str, Interval]]] = {}
    stores: Dict[str, List[Tuple[str, Interval]]] = {}
    stale = list(codes)
    rounds = 0
    while True:
        for name in stale:
            fn_stores = stores[name] = []
            block_ins[name] = _analyze_function(
                codes[name], arrays_iv, fn_stores
            )
        store_joins: Dict[str, Interval] = {}
        for name in codes:
            for array, stored in stores[name]:
                store_joins[array] = store_joins.get(array, BOTTOM).join(
                    stored
                )
        new_iv = {}
        changed = set()
        for name in program.arrays:
            joined = init.join(store_joins.get(name, BOTTOM))
            if rounds >= _ARRAY_ROUNDS or (rounds and name in self_feeding):
                joined = arrays_iv[name].widen(joined)
            else:
                joined = arrays_iv[name].join(joined)
            if joined != arrays_iv[name]:
                changed.add(name)
            new_iv[name] = joined
        arrays_iv = new_iv
        rounds += 1
        if not changed:
            break
        stale = [name for name, code in codes.items() if code.loads & changed]

    functions: Dict[str, FunctionRanges] = {}
    for fn_name, code in codes.items():
        franges = FunctionRanges(name=fn_name, block_in=block_ins[fn_name])
        for block in code.fn.blocks:
            env = franges.block_in.get(block.label)
            if env is not None:
                _transfer_block(
                    code.blocks[block.label], env, arrays_iv,
                    facts=franges.facts,
                )
        functions[fn_name] = franges
    return ProgramRanges(
        program=program, functions=functions, arrays=dict(arrays_iv)
    )


# ---------------------------------------------------------------------------
# Symbolic facts: enclosing-loop bounds at the AST level
# ---------------------------------------------------------------------------


def _harvest_bounds(
    body: Sequence[ast.Stmt],
    chain: Tuple[EnclosingBound, ...],
    out: Dict[str, Tuple[EnclosingBound, ...]],
) -> None:
    for stmt in body:
        if isinstance(stmt, ast.For):
            if stmt.loop_id is not None:
                out[stmt.loop_id] = chain
            _harvest_bounds(
                stmt.body,
                chain + (EnclosingBound(stmt.var, stmt.lo, stmt.hi),),
                out,
            )
        elif isinstance(stmt, ast.While):
            _harvest_bounds(stmt.body, chain, out)
        elif isinstance(stmt, ast.If):
            _harvest_bounds(stmt.then_body, chain, out)
            _harvest_bounds(stmt.else_body, chain, out)


def harvest_enclosing_bounds(
    program: ast.Program,
) -> Dict[str, Tuple[EnclosingBound, ...]]:
    """For every labeled ``For`` loop, the bound facts of the loops
    around it (outermost first): ``lo <= var < hi`` holds whenever the
    inner loop's body executes.  Facts through ``While``/``If`` nesting
    are kept — the enclosing ``For`` headers still bracket the body."""
    out: Dict[str, Tuple[EnclosingBound, ...]] = {}
    for fn in program.functions.values():
        _harvest_bounds(fn.body, (), out)
    return out


# ---------------------------------------------------------------------------
# Soundness self-check: fuzzed interpreter runs vs. inferred intervals
# ---------------------------------------------------------------------------


def check_soundness(
    program: IRProgram,
    ranges: Optional[ProgramRanges] = None,
    args_list: Sequence[Tuple[float, ...]] = ((),),
    rng_seeds: Sequence[int] = (0, 1, 2),
    max_steps: int = 2_000_000,
) -> List[str]:
    """Execute ``program`` under the interpreter with a probe attached
    and return a violation message for every observed value that escapes
    its inferred interval (empty list = sound on these runs).

    Checked observations: scalar values at ``ldvar``/``stvar``, float
    subscripts (pre-truncation) and loaded/stored values at
    ``load``/``store``, intrinsic results, and ``div``/``mod`` divisors.
    Runs that raise (out-of-bounds, zero divisor, step budget) are fine —
    the intervals only claim to cover values the program *observes*.
    """
    from repro.errors import InterpreterError
    from repro.profiler.interpreter import Interpreter

    if ranges is None:
        ranges = analyze_program(program)
    violations: List[str] = []

    def probe(fn_name: str, iid: int, kind: str, value: float) -> None:
        fact = ranges.fact(fn_name, iid)
        if fact is None:
            violations.append(
                f"{fn_name}:iid{iid}: executed but never analyzed "
                f"(block unreachable per ranges)"
            )
            return
        iv = getattr(fact, kind)
        if iv is None or not iv.contains(value):
            violations.append(
                f"{fn_name}:iid{iid}: observed {kind}={value!r} outside "
                f"inferred {iv}"
            )

    for args in args_list:
        for seed in rng_seeds:
            interp = Interpreter(
                program, record=False, rng=seed, max_steps=max_steps,
                probe=probe,
            )
            try:
                interp.run(tuple(args))
            except InterpreterError:
                pass
            if len(violations) > 50:
                break
    return violations
