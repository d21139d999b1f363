"""Conservative static loop-carried dependence tests over MiniC ASTs.

This module is the engine behind lint rule ``DS005`` (label
cross-validation).  It classifies a ``For`` loop into one of three
verdicts **without executing anything**:

* ``PROVABLY_PARALLEL`` — no loop-carried dependence the oracle would
  count as a blocker can exist;
* ``PROVABLY_SERIAL`` — a blocking loop-carried dependence *must*
  manifest on every execution that enters the loop;
* ``UNKNOWN`` — anything the conservative machinery cannot settle.

The prover mirrors the exact semantics of the dynamic oracle
(:mod:`repro.analysis.oracle`): dependences on the loop's own induction
variable are ignored, carried WAR/WAW on scalars are always privatizable,
carried RAW on a recognized reduction accumulator is excused, and *any*
carried dependence on an array blocks.  Only verdicts that are provable
under those semantics are returned; everything else is ``UNKNOWN``, so a
disagreement between a verdict and the oracle label is always a bug in
the artifact (or in one of the two analyses) — never an expected
approximation gap.

Scope restrictions (violating any of them yields ``UNKNOWN``):

* the loop body must be straight-line: no nested ``For``/``While``,
  no ``If``/``Break``/``Return``, no calls except pure math intrinsics
  in expression position;
* neither the loop variable nor any enclosing loop variable is assigned
  in the body;
* array subscripts must normalize through
  :func:`repro.tools.affine.normalize_affine` into ``c·v + invariant``
  with an integer coefficient ``c`` on the loop variable, no composite
  terms involving it, and all other terms built from scalars that the
  body never writes.

Serial proofs additionally require a compile-time iteration space
(integer ``Const`` bounds/step, trip count ≥ 2) so the dependence is
guaranteed to occur dynamically whenever the loop runs at all.

Range-sharpened mode
--------------------

When a :class:`ProverContext` is supplied (``static_loop_verdicts``
builds one by default), the value-range engine
(:mod:`repro.analysis.ranges`) and the IR-level reduction recognizer
relax several of the restrictions *without* giving up certainty:

* accumulators recognized by :func:`repro.analysis.reduction.find_reductions`
  — the exact recognizer the oracle excuses RAW with — are excused in
  parallel proofs, and a read-first scalar the recognizer does *not*
  accept becomes a definite blocker;
* calls to **pure** user functions (straight-line scalar math, no array
  access, no further user calls) are treated like intrinsics: callee
  scalars are frame-local per activation, so they can never carry a
  dependence across caller iterations;
* symbolic-bound loops get a *range-backed* iteration space from the
  induction variable's inferred interval (a superset of the real one),
  sound for Banerjee / offset-vs-trip-count disproofs — and for the GCD
  test when the iterates are provably integral;
* an unconditional store whose subscript interval spans fewer integer
  cells than the (concrete) trip count is a pigeonhole-certain carried
  WAW — the range-backed refutation for histogram/scatter kernels;
* flattened-2D subscripts ``q·v·N + r`` are disproved by
  **row-disjointness** when the symbolic-facts layer proves
  ``0 <= r < |q|·N`` (e.g. ``r = j`` with ``0 <= j < N`` harvested from
  an enclosing loop header) — distinct rows cannot collide.

Every range-assisted verdict records the facts it consumed in
``StaticLoopAnalysis.range_facts`` so downstream consumers (the advisor's
provenance clauses, lint reports) can name the evidence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.ir import ast_nodes as ast
from repro.tools.affine import AffineForm, gcd_test, normalize_affine


class StaticVerdict(enum.Enum):
    PROVABLY_PARALLEL = "provably_parallel"
    PROVABLY_SERIAL = "provably_serial"
    UNKNOWN = "unknown"


@dataclass
class StaticLoopAnalysis:
    """Verdict plus the evidence trail for one loop.

    ``range_facts`` lists the value-range / symbolic facts a sharpened
    verdict consumed (empty for verdicts the classic machinery reached).
    """

    loop_id: str
    verdict: StaticVerdict
    reasons: List[str] = field(default_factory=list)
    range_facts: List[str] = field(default_factory=list)

    def reason_text(self) -> str:
        return "; ".join(self.reasons) if self.reasons else "no evidence"


def _unknown(loop_id: str, why: str) -> StaticLoopAnalysis:
    return StaticLoopAnalysis(loop_id, StaticVerdict.UNKNOWN, [why])


# ---------------------------------------------------------------------------
# Prover context: range analysis + reduction recognition + purity
# ---------------------------------------------------------------------------


@dataclass
class ProverContext:
    """Whole-program facts the sharpened prover consumes.

    Built once per program from its shared analysis
    (:mod:`repro.lint.shared_analysis`) over the O0 lowering — the same
    IR the dynamic oracle profiles, so the reduction sets are *the* sets
    the oracle excuses with, not an approximation.
    """

    program: ast.Program
    ranges: "object"                       # repro.analysis.ranges.ProgramRanges
    reductions: Dict[str, Dict[str, str]]  # loop_id -> {accumulator: op}
    pure_functions: FrozenSet[str]
    enclosing_bounds: Dict[str, tuple]     # loop_id -> (EnclosingBound, ...)
    block_sets: Dict[str, Set[str]]        # loop_id -> block labels (O0 IR)

    def reduction_vars(self, loop_id: str) -> Dict[str, str]:
        return self.reductions.get(loop_id, {})


def _expr_is_pure(expr: ast.Expr) -> bool:
    for e in ast.walk_exprs(expr):
        if isinstance(e, ast.Load):
            return False
        if isinstance(e, ast.CallExpr) and e.fn not in _INTRINSICS:
            return False
    return True


def _stmts_are_pure(body: Sequence[ast.Stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Assign):
            if not _expr_is_pure(stmt.expr):
                return False
        elif isinstance(stmt, ast.Return):
            if stmt.expr is not None and not _expr_is_pure(stmt.expr):
                return False
        elif isinstance(stmt, ast.If):
            if not _expr_is_pure(stmt.cond):
                return False
            if not _stmts_are_pure(stmt.then_body):
                return False
            if not _stmts_are_pure(stmt.else_body):
                return False
        else:
            return False  # Store / CallStmt / loops: not pure enough
    return True


def _pure_functions(program: ast.Program) -> FrozenSet[str]:
    """Functions whose calls are dependence-free from the caller's view:
    only frame-local scalar math (every activation gets fresh locals in
    the interpreter's memory model, so nothing aliases across caller
    iterations) and no array or user-call reach-through."""
    return frozenset(
        name
        for name, fn in program.functions.items()
        if name != program.entry and _stmts_are_pure(fn.body)
    )


def prover_context(program: ast.Program, ir, ranges) -> ProverContext:
    """Assemble the prover context from ``program``'s O0 lowering ``ir``
    and its value ranges: run the reduction recognizer and harvest the
    symbolic facts."""
    from repro.analysis.ranges import harvest_enclosing_bounds
    from repro.analysis.reduction import find_reductions
    from repro.profiler.static_info import program_block_sets

    block_sets = program_block_sets(ir)  # once per function, not per loop
    reductions: Dict[str, Dict[str, str]] = {}
    for fn in ir.functions.values():
        for loop_id in fn.loops:
            found = find_reductions(fn, loop_id, block_sets)
            reductions[loop_id] = {
                info.symbol: info.operator for info in found.values()
            }
    return ProverContext(
        program=program,
        ranges=ranges,
        reductions=reductions,
        pure_functions=_pure_functions(program),
        enclosing_bounds=harvest_enclosing_bounds(program),
        block_sets=block_sets,
    )


def build_prover_context(program: ast.Program) -> Optional[ProverContext]:
    """The prover context of ``program``'s shared analysis
    (:func:`repro.lint.shared_analysis.program_analysis`).  Returns None
    when the program cannot be lowered or analysed (the prover then falls
    back to its classic conservative behavior)."""
    from repro.lint.shared_analysis import program_analysis

    return program_analysis(program).context


# ---------------------------------------------------------------------------
# Body scanning
# ---------------------------------------------------------------------------


@dataclass
class _Access:
    """One array access with a strict affine subscript ``c·v + k`` where
    every non-``v`` term is loop-invariant (verified by the caller).

    ``composite`` is set instead of ``coeff`` for the flattened-2D shape
    ``q·(v·N) + rest`` (partner symbol, integer coefficient ``q``) — only
    produced in range-sharpened mode, and only consumed by the
    row-disjointness disproof."""

    array: str
    is_write: bool
    coeff: float                       # integer-valued coefficient of v
    const: float
    other: Dict[Tuple[str, ...], float]  # invariant terms (coeffs)
    form: AffineForm
    line: int
    composite: Optional[Tuple[str, float]] = None


class _BodyScan:
    """Flat facts about a straight-line loop body."""

    def __init__(self) -> None:
        self.scalar_reads: List[str] = []          # in evaluation order
        self.scalar_events: List[Tuple[str, str]] = []  # ("r"|"w", name)
        self.scalars_written: Set[str] = set()
        self.self_referencing: Set[str] = set()    # x = ...x... assignments
        self.array_reads: List[ast.Load] = []
        self.array_writes: List[ast.Store] = []
        self.bail: Optional[str] = None


_INTRINSICS = set(ast.INTRINSICS)

_EMPTY: FrozenSet[str] = frozenset()


def _expr_events(
    expr: ast.Expr, scan: _BodyScan, pure_fns: FrozenSet[str] = _EMPTY
) -> None:
    """Record scalar reads / array loads of ``expr`` in evaluation order."""
    if scan.bail:
        return
    if isinstance(expr, ast.Var):
        scan.scalar_events.append(("r", expr.name))
        scan.scalar_reads.append(expr.name)
        return
    if isinstance(expr, ast.Load):
        _expr_events(expr.index, scan, pure_fns)
        scan.array_reads.append(expr)
        return
    if isinstance(expr, ast.CallExpr):
        if expr.fn not in _INTRINSICS and expr.fn not in pure_fns:
            scan.bail = f"call to non-intrinsic {expr.fn!r}"
            return
        for arg in expr.args:
            _expr_events(arg, scan, pure_fns)
        return
    for child in expr.children():
        _expr_events(child, scan, pure_fns)


def _scan_body(
    body: Sequence[ast.Stmt], pure_fns: FrozenSet[str] = _EMPTY
) -> _BodyScan:
    """Scan a loop body; sets ``bail`` when it is not straight-line."""
    scan = _BodyScan()
    for stmt in body:
        if scan.bail:
            break
        if isinstance(stmt, ast.Assign):
            _expr_events(stmt.expr, scan, pure_fns)
            scan.scalar_events.append(("w", stmt.name))
            scan.scalars_written.add(stmt.name)
            if any(
                isinstance(e, ast.Var) and e.name == stmt.name
                for e in ast.walk_exprs(stmt.expr)
            ):
                scan.self_referencing.add(stmt.name)
        elif isinstance(stmt, ast.Store):
            _expr_events(stmt.index, scan, pure_fns)
            _expr_events(stmt.expr, scan, pure_fns)
            scan.array_writes.append(stmt)
        elif isinstance(stmt, ast.CallStmt) and stmt.fn in pure_fns:
            for arg in stmt.args:
                _expr_events(arg, scan, pure_fns)
        else:
            scan.bail = f"non-straight-line statement {type(stmt).__name__}"
    return scan


def _header_events(loop: ast.For, scan: _BodyScan, pure_fns: FrozenSet[str]):
    """Fold the loop's per-iteration bound evaluations into the body scan.

    ``hi`` is re-evaluated at every header check (before the body) and
    ``step`` at every latch (after the body) — so a bound expression that
    reads a scalar the body writes is a real carried RAW the event order
    must expose.  ``lo`` runs once before the loop and carries nothing.
    """
    header = _BodyScan()
    _expr_events(loop.hi, header, pure_fns)
    tail = _BodyScan()
    _expr_events(loop.step, tail, pure_fns)
    if header.bail or tail.bail:
        scan.bail = header.bail or tail.bail
        return
    scan.scalar_events = (
        header.scalar_events + scan.scalar_events + tail.scalar_events
    )
    scan.scalar_reads = (
        header.scalar_reads + scan.scalar_reads + tail.scalar_reads
    )
    scan.array_reads = header.array_reads + scan.array_reads + tail.array_reads


def _first_event_is_write(scan: _BodyScan, name: str) -> bool:
    for kind, sym in scan.scalar_events:
        if sym == name:
            return kind == "w"
    return False


# ---------------------------------------------------------------------------
# Affine access classification
# ---------------------------------------------------------------------------


def _strict_affine(
    index: ast.Expr,
    var: str,
    written_scalars: Set[str],
    is_write: bool,
    array: str,
    line: int,
    allow_composite: bool = False,
) -> Optional[_Access]:
    """Normalize ``index`` into the strict ``c·v + invariant`` shape.

    Returns None when the access is not analyzable: non-affine, composite
    terms involving ``var`` (the flattened-2D ``v * N`` pattern — the
    symbolic stride defeats sound integer reasoning), non-integer
    coefficient/constant, or parameters the body also writes (then they
    are not iteration-invariant).

    With ``allow_composite`` (range-sharpened mode) a single ``v·N``
    composite with integer coefficient and no plain ``v`` term is kept and
    tagged for the row-disjointness disproof instead of bailing.
    """
    form = normalize_affine(index, {var})
    if form is None:
        return None
    coeff = form.coeffs.get((var,), 0.0)
    if not float(coeff).is_integer() or not float(form.const).is_integer():
        return None
    other: Dict[Tuple[str, ...], float] = {}
    composite: Optional[Tuple[str, float]] = None
    for term, c in form.coeffs.items():
        if term == (var,):
            continue
        if var in term:
            if (
                not allow_composite
                or composite is not None      # two composites: give up
                or coeff != 0.0               # mixed v and v·N: give up
                or len(term) != 2
                or not float(c).is_integer()
                or c == 0.0
            ):
                return None
            partner = term[0] if term[1] == var else term[1]
            if partner in written_scalars:
                return None
            composite = (partner, c)
            continue
        if any(sym in written_scalars for sym in term):
            return None  # coefficient on a non-invariant symbol
        other[term] = c
    return _Access(
        array=array, is_write=is_write, coeff=coeff, const=form.const,
        other=other, form=form, line=line, composite=composite,
    )


# ---------------------------------------------------------------------------
# Iteration space
# ---------------------------------------------------------------------------


@dataclass
class _IterSpace:
    """Integer-ish iteration set {lo, lo+step, ... < hi}.

    ``exact`` means lo/hi/step came from integer ``Const`` bounds, so
    ``trips`` is the exact dynamic count — required by *serial* proofs.
    A range-backed space (``exact=False``) is a superset of the real
    iterate set and ``trips`` is only an upper bound — still sound for
    every *disproof* (Banerjee, offset-vs-trips).  ``integral`` asserts
    all iterates are integers (needed by the GCD test).
    """

    lo: float
    hi: float
    step: int
    exact: bool = True
    integral: bool = True

    @property
    def trips(self) -> int:
        if self.step <= 0 or self.hi <= self.lo:
            return 0
        return -(-int(self.hi - self.lo) // self.step)  # ceil div


def _concrete_space(loop: ast.For) -> Optional[_IterSpace]:
    vals = []
    for e in (loop.lo, loop.hi, loop.step):
        if not isinstance(e, ast.Const) or not float(e.value).is_integer():
            return None
        vals.append(int(e.value))
    lo, hi, step = vals
    if step <= 0:
        return None  # MiniC For semantics assume a positive step
    return _IterSpace(lo, hi, step)


def _range_space(
    loop: ast.For, loop_id: str, context: ProverContext,
    range_facts: List[str],
) -> Optional[_IterSpace]:
    """Synthesize a superset iteration space from the induction
    variable's inferred interval (symbolic bounds, constant step)."""
    if not (
        isinstance(loop.step, ast.Const)
        and float(loop.step.value).is_integer()
        and int(loop.step.value) > 0
    ):
        return None
    step = int(loop.step.value)
    iv = context.ranges.loop_var_interval(loop_id)
    if iv is None or not iv.is_finite:
        return None
    integral = (
        isinstance(loop.lo, ast.Const) and float(loop.lo.value).is_integer()
    )
    space = _IterSpace(
        lo=iv.lo, hi=iv.hi + step, step=step, exact=False, integral=integral,
    )
    range_facts.append(
        f"{loop.var} in [{iv.lo:g}, {iv.hi:g}] (range-backed space, "
        f"<= {space.trips} trips)"
    )
    return space


# ---------------------------------------------------------------------------
# Pairwise dependence disproof / proof
# ---------------------------------------------------------------------------


def _pair_no_carried_dep(
    a: _Access,
    b: _Access,
    var: str,
    step: Optional[int],
    space: Optional[_IterSpace],
    facts: Sequence["object"] = (),
    range_facts: Optional[List[str]] = None,
) -> Optional[str]:
    """Disprove a cross-iteration collision between ``a`` and ``b``.

    Returns a reason string when *no* v1 ≠ v2 can satisfy
    ``a(v1) == b(v2)``, or None when a collision may exist.  Sound for
    symbolic bounds: the invariant terms cancel because both accesses see
    the same parameter values during one execution of the loop.  ``step``
    is the loop step when it is a known integer constant (then
    ``v1 - v2`` is an exact nonzero multiple of it even when the bounds
    are symbolic); ``space`` additionally pins lo/hi.
    """
    if a.composite is not None or b.composite is not None:
        return _row_disjoint(a, b, var, step, facts, range_facts)
    if a.other != b.other:
        return None  # different parametric structure: cannot compare
    dk = b.const - a.const
    ca, cb = a.coeff, b.coeff
    if ca == 0.0 and cb == 0.0:
        if dk != 0.0:
            return "distinct fixed cells"
        return None  # same fixed cell every iteration: definite collision
    if ca == cb:
        if dk == 0.0:
            return "identical subscripts only collide in-iteration"
        # c·(v1 - v2) = dk with v1 - v2 a nonzero multiple of the step;
        # without a constant integer step v1 - v2 is unconstrained.
        if step is None:
            return None
        q = dk / (ca * step)
        if not float(q).is_integer():
            return "offset not a multiple of coefficient times step"
        if space is not None and abs(int(q)) >= space.trips:
            if not space.exact and range_facts is not None:
                range_facts.append(
                    f"offset {int(q)} vs range-bounded trip count "
                    f"{space.trips}"
                )
            return "offset exceeds the trip count"
        return None
    # differing coefficients: integer-infeasibility (gcd) needs an integral
    # iteration set; Banerjee's real-valued bounds only need a superset
    if space is not None:
        if space.integral and not gcd_test(a.form, b.form, var):
            if not space.exact and range_facts is not None:
                range_facts.append("gcd over range-backed integral space")
            return "gcd test proves no integer solution"
        lo_last = space.lo + (space.trips - 1) * space.step
        lhs_min = min(ca * space.lo, ca * lo_last) - max(
            cb * space.lo, cb * lo_last
        )
        lhs_max = max(ca * space.lo, ca * lo_last) - min(
            cb * space.lo, cb * lo_last
        )
        if not (lhs_min <= dk <= lhs_max):
            if not space.exact and range_facts is not None:
                range_facts.append(
                    f"Banerjee over {var} in [{space.lo:g}, "
                    f"{space.lo:g}+{space.trips - 1}*{space.step}]"
                )
            return "Banerjee bounds exclude a collision"
    return None


def _row_disjoint(
    a: _Access,
    b: _Access,
    var: str,
    step: Optional[int],
    facts: Sequence["object"],
    range_facts: Optional[List[str]],
) -> Optional[str]:
    """Row-disjointness for flattened-2D accesses ``q·v·N + rest``.

    A cross-iteration collision needs ``q·N·(v1-v2) + (rest_a-rest_b) = 0``
    with ``v1-v2`` a nonzero multiple of the (integer, >=1) step, hence
    ``|q·N·(v1-v2)| >= |q|·N``.  The symbolic facts prove
    ``|rest_a - rest_b| < |q|·N`` — so no collision exists.  All
    non-``v`` symbols are fixed during one activation of the loop (the
    body writes none of them), so ``rest`` differences are evaluated at a
    *single* environment.
    """
    if a.composite is None or b.composite is None:
        return None  # one row-structured, one not: cannot compare
    if a.composite != b.composite or a.coeff != 0.0 or b.coeff != 0.0:
        return None
    if step is None or step < 1:
        return None
    partner, q = a.composite
    # rest difference: invariant terms + consts, at one shared environment
    diff: Dict[Tuple[str, ...], float] = dict(a.other)
    for term, c in b.other.items():
        diff[term] = diff.get(term, 0.0) - c
    diff = {t: c for t, c in diff.items() if c != 0.0}
    dconst = a.const - b.const

    positive = _fact_positive(partner, facts)
    if not diff and dconst == 0.0:
        if positive is None:
            return None
        if range_facts is not None:
            range_facts.append(positive)
        return (
            f"row-disjointness: equal row offsets and stride "
            f"{partner!r} > 0"
        )
    if dconst == 0.0 and len(diff) == 1:
        (term, d), = diff.items()
        if len(term) == 1 and abs(d) <= abs(q):
            j = term[0]
            bound = _fact_bounded_by(j, partner, facts)
            if bound is not None:
                if range_facts is not None:
                    range_facts.append(bound)
                return (
                    f"row-disjointness: |rest delta| = |{d:g}*{j}| < "
                    f"|{q:g}|*{partner}"
                )
    return None


def _lo_const(fact: "object") -> float:
    lo = fact.lo_const
    return float("-inf") if lo is None else lo


def _fact_positive(symbol: str, facts: Sequence["object"]) -> Optional[str]:
    """A symbolic fact proving ``symbol > 0`` while the body runs."""
    for fact in facts:
        # symbol bounds another entered loop from above: hi > var >= lo >= 0
        if fact.hi_symbol == symbol and _lo_const(fact) >= 0:
            return f"0 <= {fact.var} < {symbol} (enclosing loop header)"
        # symbol is itself an enclosing induction variable with lo >= 1
        if fact.var == symbol and _lo_const(fact) >= 1:
            return f"{symbol} >= {fact.lo_const:g} (enclosing loop header)"
    return None


def _fact_bounded_by(
    symbol: str, bound: str, facts: Sequence["object"]
) -> Optional[str]:
    """A symbolic fact proving ``0 <= symbol < bound`` while the body
    runs (an enclosing ``for symbol in [lo >= 0, bound)`` header)."""
    for fact in facts:
        if (
            fact.var == symbol
            and fact.hi_symbol == bound
            and _lo_const(fact) >= 0
        ):
            return f"0 <= {symbol} < {bound} (enclosing loop header)"
    return None


def _pair_definite_carried_dep(
    a: _Access, b: _Access, space: _IterSpace
) -> Optional[str]:
    """Prove a cross-iteration collision between ``a`` and ``b`` occurs.

    Requires a concrete iteration space with trips ≥ 2.  Returns a reason
    string when some v1 ≠ v2 in the space *must* collide, None otherwise.
    """
    if a.composite is not None or b.composite is not None:
        return None  # row-structured accesses: existence not attempted
    if a.other != b.other or space.trips < 2:
        return None
    dk = b.const - a.const
    ca, cb = a.coeff, b.coeff
    if ca == 0.0 and cb == 0.0:
        if dk == 0.0:
            return "same fixed cell touched every iteration"
        return None
    if ca == cb:
        if dk == 0.0:
            return None  # only same-iteration collisions
        q = dk / (ca * space.step)
        if float(q).is_integer() and 1 <= abs(int(q)) <= space.trips - 1:
            return f"constant dependence distance {int(abs(q))}"
        return None
    return None  # differing coefficients: existence not attempted


# ---------------------------------------------------------------------------
# Loop-level verdicts
# ---------------------------------------------------------------------------


def analyze_loop_static(
    loop: ast.For,
    enclosing_vars: Sequence[str] = (),
    context: Optional[ProverContext] = None,
) -> StaticLoopAnalysis:
    """Classify one ``For`` loop; see the module docstring for semantics.

    ``enclosing_vars`` are the induction variables of loops *around*
    ``loop`` — they are loop-invariant symbols during one execution of
    ``loop`` unless the body writes them (which forfeits analyzability).
    ``context`` enables the range-sharpened proofs; without it the
    classic conservative behavior is preserved bit-for-bit.
    """
    loop_id = loop.loop_id or "<anon>"
    if not loop.var:
        return _unknown(loop_id, "loop has no induction variable")

    early_space = _concrete_space(loop)
    if early_space is not None and early_space.trips <= 1:
        # at most one iteration per activation: no pair of iterations
        # exists for any dependence to be carried by this loop (holds for
        # arbitrary bodies, including nested loops and calls)
        return StaticLoopAnalysis(
            loop_id,
            StaticVerdict.PROVABLY_PARALLEL,
            [f"constant bounds give trip count {early_space.trips}"],
        )

    pure_fns = context.pure_functions if context is not None else _EMPTY
    scan = _scan_body(loop.body, pure_fns)
    if scan.bail:
        return _unknown(loop_id, scan.bail)
    _header_events(loop, scan, pure_fns)
    if scan.bail:
        return _unknown(loop_id, scan.bail)
    if loop.var in scan.scalars_written:
        return _unknown(loop_id, "body assigns the induction variable")
    for outer in enclosing_vars:
        if outer in scan.scalars_written:
            return _unknown(loop_id, f"body assigns enclosing loop var {outer!r}")

    range_facts: List[str] = []
    space = _concrete_space(loop)
    if space is None and context is not None:
        space = _range_space(loop, loop_id, context, range_facts)
    step_int: Optional[int] = None
    if isinstance(loop.step, ast.Const) and float(loop.step.value).is_integer():
        step_int = int(loop.step.value)
        if step_int <= 0:
            return _unknown(loop_id, "non-positive constant step")

    # reduction accumulators the oracle will excuse — None means "no
    # recognizer available", an empty dict means "recognizer ran, found
    # none" (which licenses *refuting* read-first scalars)
    reductions: Optional[Dict[str, str]] = None
    facts: Sequence[object] = ()
    if context is not None:
        reductions = context.reduction_vars(loop_id)
        facts = context.enclosing_bounds.get(loop_id, ())

    # -- collect array accesses ------------------------------------------
    allow_composite = context is not None
    accesses: Dict[str, List[_Access]] = {}
    unanalyzable_arrays: Set[str] = set()
    for store in scan.array_writes:
        acc = _strict_affine(
            store.index, loop.var, scan.scalars_written, True, store.array,
            store.line, allow_composite,
        )
        if acc is None:
            unanalyzable_arrays.add(store.array)
        else:
            accesses.setdefault(store.array, []).append(acc)
    read_arrays: Set[str] = set()
    for load in scan.array_reads:
        read_arrays.add(load.array)
        acc = _strict_affine(
            load.index, loop.var, scan.scalars_written, False, load.array, 0,
            allow_composite,
        )
        if acc is None:
            unanalyzable_arrays.add(load.array)
        else:
            accesses.setdefault(load.array, []).append(acc)

    written_arrays = {s.array for s in scan.array_writes}

    # -- serial proof: one definite blocker suffices ---------------------
    if space is not None and space.exact and space.trips >= 2:
        serial = _prove_serial(
            loop, scan, accesses, written_arrays, space, reductions,
            context, loop_id, range_facts,
        )
        if serial is not None:
            return StaticLoopAnalysis(
                loop_id, StaticVerdict.PROVABLY_SERIAL, [serial],
                range_facts=range_facts,
            )

    # -- parallel proof: every potential blocker must be disproved -------
    parallel_reasons = _prove_parallel(
        loop, scan, accesses, written_arrays, unanalyzable_arrays,
        step_int, space, reductions, facts, range_facts,
    )
    if parallel_reasons is not None:
        return StaticLoopAnalysis(
            loop_id, StaticVerdict.PROVABLY_PARALLEL, parallel_reasons,
            range_facts=range_facts,
        )
    return _unknown(loop_id, "no provable verdict")


def _prove_serial(
    loop: ast.For,
    scan: _BodyScan,
    accesses: Dict[str, List[_Access]],
    written_arrays: Set[str],
    space: _IterSpace,
    reductions: Optional[Dict[str, str]],
    context: Optional[ProverContext],
    loop_id: str,
    range_facts: List[str],
) -> Optional[str]:
    # Blocker A: scalar carried RAW that provably is not a reduction.
    # First event is a read (so iteration k+1 reads iteration k's value).
    # Without the IR-level recognizer, a scalar mentioned on its own RHS
    # is conservatively skipped (it might be a reduction); with it, "not
    # recognized" is exactly the oracle's own excuse test, so the blocker
    # is definite either way.
    for name in sorted(scan.scalars_written):
        if name == loop.var:
            continue
        if reductions is not None:
            if name in reductions:
                continue  # recognized accumulator: the oracle excuses it
        elif name in scan.self_referencing:
            continue
        events = [ev for ev in scan.scalar_events if ev[1] == name]
        if events and events[0][0] == "r":
            return (
                f"scalar {name!r} is read before it is written and is not a "
                f"reduction: unavoidable carried RAW"
            )
    # Blocker B: array pair with a provable cross-iteration collision.
    for array in sorted(written_arrays):
        accs = accesses.get(array, [])
        for i, a in enumerate(accs):
            for b in accs[i:]:
                if not (a.is_write or b.is_write):
                    continue
                why = _pair_definite_carried_dep(a, b, space)
                if why is None and a is not b:
                    why = _pair_definite_carried_dep(b, a, space)
                if why is not None:
                    return f"array {array!r}: {why}"
    # Blocker C (range-backed pigeonhole): an unconditional store whose
    # subscript interval spans fewer integer cells than the trip count
    # must revisit a cell — a definite carried WAW on the array.
    if context is not None:
        for store in scan.array_writes:
            cells = context.ranges.store_index_cells(
                loop_id, store.line, store.array
            )
            if cells is None:
                continue
            ncells = cells[1] - cells[0] + 1
            if 0 < ncells < space.trips:
                range_facts.append(
                    f"store index of {store.array!r} in [{cells[0]}, "
                    f"{cells[1]}] ({ncells} cells) vs {space.trips} trips"
                )
                return (
                    f"array {store.array!r}: {space.trips} unconditional "
                    f"stores land in at most {ncells} cells: pigeonhole "
                    f"forces a carried WAW"
                )
    return None


def _prove_parallel(
    loop: ast.For,
    scan: _BodyScan,
    accesses: Dict[str, List[_Access]],
    written_arrays: Set[str],
    unanalyzable_arrays: Set[str],
    step: Optional[int],
    space: Optional[_IterSpace],
    reductions: Optional[Dict[str, str]],
    facts: Sequence[object],
    range_facts: List[str],
) -> Optional[List[str]]:
    reasons: List[str] = []
    # Scalars: every written scalar must be written before any read in
    # each iteration — then no RAW can be carried, and the oracle excuses
    # carried WAR/WAW on scalars as privatizable.  A recognized reduction
    # accumulator is the one read-first shape the oracle also excuses.
    private: List[str] = []
    excused: List[str] = []
    for name in sorted(scan.scalars_written):
        if name == loop.var:
            return None  # handled earlier, defensive
        if _first_event_is_write(scan, name):
            private.append(name)
            continue
        if reductions is not None and name in reductions:
            excused.append(f"{name} ({reductions[name]})")
            continue
        return None  # possible carried RAW we cannot excuse
    if private:
        reasons.append(f"scalars write-first (privatizable): {', '.join(private)}")
    if excused:
        reasons.append(f"reduction accumulators excused: {', '.join(excused)}")
    # Arrays: every array with a write must be fully analyzable and every
    # pair involving a write disproved.  Read-only arrays carry no deps.
    for array in sorted(written_arrays):
        if array in unanalyzable_arrays:
            return None
        accs = accesses.get(array, [])
        for i, a in enumerate(accs):
            for b in accs[i:]:
                if not (a.is_write or b.is_write):
                    continue
                why = _pair_no_carried_dep(
                    a, b, loop.var, step, space, facts, range_facts
                )
                if why is None:
                    return None
        reasons.append(f"array {array!r}: all access pairs disproved")
    if not written_arrays and not scan.scalars_written:
        reasons.append("body writes nothing the loop could carry")
    return reasons


# ---------------------------------------------------------------------------
# Program-level driver
# ---------------------------------------------------------------------------


def static_loop_verdicts(
    program: ast.Program,
    use_ranges: bool = True,
    context: Optional[ProverContext] = None,
) -> Dict[str, StaticLoopAnalysis]:
    """Analyze every ``For`` loop of ``program``, keyed by ``loop_id``.

    Loops without a ``loop_id`` are skipped (they cannot be matched to
    samples or oracle results).  Candidate enumeration — including the
    enclosing-induction-variable context — is shared with the pattern
    classifier and the advisor via
    :func:`repro.analysis.candidates.iter_parallel_candidate_loops`, so
    DS005 and the layers above it always agree on the loop universe.

    ``use_ranges=False`` skips :func:`build_prover_context` and restores
    the pre-range conservative prover (the benchmark baseline).
    ``context`` is :func:`build_prover_context` of ``program`` when the
    caller already built it (the advice plans reuse its block sets).
    """
    from repro.analysis.candidates import iter_parallel_candidate_loops

    if context is None and use_ranges:
        context = build_prover_context(program)
    return {
        cand.loop_id: analyze_loop_static(cand.loop, cand.enclosing, context)
        for cand in iter_parallel_candidate_loops(program)
    }
