"""MiniC: a small structured AST for authoring sequential numeric kernels.

MiniC deliberately resembles the subset of C that dominates NPB / PolyBench /
BOTS kernels: scalar doubles, flat 1-D arrays indexed by affine or computed
expressions, counted ``for`` loops, ``while`` loops, ``if`` statements, and
calls to either math intrinsics or other MiniC functions.

Multi-dimensional arrays are expressed with explicit flattened index
arithmetic (``i * N + j``), matching what the paper's LLVM-IR level pipeline
sees after address lowering.

Every statement node carries a synthetic source ``line`` number assigned by
the builder; the PEG exposes ``<ID, START, END>`` node triples built from
these lines, as in the paper (Section III-D).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import IRError

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

#: Binary operators supported by MiniC expressions.
BINARY_OPS = (
    "+", "-", "*", "/", "%",
    "<", "<=", ">", ">=", "==", "!=",
    "&&", "||", "min", "max",
)

#: Unary operators.
UNARY_OPS = ("-", "!")

#: Math intrinsics callable from expressions (interpreted natively).
INTRINSICS = ("sqrt", "exp", "log", "sin", "cos", "fabs", "floor", "pow")

#: Operators that are associative+commutative, i.e. eligible for OpenMP-style
#: reduction recognition.
ASSOCIATIVE_OPS = ("+", "*", "min", "max")


class Expr:
    """Base class for MiniC expressions."""

    def children(self) -> Sequence["Expr"]:
        return ()


@dataclass(frozen=True)
class Const(Expr):
    """A numeric literal."""

    value: float

    def __repr__(self) -> str:
        return f"Const({self.value})"


@dataclass(frozen=True)
class Var(Expr):
    """A scalar variable read."""

    name: str

    def __repr__(self) -> str:
        return f"Var({self.name})"


@dataclass(frozen=True)
class Load(Expr):
    """An array element read: ``array[index]``."""

    array: str
    index: Expr

    def children(self) -> Sequence[Expr]:
        return (self.index,)

    def __repr__(self) -> str:
        return f"Load({self.array}[{self.index!r}])"


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary operation."""

    op: str
    lhs: Expr
    rhs: Expr

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise IRError(f"unknown binary operator {self.op!r}")

    def children(self) -> Sequence[Expr]:
        return (self.lhs, self.rhs)


@dataclass(frozen=True)
class UnOp(Expr):
    """A unary operation."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in UNARY_OPS:
            raise IRError(f"unknown unary operator {self.op!r}")

    def children(self) -> Sequence[Expr]:
        return (self.operand,)


@dataclass(frozen=True)
class CallExpr(Expr):
    """A call in expression position.

    ``fn`` is either a math intrinsic (``sqrt`` etc., evaluated natively) or
    the name of another MiniC function with a ``Return``; user calls in
    expression position must be pure of side effects on arrays the caller
    also touches for lowering to stay simple — the profiler still records any
    accesses the callee makes.
    """

    fn: str
    args: Tuple[Expr, ...]

    def children(self) -> Sequence[Expr]:
        return self.args

    @property
    def is_intrinsic(self) -> bool:
        return self.fn in INTRINSICS


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt:
    """Base class for MiniC statements.  ``line`` is a synthetic line number."""

    line: int = 0


@dataclass
class Assign(Stmt):
    """``name = expr`` on a scalar variable."""

    name: str
    expr: Expr
    line: int = 0


@dataclass
class Store(Stmt):
    """``array[index] = expr``."""

    array: str
    index: Expr
    expr: Expr
    line: int = 0


@dataclass
class For(Stmt):
    """A counted loop ``for (var = lo; var < hi; var += step) body``.

    ``loop_id`` is assigned at build time and is stable across lowering; the
    dataset pipeline classifies loops by this id.
    """

    var: str
    lo: Expr
    hi: Expr
    body: List[Stmt]
    step: Expr = field(default_factory=lambda: Const(1.0))
    loop_id: Optional[str] = None
    line: int = 0


@dataclass
class While(Stmt):
    """``while (cond) body``."""

    cond: Expr
    body: List[Stmt]
    line: int = 0


@dataclass
class If(Stmt):
    """``if (cond) then_body else else_body``."""

    cond: Expr
    then_body: List[Stmt]
    else_body: List[Stmt] = field(default_factory=list)
    line: int = 0


@dataclass
class CallStmt(Stmt):
    """A call in statement position (side effects through global arrays)."""

    fn: str
    args: Tuple[Expr, ...] = ()
    line: int = 0


@dataclass
class Return(Stmt):
    """``return expr`` (or bare return when ``expr`` is None)."""

    expr: Optional[Expr] = None
    line: int = 0


@dataclass
class Break(Stmt):
    """``break`` out of the innermost loop."""

    line: int = 0


# ---------------------------------------------------------------------------
# Program containers
# ---------------------------------------------------------------------------


@dataclass
class Function:
    """A MiniC function.

    Parameters are scalar; arrays are global and shared across functions (the
    common shape of NPB/PolyBench kernels, where arrays are file-scope
    statics).
    """

    name: str
    params: Tuple[str, ...]
    body: List[Stmt]


@dataclass
class Program:
    """A whole MiniC program: global array declarations plus functions.

    ``arrays`` maps array name -> number of elements.  ``entry`` names the
    function executed by the profiler.
    """

    functions: Dict[str, Function]
    arrays: Dict[str, int]
    entry: str = "main"
    name: str = "program"

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"program {self.name!r} has no function {name!r}") from None


# ---------------------------------------------------------------------------
# AST utilities
# ---------------------------------------------------------------------------


def walk_stmts(body: Sequence[Stmt]):
    """Yield every statement in ``body`` recursively, pre-order."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, For):
            yield from walk_stmts(stmt.body)
        elif isinstance(stmt, While):
            yield from walk_stmts(stmt.body)
        elif isinstance(stmt, If):
            yield from walk_stmts(stmt.then_body)
            yield from walk_stmts(stmt.else_body)


def walk_exprs(expr: Expr):
    """Yield ``expr`` and all sub-expressions, pre-order."""
    yield expr
    for child in expr.children():
        yield from walk_exprs(child)


def stmt_exprs(stmt: Stmt) -> Sequence[Expr]:
    """The immediate expressions of one statement (non-recursive into bodies)."""
    if isinstance(stmt, Assign):
        return (stmt.expr,)
    if isinstance(stmt, Store):
        return (stmt.index, stmt.expr)
    if isinstance(stmt, For):
        return (stmt.lo, stmt.hi, stmt.step)
    if isinstance(stmt, While):
        return (stmt.cond,)
    if isinstance(stmt, If):
        return (stmt.cond,)
    if isinstance(stmt, CallStmt):
        return tuple(stmt.args)
    if isinstance(stmt, Return):
        return (stmt.expr,) if stmt.expr is not None else ()
    return ()


def rename_expr(expr: Expr, rename: Dict[str, str]) -> Expr:
    """Rebuild ``expr`` with scalar reads renamed per ``rename``."""
    if isinstance(expr, Var):
        new = rename.get(expr.name)
        return Var(new) if new is not None else expr
    if isinstance(expr, Load):
        return Load(expr.array, rename_expr(expr.index, rename))
    if isinstance(expr, BinOp):
        return BinOp(
            expr.op,
            rename_expr(expr.lhs, rename),
            rename_expr(expr.rhs, rename),
        )
    if isinstance(expr, UnOp):
        return UnOp(expr.op, rename_expr(expr.operand, rename))
    if isinstance(expr, CallExpr):
        return CallExpr(
            expr.fn, tuple(rename_expr(a, rename) for a in expr.args)
        )
    return expr  # Const


def clone_stmt(stmt: Stmt, rename: Optional[Dict[str, str]] = None) -> Stmt:
    """Copy one statement and its nested bodies, optionally renaming
    scalars throughout.  Expressions are frozen, so unrenamed ones are
    shared rather than copied."""
    r = rename or {}
    if isinstance(stmt, Assign):
        return Assign(
            r.get(stmt.name, stmt.name), rename_expr(stmt.expr, r), stmt.line
        )
    if isinstance(stmt, Store):
        return Store(
            stmt.array, rename_expr(stmt.index, r),
            rename_expr(stmt.expr, r), stmt.line,
        )
    if isinstance(stmt, For):
        return For(
            var=r.get(stmt.var, stmt.var),
            lo=rename_expr(stmt.lo, r),
            hi=rename_expr(stmt.hi, r),
            body=[clone_stmt(s, rename) for s in stmt.body],
            step=rename_expr(stmt.step, r),
            loop_id=stmt.loop_id,
            line=stmt.line,
        )
    if isinstance(stmt, While):
        return While(
            rename_expr(stmt.cond, r),
            [clone_stmt(s, rename) for s in stmt.body], stmt.line,
        )
    if isinstance(stmt, If):
        return If(
            rename_expr(stmt.cond, r),
            [clone_stmt(s, rename) for s in stmt.then_body],
            [clone_stmt(s, rename) for s in stmt.else_body],
            stmt.line,
        )
    if isinstance(stmt, CallStmt):
        return CallStmt(
            stmt.fn, tuple(rename_expr(a, r) for a in stmt.args), stmt.line
        )
    if isinstance(stmt, Return):
        return Return(
            rename_expr(stmt.expr, r) if stmt.expr is not None else None,
            stmt.line,
        )
    if isinstance(stmt, Break):
        return Break(stmt.line)
    raise IRError(f"cannot clone statement {type(stmt).__name__}")


def clone_program(program: Program) -> Program:
    """Deep-copy a program (statement-level; frozen exprs are shared)."""
    return Program(
        functions={
            name: Function(
                fn.name, fn.params, [clone_stmt(s) for s in fn.body]
            )
            for name, fn in program.functions.items()
        },
        arrays=dict(program.arrays),
        entry=program.entry,
        name=program.name,
    )


def loops_in(body: Sequence[Stmt]) -> List[For]:
    """All For loops in ``body``, outermost first (pre-order)."""
    return [s for s in walk_stmts(body) if isinstance(s, For)]


def count_loops(program: Program) -> int:
    """Total number of For loops across all functions of ``program``."""
    return sum(len(loops_in(fn.body)) for fn in program.functions.values())
