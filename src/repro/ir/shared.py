"""Facts computed once per distinct MiniC program inside a scope.

A cold dataset assembly meets each program many times: the inst2vec
corpus, every compiler-pipeline task of the program and the shared range
analysis all start from its O0 lowering, and the AST tools' votes do not
depend on the variant at all.  Inside an :func:`analysis_scope`,
:func:`per_program` computes each such fact once per distinct program,
keyed by program *content* (:func:`program_fingerprint`: the AST's full
``repr``, which includes its name), so a program rebuilt from the same
source reuses the stored facts, while two different programs that share
a name never do.  :func:`program_ir` is the shared lowering;
:func:`repro.lint.shared_analysis.program_analysis` keeps its range
analysis in the same memo.

The memo lives exactly as long as the scope: a dataset assembly, a DS005
cross-validation and a ``repro lint`` run each open one and drop it on
exit, so a long-running process (``repro serve``) holds nothing between
runs.  Outside a scope, and in a pool worker
(:func:`leave_analysis_scope`), every call computes afresh.
"""

from __future__ import annotations

import contextvars
import hashlib
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, TypeVar

from repro.ir import ast_nodes as ast
from repro.ir.linear import IRProgram
from repro.ir.lowering import lower_program
from repro.ir.verify import verify_program

T = TypeVar("T")

_SCOPE: contextvars.ContextVar = contextvars.ContextVar(
    "program_facts", default=None
)


def program_fingerprint(program: ast.Program) -> str:
    """Content key of a MiniC program (its name included)."""
    return hashlib.sha256(repr(program).encode("utf-8")).hexdigest()


def per_program(
    kind: str,
    program: ast.Program,
    key: Optional[str],
    compute: Callable[[Optional[str]], T],
) -> T:
    """``compute(key)``: one ``kind`` of fact about ``program``, computed
    once per distinct program inside a scope.

    ``key`` is ``program_fingerprint(program)`` when the caller already
    has it (hashing a program's repr is not free).  Outside a scope the
    fact is computed afresh with ``key`` None, and nothing is hashed.
    A ``compute`` that raises stores nothing.
    """
    memo = _SCOPE.get()
    if memo is None:
        return compute(None)
    key = key or program_fingerprint(program)
    slot = (kind, key)
    if slot not in memo:
        memo[slot] = compute(key)
    return memo[slot]


def program_ir(
    program: ast.Program, key: Optional[str] = None, verify: bool = True
) -> IRProgram:
    """The O0 lowering of ``program``, verified unless ``verify`` is False.

    Inside a scope every caller gets the same lowering, verified at most
    once; callers must not change it (``apply_pipeline`` works on a
    copy).  A failed lowering or verification raises and stores nothing.
    """
    entry = per_program(  # [the lowering, whether it was verified]
        "ir", program, key, lambda _key: [lower_program(program), False]
    )
    if verify and not entry[1]:
        verify_program(entry[0])
        entry[1] = True
    return entry[0]


@contextmanager
def analysis_scope() -> Iterator[None]:
    """Share each fact :func:`per_program` computes — among them one O0
    lowering and one range analysis — per distinct program for the
    enclosed block.  Nested scopes join the outermost one."""
    if _SCOPE.get() is not None:
        yield
        return
    token = _SCOPE.set({})
    try:
        yield
    finally:
        _SCOPE.reset(token)


def leave_analysis_scope() -> None:
    """Compute afresh from here on in this context, as outside a scope.

    A forked pool worker inherits the scope its parent was in when the
    pool started; it calls this so that its tasks neither read that copy
    of the memo nor grow it."""
    _SCOPE.set(None)
