"""One shared static analysis per MiniC program.

IR004–IR006 quarantine, DS005 label cross-validation, the advisor's
prover tiers and AD001 all consume the same facts about a program: its
O0 lowering, the value-range fixpoint over that IR
(:func:`repro.analysis.ranges.analyze_program`), and the prover context
built from both.  :func:`program_analysis` computes them once per
program.

Inside an :func:`analysis_scope`, analyses are memoized by program
*content* (the AST's full ``repr``, which includes its name), so a
program rebuilt from the same source — ``repro lint`` rebuilds every
program the assembly already analysed — reuses the stored analysis,
while two different programs that happen to share a name never do.
The memo lives exactly as long as the scope: a dataset assembly, a
DS005 cross-validation and a ``repro lint`` run each open one and drop
it on exit, so a long-running process (``repro serve``) holds no
analyses between runs.  Outside a scope every call computes afresh.

A program that cannot be lowered or analysed yields a
:class:`ProgramAnalysis` whose ``error`` says why; consumers fall back
to their range-free behaviour and DS005 counts the program as
``unanalyzable`` instead of silently judging it without ranges.
"""

from __future__ import annotations

import contextvars
import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

from repro.analysis.ranges import ProgramRanges, analyze_program
from repro.ir import ast_nodes as ast
from repro.ir.linear import IRProgram
from repro.ir.lowering import lower_program
from repro.lint.core import LintReport
from repro.lint.ir_rules import check_ir_ranges
from repro.lint.static_dep import ProverContext, prover_context

_SCOPE: contextvars.ContextVar = contextvars.ContextVar(
    "program_analyses", default=None
)


@dataclass(eq=False)
class ProgramAnalysis:
    """O0-lowered IR, its value ranges, and the prover context built from
    both.

    ``ir``/``ranges``/``context`` are None when lowering or the range
    engine failed; ``error`` then holds the exception text.  The
    range-condemned loops are derived on first use.
    """

    program: ast.Program
    ir: Optional[IRProgram] = None
    ranges: Optional[ProgramRanges] = None
    context: Optional[ProverContext] = None
    error: Optional[str] = None
    _condemned: Optional[Dict[str, str]] = field(
        default=None, init=False, repr=False
    )

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def range_error_loops(self) -> Dict[str, str]:
        """Loop ids condemned by IR004–IR006 ERROR findings, mapped to the
        firing rule id (empty when the program could not be analysed).
        Every pipeline/transform variant of a source program shares its
        loop ids, so one walk covers them all."""
        if self._condemned is None:
            self._condemned = {}
            if self.ok:
                report = LintReport()
                check_ir_ranges(report, self.ir, ranges=self.ranges)
                for f in report.errors:
                    loop = f.details.get("loop")
                    if loop:
                        self._condemned.setdefault(loop, f.rule_id)
        return self._condemned


def program_fingerprint(program: ast.Program) -> str:
    """Content key of a MiniC program (its name included)."""
    return hashlib.sha256(repr(program).encode("utf-8")).hexdigest()


def _analyze(program: ast.Program) -> ProgramAnalysis:
    try:
        ir = lower_program(program)
    except Exception as exc:
        return ProgramAnalysis(program, error=f"lowering: {exc!r}")
    try:
        ranges = analyze_program(ir)
    except Exception as exc:
        return ProgramAnalysis(program, ir=ir, error=f"ranges: {exc!r}")
    return ProgramAnalysis(
        program, ir=ir, ranges=ranges,
        context=prover_context(program, ir, ranges),
    )


def program_analysis(
    program: ast.Program, key: Optional[str] = None
) -> ProgramAnalysis:
    """The shared analysis of ``program`` (memoized inside a scope).

    ``key`` is ``program_fingerprint(program)`` when the caller already
    has it (hashing a program's repr is not free)."""
    memo = _SCOPE.get()
    if memo is None:
        return _analyze(program)
    if key is None:
        key = program_fingerprint(program)
    analysis = memo.get(key)
    if analysis is None:
        analysis = memo[key] = _analyze(program)
    return analysis


@contextmanager
def analysis_scope() -> Iterator[None]:
    """Share one :class:`ProgramAnalysis` per distinct program for the
    enclosed block.  Nested scopes join the outermost one."""
    if _SCOPE.get() is not None:
        yield
        return
    token = _SCOPE.set({})
    try:
        yield
    finally:
        _SCOPE.reset(token)
