"""One shared static analysis per MiniC program.

IR004–IR006 quarantine, DS005 label cross-validation, the advisor's
prover tiers and AD001 all consume the same facts about a program: its
O0 lowering, the value-range fixpoint over that IR
(:func:`repro.analysis.ranges.analyze_program`), and the prover context
built from both.  :func:`program_analysis` computes them once per
program.

Inside an :func:`~repro.ir.shared.analysis_scope`, the analysis is
memoized by program content next to the program's shared O0 lowering
(:func:`repro.ir.shared.program_ir`), which it reuses; outside a scope
every call computes afresh (see :mod:`repro.ir.shared`).

A program that cannot be lowered or analysed yields a
:class:`ProgramAnalysis` whose ``error`` says why; consumers fall back
to their range-free behaviour and DS005 counts the program as
``unanalyzable`` instead of silently judging it without ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.analysis.ranges import ProgramRanges, analyze_program
from repro.ir import ast_nodes as ast
from repro.ir.linear import IRProgram
from repro.ir.shared import analysis_scope  # noqa: F401 - re-exported
from repro.ir.shared import per_program, program_ir
from repro.lint.core import LintReport
from repro.lint.ir_rules import check_ir_ranges
from repro.lint.static_dep import ProverContext, prover_context


@dataclass(eq=False)
class ProgramAnalysis:
    """O0-lowered IR, its value ranges, and the prover context built from
    both.

    ``ir``/``ranges``/``context`` are None when lowering or the range
    engine failed; ``error`` then holds the exception text.  The prover
    context and the range-condemned loops are derived on first use: the
    quarantine reads only the loops, the prover only the context.
    """

    program: ast.Program
    ir: Optional[IRProgram] = None
    ranges: Optional[ProgramRanges] = None
    error: Optional[str] = None
    _context: Optional[ProverContext] = field(
        default=None, init=False, repr=False
    )
    _condemned: Optional[Dict[str, str]] = field(
        default=None, init=False, repr=False
    )

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def context(self) -> Optional[ProverContext]:
        """The prover context built from ``ir`` and ``ranges``."""
        if self._context is None and self.ok:
            self._context = prover_context(self.program, self.ir, self.ranges)
        return self._context

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


def _analyze(program: ast.Program, key: Optional[str]) -> ProgramAnalysis:
    try:
        ir = program_ir(program, key, verify=False)
    except Exception as exc:
        return ProgramAnalysis(program, error=f"lowering: {exc!r}")
    try:
        ranges = analyze_program(ir)
    except Exception as exc:
        return ProgramAnalysis(program, ir=ir, error=f"ranges: {exc!r}")
    return ProgramAnalysis(program, ir=ir, ranges=ranges)


def program_analysis(
    program: ast.Program, key: Optional[str] = None
) -> ProgramAnalysis:
    """The shared analysis of ``program`` (memoized inside a scope).

    ``key`` is as in :func:`repro.ir.shared.per_program`."""
    return per_program(
        "analysis", program, key, lambda key: _analyze(program, key)
    )
