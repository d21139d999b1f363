"""IR rules: LinearIR well-formedness beyond :mod:`repro.ir.verify`.

``ir.verify`` raises on hard contract violations (SSA, dominance,
terminators).  The lint rules here cover shapes that *pass* the verifier
but indicate a broken producer: unreachable blocks left behind by a
transformation, loop metadata whose bracketing pseudo-ops have gone
missing or migrated into impossible positions, registers flowing into a
loop from blocks that do not dominate it, and degenerate source-level
loop bounds.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Set

from repro.ir import ast_nodes as ast
from repro.ir.linear import IRFunction, IRProgram, Opcode
from repro.lint.core import LintReport, Severity, rule

IR001 = rule(
    "IR001", "ir", Severity.ERROR,
    "every basic block must be reachable from the function entry",
)
IR002 = rule(
    "IR002", "ir", Severity.ERROR,
    "loop metadata, bracketing pseudo-ops, and cross-loop register uses "
    "must be consistent",
)
IR003 = rule(
    "IR003", "ir", Severity.ERROR,
    "constant loop bounds must describe a terminating, non-empty iteration "
    "space (zero-trip loops warn; non-positive steps error)",
)
IR004 = rule(
    "IR004", "ir", Severity.ERROR,
    "array subscripts must stay inside the declared array bounds (fires "
    "only when the value-range analysis proves every execution of the "
    "access is out of bounds)",
)
IR005 = rule(
    "IR005", "ir", Severity.WARNING,
    "conditional branches must be able to go both ways (a range-dead edge "
    "warns; a range-dead block that stores to memory errors)",
)
IR006 = rule(
    "IR006", "ir", Severity.WARNING,
    "divisors must be provably nonzero and loops must be enterable (a "
    "divisor that is exactly zero errors; a finite divisor interval "
    "straddling zero or a provably zero-trip loop warns)",
)


def check_ir_function(report: LintReport, fn: IRFunction, program: IRProgram) -> None:
    t0 = time.perf_counter()
    _check_reachability(report, fn)
    t1 = time.perf_counter()
    report.note_rule("IR001", checked=len(fn.blocks), wall_ms=(t1 - t0) * 1e3)
    _check_loop_structure(report, fn)
    report.note_rule(
        "IR002", checked=len(fn.loops),
        wall_ms=(time.perf_counter() - t1) * 1e3,
    )


def check_ir_program(report: LintReport, program: IRProgram) -> None:
    for fn in program.functions.values():
        check_ir_function(report, fn, program)


# -- IR001: reachability ----------------------------------------------------


def _cfg_reachable(fn: IRFunction) -> Set[str]:
    if not fn.blocks:
        return set()
    labels = {b.label for b in fn.blocks}
    seen: Set[str] = set()
    stack = [fn.blocks[0].label]
    while stack:
        label = stack.pop()
        if label in seen or label not in labels:
            continue
        seen.add(label)
        for succ in fn.block(label).successors():
            stack.append(succ)
    return seen


def _check_reachability(report: LintReport, fn: IRFunction) -> None:
    if not fn.blocks:
        return
    seen = _cfg_reachable(fn)
    for block in fn.blocks:
        if block.label not in seen:
            report.emit(
                IR001, f"ir:{fn.name}/{block.label}",
                "block is unreachable from the function entry",
                {"function": fn.name, "block": block.label},
            )


# -- IR002: loop structure --------------------------------------------------


def _check_loop_structure(report: LintReport, fn: IRFunction) -> None:
    labels = {b.label for b in fn.blocks}
    # where each bracketing pseudo-op of each loop lives
    op_blocks: Dict[str, Dict[Opcode, Set[str]]] = {}
    for block in fn.blocks:
        for instr in block.instrs:
            if instr.opcode in (Opcode.LOOPENTER, Opcode.LOOPNEXT, Opcode.LOOPEXIT):
                loop_id = instr.operands[0]
                op_blocks.setdefault(loop_id, {}).setdefault(
                    instr.opcode, set()
                ).add(block.label)

    from repro.profiler.static_info import loop_block_sets

    block_sets = loop_block_sets(fn)

    for loop_id, info in fn.loops.items():
        where = f"ir:{fn.name}/{loop_id}"
        for field_name, label in (
            ("header", info.header),
            ("body_entry", info.body_entry),
            ("exit", info.exit),
        ):
            if label not in labels:
                report.emit(
                    IR002, where,
                    f"loop {field_name} block {label!r} does not exist",
                    {"loop": loop_id, "field": field_name, "block": label},
                )
        ops = op_blocks.get(loop_id, {})
        for opcode in (Opcode.LOOPENTER, Opcode.LOOPNEXT, Opcode.LOOPEXIT):
            if not ops.get(opcode):
                report.emit(
                    IR002, where,
                    f"loop has no {opcode.value} pseudo-op",
                    {"loop": loop_id, "missing": opcode.value},
                )
        loop_blocks = block_sets.get(loop_id, set())
        if loop_blocks:
            inside_enter = ops.get(Opcode.LOOPENTER, set()) & loop_blocks
            if inside_enter:
                report.emit(
                    IR002, where,
                    f"loopenter appears inside the loop body "
                    f"({sorted(inside_enter)})",
                    {"loop": loop_id, "blocks": sorted(inside_enter)},
                )
            outside_next = ops.get(Opcode.LOOPNEXT, set()) - loop_blocks
            if outside_next:
                report.emit(
                    IR002, where,
                    f"loopnext appears outside the loop body "
                    f"({sorted(outside_next)})",
                    {"loop": loop_id, "blocks": sorted(outside_next)},
                )
            _check_loop_register_flow(report, fn, loop_id, loop_blocks, where)


def _check_loop_register_flow(
    report: LintReport,
    fn: IRFunction,
    loop_id: str,
    loop_blocks: Set[str],
    where: str,
) -> None:
    """Use-before-def across the loop boundary: a register used inside the
    loop must be defined inside it or in a block dominating the header
    (SSA dominance alone cannot see this when the CFG is also broken)."""
    from repro.ir.dominators import compute_dominators, dominates
    from repro.ir.linear import Reg

    info = fn.loops[loop_id]
    if info.header not in {b.label for b in fn.blocks}:
        return
    dom = compute_dominators(fn)
    def_block: Dict[str, str] = {}
    for block in fn.blocks:
        for instr in block.instrs:
            if instr.result is not None:
                def_block.setdefault(instr.result.name, block.label)
    for block in fn.blocks:
        if block.label not in loop_blocks:
            continue
        for instr in block.instrs:
            for op in instr.operands:
                if not isinstance(op, Reg):
                    continue
                src = def_block.get(op.name)
                if src is None:
                    continue  # undefined registers are ir.verify's domain
                if src in loop_blocks or dominates(dom, src, info.header):
                    continue
                report.emit(
                    IR002, where,
                    f"register %{op.name} used in loop block {block.label} is "
                    f"defined in {src}, which neither belongs to the loop nor "
                    f"dominates its header",
                    {
                        "loop": loop_id, "register": op.name,
                        "use_block": block.label, "def_block": src,
                    },
                )


# -- IR004/IR005/IR006: value-range rules ------------------------------------


def check_ir_ranges(
    report: LintReport, program: IRProgram, ranges=None
) -> Dict[str, int]:
    """Value-range rules over a lowered program.

    Runs the abstract-interpretation engine (:mod:`repro.analysis.ranges`)
    unless a precomputed :class:`~repro.analysis.ranges.ProgramRanges` is
    supplied, then checks every subscript against its array's declared
    size (IR004), every ``condbr`` edge and block for range-deadness
    (IR005), and every divisor and loop header for zero hazards (IR006).

    All three rules fire only on *proofs* — an interval that merely
    might include a bad value stays silent (except the explicitly
    "possible" WARNING tiers documented on each rule).  Returns per-rule
    checked counts for the ``--json`` stats block.
    """
    checked = {"IR004": 0, "IR005": 0, "IR006": 0}
    t0 = time.perf_counter()
    if ranges is None:
        try:
            from repro.analysis.ranges import analyze_program

            ranges = analyze_program(program)
        except Exception:
            # IR too broken to analyze: ir.verify / IR001's domain
            return checked
    for fn in program.functions.values():
        franges = ranges.functions.get(fn.name)
        if franges is None:
            continue
        cfg_reachable = _cfg_reachable(fn)
        for block in fn.blocks:
            if not franges.reachable(block.label):
                # CFG-unreachable blocks are IR001's finding, not ours
                if block.label in cfg_reachable:
                    _check_range_dead_block(report, fn, block, checked)
                continue
            for instr in block.instrs:
                fact = franges.facts.get(instr.iid)
                if instr.opcode in (Opcode.LOAD, Opcode.STORE):
                    checked["IR004"] += 1
                    _check_subscript(report, program, fn, block, instr, fact)
                elif instr.opcode in (Opcode.DIV, Opcode.MOD):
                    checked["IR006"] += 1
                    _check_divisor(report, fn, block, instr, fact)
                elif instr.opcode is Opcode.CONDBR:
                    checked["IR005"] += 1
                    _check_dead_edge(report, fn, block, instr, fact)
    for loop_id in ranges.zero_trip_loops():
        checked["IR006"] += 1
        report.emit(
            IR006, f"ir:{program.name}/{loop_id}",
            "loop header is reachable but its body never is: the loop is "
            "provably zero-trip",
            {"loop": loop_id, "kind": "zero_trip"},
        )
    # the fixpoint engine powers all three rules equally: split its wall
    # time (plus the cheap walk) evenly so per-rule numbers stay honest;
    # with precomputed ranges only the walk is timed here
    share = (time.perf_counter() - t0) * 1e3 / 3.0
    for rule_id, n in checked.items():
        report.note_rule(rule_id, checked=n, wall_ms=share)
    return checked


def _where(fn: IRFunction, block, instr) -> str:
    return f"ir:{fn.name}/{block.label}#{instr.iid}"


def _loop_detail(instr) -> Dict[str, object]:
    out: Dict[str, object] = {"line": instr.line}
    if instr.loop_id:
        out["loop"] = instr.loop_id
    return out


def _check_subscript(
    report: LintReport, program: IRProgram, fn: IRFunction, block, instr, fact
) -> None:
    if fact is None or fact.index is None:
        return
    size = program.arrays.get(instr.operands[0])
    if size is None:
        return
    bounds = fact.index.int_bounds()
    if bounds is None:
        return
    lo, hi = bounds
    if hi < 0 or lo >= size:
        report.emit(
            IR004, _where(fn, block, instr),
            f"subscript of {instr.operands[0]!r} truncates into [{lo}, {hi}] "
            f"but the array has {size} cells: every execution is out of "
            f"bounds",
            {
                "array": instr.operands[0], "cells": size,
                "index_lo": lo, "index_hi": hi, **_loop_detail(instr),
            },
        )


def _check_divisor(report: LintReport, fn: IRFunction, block, instr, fact) -> None:
    if fact is None or fact.divisor is None or fact.divisor.is_bottom:
        return
    iv = fact.divisor
    if iv.lo == 0.0 and iv.hi == 0.0:
        report.emit(
            IR006, _where(fn, block, instr),
            "divisor is provably zero: every execution of this "
            f"{instr.opcode.value} traps",
            {"kind": "div_by_zero", **_loop_detail(instr)},
            severity=Severity.ERROR,
        )
    elif iv.is_finite and iv.contains(0.0):
        report.emit(
            IR006, _where(fn, block, instr),
            f"divisor interval [{iv.lo:g}, {iv.hi:g}] contains zero: "
            f"possible division by zero",
            {
                "kind": "possible_div_by_zero",
                "lo": iv.lo, "hi": iv.hi, **_loop_detail(instr),
            },
        )


def _check_dead_edge(report: LintReport, fn: IRFunction, block, instr, fact) -> None:
    if fact is None or fact.dead_edge is None:
        return
    report.emit(
        IR005, _where(fn, block, instr),
        f"condition is provably one-sided: the edge to {fact.dead_edge!r} "
        f"is never taken",
        {"dead_target": fact.dead_edge, **_loop_detail(instr)},
    )


def _check_range_dead_block(
    report: LintReport, fn: IRFunction, block, checked: Dict[str, int]
) -> None:
    """A block the CFG reaches but the range analysis proves dead.  Only
    escalate when it has observable effects (a store): dead straight-line
    math is IR005's WARNING via the one-sided branch that guards it."""
    checked["IR005"] += 1
    stores = [i for i in block.instrs if i.opcode is Opcode.STORE]
    if stores:
        report.emit(
            IR005, f"ir:{fn.name}/{block.label}",
            f"block is provably never executed yet stores to "
            f"{sorted({s.operands[0] for s in stores})}: dead code with "
            f"memory effects",
            {
                "block": block.label,
                "arrays": sorted({s.operands[0] for s in stores}),
            },
            severity=Severity.ERROR,
        )


# -- IR003: degenerate source-level loop bounds -----------------------------


def check_ast_program(report: LintReport, program: ast.Program) -> None:
    """AST-level checks (IR003): degenerate ``For`` bounds."""
    t0 = time.perf_counter()
    n_loops = 0
    for fn in program.functions.values():
        n_loops += sum(1 for _ in ast.loops_in(fn.body))
    for fn in program.functions.values():
        for loop in ast.loops_in(fn.body):
            loop_id = loop.loop_id or f"{fn.name}:<anon>@{loop.line}"
            where = f"ast:{program.name}/{loop_id}"
            step = loop.step
            if isinstance(step, ast.Const) and step.value <= 0:
                report.emit(
                    IR003, where,
                    f"constant step {step.value} is not positive: the loop "
                    "never advances",
                    {"loop": loop_id, "step": step.value},
                )
                continue
            if (
                isinstance(loop.lo, ast.Const)
                and isinstance(loop.hi, ast.Const)
                and loop.lo.value >= loop.hi.value
            ):
                report.emit(
                    IR003, where,
                    f"constant bounds [{loop.lo.value}, {loop.hi.value}) give "
                    "a zero-trip loop",
                    {"loop": loop_id, "lo": loop.lo.value, "hi": loop.hi.value},
                    severity=Severity.WARNING,
                )
    report.note_rule(
        "IR003", checked=n_loops, wall_ms=(time.perf_counter() - t0) * 1e3
    )
