"""Lint entry points: one function per artifact kind.

Each function returns a :class:`~repro.lint.core.LintReport`; callers
decide what to do with findings (quarantine a sample, fail a build, turn
them into an HTTP 422 payload).  All entry points accept a shared
:class:`~repro.lint.core.LintConfig` for suppressions/strictness.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.dataset.types import LoopDataset, LoopSample
from repro.ir import ast_nodes as ast
from repro.ir.linear import IRProgram
from repro.lint import (
    dataset_rules,
    graph_rules,
    ir_rules,
    peg_rules,
    tape_rules,
)
from repro.lint.core import LintConfig, LintReport
from repro.peg.graph import PEG


def lint_ir(
    program: IRProgram,
    config: Optional[LintConfig] = None,
    ranges=None,
) -> LintReport:
    """IR rules over one lowered program: structural (IR001/IR002) plus
    the value-range rules (IR004–IR006).  Pass a precomputed
    :class:`~repro.analysis.ranges.ProgramRanges` to skip re-running the
    fixpoint engine."""
    report = LintReport(config)
    ir_rules.check_ir_program(report, program)
    ir_rules.check_ir_ranges(report, program, ranges=ranges)
    return report


def lint_program(
    program: ast.Program, config: Optional[LintConfig] = None
) -> LintReport:
    """AST rules (IR003) over one MiniC program."""
    report = LintReport(config)
    ir_rules.check_ast_program(report, program)
    return report


def lint_peg(
    peg: PEG,
    config: Optional[LintConfig] = None,
    full_graph: bool = True,
    sortpool_k: int = peg_rules._DEFAULT_SORTPOOL_K,
) -> LintReport:
    """PEG rules (PEG001–PEG005) over a PEG or sub-PEG view."""
    report = LintReport(config)
    peg_rules.check_peg(
        report, peg, full_graph=full_graph, sortpool_k=sortpool_k
    )
    return report


def lint_graph_arrays(
    adjacency: np.ndarray,
    x_semantic: np.ndarray,
    x_structural: np.ndarray,
    where: str = "graph",
    config: Optional[LintConfig] = None,
    max_nodes: Optional[int] = None,
) -> LintReport:
    """GR rules over one raw array triple (the serving admission gate)."""
    report = LintReport(config)
    graph_rules.check_graph_arrays(
        report, adjacency, x_semantic, x_structural, where, max_nodes
    )
    return report


def lint_samples(
    samples: Iterable[LoopSample], config: Optional[LintConfig] = None
) -> LintReport:
    """Per-sample structural rules (GR + DS004) — the cheap subset used to
    quarantine samples during assembly and revalidate cached shards."""
    report = LintReport(config)
    for sample in samples:
        dataset_rules.check_sample_structure(report, sample)
    return report


def lint_tape_consistency(
    samples: Iterable[LoopSample],
    config: Optional[LintConfig] = None,
    max_graphs: Optional[int] = None,
) -> LintReport:
    """GR005: the tape-compiled forward must match the interpreted one on
    real samples (NaN/shape/value drift).  Cheap enough for ``--quick``."""
    report = LintReport(config)
    compared = tape_rules.check_tape_consistency(
        report, samples, max_graphs=max_graphs
    )
    report.stats["tape_consistency"] = {"graphs": compared}
    return report


def lint_quantized_consistency(
    samples: Iterable[LoopSample],
    config: Optional[LintConfig] = None,
    max_graphs: Optional[int] = None,
    calibration=None,
) -> LintReport:
    """GR006: the quantized fast-tier forward must stay within the int8
    error budget of the float forward on real samples (NaN, drift beyond
    tolerance, confident verdict flips).  ``calibration`` overrides the
    self-recorded scales — the corruption tests inject a poisoned one."""
    report = LintReport(config)
    report.stats["quantized_consistency"] = tape_rules.check_quantized_consistency(
        report, samples, max_graphs=max_graphs, calibration=calibration
    )
    return report


def lint_dataset(
    dataset: LoopDataset,
    config: Optional[LintConfig] = None,
    programs: Optional[Mapping[str, ast.Program]] = None,
) -> LintReport:
    """Dataset rules (DS001–DS004, plus DS005 when ``programs`` maps the
    dataset's program names to their source ASTs)."""
    report = LintReport(config)
    dataset_rules.check_dataset(report, dataset)
    if programs is not None:
        t0 = time.perf_counter()
        counters = dataset_rules.cross_validate_labels(
            report, dataset.samples, programs
        )
        report.note_rule(
            "DS005", checked=counters.get("judged", 0),
            wall_ms=(time.perf_counter() - t0) * 1e3,
        )
        report.stats["crossval"] = counters
    return report
