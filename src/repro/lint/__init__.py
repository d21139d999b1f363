"""repro.lint — static consistency analysis for IR, PEGs, and datasets.

A rule-based analyzer that verifies structural invariants and
cross-validates labels *without executing programs*: the dynamic
profiler/oracle pipeline stays the arbiter of truth, and lint is the
correctness gate that catches malformed artifacts and contradictory
samples before they poison training or serving.

Three rule layers (see docs/LINT.md for the catalog):

* **IR rules** (``IR0xx``) — LinearIR well-formedness beyond
  :mod:`repro.ir.verify`: unreachable blocks, loop-metadata consistency
  across the loop pseudo-ops, degenerate loop bounds, plus the
  value-range rules (``IR004``–``IR006``) backed by the
  abstract-interpretation engine in :mod:`repro.analysis.ranges`
  (provable out-of-bounds subscripts, range-dead branches and stores,
  zero divisors and zero-trip loops).
* **Graph rules** (``PEG0xx`` on PEGs/sub-PEGs, ``GR0xx`` on raw model
  input arrays) — dangling dependence endpoints, hierarchy cycles,
  self-dependence sanity, feature NaN/Inf/range checks, SortPooling size
  expectations, adjacency shape/symmetry/binarity.
* **Advisor rules** (``AD0xx``) — stored advice plans
  (:mod:`repro.advisor`) re-checked against a fresh static-prover run:
  ``AD001`` flags prover-backed plans whose embedded verdict a fresh
  ``static_dep`` pass no longer supports.
* **Dataset rules** (``DS0xx``) — duplicate samples via
  :meth:`~repro.dataset.types.LoopSample.fingerprint`, class-balance
  drift, per-sample structural integrity, and the label
  cross-validation rule ``DS005``: conservative static loop-carried
  dependence tests (scalar dataflow + affine GCD/Banerjee subscript
  tests reusing :mod:`repro.tools.affine`) flag samples whose dynamic
  oracle label contradicts a statically *provable* verdict.

Entry points: :func:`~repro.lint.runner.lint_ir`,
:func:`~repro.lint.runner.lint_peg`,
:func:`~repro.lint.runner.lint_samples`,
:func:`~repro.lint.runner.lint_dataset`, the ``repro lint`` CLI command,
and the integration hooks in dataset assembly
(:mod:`repro.dataset.assemble`) and serving admission
(:mod:`repro.serve.wire`).
"""

from repro.lint.core import (
    Finding,
    LintConfig,
    LintReport,
    Rule,
    Severity,
    render_json,
    render_text,
    rule,
)
from repro.lint.runner import (
    lint_dataset,
    lint_graph_arrays,
    lint_ir,
    lint_peg,
    lint_program,
    lint_quantized_consistency,
    lint_samples,
    lint_tape_consistency,
)
from repro.lint.shared_analysis import (
    ProgramAnalysis,
    analysis_scope,
    program_analysis,
)
from repro.lint.static_dep import (
    ProverContext,
    StaticVerdict,
    analyze_loop_static,
    build_prover_context,
    static_loop_verdicts,
)

# rule modules register themselves on import
from repro.lint import advisor_rules as _advisor_rules  # noqa: F401
from repro.lint import dataset_rules as _dataset_rules  # noqa: F401
from repro.lint import graph_rules as _graph_rules  # noqa: F401
from repro.lint import ir_rules as _ir_rules  # noqa: F401
from repro.lint import peg_rules as _peg_rules  # noqa: F401
from repro.lint import tape_rules as _tape_rules  # noqa: F401

__all__ = [
    "Finding",
    "LintConfig",
    "LintReport",
    "ProgramAnalysis",
    "ProverContext",
    "Rule",
    "Severity",
    "StaticVerdict",
    "analysis_scope",
    "analyze_loop_static",
    "build_prover_context",
    "lint_dataset",
    "lint_graph_arrays",
    "lint_ir",
    "lint_peg",
    "lint_program",
    "lint_quantized_consistency",
    "lint_samples",
    "lint_tape_consistency",
    "program_analysis",
    "render_json",
    "render_text",
    "rule",
    "static_loop_verdicts",
]
