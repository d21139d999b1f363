"""DS rules: dataset-level consistency and label cross-validation.

``DS005`` is the analyzer's headline rule: it reuses the conservative
static dependence prover (:mod:`repro.lint.static_dep`) to re-derive a
verdict for each sample's loop from the program *source*, and flags
samples whose dynamic-oracle label contradicts a statically **provable**
verdict.  Because the prover only ever returns provable verdicts under
the oracle's own semantics, any hit is a real inconsistency — a corrupted
label, a mismatched program/sample pairing, or a bug in one of the two
analyses — never an expected approximation gap.  Samples marked
``meta["annotation_quirk"]`` are the one exception: their labels are
*deliberate* annotation noise from the benchmark suite (cf. IS #452), so
the rule counts them separately instead of judging them.

The rule only judges samples whose pipeline variant applies zero
optimization passes (``OPT_PIPELINES[variant] == ()``): transformed IR
can legitimately have a different dependence surface than the source AST
the prover reads.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.dataset.types import LoopDataset, LoopSample
from repro.ir import ast_nodes as ast
from repro.lint.core import LintReport, Severity, rule
from repro.lint.graph_rules import check_graph_arrays
from repro.lint.shared_analysis import analysis_scope, program_analysis
from repro.lint.static_dep import StaticVerdict, static_loop_verdicts

DS001 = rule(
    "DS001", "dataset", Severity.ERROR,
    "no two samples may share a content fingerprint",
)
DS002 = rule(
    "DS002", "dataset", Severity.ERROR,
    "sample ids must be unique",
)
DS003 = rule(
    "DS003", "dataset", Severity.WARNING,
    "class balance should not drift far from parity",
)
DS004 = rule(
    "DS004", "dataset", Severity.ERROR,
    "every sample must be structurally valid (arrays, label, loop features)",
)
DS005 = rule(
    "DS005", "dataset", Severity.ERROR,
    "the oracle label must not contradict a statically provable dependence "
    "verdict",
)

#: DS003 fires when the minority class share drops below this
_BALANCE_FLOOR = 0.25


def check_sample_structure(
    report: LintReport, sample: LoopSample, where: Optional[str] = None
) -> None:
    """DS004 (delegating the array triple to the GR rules) for one sample."""
    where = where or f"sample:{sample.sample_id}"
    check_graph_arrays(
        report, sample.adjacency, sample.x_semantic, sample.x_structural, where
    )
    if sample.label not in (0, 1):
        report.emit(
            DS004, where,
            f"label {sample.label!r} is not 0/1",
            {"label": repr(sample.label)},
        )
    lf = sample.loop_features
    if getattr(lf, "shape", None) != (7,):
        report.emit(
            DS004, where,
            f"loop_features has shape {getattr(lf, 'shape', None)}, "
            "expected (7,)",
            {"shape": repr(getattr(lf, "shape", None))},
        )
    if not sample.statements:
        report.emit(DS004, where, "sample has an empty statement sequence")


def check_dataset(
    report: LintReport,
    dataset: LoopDataset,
    per_sample: bool = True,
) -> None:
    """DS001–DS004 over a dataset."""
    seen_fp: Dict[str, str] = {}
    seen_id: Dict[str, int] = {}
    for i, sample in enumerate(dataset.samples):
        where = f"sample:{sample.sample_id}"
        if sample.sample_id in seen_id:
            report.emit(
                DS002, where,
                f"sample id also used at index {seen_id[sample.sample_id]}",
                {"first_index": seen_id[sample.sample_id], "index": i},
            )
        else:
            seen_id[sample.sample_id] = i
        fp = sample.fingerprint()
        if fp in seen_fp:
            report.emit(
                DS001, where,
                f"sample content duplicates {seen_fp[fp]!r}",
                {"duplicate_of": seen_fp[fp], "fingerprint": fp},
            )
        else:
            seen_fp[fp] = sample.sample_id
        if per_sample:
            check_sample_structure(report, sample, where)

    if len(dataset) >= 8:
        neg, pos = dataset.class_counts()
        minority = min(neg, pos) / max(1, neg + pos)
        if minority < _BALANCE_FLOOR:
            report.emit(
                DS003, f"dataset:{dataset.name}",
                f"minority class share {minority:.2f} is below "
                f"{_BALANCE_FLOOR} ({pos} parallel / {neg} non-parallel)",
                {"positive": pos, "negative": neg, "minority_share": minority},
            )


def untransformed_variants() -> set:
    """Pipeline names that apply zero passes (the only variants DS005 judges)."""
    from repro.ir.passes.pipeline import OPT_PIPELINES

    return {name for name, passes in OPT_PIPELINES.items() if not passes}


@analysis_scope()  # the unanalyzable check and the prover share one analysis
def cross_validate_labels(
    report: LintReport,
    samples: Sequence[LoopSample],
    programs: Mapping[str, ast.Program],
) -> Dict[str, int]:
    """DS005 over ``samples``; ``programs`` maps program name -> source AST.

    Returns counters describing coverage (how many samples were judged,
    and with which verdicts) so callers can surface "the rule ran" in
    stats and tests — a cross-validator that silently judges nothing
    would be indistinguishable from a healthy dataset.

    ``unanalyzable`` counts programs whose shared analysis failed (they
    could not be lowered, or the range engine raised): their loops are
    still judged, but by the classic prover without range facts.
    """
    plain = untransformed_variants()
    verdict_cache: Dict[str, Dict[str, object]] = {}
    counters = {
        "judged": 0, "provably_parallel": 0, "provably_serial": 0,
        "unknown": 0, "skipped": 0, "quirky": 0, "contradictions": 0,
        "unanalyzable": 0,
    }
    for sample in samples:
        variant = sample.meta.get("variant")
        program = programs.get(sample.program_name)
        if variant not in plain or program is None:
            counters["skipped"] += 1
            continue
        if sample.meta.get("annotation_quirk"):
            # the label is deliberate annotation noise (cf. IS #452): a
            # provable contradiction here is expected, not a defect
            counters["quirky"] += 1
            continue
        if program.name not in verdict_cache:
            # the prover reads the context of the analysis in hand rather
            # than looking the program up (and hashing it) again
            shared = program_analysis(program)
            if not shared.ok:
                counters["unanalyzable"] += 1
            verdict_cache[program.name] = static_loop_verdicts(
                program, use_ranges=shared.ok, context=shared.context
            )
        analysis = verdict_cache[program.name].get(sample.loop_id)
        if analysis is None:
            counters["skipped"] += 1
            continue
        counters["judged"] += 1
        verdict = analysis.verdict
        counters[verdict.value] = counters.get(verdict.value, 0) + 1
        contradiction = (
            (verdict is StaticVerdict.PROVABLY_PARALLEL and sample.label == 0)
            or (verdict is StaticVerdict.PROVABLY_SERIAL and sample.label == 1)
        )
        if contradiction:
            counters["contradictions"] += 1
            report.emit(
                DS005, f"sample:{sample.sample_id}",
                f"oracle label {sample.label} contradicts static verdict "
                f"{verdict.value} ({analysis.reason_text()})",
                {
                    "sample_id": sample.sample_id,
                    "label": sample.label,
                    "verdict": verdict.value,
                    "loop_id": sample.loop_id,
                    "program": sample.program_name,
                    "reasons": list(analysis.reasons),
                },
            )
    return counters
