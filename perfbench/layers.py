"""Which calls the traced run wraps, and how spans become per-layer metrics.

Each declaration names a span, the public function it wraps, and the
workloads on which the span must fire (the wrapper-coverage guard fails
the traced run otherwise).  Per-layer ``*_s`` metrics are self times
summed over the traced part of a run (one set-up and one unit of timed
work), divided by the run's host speed factor (see :mod:`measure`).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from measure import quantile
from tracer import Hook, Span, self_times

A, V, T, S = "assemble-cold", "advise", "train", "serve"
WORKLOADS = (A, V, T, S)


def _post(fn) -> Hook:
    return (lambda args, kwargs: None, fn)


def _program_name(state, args, kwargs, result):
    return {"program": getattr(args[0], "name", "?")} if args else None


def _verdicts(state, args, kwargs, result):
    if not isinstance(result, dict):
        return None
    settled = sum(
        1 for a in result.values()
        if getattr(getattr(a, "verdict", None), "value", "unknown") != "unknown"
    )
    return {"loops": len(result), "settled": settled}


def _advice(state, args, kwargs, result):
    if not isinstance(result, dict):
        return None
    plans = list(result.values())
    return {
        "advised": sum(1 for p in plans if p.advised),
        "validated": sum(
            1 for p in plans if p.validation.status == "validated"
        ),
    }


def _assembly(state, args, kwargs, result):
    stats = getattr(result, "stats", None)
    if stats is None:
        return None
    return {"retries": stats.n_retries, "quarantined": stats.lint_quarantined}


def _pack(state, args, kwargs, result):
    return {"graphs": getattr(result, "num_graphs", 0)}


def _cache_before(args, kwargs):
    cache = args[0]
    return cache.hits + cache.adj_hits


def _cache_after(state, args, kwargs, result):
    cache = args[0]
    return {"hit": int(cache.hits + cache.adj_hits > state)}


#: (span name, wrapped target, workloads it must fire on, hook)
DECLARATIONS: List[Tuple[str, str, Tuple[str, ...], Optional[Hook]]] = [
    ("dataset.assemble", "repro.dataset.assemble:assemble_dataset", (A,), _post(_assembly)),
    ("dataset.task", "repro.dataset.parallel:execute_task", (A,), None),
    ("dataset.split", "repro.dataset.assemble:balanced_subset", (A,), None),
    ("dataset.split", "repro.dataset.assemble:train_test_split", (A,), None),
    ("ir.lower", "repro.ir.lowering:lower_program", WORKLOADS, None),
    ("ir.passes", "repro.ir.passes.pipeline:apply_pipeline", (A,), None),
    ("profiler.profile", "repro.profiler.interpreter:profile_program", WORKLOADS, None),
    ("peg.build", "repro.peg.builder:build_peg", (A, T, S), None),
    ("embeddings.inst2vec", "repro.embeddings.inst2vec:Inst2Vec.train", (A, T, S), None),
    ("embeddings.features", "repro.dataset.extraction:extract_loop_samples", (A, S), None),
    ("embeddings.features", "repro.train.data:cached_loop_samples", (T,), None),
    ("runtime.cache", "repro.runtime.features:FeatureCache.semantic_features", (T,), (_cache_before, _cache_after)),
    ("runtime.cache", "repro.runtime.features:FeatureCache.structural_features", (T,), (_cache_before, _cache_after)),
    ("runtime.cache", "repro.runtime.features:FeatureCache.normalized_block", (S,), (_cache_before, _cache_after)),
    ("ranges.analyze", "repro.analysis.ranges:analyze_program", (A, V, S), _post(_program_name)),
    ("prover.verdicts", "repro.lint.static_dep:static_loop_verdicts", (A, V, S), _post(_verdicts)),
    ("lint.quarantine", "repro.lint.runner:lint_samples", (A,), None),
    ("lint.quarantine", "repro.lint.ir_rules:check_ir_ranges", (A,), None),
    ("lint.crossval", "repro.lint.dataset_rules:cross_validate_labels", (A,), None),
    ("advisor.advise", "repro.advisor.driver:advise_program", (V, S), _post(_advice)),
    ("advisor.plans", "repro.advisor.plan:build_advice_plans", (V, S), None),
    ("advisor.validate", "repro.advisor.validate:validate_plan", (V, S), None),
    ("advisor.transform", "repro.advisor.transform:apply_plan", (V, S), None),
    ("advisor.schedule", "repro.advisor.scheduler:run_interleaved", (V, S), None),
    ("runtime.predict", "repro.runtime.engine:Engine.predict_many", (S,), None),
    ("runtime.pack", "repro.runtime.batch:GraphBatch.from_arrays", (T, S), _post(_pack)),
    ("runtime.tape_record", "repro.runtime.tape:record_tape", (T, S), None),
    ("runtime.forward", "repro.runtime.tape:TapeExecutor.run", (S,), None),
    ("runtime.forward", "repro.runtime.tape:Tape.forward_values", (T,), None),
    ("train.run", "repro.train.trainer:train_model", (T,), None),
    ("train.forward", "repro.train.adapters:_PerGraphAdapter.loss_and_correct_batched", (T,), None),
    ("train.backward", "repro.nn.tensor:Tensor.backward", (T,), None),
    ("train.optim", "repro.nn.optim:Adam.step", (T,), None),
    ("serve.classify", "repro.serve.service:InferenceService.classify", (S,), None),
    ("serve.batcher", "repro.serve.batcher:MicroBatcher.submit", (S,), None),
    ("serve.decode", "repro.serve.wire:decode_loop", (S,), None),
    ("serve.gate", "repro.serve.wire:validate_graph_arrays", (S,), None),
]

#: modules imported before wrapping, so every by-name binding is visible
PRELOAD = (
    "repro.cli", "repro.advisor", "repro.dataset.assemble",
    "repro.dataset.parallel", "repro.lint", "repro.lint.dataset_rules",
    "repro.lint.ir_rules", "repro.lint.runner", "repro.runtime",
    "repro.serve", "repro.serve.batcher", "repro.train", "repro.train.data",
    "repro.train.trainer", "repro.analysis.ranges", "repro.profiler",
)


def install_declarations():
    """(span name, target, hook) triples; every workload installs all."""
    return [(name, target, hook) for name, target, _, hook in DECLARATIONS]


def declared_spans(workload: str) -> List[str]:
    return sorted({name for name, _, loads, _ in DECLARATIONS if workload in loads})


#: per-layer ``*_s`` metric -> span names whose self time it sums
SELF_TIME = {
    "ir.lower_s": ("ir.lower",),
    "ir.passes_s": ("ir.passes",),
    "profiler.profile_s": ("profiler.profile",),
    "peg.build_s": ("peg.build",),
    "embeddings.features_s": ("embeddings.features", "runtime.cache"),
    "embeddings.inst2vec_s": ("embeddings.inst2vec",),
    "ranges.analyze_s": ("ranges.analyze",),
    "prover.verdicts_s": ("prover.verdicts",),
    "lint.quarantine_s": ("lint.quarantine",),
    "lint.crossval_s": ("lint.crossval",),
    "dataset.split_s": ("dataset.split",),
    "advisor.plans_s": ("advisor.plans",),
    "advisor.transform_s": ("advisor.transform",),
    "advisor.schedule_s": ("advisor.schedule",),
    "advisor.validate_s": ("advisor.validate",),
    "runtime.pack_s": ("runtime.pack",),
    "runtime.tape_record_s": ("runtime.tape_record",),
    "runtime.forward_s": ("runtime.forward",),
    "train.forward_s": ("train.forward",),
    "train.backward_s": ("train.backward",),
    "train.optim_s": ("train.optim",),
    "serve.decode_s": ("serve.decode",),
    "serve.gate_s": ("serve.gate",),
}

#: per-layer call counts -> span name
CALLS = {
    "ir.lower_calls": "ir.lower",
    "profiler.profile_calls": "profiler.profile",
    "ranges.analyze_calls": "ranges.analyze",
    "dataset.tasks": "dataset.task",
    "advisor.schedules": "advisor.schedule",
    "runtime.tape_records": "runtime.tape_record",
    "train.steps": "train.optim",
}

#: per-layer metrics only the serve workload measures (from its metrics
#: registry and client latencies); 0 on the other workloads
SERVE_ONLY = (
    "serve.queue_wait_p50_ms", "serve.inference_p50_ms", "serve.request_p50_ms",
    "serve.batch_size_mean", "serve.wire_p50_ms",
)


def layer_metrics(spans: Sequence[Span], factor: float) -> Dict[str, float]:
    """Per-layer values derivable from spans alone."""
    selfs = self_times(spans)
    by_name: Dict[str, List[int]] = {}
    for i, span in enumerate(spans):
        if span.name:
            by_name.setdefault(span.name, []).append(i)
    out: Dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(
            selfs[i] for n in names for i in by_name.get(n, ())
        ) / factor
    for metric, name in CALLS.items():
        out[metric] = float(len(by_name.get(name, ())))

    def metas(name: str) -> List[dict]:
        return [spans[i].meta or {} for i in by_name.get(name, ())]

    programs = {m.get("program") for m in metas("ranges.analyze")}
    out["ranges.calls_per_program"] = (
        out["ranges.analyze_calls"] / len(programs) if programs else 0.0
    )
    verdicts = metas("prover.verdicts")
    loops = sum(m.get("loops", 0) for m in verdicts)
    out["prover.settled_frac"] = (
        sum(m.get("settled", 0) for m in verdicts) / loops if loops else 0.0
    )
    assemblies = metas("dataset.assemble")
    out["lint.quarantined"] = float(sum(m.get("quarantined", 0) for m in assemblies))
    out["dataset.retries"] = float(sum(m.get("retries", 0) for m in assemblies))
    tasks = [spans[i].duration * 1000.0 / factor for i in by_name.get("dataset.task", ())]
    out["dataset.task_p50_ms"] = quantile(tasks, 0.50) if tasks else 0.0
    out["dataset.task_p99_ms"] = quantile(tasks, 0.99) if tasks else 0.0
    advice = metas("advisor.advise")
    advised = sum(m.get("advised", 0) for m in advice)
    out["advisor.validated_frac"] = (
        sum(m.get("validated", 0) for m in advice) / advised if advised else 0.0
    )
    packs = [m.get("graphs", 0) for m in metas("runtime.pack")]
    out["runtime.graphs_per_batch"] = statistics.fmean(packs) if packs else 0.0
    lookups = [m.get("hit", 0) for m in metas("runtime.cache")]
    out["runtime.cache_hit_frac"] = statistics.fmean(lookups) if lookups else 0.0
    for metric in SERVE_ONLY:
        out[metric] = 0.0
    return out


def fired(spans: Sequence[Span]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for span in spans:
        if span.name:
            counts[span.name] = counts.get(span.name, 0) + 1
    return counts


def format_table(values: Dict[str, float], spans: Sequence[Span], factor: float) -> str:
    """Human-readable per-layer table: self time, share, calls."""
    selfs = self_times(spans)
    rows: Dict[str, List[float]] = {}
    for i, span in enumerate(spans):
        if span.name:
            row = rows.setdefault(span.name, [0.0, 0.0])
            row[0] += selfs[i] / factor
            row[1] += 1
    total = sum(r[0] for r in rows.values()) or 1.0
    lines = [f"{'span':<22} {'self s':>9} {'share':>7} {'calls':>8}"]
    for name, (secs, calls) in sorted(rows.items(), key=lambda kv: -kv[1][0]):
        lines.append(f"{name:<22} {secs:>9.3f} {secs / total:>7.1%} {int(calls):>8}")
    return "\n".join(lines)
