"""Parallel, fault-tolerant execution of per-variant extraction tasks.

Dataset assembly (Section IV-A/IV-B) is thousands of independent
profile -> PEG -> feature extractions, one per (program variant, compiler
pipeline).  This module turns each of those into an :class:`ExtractionTask`
and runs the task list either in-process (``n_workers=1``, the serial
reference path) or across a :class:`~concurrent.futures.ProcessPoolExecutor`
with per-task timeouts and bounded retries.

Determinism contract — the property the differential suite enforces:

* every task carries its own integer ``seed`` (spawned up front via
  :func:`repro.utils.rng.spawn_seeds` in task-list order), so walk sampling
  never depends on which worker ran the task, in which order, or on how
  many attempts it took — a retry rebuilds an identical generator;
* results are reassembled in task-list order, so the sample stream is
  byte-identical for any ``n_workers``.

Fault tolerance: a task that raises :class:`~repro.errors.InterpreterError`
(a transformed variant that walks out of bounds), fails IR verification, or
exceeds the timeout is retried up to ``max_retries`` times and then — for
optional (oracle-labeled) tasks — dropped with a structured
:class:`DropRecord` instead of silently vanishing.  Required tasks (the
authored-label benchmark pool) still fail loudly.  A crashed worker process
(``BrokenProcessPool``) restarts the pool and re-queues the affected tasks.
"""

from __future__ import annotations

import signal
import threading
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataset.extraction import extract_loop_samples
from repro.dataset.types import LoopSample
from repro.embeddings.anonwalk import AnonymousWalkSpace
from repro.embeddings.inst2vec import Inst2Vec
from repro.errors import DatasetError, InterpreterError, IRError
from repro.ir.ast_nodes import Program
from repro.ir.passes import apply_pipeline
from repro.ir.shared import leave_analysis_scope, program_ir

#: suite name of oracle-labeled augmentation samples
GENERATED_SUITE = "Generated"


# ---------------------------------------------------------------------------
# task / outcome / accounting types
# ---------------------------------------------------------------------------


@dataclass
class ExtractionTask:
    """One profile->PEG->features unit of work: a (program, pipeline) pair.

    ``labels`` carries authored annotations (the benchmark pool); ``None``
    means every executed loop is labeled by the dynamic oracle (the
    generated pool).  ``quirk_loops`` names the loops whose authored label
    is deliberate annotation noise (cf. IS #452) — their samples get
    ``meta["annotation_quirk"]`` so the DS005 cross-validator knows the
    label is untrusted by design.  ``required`` tasks abort assembly on
    persistent failure instead of being dropped.  ``program_key`` is the
    program's content key (``program_fingerprint``), computed once per
    program object when the task list is built; empty means "derive it
    when needed".
    """

    index: int
    program: Program
    labels: Optional[Dict[str, int]]
    suite: str
    app: str
    variant: str
    seed: int = 0
    required: bool = False
    quirk_loops: Tuple[str, ...] = ()
    program_key: str = ""

    def describe(self) -> str:
        return f"{self.program.name}/{self.variant}"


@dataclass
class TaskOutcome:
    """What one attempt at a task produced."""

    index: int
    samples: List[LoopSample] = field(default_factory=list)
    reason: Optional[str] = None      # None = success
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.reason is not None


@dataclass
class DropRecord:
    """A variant that was retried and then excluded from the dataset."""

    program_name: str
    app: str
    variant: str
    reason: str                       # "interpreter" | "timeout" | "lowering" | "worker-crash" | "error:<T>" | "lint:<RULE>"
    attempts: int
    detail: str = ""


@dataclass
class WorkerContext:
    """Per-run state shipped to every worker once (via the initializer)."""

    inst2vec: Inst2Vec
    walk_space: AnonymousWalkSpace
    gamma: int
    task_timeout_s: Optional[float] = None


@dataclass
class AssemblyStats:
    """Structured accounting of one assembly run, surfaced by the CLI."""

    n_tasks: int = 0
    n_workers: int = 1
    task_timeout_s: Optional[float] = None
    max_retries: int = 1
    n_retries: int = 0
    wall_seconds: float = 0.0
    setup_seconds: float = 0.0        # apps + inst2vec + task construction (serial)
    extraction_seconds: float = 0.0   # task execution (the parallelized stage)
    suite_counts: Dict[str, int] = field(default_factory=dict)
    app_counts: Dict[str, int] = field(default_factory=dict)
    drops: List[DropRecord] = field(default_factory=list)
    shard_hits: int = 0
    shard_misses: int = 0
    cache_hit: bool = False           # whole-dataset DiskCache entry
    # lint accounting (repro.lint runs inside assembly when config.lint)
    lint_quarantined: int = 0         # samples dropped by ERROR findings
    lint_findings: List[Dict] = field(default_factory=list)  # Finding.to_dict()s
    crossval: Dict[str, int] = field(default_factory=dict)   # DS005 coverage

    def drop_reasons(self) -> Dict[str, int]:
        reasons: Dict[str, int] = {}
        for drop in self.drops:
            reasons[drop.reason] = reasons.get(drop.reason, 0) + 1
        return dict(sorted(reasons.items()))

    def summary(self) -> str:
        lines = [
            f"assembly: {self.n_tasks} tasks on {self.n_workers} worker(s) "
            f"in {self.wall_seconds:.1f}s "
            f"(setup {self.setup_seconds:.1f}s, "
            f"extraction {self.extraction_seconds:.1f}s)",
            f"loops per suite: {dict(sorted(self.suite_counts.items()))}",
        ]
        if self.app_counts:
            lines.append(
                f"loops per app: {dict(sorted(self.app_counts.items()))}"
            )
        if self.drops:
            lines.append(
                f"dropped variants: {len(self.drops)} ({self.drop_reasons()})"
            )
        else:
            lines.append("dropped variants: 0")
        if self.n_retries:
            lines.append(f"task retries: {self.n_retries}")
        if self.lint_findings or self.lint_quarantined:
            lines.append(
                f"lint: {len(self.lint_findings)} finding(s), "
                f"{self.lint_quarantined} sample(s) quarantined"
            )
        if self.crossval:
            line = (
                "label crossval: "
                f"{self.crossval.get('judged', 0)} judged, "
                f"{self.crossval.get('provably_parallel', 0)} provably "
                "parallel, "
                f"{self.crossval.get('provably_serial', 0)} provably serial, "
                f"{self.crossval.get('contradictions', 0)} contradiction(s)"
            )
            if self.crossval.get("unanalyzable"):
                line += (
                    f", {self.crossval['unanalyzable']} unanalyzable "
                    "program(s)"
                )
            lines.append(line)
        lines.append(
            f"cache: dataset {'hit' if self.cache_hit else 'miss'}, "
            f"shards {self.shard_hits} hit / {self.shard_misses} miss"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# per-task timeout
# ---------------------------------------------------------------------------


class TaskTimeout(Exception):
    """Raised inside a worker when a task exceeds its wall-clock budget."""


def _can_use_alarm() -> bool:
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


@contextmanager
def time_limit(seconds: Optional[float]):
    """Bound the wrapped block to ``seconds`` of wall clock where possible.

    Uses ``SIGALRM`` (worker processes run tasks on their main thread), so
    it is a no-op on platforms without it or off the main thread — the
    bounded-retry layer above still contains such tasks, they just cannot
    be interrupted mid-flight.
    """
    if not seconds or seconds <= 0 or not _can_use_alarm():
        yield
        return

    def _raise_timeout(signum, frame):
        raise TaskTimeout(f"task exceeded {seconds:g}s")

    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# task execution
# ---------------------------------------------------------------------------


def execute_task(task: ExtractionTask, ctx: WorkerContext) -> List[LoopSample]:
    """Run one task: lower, verify, apply the pipeline, extract samples.

    Pure function of (task, ctx): the walk generator is rebuilt from
    ``task.seed`` on every call, so repeated executions — retries, serial
    vs pooled, any worker — produce identical samples.  Inside an
    :func:`~repro.ir.shared.analysis_scope` the tasks of one
    program share its verified O0 lowering and its AST tools' votes.
    """
    rng = np.random.default_rng(task.seed)
    ir = program_ir(task.program, task.program_key or None)
    if task.variant != "O0":
        ir = apply_pipeline(ir, task.variant)
    samples = extract_loop_samples(
        task.program,
        task.labels,
        ctx.inst2vec,
        ctx.walk_space,
        suite=task.suite,
        app=task.app,
        gamma=ctx.gamma,
        variant=task.variant,
        ir_program=ir,
        rng=rng,
        program_key=task.program_key,
    )
    for sample in samples:
        if sample.loop_id in task.quirk_loops:
            sample.meta["annotation_quirk"] = True
    return samples


ExecuteFn = Callable[[ExtractionTask, WorkerContext], List[LoopSample]]


def _guarded_attempt(
    execute: ExecuteFn, task: ExtractionTask, ctx: WorkerContext
) -> TaskOutcome:
    """One attempt, with the timeout applied and failures mapped to reasons."""
    try:
        with time_limit(ctx.task_timeout_s):
            return TaskOutcome(task.index, samples=execute(task, ctx))
    except TaskTimeout as exc:
        return TaskOutcome(task.index, reason="timeout", detail=str(exc))
    except InterpreterError as exc:
        return TaskOutcome(task.index, reason="interpreter", detail=str(exc))
    except IRError as exc:
        return TaskOutcome(task.index, reason="lowering", detail=str(exc))
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        return TaskOutcome(
            task.index,
            reason=f"error:{type(exc).__name__}",
            detail=str(exc),
        )


# Worker-process globals, populated once per worker by the pool initializer
# so the (sizeable) inst2vec model is pickled per worker, not per task.
_WORKER_CTX: Optional[WorkerContext] = None
_WORKER_EXECUTE: Optional[ExecuteFn] = None


def _init_worker(ctx: WorkerContext, execute: ExecuteFn) -> None:
    global _WORKER_CTX, _WORKER_EXECUTE
    leave_analysis_scope()  # a forked worker computes afresh, as unscoped
    _WORKER_CTX = ctx
    _WORKER_EXECUTE = execute


def _pool_attempt(task: ExtractionTask) -> TaskOutcome:
    assert _WORKER_CTX is not None and _WORKER_EXECUTE is not None
    return _guarded_attempt(_WORKER_EXECUTE, task, _WORKER_CTX)


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    """Per-task sample lists (task order) plus failure accounting."""

    samples: List[List[LoopSample]]
    drops: List[DropRecord]
    n_retries: int = 0


def run_extraction_tasks(
    tasks: Sequence[ExtractionTask],
    ctx: WorkerContext,
    n_workers: int = 1,
    max_retries: int = 1,
    execute: ExecuteFn = execute_task,
) -> RunResult:
    """Execute ``tasks``, serially or across a process pool.

    Returns one sample list per task, in task order, regardless of worker
    count or completion order.  Failed optional tasks contribute an empty
    list and a :class:`DropRecord`; failed required tasks raise
    :class:`~repro.errors.DatasetError` after their retries are exhausted.
    """
    if n_workers <= 1:
        return _run_serial(tasks, ctx, max_retries, execute)
    return _run_pool(tasks, ctx, n_workers, max_retries, execute)


def _finalize_failure(
    task: ExtractionTask,
    outcome: TaskOutcome,
    attempts: int,
    drops: List[DropRecord],
) -> List[LoopSample]:
    if task.required:
        raise DatasetError(
            f"extraction of required variant {task.describe()} failed after "
            f"{attempts} attempt(s): {outcome.reason} ({outcome.detail})"
        )
    drops.append(
        DropRecord(
            program_name=task.program.name,
            app=task.app,
            variant=task.variant,
            reason=outcome.reason or "unknown",
            attempts=attempts,
            detail=outcome.detail,
        )
    )
    return []


def _run_serial(
    tasks: Sequence[ExtractionTask],
    ctx: WorkerContext,
    max_retries: int,
    execute: ExecuteFn,
) -> RunResult:
    results: List[List[LoopSample]] = []
    drops: List[DropRecord] = []
    n_retries = 0
    for task in tasks:
        attempts = 0
        while True:
            attempts += 1
            outcome = _guarded_attempt(execute, task, ctx)
            if not outcome.failed:
                results.append(outcome.samples)
                break
            if attempts <= max_retries:
                n_retries += 1
                continue
            results.append(_finalize_failure(task, outcome, attempts, drops))
            break
    return RunResult(samples=results, drops=drops, n_retries=n_retries)


def _make_pool(n_workers: int, ctx: WorkerContext, execute: ExecuteFn):
    import multiprocessing as mp

    # fork is markedly cheaper than spawn and the workers hold no locks of
    # ours; fall back to the platform default elsewhere
    mp_context = (
        mp.get_context("fork")
        if "fork" in mp.get_all_start_methods()
        else None
    )
    return ProcessPoolExecutor(
        max_workers=n_workers,
        mp_context=mp_context,
        initializer=_init_worker,
        initargs=(ctx, execute),
    )


def _run_pool(
    tasks: Sequence[ExtractionTask],
    ctx: WorkerContext,
    n_workers: int,
    max_retries: int,
    execute: ExecuteFn,
) -> RunResult:
    results: Dict[int, List[LoopSample]] = {}
    drops_by_index: Dict[int, DropRecord] = {}
    attempts: Dict[int, int] = {task.index: 0 for task in tasks}
    n_retries = 0

    executor = _make_pool(n_workers, ctx, execute)
    try:
        futures = {
            executor.submit(_pool_attempt, task): task for task in tasks
        }
        while futures:
            done, _ = wait(futures, return_when=FIRST_COMPLETED)
            crashed: List[ExtractionTask] = []
            for future in done:
                task = futures.pop(future)
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    # the pool is gone: every in-flight task must be
                    # re-queued on a fresh pool; the culprit is unknowable,
                    # so each affected task burns one attempt
                    crashed = [task] + list(futures.values())
                    futures = {}
                    break
                attempts[task.index] += 1
                if not outcome.failed:
                    results[task.index] = outcome.samples
                elif attempts[task.index] <= max_retries:
                    n_retries += 1
                    futures[executor.submit(_pool_attempt, task)] = task
                else:
                    drops: List[DropRecord] = []
                    results[task.index] = _finalize_failure(
                        task, outcome, attempts[task.index], drops
                    )
                    if drops:
                        drops_by_index[task.index] = drops[0]
            if crashed:
                executor.shutdown(wait=False, cancel_futures=True)
                executor = _make_pool(n_workers, ctx, execute)
                for task in crashed:
                    attempts[task.index] += 1
                    if attempts[task.index] <= max_retries:
                        n_retries += 1
                        futures[executor.submit(_pool_attempt, task)] = task
                    else:
                        outcome = TaskOutcome(
                            task.index,
                            reason="worker-crash",
                            detail="worker process died (BrokenProcessPool)",
                        )
                        drops = []
                        results[task.index] = _finalize_failure(
                            task, outcome, attempts[task.index], drops
                        )
                        if drops:
                            drops_by_index[task.index] = drops[0]
    finally:
        executor.shutdown(wait=False, cancel_futures=True)

    # serial-identical ordering: samples by task order, drops by task order
    ordered_drops = [
        drops_by_index[task.index]
        for task in tasks
        if task.index in drops_by_index
    ]
    return RunResult(
        samples=[results[task.index] for task in tasks],
        drops=ordered_drops,
        n_retries=n_retries,
    )
