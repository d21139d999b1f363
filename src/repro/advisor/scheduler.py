"""Simulated parallel interleaving of a transformed advisor program.

Runs the chunk loops produced by :func:`repro.advisor.transform.apply_plan`
as T logical threads over *shared* program state, interleaving them at
memory-access granularity.  Privatization safety comes from the renaming
the transformer performed: each chunk's induction variable, privatized
scalars, and reduction partials are distinct names, so only genuinely
shared accesses (array elements, un-privatized scalars) can race.  A plan
that privatized too little therefore produces a visibly different result
under an interleaved schedule — which is exactly the evidence the
validator wants.

Execution model
---------------

The threads run on the profiler's
:class:`~repro.profiler.interpreter.Interpreter`, over the lowered
transformed program: the activation that reaches a chunk loop forks a
thread there, and at the last chunk of the region a schedule policy
drives the threads to completion (see :mod:`repro.profiler.interpreter`).
A thread yields a ``(phase, shared)`` token around every STORE and every
STVAR except to its own induction variable: ``("pre", shared)`` after the
value (and index) has been computed but *before* the write commits, and
``("post", shared)`` after it commits.  The pre-token models the classic
lost-update window of a read-modify-write; the post-token is where
another thread can observe a torn protocol (write-then-read-elsewhere).

Two schedule families drive the threads:

* ``roundrobin`` — deterministic, systematic: control rotates to the next
  runnable thread after **every committed shared write**.  This is the
  single most race-revealing static schedule for straight-line bodies —
  every shared store is immediately followed by a different thread's
  accesses.
* ``adversarial`` — seeded, uniform among runnable threads at **every**
  yield point: ``np.random.default_rng(seed)`` draws uniforms in blocks
  of :data:`PICK_BLOCK`, and each pick is ``alive[int(u * len(alive))]``.
  Same seed, same schedule, same trace — determinism the test suite
  asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import AdvisorError
from repro.profiler.interpreter import POST, Interpreter, Schedule, Token
from repro.advisor.transform import TransformResult

SCHEDULE_ROUNDROBIN = "roundrobin"
SCHEDULE_ADVERSARIAL = "adversarial"
SCHEDULES = (SCHEDULE_ROUNDROBIN, SCHEDULE_ADVERSARIAL)

#: uniforms an adversarial schedule draws at a time
PICK_BLOCK = 256


@dataclass(frozen=True)
class ScheduleSpec:
    """One interleaving policy: a family plus (for adversarial) a seed."""

    kind: str
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in SCHEDULES:
            raise AdvisorError(f"unknown schedule kind {self.kind!r}")
        if self.kind == SCHEDULE_ADVERSARIAL and self.seed is None:
            raise AdvisorError("adversarial schedule requires a seed")

    @property
    def label(self) -> str:
        if self.seed is None:
            return self.kind
        return f"{self.kind}:{self.seed}"


@dataclass
class InterleavedRun:
    """Final state plus the scheduling trace of one interleaved execution."""

    arrays: Dict[str, List[float]]
    scalars: Dict[str, float]
    trace: Tuple[int, ...]       # chunk index advanced at each micro-step
    schedule: str                # ScheduleSpec.label
    return_value: Optional[float] = None


def _roundrobin(trace: List[int]) -> Schedule:
    """Keep running one thread until it commits a shared write, then hand
    control to the next runnable thread."""

    def drive(threads: List[Iterator[Token]]) -> None:
        alive = list(range(len(threads)))
        pos = 0
        while alive:
            tid = alive[pos % len(alive)]
            thread = threads[tid]
            while True:
                trace.append(tid)
                token = next(thread, None)
                if token is None:
                    pos = alive.index(tid)
                    alive.remove(tid)
                    break
                if token[0] == POST and token[1]:
                    pos = alive.index(tid) + 1
                    break

    return drive


def _adversarial(seed: int, trace: List[int]) -> Schedule:
    """Pick uniformly among runnable threads at every yield point."""
    rng = np.random.default_rng(seed)

    def drive(threads: List[Iterator[Token]]) -> None:
        alive = list(range(len(threads)))
        picks: List[float] = []
        used = 0
        while alive:
            if used == len(picks):
                picks = rng.random(PICK_BLOCK).tolist()
                used = 0
            tid = alive[int(picks[used] * len(alive))]
            used += 1
            trace.append(tid)
            if next(threads[tid], None) is None:
                alive.remove(tid)

    return drive


def run_interleaved(
    result: TransformResult,
    spec: ScheduleSpec,
    interpreter: Interpreter,
) -> InterleavedRun:
    """Execute a transformed program with its chunk region interleaved.

    ``interpreter`` runs the lowered ``result.program``: everything outside
    the chunk loops runs sequentially, and the chunk loops run as logical
    threads under ``spec``, from fresh copies of the interpreter's initial
    arrays.  Faults raise :class:`~repro.errors.InterpreterError`.
    """
    trace: List[int] = []
    if spec.kind == SCHEDULE_ADVERSARIAL:
        policy = _adversarial(spec.seed, trace)
    else:
        policy = _roundrobin(trace)
    threads = {c.loop.loop_id: frozenset(c.private_names) for c in result.chunks}
    value = interpreter.execute(threads, policy)
    if result.chunks and not trace:
        raise AdvisorError(
            f"chunk loops of {result.loop_id} never ran in "
            f"{result.program.name!r}"
        )
    return InterleavedRun(
        arrays=interpreter.arrays,
        scalars=interpreter.scalars,
        trace=tuple(trace),
        schedule=spec.label,
        return_value=value,
    )
