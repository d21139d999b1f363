"""Golden schedule digest: interleaved runs must not drift.

Every case is one advised plan, extracted into its validation kernel and
transformed for T threads.  Each case runs the round-robin schedule and
the adversarial schedules of the default seeds, and contributes only
what does not depend on the adversarial random draws:

* the round-robin trace;
* the per-thread advance counts of every schedule (a thread advances
  once per yield point, plus once to finish, whatever the order);
* the final arrays of every schedule, for plans that validate (a
  race-free plan ends in the same state under any interleaving);
* the racy demo's round-robin trace and final arrays.

A run that faults contributes only the word ``fault``.  The cases are
the self-check kernels, the programs of :mod:`tests.helpers` and every
advised plan of the advisor benchmark roster, at T in {2, 4}.  Lines
are hashed per case (floats via ``float.hex``) and compared against
``tests/advisor/goldens/schedule_digest.json``.

Regenerate after an intentional semantic change with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/advisor/test_schedule_golden.py -q
"""

import hashlib
import json
import os
from collections import Counter
from pathlib import Path

import pytest

from repro.advisor import (
    SCHEDULE_ADVERSARIAL,
    SCHEDULE_ROUNDROBIN,
    VALIDATION_VALIDATED,
    ScheduleSpec,
    advise_program,
    apply_plan,
    build_kernel,
    run_interleaved,
    validate_plan,
)
from repro.advisor.driver import (
    build_privatization_demo,
    build_racy_demo,
    build_reduction_demo,
)
from repro.advisor.validate import DEFAULT_SEEDS, DEFAULT_THREADS
from repro.benchsuite import build_app
from repro.errors import AdvisorError
from repro.ir.lowering import lower_program
from repro.profiler.interpreter import Interpreter

from tests.helpers import (
    build_doall_program,
    build_mixed_program,
    build_reduction_program,
    build_sequential_program,
)

GOLDEN = Path(__file__).resolve().parent / "goldens" / "schedule_digest.json"
_UPDATE = os.environ.get("REPRO_UPDATE_GOLDENS") == "1"

#: the advisor benchmark roster (benchmarks/bench_advisor.py)
ROSTER = ("EP", "IS", "fib", "nqueens")
GROUPS = ("selfcheck", "helpers") + ROSTER

SPECS = [ScheduleSpec(SCHEDULE_ROUNDROBIN)] + [
    ScheduleSpec(SCHEDULE_ADVERSARIAL, seed=s) for s in DEFAULT_SEEDS
]


def schedule_run(transformed, spec):
    """One interleaved run of ``transformed`` from the seed-0 arrays."""
    interpreter = Interpreter(lower_program(transformed.program), record=False)
    return run_interleaved(transformed, spec, interpreter)


def _arrays_line(run):
    return "arrays " + repr({
        name: [float(v).hex() for v in values]
        for name, values in run.arrays.items()
    })


def case_lines(transformed, pinned):
    """Canonical lines of one transformed kernel; ``pinned`` names the
    schedules whose final arrays are pinned."""
    for spec in SPECS:
        try:
            run = schedule_run(transformed, spec)
        except Exception:  # noqa: BLE001 — only the fault itself is pinned
            yield f"{spec.label} fault"
            continue
        yield f"{spec.label} counts {sorted(Counter(run.trace).items())}"
        if spec.kind == SCHEDULE_ROUNDROBIN:
            yield f"{spec.label} trace {list(run.trace)}"
        if spec.label in pinned:
            yield f"{spec.label} {_arrays_line(run)}"


def _advised_cases(program):
    """(plan, pinned labels) of every advised plan."""
    for plan in advise_program(program, validate=False).values():
        if not plan.advised:
            continue
        status = validate_plan(program, plan).validation.status
        validated = status == VALIDATION_VALIDATED
        yield plan, {s.label for s in SPECS} if validated else set()


def group_cases(group):
    """(case key, program, plan, pinned labels) of one group."""
    if group == "selfcheck":
        programs = [build_reduction_demo(), build_privatization_demo()]
        racy_program, racy_plan = build_racy_demo()
        racy = validate_plan(racy_program, racy_plan)
        assert racy.validation.status != VALIDATION_VALIDATED
        yield (racy_plan.loop_id, racy_program, racy_plan,
               {SCHEDULE_ROUNDROBIN})
    elif group == "helpers":
        programs = [
            build_doall_program(), build_sequential_program(),
            build_reduction_program(), build_mixed_program(),
        ]
    else:
        programs = build_app(group).programs
    for program in programs:
        for plan, pinned in _advised_cases(program):
            yield plan.loop_id, program, plan, pinned


def group_digests(group):
    digests = {}
    for key, program, plan, pinned in group_cases(group):
        for threads in DEFAULT_THREADS:
            try:
                kernel = build_kernel(program, plan)
                transformed = apply_plan(kernel.program, plan, threads)
            except AdvisorError:
                continue  # not transformable: never scheduled
            h = hashlib.sha256()
            for line in case_lines(transformed, pinned):
                h.update(line.encode("utf-8"))
                h.update(b"\n")
            digests[f"{key} T={threads}"] = h.hexdigest()
    return digests


@pytest.fixture(scope="module")
def golden():
    if _UPDATE:
        GOLDEN.parent.mkdir(exist_ok=True)
        digests = {group: group_digests(group) for group in GROUPS}
        GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    assert GOLDEN.exists(), (
        f"missing golden {GOLDEN.name}; regenerate with REPRO_UPDATE_GOLDENS=1"
    )
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_group(golden):
    assert sorted(golden) == sorted(GROUPS)
    assert all(golden[group] for group in GROUPS)


@pytest.mark.parametrize("group", GROUPS)
def test_schedule_digest_matches_golden(golden, group):
    got = group_digests(group)
    want = golden[group]
    assert sorted(got) == sorted(want), "the set of cases changed"
    drifted = sorted(key for key in want if got[key] != want[key])
    assert not drifted, f"interleaved runs drifted: {drifted}"
