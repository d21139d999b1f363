"""Golden profile digest: the interpreter and shadow memory must not drift.

Every program of the 14 bundled applications is lowered, put through
each optimization pipeline (O0 plus the five optimizing ones) and run
twice, with dependence recording on and off.  Each run contributes its
canonical text: the dependences in insertion order (count, independent,
carried), the loop statistics, the execution counts in order, ``steps``,
the return value and the final arrays.  Every O0 program also runs
under a small step budget, so the digest pins a faulting run too: the
exception type and message plus the partial arrays, dependences and
loop statistics it leaves behind.  A few applications additionally run
with a probe attached and contribute the probe call sequence.

The lines are hashed by value (floats via ``float.hex``), one SHA-256
per application, and compared against
``tests/profiler/goldens/profile_digest.json``.  Hashing pickled reports
would not work: pickle memoises shared string objects, so two equal
reports can serialise differently.

Regenerate after an intentional semantic change with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/profiler/test_profile_golden.py -q
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.benchsuite import app_names, build_app
from repro.ir import lower_program
from repro.ir.passes import apply_pipeline, pipeline_names
from repro.profiler.interpreter import Interpreter

GOLDEN = Path(__file__).resolve().parent / "goldens" / "profile_digest.json"
_UPDATE = os.environ.get("REPRO_UPDATE_GOLDENS") == "1"

#: applications whose runs also digest the probe call sequence
PROBE_APPS = ("EP", "IS", "fib", "jacobi-2d")
#: step budget of the deliberately faulting run of every O0 program
FAULT_BUDGET = 1000


def _f(value):
    return None if value is None else float(value).hex()


def _state_lines(interp):
    report = interp.report
    for dep in report.deps.values():
        yield (
            f"dep {dep.src} {dep.dst} {dep.kind.value} {dep.symbol} "
            f"n={dep.count} ind={dep.independent} "
            f"car={list(dep.carried.items())}"
        )
    for loop_id, stats in report.loop_stats.items():
        yield (
            f"loop {loop_id} entries={stats.entries} "
            f"iters={stats.total_iterations} dyn={stats.dyn_instr_count}"
        )
    for name, values in interp.arrays.items():
        yield f"array {name} {[v.hex() for v in values]}"


def run_lines(ir, record, probe_calls=None, max_steps=None):
    """Canonical text lines of one interpreter run of ``ir``."""
    kwargs = {} if max_steps is None else {"max_steps": max_steps}
    probe = None
    if probe_calls is not None:
        def probe(fn_name, iid, kind, value):
            probe_calls.append(f"{fn_name}#{iid}:{kind}={_f(value)}")
    interp = Interpreter(ir, record=record, probe=probe, **kwargs)
    yield f"run {ir.name} record={record} budget={max_steps}"
    try:
        report = interp.run()
    except Exception as exc:  # noqa: BLE001 — the fault itself is pinned
        yield f"fault {type(exc).__name__}: {exc}"
        yield from _state_lines(interp)
        return
    yield f"steps {report.steps} ret={_f(report.return_value)}"
    yield f"exec {list(report.exec_counts.items())}"
    yield from _state_lines(interp)


def app_lines(name):
    probe_calls = [] if name in PROBE_APPS else None
    for program in build_app(name).programs:
        base = lower_program(program)
        for pipeline in pipeline_names():
            ir = base if pipeline == "O0" else apply_pipeline(base, pipeline)
            yield f"pipeline {pipeline}"
            for record in (True, False):
                yield from run_lines(ir, record, probe_calls)
        yield from run_lines(base, True, max_steps=FAULT_BUDGET)
    if probe_calls is not None:
        yield f"probes {len(probe_calls)}"
        yield from probe_calls


def app_digest(name):
    h = hashlib.sha256()
    for line in app_lines(name):
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


@pytest.fixture(scope="module")
def golden():
    if _UPDATE:
        GOLDEN.parent.mkdir(exist_ok=True)
        digests = {name: app_digest(name) for name in app_names()}
        GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    assert GOLDEN.exists(), (
        f"missing golden {GOLDEN.name}; regenerate with REPRO_UPDATE_GOLDENS=1"
    )
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_bundled_app(golden):
    assert sorted(golden) == sorted(app_names())


@pytest.mark.parametrize("name", app_names())
def test_profile_digest_matches_golden(golden, name):
    assert app_digest(name) == golden[name], (
        f"profiler output for {name} drifted from the golden digest"
    )
