"""Golden range digest: ``analyze_program`` output must stay stable.

For every program of the 14 bundled applications this hashes the array
summaries, every reachable block's input environment and every
:class:`~repro.analysis.ranges.InstrFacts`, one SHA-256 per application,
and compares against ``tests/analysis/goldens/ranges_digest.json``.  Any
change to the engine that alters an interval — a transfer function, the
widening schedule, the worklist order — shows up here, so speed work on
the fixpoint can prove it returns the same answers.

Environments are hashed as ``var_at`` reads them: a variable absent
from an environment is 0.0, so entries equal to ``[0, 0]`` are omitted.
Floats are written with ``float.hex`` (exact, including ±inf).

Regenerate after an intentional change with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/analysis/test_ranges_golden.py -q

and bump ``RANGE_ANALYSIS_VERSION`` along with it.  A bump needs no
regeneration when the change can alter results only on programs outside
the bundled suite (the unchanged digest is then the proof it did not here).
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.analysis.ranges import analyze_program
from repro.benchsuite import app_names, build_app
from repro.ir import lower_program

GOLDEN = Path(__file__).resolve().parent / "goldens" / "ranges_digest.json"
_UPDATE = os.environ.get("REPRO_UPDATE_GOLDENS") == "1"


def _iv(iv):
    return None if iv is None else (iv.lo.hex(), iv.hi.hex())


def ranges_lines(ranges):
    """Canonical text lines of one :class:`ProgramRanges`."""
    yield f"program {ranges.program.name}"
    for name in sorted(ranges.arrays):
        yield f"array {name} {_iv(ranges.arrays[name])}"
    for fn_name in sorted(ranges.functions):
        franges = ranges.functions[fn_name]
        for label in sorted(franges.block_in):
            env = franges.block_in[label]
            cells = [
                (var, _iv(iv)) for var, iv in sorted(env.items())
                if not (iv.lo == 0.0 and iv.hi == 0.0)
            ]
            yield f"in {fn_name}/{label} {cells}"
        for iid in sorted(franges.facts):
            f = franges.facts[iid]
            yield (
                f"fact {fn_name}#{iid} v={_iv(f.value)} i={_iv(f.index)} "
                f"d={_iv(f.divisor)} dead={f.dead_edge}"
            )


def app_digest(name):
    h = hashlib.sha256()
    for program in build_app(name).programs:
        for line in ranges_lines(analyze_program(lower_program(program))):
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
def test_range_digest_matches_golden(golden, name):
    assert app_digest(name) == golden[name], (
        f"analyze_program output for {name} drifted from the golden digest"
    )
