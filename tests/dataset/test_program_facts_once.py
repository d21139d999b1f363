"""A cold assembly computes each program's facts once.

On a cold ``DatasetConfig.tiny()`` assembly every distinct program is
lowered once (the inst2vec corpus, each of its extraction tasks and its
range analysis share that lowering) and Pluto and AutoPar vote once on
it, whatever the number of its variants.  DS005's cross-validation
hashes each program once, and each pipeline application copies its
program once.  No consumer changes a shared lowering, and a pooled
assembly, whose workers compute afresh, gives the serial samples.
"""

import sys
from collections import Counter

import pytest

from repro.dataset import parallel
from repro.dataset.assemble import DatasetConfig, _assemble
from repro.ir import lowering, shared
from repro.ir.passes import clone as ir_clone
from repro.ir.printer import print_program
from repro.ir.shared import program_fingerprint
from repro.lint import dataset_rules
from repro.tools import AutoParLite, PlutoLite

from tests.lint import test_shared_analysis

#: the serial tiny assembly's split fingerprints
SERIAL = test_shared_analysis.TestAssemblyAnalysesOnce.FINGERPRINTS

_lower = lowering.lower_program  # unpatched, for fresh lowerings


def _tiny(n_workers=1):
    config = DatasetConfig.tiny(n_workers=n_workers)
    config.use_cache = False
    return config


@pytest.fixture
def lowerings(monkeypatch):
    """(program, IR) of every ``lower_program`` call, wherever bound."""
    calls = []

    def recording(program, *args, **kwargs):
        ir = _lower(program, *args, **kwargs)
        calls.append((program, ir))
        return ir

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(
            module, "lower_program", None
        ) is _lower:
            monkeypatch.setattr(module, "lower_program", recording)
    return calls


@pytest.fixture
def votes(monkeypatch):
    """Tool name -> program names it classified."""
    calls = {}
    for tool in (PlutoLite, AutoParLite):
        real = tool.classify_program

        def counting(self, ast_program, *args, _real=real, **kwargs):
            calls.setdefault(self.name, []).append(ast_program.name)
            return _real(self, ast_program, *args, **kwargs)

        monkeypatch.setattr(tool, "classify_program", counting)
    return calls


class TestOncePerProgram:
    def test_one_lowering_and_one_ast_vote_per_program(
        self, lowerings, votes
    ):
        data = _assemble(_tiny())
        programs = {p.name for p, _ in lowerings}
        distinct = {program_fingerprint(p) for p, _ in lowerings}
        assert len(programs) == len(distinct) == 21
        assert len(lowerings) == 21
        assert sorted(votes) == ["AutoPar", "Pluto"]
        for names in votes.values():
            assert sorted(names) == sorted(programs)
        # each base program has two pipeline variants and two transforms,
        # each of those two variants too: 42 tasks over 21 programs
        assert data.stats.n_tasks == 42 and not data.stats.drops
        for split, digest in SERIAL.items():
            assert getattr(data, split).fingerprint() == digest, split

    def test_crossval_hashes_each_program_once(self, monkeypatch):
        """DS005 looks each program's shared analysis up once, and the
        prover reads that analysis's context instead of hashing the
        program a second time."""
        hashed = Counter()
        crossval = {"on": False}
        real_hash = shared.program_fingerprint
        real_crossval = dataset_rules.cross_validate_labels

        def counting_hash(program):
            if crossval["on"]:
                hashed[program.name] += 1
            return real_hash(program)

        def counting_crossval(*args, **kwargs):
            crossval["on"] = True
            try:
                return real_crossval(*args, **kwargs)
            finally:
                crossval["on"] = False

        monkeypatch.setattr(shared, "program_fingerprint", counting_hash)
        monkeypatch.setattr(
            dataset_rules, "cross_validate_labels", counting_crossval
        )
        data = _assemble(_tiny())
        assert data.stats.crossval["judged"] > 0
        assert hashed and set(hashed.values()) == {1}, hashed

    def test_one_copy_per_pipeline_application(self, monkeypatch):
        """``apply_pipeline`` is the one place that copies: its passes
        rewrite that copy in place."""
        clones, applications = [], []
        real_clone = ir_clone.clone_program
        real_apply = parallel.apply_pipeline

        def counting_clone(program):
            clones.append(program.name)
            return real_clone(program)

        def counting_apply(program, name, *args, **kwargs):
            applications.append(name)
            return real_apply(program, name, *args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                getattr(module, "clone_program", None) is real_clone
            ):
                monkeypatch.setattr(module, "clone_program", counting_clone)
        monkeypatch.setattr(parallel, "apply_pipeline", counting_apply)
        _assemble(_tiny())
        assert applications and set(applications) == {"O1-dce"}
        assert len(clones) == len(applications)

    def test_shared_lowerings_are_left_unchanged(self, lowerings):
        _assemble(_tiny())
        assert len(lowerings) == 21
        for program, ir in lowerings:
            assert print_program(ir) == print_program(_lower(program)), (
                program.name
            )

    def test_pooled_assembly_matches_serial(self):
        data = _assemble(_tiny(n_workers=2))
        for split, digest in SERIAL.items():
            assert getattr(data, split).fingerprint() == digest, split
