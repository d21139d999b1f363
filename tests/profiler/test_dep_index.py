"""The dependence index of a ``ProfileReport`` against brute-force scans.

Every query the oracle, privatization, DiscoPoP, the Table I counts and
the CFL dependence DAG make reads a slice of ``report.dep_index()``.  The
references here scan the whole ``report.deps`` table the way those
consumers did before the index existed; for every loop of four bundled
apps, at O0 and under one compiler pipeline, both must agree, down to the
order of each DAG adjacency list (jacobi-2d and CG have sources with
several memory successors) and DiscoPoP's reasons, checked also on two
dependence-injected MG programs where DiscoPoP's confidence threshold
decides a verdict.  A planted index that drops one dependence must fail
the comparison, and no query may see a stale slice after the table is
edited.
"""

from collections import Counter

import pytest

from repro.analysis.critical_path import dependence_dag, longest_path
from repro.analysis.features import loop_features
from repro.analysis.oracle import classify_all_loops
from repro.benchsuite.registry import build_app
from repro.dataset.assemble import DatasetConfig, build_extraction_tasks
from repro.ir.lowering import lower_program
from repro.ir.passes import apply_pipeline
from repro.ir.verify import verify_program
from repro.profiler.interpreter import profile_program
from repro.profiler.report import (
    DepIndex,
    DepInfo,
    DepKind,
    DepTable,
    ProfileReport,
)
from repro.profiler.static_info import loop_block_sets, loop_instr_keys
from repro.tools.discopop_cls import DiscoPoPClassifier
from repro.utils.rng import ensure_rng, spawn_rngs

from tests.helpers import build_mixed_program, loop_ids, profile

APPS = ("EP", "jacobi-2d", "CG", "fib")
VARIANTS = ("O0", "O2-licm")


# -- brute-force references: one scan of the whole table per query ----------


def scan_symbols(report, loop_id, min_count):
    """Carried symbols and kinds, the dependences below ``min_count``
    dropped first (DiscoPoP's old per-loop filtered copy)."""
    kept = [
        dep for dep in report.deps.values()
        if not 0 < dep.carried.get(loop_id, 0) < min_count
    ]
    out = {}
    for dep in kept:
        if dep.carried.get(loop_id, 0) > 0:
            out.setdefault(dep.symbol, set()).add(dep.kind)
    return out


def scan_counts(report, keys):
    """(incoming, internal, outgoing) over the whole table."""
    incoming = internal = outgoing = 0
    for (src, dst, _kind) in report.deps:
        if src in keys and dst in keys:
            internal += 1
        elif dst in keys:
            incoming += 1
        elif src in keys:
            outgoing += 1
    return incoming, internal, outgoing


def scan_dag(fn, loop_id, report, block_sets):
    """Register edges (from an empty table), then every loop-independent
    RAW dependence appended in table order."""
    nodes, adj = dependence_dag(
        fn, loop_id, ProfileReport(report.program_name), block_sets
    )
    node_set = set(nodes)
    for (src, dst, kind), dep in report.deps.items():
        if kind is not DepKind.RAW or dep.independent == 0:
            continue
        if src in node_set and dst in node_set and src != dst:
            adj[src].append(dst)
    return nodes, adj


class ScanReport(ProfileReport):
    """A report whose carried-by query scans the table, dropping the
    dependences carried fewer than ``floor`` times whatever threshold the
    caller asks for: the filtered copy DiscoPoP once made per loop (the
    reference DiscoPoP and the oracle run on)."""

    floor = 1

    def symbols_carried_by(self, loop_id, min_count=1):
        return scan_symbols(self, loop_id, self.floor)


def scan_report(report, floor=1):
    reference = ScanReport(
        program_name=report.program_name,
        deps=report.deps,
        loop_stats=report.loop_stats,
        exec_counts=report.exec_counts,
    )
    reference.floor = floor
    return reference


def mismatches(ir, report):
    """Every query on which the index and the scans disagree."""
    out = []
    for loop_id, info in ir.all_loops().items():
        fn = ir.function(info.function)
        block_sets = loop_block_sets(fn)
        for min_count in (1, 2):
            got = report.symbols_carried_by(loop_id, min_count)
            want = scan_symbols(report, loop_id, min_count)
            if got != want or list(got) != list(want):
                out.append(f"{loop_id} symbols@{min_count}: {got} != {want}")
        keys = loop_instr_keys(fn, loop_id, block_sets)
        feats = loop_features(ir, report, loop_id, block_sets)
        got = (feats.incoming_dep, feats.internal_dep, feats.outgoing_dep)
        want = scan_counts(report, keys)
        if got != want:
            out.append(f"{loop_id} table I counts: {got} != {want}")
        got_dag = dependence_dag(fn, loop_id, report, block_sets)
        want_dag = scan_dag(fn, loop_id, report, block_sets)
        if got_dag != want_dag:
            out.append(f"{loop_id} dependence DAG differs")
        elif feats.cfl != longest_path(*want_dag):
            out.append(f"{loop_id} CFL differs")
    tool = DiscoPoPClassifier()
    got = {
        k: (p.parallel, p.reasons)
        for k, p in tool.classify_program(None, ir, report).items()
    }
    reference = scan_report(report, tool.min_dep_count)
    want = {
        k: (p.parallel, p.reasons)
        for k, p in tool.classify_program(None, ir, reference).items()
    }
    if got != want:
        out.append(f"DiscoPoP: {got} != {want}")
    got = classify_all_loops(ir, report)
    want = classify_all_loops(ir, scan_report(report))
    if got != want:
        out.append("oracle verdicts differ")
    return out


def _variants():
    for app in APPS:
        for program in build_app(app).programs:
            base = lower_program(program)
            verify_program(base)
            for variant in VARIANTS:
                ir = base if variant == "O0" else apply_pipeline(base, variant)
                yield f"{program.name}/{variant}", ir


def _injected_variants():
    """MG programs whose injected dependence fires once: DiscoPoP's
    confidence threshold decides one of their loops."""
    config = DatasetConfig.fast(seed=3)
    config.apps = ("MG",)
    _, _, _, transform_rng, _ = spawn_rngs(ensure_rng(config.seed), 5)
    for task in build_extraction_tasks(
        [build_app("MG")], config, transform_rng
    ):
        if task.program.name in ("mg_p0+dep1", "mg_p9+dep1"):
            base = lower_program(task.program)
            verify_program(base)
            ir = (
                base if task.variant == "O0"
                else apply_pipeline(base, task.variant)
            )
            yield f"{task.program.name}/{task.variant}", ir


@pytest.fixture(scope="module")
def profiled():
    return [
        (name, ir, profile_program(ir))
        for name, ir in list(_variants()) + list(_injected_variants())
    ]


class TestIndexOracle:
    def test_every_loop_agrees_with_the_scans(self, profiled):
        loops = sum(len(ir.all_loops()) for _, ir, _ in profiled)
        assert loops >= 20
        bad = {
            name: found
            for name, ir, report in profiled
            for found in [mismatches(ir, report)]
            if found
        }
        assert not bad

    def test_the_discopop_threshold_decides_a_compared_verdict(
        self, profiled
    ):
        def verdicts(tool, ir, report):
            return {
                k: (p.parallel, p.reasons)
                for k, p in tool.classify_program(None, ir, report).items()
            }

        decided = [
            name
            for name, ir, report in profiled
            if verdicts(DiscoPoPClassifier(), ir, report)
            != verdicts(DiscoPoPClassifier(min_dep_count=1), ir, report)
        ]
        assert decided == [
            "mg_p0+dep1/O0", "mg_p0+dep1/O2-licm",
            "mg_p9+dep1/O0", "mg_p9+dep1/O2-licm",
        ]

    def test_queries_share_one_index_per_report(self, profiled, monkeypatch):
        built = []
        real_init = DepIndex.__init__

        def counting(self, table):
            built.append(table)
            real_init(self, table)

        monkeypatch.setattr(DepIndex, "__init__", counting)
        for _, ir, report in profiled:
            fresh = ProfileReport(report.program_name, loop_stats=report.loop_stats)
            fresh.deps.update(report.deps)
            mismatches(ir, fresh)
            # every loop's queries read one index; the references scan
            assert sum(1 for table in built if table is fresh.deps) == 1

    def test_planted_dropped_dependence_fails(self, monkeypatch):
        ir, report = profile(build_mixed_program())
        assert not mismatches(ir, report)
        real_init = DepIndex.__init__

        def dropping(self, table):
            victim = next((k for k, d in table.items() if d.carried), None)
            real_init(self, {k: d for k, d in table.items() if k != victim})
            self.table, self.version = table, table.version

        monkeypatch.setattr(DepIndex, "__init__", dropping)
        fresh = ProfileReport(report.program_name, loop_stats=report.loop_stats)
        fresh.deps.update(report.deps)
        assert mismatches(ir, fresh)


class TestNoStaleSlice:
    def _profiled(self):
        program = build_mixed_program()
        ir, report = profile(program)
        return ir, report, loop_ids(program)[2]  # the recurrence on a

    def test_deleted_dependences_leave_the_slices(self):
        ir, report, loop = self._profiled()
        assert "a" in report.symbols_carried_by(loop)
        for key in [k for k, d in report.deps.items() if d.symbol == "a"]:
            del report.deps[key]
        assert "a" not in report.symbols_carried_by(loop)
        assert not mismatches(ir, report)

    def test_added_and_replaced_dependences_enter_the_slices(self):
        ir, report, loop = self._profiled()
        before = loop_features(ir, report, loop)
        src, dst = next(
            (d.src, d.dst) for d in report.deps.values() if d.carried.get(loop)
        )
        key = (src, dst, DepKind.WAW)
        report.deps.pop(key, None)
        report.symbols_carried_by(loop)
        report.deps[key] = DepInfo(
            src, dst, DepKind.WAW, "planted", count=1, carried=Counter({loop: 1})
        )
        assert report.symbols_carried_by(loop)["planted"] == {DepKind.WAW}
        assert "planted" not in report.symbols_carried_by(loop, 2)
        after = loop_features(ir, report, loop)
        assert after.internal_dep == before.internal_dep + 1
        report.deps[key] = DepInfo(
            src, dst, DepKind.WAW, "planted", count=2, carried=Counter({loop: 2})
        )
        assert "planted" in report.symbols_carried_by(loop, 2)
        assert not mismatches(ir, report)

    @pytest.mark.parametrize("edit", [
        lambda deps: deps.clear(),
        lambda deps: deps.popitem(),
        lambda deps: deps.update({}),
        lambda deps: deps.__ior__({}),
        lambda deps: deps.setdefault(next(iter(deps))),
    ])
    def test_every_table_edit_rebuilds(self, edit):
        ir, report, loop = self._profiled()
        index = report.dep_index()
        edit(report.deps)
        assert report.dep_index() is not index
        assert not mismatches(ir, report)

    def test_unedited_table_keeps_its_index(self):
        _ir, report, loop = self._profiled()
        index = report.dep_index()
        report.symbols_carried_by(loop)
        assert report.dep_index() is index

    def test_a_plain_dict_table_is_never_cached(self):
        ir, report, loop = self._profiled()
        report.deps = dict(report.deps)
        assert report.dep_index() is not report.dep_index()
        for key in [k for k, d in report.deps.items() if d.symbol == "a"]:
            del report.deps[key]
        assert "a" not in report.symbols_carried_by(loop)
        assert not mismatches(ir, report)

    def test_reassigned_table_is_reindexed(self):
        ir, report, loop = self._profiled()
        assert "a" in report.symbols_carried_by(loop)
        report.deps = DepTable()
        assert report.symbols_carried_by(loop) == {}
        assert not mismatches(ir, report)
