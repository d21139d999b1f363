"""Dominator computation, checked against the textbook set-intersection
fixpoint on every bundled program under every pipeline."""

import pytest

from repro.benchsuite import app_names, build_app
from repro.ir.dominators import compute_dominators, dominates
from repro.ir.linear import BasicBlock
from repro.ir.lowering import lower_program
from repro.ir.passes import apply_pipeline, pipeline_names

from tests.helpers import build_mixed_program
from repro.ir.builder import ProgramBuilder


def reference_dominators(fn):
    """Dom(b) = {b} ∪ ⋂ Dom(p) over reachable predecessors, iterated to a
    fixpoint from "every reachable block" (unreachable blocks: {b})."""
    labels = [b.label for b in fn.blocks]
    succs = {b.label: b.successors() for b in fn.blocks}
    entry = labels[0]
    reachable, stack = set(), [entry]
    while stack:
        label = stack.pop()
        if label not in reachable:
            reachable.add(label)
            stack.extend(s for s in succs[label] if s in succs)
    preds = {label: [] for label in labels}
    for label in labels:
        for succ in succs[label]:
            if succ in preds:
                preds[succ].append(label)
    dom = {
        label: ({entry} if label == entry
                else set(reachable) if label in reachable else {label})
        for label in labels
    }
    changed = True
    while changed:
        changed = False
        for label in labels:
            if label == entry or label not in reachable:
                continue
            new = set.intersection(
                *(dom[p] for p in preds[label] if p in reachable)
            )
            new.add(label)
            if new != dom[label]:
                dom[label] = new
                changed = True
    return dom


@pytest.mark.parametrize("app", app_names())
def test_matches_reference_on_every_bundled_function(app):
    for program in build_app(app).programs:
        base = lower_program(program)
        for pipeline in pipeline_names():
            ir = apply_pipeline(base, pipeline, verify=False)
            for fn in ir.functions.values():
                assert compute_dominators(fn) == reference_dominators(fn), (
                    f"{program.name}/{pipeline}/{fn.name}"
                )


class TestDominators:
    def test_entry_dominates_everything_reachable(self):
        ir = lower_program(build_mixed_program())
        fn = ir.function("main")
        dom = compute_dominators(fn)
        entry = fn.blocks[0].label
        for block in fn.blocks:
            assert dominates(dom, entry, block.label)

    def test_loop_header_dominates_body_and_latch(self):
        pb = ProgramBuilder("p")
        pb.array("a", 4)
        with pb.function("main") as fb:
            with fb.loop("i", 0, 4) as i:
                fb.store("a", i, i)
        ir = lower_program(pb.build())
        fn = ir.function("main")
        info = next(iter(fn.loops.values()))
        dom = compute_dominators(fn)
        assert dominates(dom, info.header, info.body_entry)
        assert dominates(dom, info.header, info.exit)

    def test_branch_sides_do_not_dominate_join(self):
        pb = ProgramBuilder("p")
        with pb.function("main") as fb:
            fb.assign("x", 1.0)
            with fb.if_block(fb.cmp("<", "x", 2.0)) as blk:
                fb.assign("y", 1.0)
            with blk.otherwise():
                fb.assign("y", 2.0)
            fb.assign("z", 3.0)
        ir = lower_program(pb.build())
        fn = ir.function("main")
        dom = compute_dominators(fn)
        then_block = next(b.label for b in fn.blocks if b.label.startswith("then"))
        join_block = next(b.label for b in fn.blocks if b.label.startswith("join"))
        assert not dominates(dom, then_block, join_block)

    def test_every_block_dominates_itself(self):
        ir = lower_program(build_mixed_program())
        fn = ir.function("main")
        dom = compute_dominators(fn)
        for block in fn.blocks:
            assert dominates(dom, block.label, block.label)

    def test_unreachable_block_is_dominated_only_by_itself(self):
        pb = ProgramBuilder("p")
        with pb.function("main") as fb:
            fb.assign("x", 1.0)
        fn = lower_program(pb.build()).function("main")
        fn.blocks.append(BasicBlock("dead", list(fn.blocks[0].instrs[-1:])))
        dom = compute_dominators(fn)
        assert dom["dead"] == {"dead"}
        assert dom == reference_dominators(fn)
