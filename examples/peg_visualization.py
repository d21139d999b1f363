#!/usr/bin/env python3
"""Figure 5 as a runnable demo: build and export a benchmark app's PEG.

Builds the CG application from the suite, profiles one of its programs,
constructs the full Program Execution Graph, and writes Graphviz DOT files
for the whole PEG and for one loop's classification sub-PEG.

Run:  python examples/peg_visualization.py
Then: dot -Tpng peg_full.dot -o peg_full.png     (if graphviz is installed)
"""

from pathlib import Path

from repro.analysis import attach_node_features
from repro.benchsuite import build_app
from repro.ir.lowering import lower_program
from repro.ir.verify import verify_program
from repro.peg import all_loop_subpegs, build_peg, to_dot
from repro.profiler import profile_program


def main() -> None:
    spec = build_app("CG")
    program = spec.programs[0]
    print(f"application CG, program {program.name!r}")

    ir = lower_program(program)
    verify_program(ir)
    report = profile_program(ir)
    peg = build_peg(ir, report)
    attach_node_features(peg, ir, report)
    print(f"PEG: {peg.summary()}")

    out_dir = Path(".")
    full_dot = out_dir / "peg_full.dot"
    full_dot.write_text(to_dot(peg, title=f"PEG of {program.name}"))
    print(f"wrote {full_dot} ({len(peg)} nodes, {len(peg.edges)} edges)")

    subs = all_loop_subpegs(peg)
    for loop_id, sub in list(subs.items())[:1]:
        label = spec.loops[loop_id].label if loop_id in spec.loops else "?"
        sub_dot = out_dir / "peg_subloop.dot"
        sub_dot.write_text(to_dot(sub, title=f"sub-PEG of {loop_id}"))
        print(
            f"wrote {sub_dot}: loop {loop_id.split(':')[-1]} "
            f"({len(sub)} nodes, authored label={label})"
        )


if __name__ == "__main__":
    main()
