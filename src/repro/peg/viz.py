"""PEG export: Graphviz DOT text (Fig. 5 rendering)."""

from __future__ import annotations

from typing import Optional

from repro.peg.graph import EdgeKind, NodeKind, PEG

_NODE_STYLE = {
    NodeKind.FUNC: ("box", "lightblue"),
    NodeKind.LOOP: ("ellipse", "lightyellow"),
    NodeKind.CU: ("ellipse", "white"),
}


def to_dot(peg: PEG, title: Optional[str] = None) -> str:
    """Render ``peg`` as Graphviz DOT (CUs as line-range nodes like Fig. 5)."""
    lines = [f'digraph "{title or peg.name}" {{', "  rankdir=TB;"]
    for node in peg.nodes.values():
        shape, fill = _NODE_STYLE[node.kind]
        if node.kind is NodeKind.CU:
            label = f"{node.start_line}:{node.end_line}"
        elif node.kind is NodeKind.LOOP:
            label = f"loop {node.loop_id}"
        else:
            label = f"func {node.function}"
        lines.append(
            f'  "{node.node_id}" [label="{label}", shape={shape}, '
            f'style=filled, fillcolor={fill}];'
        )
    for edge in peg.edges:
        if edge.kind is EdgeKind.CHILD:
            attrs = "style=dashed, color=gray"
        else:
            kinds = ",".join(sorted(edge.dep_counts))
            carried = " carried" if edge.carried_loops else ""
            attrs = f'label="{kinds}{carried}", color=black'
        lines.append(f'  "{edge.src}" -> "{edge.dst}" [{attrs}];')
    lines.append("}")
    return "\n".join(lines)
