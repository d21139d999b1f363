"""DOT export details."""

from repro.peg.graph import EdgeKind, NodeKind, PEG, PEGNode
from repro.peg.viz import to_dot


def _peg():
    peg = PEG("viz")
    peg.add_node(PEGNode("func:main", NodeKind.FUNC, "main"))
    peg.add_node(
        PEGNode("loop:L0", NodeKind.LOOP, "main", loop_id="L0", exec_count=10)
    )
    peg.add_node(
        PEGNode("cu0", NodeKind.CU, "main", start_line=3, end_line=5)
    )
    peg.add_node(PEGNode("cu1", NodeKind.CU, "main", start_line=6, end_line=6))
    peg.add_edge("func:main", "loop:L0", EdgeKind.CHILD)
    peg.add_edge("loop:L0", "cu0", EdgeKind.CHILD)
    peg.add_edge("loop:L0", "cu1", EdgeKind.CHILD)
    dep = peg.add_edge("cu0", "cu1", EdgeKind.DEP)
    dep.dep_counts["RAW"] = 4
    dep.carried_loops.add("L0")
    return peg


class TestDot:
    def test_cu_labels_are_line_ranges(self):
        dot = to_dot(_peg())
        assert '"cu0" [label="3:5"' in dot

    def test_dep_edges_show_kind_and_carried(self):
        dot = to_dot(_peg())
        assert 'label="RAW carried"' in dot

    def test_child_edges_dashed(self):
        dot = to_dot(_peg())
        assert "style=dashed" in dot

    def test_custom_title(self):
        assert 'digraph "my title"' in to_dot(_peg(), title="my title")


class TestGraphFacts:
    def test_attributes_roundtrip(self):
        peg = _peg()
        assert peg.node("loop:L0").exec_count == 10
        assert peg.node("cu0").start_line == 3
        edges = peg.dep_edges()
        assert dict(edges[0].dep_counts) == {"RAW": 4}
        assert bool(edges[0].carried_loops) is True
        assert '"cu0" -> "cu1" [label="RAW carried"' in to_dot(peg)

    def test_degree_queries_work(self):
        peg = _peg()
        assert len(peg.out_edges("loop:L0")) == 2
        assert to_dot(peg).count('"loop:L0" -> ') == 2
