"""The views of a temporal graph over its one edge list, the flat graph.

``flat_id`` and ``vertex_of`` are arithmetic over the pane run, a
restriction is the expansion over its sub-interval, and the DOT renderer
reads the flat graph.  The renderer is held byte for byte to a literal copy
of its earlier form over the (pane, base id) views.
"""

import random
from fractions import Fraction

import pytest

from diagkit.dot import _FAIL_ATTRS, _quote, temporal_to_dot
from diagkit.graph import DiagnosticGraph, Edge, EdgeKind, Node, Syndrome
from diagkit.simulator import scenario
from diagkit.temporal import Interval, TemporalTemplate, expand, restrict


def literal_temporal_to_dot(graph, syndrome=None, name="T"):
    if syndrome is not None:
        syndrome.require_total(graph.flat_graph)
    lines = [f"digraph {name} {{"]
    for vertex in graph.vertices:
        pane, nid = vertex
        lines.append(f"  {_quote(f'{pane}:{nid}')};")
    for (va, vb) in graph.edges:
        attrs = []
        if va[0] != vb[0]:
            attrs.append(f"label={_quote(EdgeKind.TEMPORAL.value)}")
        if syndrome is not None:
            value = syndrome.value(graph.flat_id(va), graph.flat_id(vb))
            if value == 1:
                attrs.append(_FAIL_ATTRS)
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(
            f"  {_quote(f'{va[0]}:{va[1]}')} -> {_quote(f'{vb[0]}:{vb[1]}')}{suffix};"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def random_expansion(rng):
    """Ids with gaps, every edge kind (``temporal`` included), any template."""
    ids = sorted(rng.sample(range(30), rng.randint(1, 6)))
    nodes = [Node(nid, f"m{nid}") for nid in ids]
    edges = [
        Edge(i, j, rng.choice(list(EdgeKind)))
        for i in ids
        for j in ids
        if i != j and rng.random() < 0.5
    ]
    template = TemporalTemplate(
        offsets=frozenset(rng.sample([1, 2, 3], rng.randint(1, 3))),
        bidirectional=rng.random() < 0.5,
        base_identity_only=rng.random() < 0.5,
    )
    hz = rng.choice([10, 50, 100])
    start = rng.randint(0, 5)
    interval = Interval(Fraction(start, hz), Fraction(start + rng.randint(0, 5), hz))
    return expand(DiagnosticGraph.build(nodes, edges), hz, interval, template)


def random_window(rng, graph):
    """A sub-interval holding at least one of the graph's panes."""
    lo = rng.randrange(len(graph.panes))
    hi = rng.randrange(lo, len(graph.panes))
    slack = Fraction(1, 3) / graph.frequency_hz
    a = max(graph.interval.a, graph.pane_time(graph.panes[lo]) - slack * rng.random())
    b = min(graph.interval.b, graph.pane_time(graph.panes[hi]) + slack * rng.random())
    return Interval(a, b)


@pytest.fixture
def recording():
    return expand(
        scenario("five_cycle").graph,
        100,
        Interval(Fraction(3, 100), Fraction(5, 100)),
        TemporalTemplate(offsets=frozenset({1, 2}), bidirectional=True),
    )


class TestFlatIds:
    def test_unknown_pane_raises_key_error(self, recording):
        for pane in (2, 6, -3):
            with pytest.raises(KeyError) as info:
                recording.flat_id((pane, 1))
            assert info.value.args == (pane,)

    def test_unknown_base_id_raises_key_error(self, recording):
        with pytest.raises(KeyError) as info:
            recording.flat_id((4, 6))
        assert info.value.args == (6,)

    def test_vertex_of_inverts_flat_id(self):
        rng = random.Random(11)
        for _ in range(100):
            graph = random_expansion(rng)
            for flat_id, vertex in enumerate(graph.vertices):
                assert graph.flat_id(vertex) == flat_id
                assert graph.vertex_of(graph.flat_id(vertex)) == vertex

    def test_vertex_of_rejects_ids_outside_the_graph(self, recording):
        n = recording.flat_graph.n
        assert recording.vertex_of(n - 1) == (5, 5)
        for flat_id in (-1, -n, n, n + 7):
            with pytest.raises(IndexError):
                recording.vertex_of(flat_id)


class TestRestrictionIsExpansion:
    def test_random_windows(self):
        rng = random.Random(12)
        for _ in range(150):
            graph = random_expansion(rng)
            window = random_window(rng, graph)
            sub = restrict(graph, window)
            again = expand(graph.base, graph.frequency_hz, window, graph.template)
            assert sub == again
            assert sub.flat_graph == again.flat_graph
            assert sub.panes

    def test_window_without_a_pane(self, recording):
        sub = restrict(recording, Interval(Fraction(31, 1000), Fraction(39, 1000)))
        assert sub.panes == ()
        assert sub.flat_graph.n == 0
        assert sub.flat_graph.edges == ()
        assert sub.vertices == () and sub.edges == ()
        with pytest.raises(KeyError):
            sub.flat_id((3, 1))
        with pytest.raises(IndexError):
            sub.vertex_of(0)


class TestTemporalDot:
    def test_matches_the_literal_renderer_byte_for_byte(self):
        rng = random.Random(13)
        kinds_seen = set()
        for _ in range(150):
            graph = random_expansion(rng)
            flat = graph.flat_graph
            kinds_seen.update(edge.kind for edge in graph.base.edges)
            syndrome = Syndrome({edge.pair: rng.randint(0, 1) for edge in flat.edges})
            assert temporal_to_dot(graph) == literal_temporal_to_dot(graph)
            assert temporal_to_dot(graph, syndrome, name="W") == literal_temporal_to_dot(
                graph, syndrome, name="W"
            )
        assert EdgeKind.TEMPORAL in kinds_seen

    def test_a_base_edge_of_kind_temporal_stays_unlabeled_within_its_pane(self):
        base = DiagnosticGraph.build(
            [Node(1), Node(2)], [Edge(1, 2, EdgeKind.TEMPORAL)]
        )
        graph = expand(base, 10, Interval(0, Fraction(1, 10)))
        assert graph.flat_graph.edges[0].kind is EdgeKind.TEMPORAL
        assert temporal_to_dot(graph).splitlines()[5:] == [
            '  "0:1" -> "0:2";',
            '  "0:1" -> "1:1" [label="temporal"];',
            '  "0:2" -> "1:2" [label="temporal"];',
            '  "1:1" -> "1:2";',
            "}",
        ]
