"""Core graph model: validation, degrees, testable sets, consistency."""

import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CYCLE_PAIRS,
    count_in_degrees,
    cycle_syndrome,
    iter_subsets,
    random_digraph,
    tester_masks,
)
from diagkit.errors import GraphError, SyndromeError
from diagkit.graph import (
    DiagnosticGraph,
    Edge,
    EdgeKind,
    Node,
    Syndrome,
    min_in_degree,
    pmc_compatible,
    testable_set,
)
from diagkit.jsonio import dump_json, graph_to_dict
from diagkit.simulator import scenario
from diagkit.temporal import Interval, TemporalTemplate, expand, restrict
from test_runtime_path import gapped_base, random_expansion


def complete_digraph(n: int) -> DiagnosticGraph:
    nodes = [Node(i) for i in range(1, n + 1)]
    edges = [
        Edge(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j
    ]
    return DiagnosticGraph.build(nodes, edges)


class TestValidate:
    def test_five_cycle_is_clean(self, five_cycle):
        assert DiagnosticGraph(five_cycle.nodes, five_cycle.edges) == five_cycle

    def test_self_loop(self):
        with pytest.raises(GraphError) as raised:
            DiagnosticGraph((Node(1), Node(2)), (Edge(1, 1),))
        assert str(raised.value) == "self-loop: edge (1, 1)"

    def test_dangling_endpoint(self):
        nodes = tuple(Node(i) for i in range(1, 6))
        with pytest.raises(GraphError) as raised:
            DiagnosticGraph(nodes, (Edge(1, 9),))
        assert str(raised.value) == (
            "dangling endpoint: edge (1, 9) references undeclared node 9"
        )

    def test_duplicate_edge(self):
        with pytest.raises(GraphError) as raised:
            DiagnosticGraph((Node(1), Node(2)), (Edge(1, 2), Edge(1, 2)))
        assert str(raised.value) == "duplicate edge: (1, 2)"

    def test_duplicate_node_id(self):
        with pytest.raises(GraphError) as raised:
            DiagnosticGraph((Node(1), Node(1, label="again")), ())
        assert str(raised.value) == "duplicate node id: 1"

    def test_build_raises_on_violations(self):
        with pytest.raises(GraphError, match="self-loop"):
            DiagnosticGraph.build([Node(1)], [Edge(1, 1)])

    def test_operations_reject_invalid_graphs(self):
        # No invalid graph exists to pass to an operation: building one raises,
        # naming every violation in node, then edge order.
        with pytest.raises(GraphError) as raised:
            min_in_degree(
                DiagnosticGraph(
                    (Node(2), Node(1), Node(2)), (Edge(2, 2), Edge(1, 3), Edge(1, 3))
                )
            )
        dangling = "dangling endpoint: edge (1, 3) references undeclared node 3"
        assert str(raised.value) == "; ".join([
            "duplicate node id: 2",
            dangling,
            "duplicate edge: (1, 3)",
            dangling,
            "self-loop: edge (2, 2)",
        ])


class TestEdgesSortedOnFirstRead:
    """A graph checks its edges when it is built, in the order given, and
    sorts them by (tester, testee) only when ``edges`` is first read."""

    def test_shuffled_build_equals_sorted_build(self):
        rng = random.Random(61)
        kinds = list(EdgeKind)
        for _ in range(60):
            ids = sorted(rng.sample(range(30), rng.randint(1, 9)))
            nodes = [Node(nid, f"m{nid}") for nid in ids]
            p = rng.random()
            edges = [
                Edge(i, j, rng.choice(kinds))
                for i in ids
                for j in ids
                if i != j and rng.random() < p
            ]
            shuffled = edges[:]
            rng.shuffle(shuffled)
            rng.shuffle(nodes)
            built = DiagnosticGraph(nodes, shuffled)
            sorted_build = DiagnosticGraph(sorted(nodes, key=lambda n: n.id), edges)
            assert "edges" not in vars(built)
            assert built.fingerprint == sorted_build.fingerprint
            assert built.out_masks == sorted_build.out_masks
            assert "edges" not in vars(built)
            assert built == sorted_build and hash(built) == hash(sorted_build)
            assert built.edges == tuple(edges)
            assert repr(built) == repr(sorted_build)
            assert dump_json(graph_to_dict(built)) == dump_json(
                graph_to_dict(sorted_build)
            )
            again = pickle.loads(pickle.dumps(DiagnosticGraph(nodes, shuffled)))
            assert again == sorted_build and repr(again) == repr(sorted_build)
            assert again.fingerprint == sorted_build.fingerprint

    def test_a_generator_of_edges_builds(self, five_cycle):
        edges = list(five_cycle.edges)
        random.Random(5).shuffle(edges)
        built = DiagnosticGraph(five_cycle.nodes, (edge for edge in edges))
        assert built == five_cycle and built.edges == five_cycle.edges

    # Each violation among shuffled valid edges, and its message, which
    # names the edges in sorted order whatever the order given.
    VIOLATIONS = [
        ([1, 2, 3, 4], [Edge(3, 3)], ["self-loop: edge (3, 3)"]),
        ([1, 2, 3, 4], [Edge(2, 4)], ["duplicate edge: (2, 4)"]),
        (
            [1, 2, 3, 4],
            [Edge(4, 9)],
            ["dangling endpoint: edge (4, 9) references undeclared node 9"],
        ),
        ([1, 2, 2, 3, 4], [], ["duplicate node id: 2"]),
        (
            [1, 2, 2, 3, 4],
            [Edge(3, 3), Edge(2, 4), Edge(4, 9)],
            [
                "duplicate node id: 2",
                "duplicate edge: (2, 4)",
                "self-loop: edge (3, 3)",
                "dangling endpoint: edge (4, 9) references undeclared node 9",
            ],
        ),
    ]

    @pytest.mark.parametrize("ids, bad, messages", VIOLATIONS)
    def test_violation_messages_do_not_depend_on_edge_order(self, ids, bad, messages):
        valid = [Edge(1, 2), Edge(2, 3), Edge(2, 4), Edge(3, 1), Edge(4, 1)]
        rng = random.Random(len(messages))
        for _ in range(10):
            edges = valid + bad
            rng.shuffle(edges)
            nodes = [Node(nid) for nid in ids]
            rng.shuffle(nodes)
            with pytest.raises(GraphError) as raised:
                DiagnosticGraph(nodes, edges)
            assert str(raised.value) == "; ".join(messages)


class TestNodeAndEdgeInvariants:
    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            Node(-1)

    def test_non_positive_frequency_rejected(self):
        with pytest.raises(ValueError):
            Node(1, frequency_hz=0)

    def test_frequency_normalized_to_fraction(self):
        from fractions import Fraction

        assert Node(1, frequency_hz=0.02).frequency_hz == Fraction(1, 50)


class TestMinInDegree:
    def test_five_cycle(self, five_cycle):
        assert min_in_degree(five_cycle) == (1, frozenset({1, 2, 3, 4, 5}))

    def test_localization(self, localization):
        value, attaining = min_in_degree(localization)
        assert value == 2
        assert 6 in attaining

    def test_complete_digraph(self):
        assert min_in_degree(complete_digraph(3)) == (2, frozenset({1, 2, 3}))

    def test_empty_graph(self):
        with pytest.raises(GraphError, match="empty graph"):
            min_in_degree(DiagnosticGraph((), ()))

    def test_in_degrees_count_the_testers_of_each_node(self):
        rng = random.Random(53)
        graphs = [
            expand(
                scenario("localization").graph,
                100,
                Interval(0, 1),
                TemporalTemplate(offsets=frozenset({1, 2}), bidirectional=True),
            ).flat_graph
        ]
        for _ in range(60):
            graphs.append(random_digraph(rng, rng.randint(0, 9), rng.random()))
            graphs.append(gapped_base(rng, rng.randint(1, 7), rng.random()))
            graphs.append(random_expansion(rng, rng.randint(1, 4), 4).flat_graph)
        assert graphs[0].n == 1_111
        for graph in graphs:
            want = [mask.bit_count() for mask in tester_masks(graph)]
            assert list(graph.in_degrees) == want == count_in_degrees(graph)

    def test_flat_in_degrees_follow_the_template(self):
        # Flat graphs count their in-degrees from the template, not from
        # their rows: every template shape, offsets reaching past the last
        # pane, restrictions to an inner run and to no pane at all.
        rng = random.Random(67)
        seen = {
            (bidirectional, identity): 0
            for bidirectional in (False, True)
            for identity in (False, True)
        }
        seen.update(beyond=0, restricted=0, empty=0)
        for _ in range(200):
            base = gapped_base(rng, rng.randint(1, 5), rng.random())
            template = TemporalTemplate(
                offsets=frozenset(rng.sample(range(1, 7), rng.randint(1, 3))),
                bidirectional=rng.random() < 0.5,
                base_identity_only=rng.random() < 0.5,
            )
            panes = rng.randint(1, 5)
            temporal = expand(base, 10, Interval(0, Fraction(panes - 1, 10)), template)
            views = [temporal]
            if panes > 2:
                lo = rng.randrange(1, panes - 1)
                hi = rng.randrange(lo, panes - 1)
                views.append(
                    restrict(temporal, Interval(Fraction(lo, 10), Fraction(hi, 10)))
                )
            if panes > 1:  # strictly between the first two pane times
                gap = Interval(Fraction(1, 30), Fraction(2, 30))
                views.append(restrict(temporal, gap))
            for view in views:
                flat = view.flat_graph
                assert list(flat.in_degrees) == count_in_degrees(flat)
                seen[template.bidirectional, template.base_identity_only] += 1
                seen["beyond"] += max(template.offsets) >= len(view.panes) > 0
                seen["restricted"] += view is not temporal and bool(view.panes)
                seen["empty"] += not view.panes
        assert all(seen.values()), seen


class TestTestableSet:
    def test_localization_pinned_subset(self, localization):
        assert testable_set(localization, {1, 2, 3, 4, 5, 8, 9, 10}) == frozenset({11})

    def test_all_nodes_yields_empty(self, five_cycle):
        assert testable_set(five_cycle, {1, 2, 3, 4, 5}) == frozenset()

    def test_five_cycle_singleton(self, five_cycle):
        assert testable_set(five_cycle, {1}) == frozenset({2})

    def test_unknown_ids_rejected(self, five_cycle):
        with pytest.raises(ValueError, match="unknown node ids"):
            testable_set(five_cycle, {1, 42})

    def test_disjoint_from_input(self, five_cycle):
        rng = random.Random(5)
        for _ in range(50):
            g = random_digraph(rng, rng.randint(1, 7), rng.random())
            members = {i for i in g.node_ids if rng.random() < 0.5}
            assert not testable_set(g, members) & members


class TestConsistentFaultSet:
    """A fault set is consistent with a syndrome when every tester outside
    it reports the truth: :func:`pmc_compatible`."""

    def test_single_fault_example(self, five_cycle):
        assert pmc_compatible(five_cycle, cycle_syndrome(0, 0, 0, 0, 1), {1})

    def test_uncovered_failure(self, five_cycle):
        # (5, 1) failed with both endpoints outside the set.
        assert not pmc_compatible(five_cycle, cycle_syndrome(0, 0, 0, 0, 1), set())

    def test_two_fault_example_matches_brute_force(self, five_cycle):
        syndrome = cycle_syndrome(0, 1, 0, 0, 1)
        members = frozenset({1, 3})
        # brute-force re-check: each test run from outside the set fails
        # exactly when its testee is in the set
        assert all(
            syndrome.value(a, b) == (b in members)
            for a, b in CYCLE_PAIRS
            if a not in members
        )
        assert pmc_compatible(five_cycle, syndrome, members)

    def test_partial_syndrome_rejected(self, five_cycle):
        partial = Syndrome({(1, 2): 0})
        with pytest.raises(SyndromeError, match="every edge exactly once"):
            pmc_compatible(five_cycle, partial, set())


class TestPmcCompatible:
    def test_single_fault(self, five_cycle):
        assert pmc_compatible(five_cycle, cycle_syndrome(0, 0, 0, 0, 1), {1})

    def test_forced_outcome_contradiction(self, five_cycle):
        # a fault-free tester of node 2 would have reported the failure
        assert not pmc_compatible(five_cycle, cycle_syndrome(0, 0, 0, 0, 1), {2})

    def test_two_faults_with_free_outcomes(self, five_cycle):
        assert pmc_compatible(five_cycle, cycle_syndrome(0, 1, 0, 0, 1), {1, 2})


@st.composite
def graph_syndrome_faults(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    ids = list(range(1, n + 1))
    pairs = [(i, j) for i in ids for j in ids if i != j]
    chosen = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    graph = DiagnosticGraph(
        tuple(Node(i) for i in ids), tuple(Edge(*pair) for pair in chosen)
    )
    syndrome = Syndrome(
        {pair: draw(st.integers(min_value=0, max_value=1)) for pair in chosen}
    )
    faults = frozenset(draw(st.sets(st.sampled_from(ids))))
    return graph, syndrome, faults


class TestModelProperties:
    @given(graph_syndrome_faults())
    @settings(max_examples=200, deadline=None)
    def test_strict_compatibility_implies_consistency(self, case):
        # A compatible fault set explains every failed test: each has an
        # endpoint in the set.
        graph, syndrome, faults = case
        if pmc_compatible(graph, syndrome, faults):
            assert all(
                tester in faults or testee in faults
                for (tester, testee), value in syndrome.outcomes.items()
                if value
            )

    @given(graph_syndrome_faults())
    @settings(max_examples=200, deadline=None)
    def test_empty_fault_set_iff_all_pass(self, case):
        graph, syndrome, _ = case
        all_pass = all(value == 0 for value in syndrome.outcomes.values())
        assert pmc_compatible(graph, syndrome, frozenset()) == all_pass


class TestSyndrome:
    def test_values_restricted_to_bits(self):
        with pytest.raises(SyndromeError, match="0 or 1"):
            Syndrome({(1, 2): 2})

    def test_missing_edge_lookup(self):
        with pytest.raises(SyndromeError, match="no outcome recorded"):
            Syndrome({}).value(1, 2)

    def test_all_clear(self, five_cycle):
        syndrome = Syndrome.all_clear(five_cycle)
        syndrome.require_total(five_cycle)
        assert set(syndrome.outcomes.values()) == {0}

    def test_extra_edges_rejected(self, five_cycle):
        syndrome = Syndrome({**Syndrome.all_clear(five_cycle).outcomes, (1, 3): 0})
        with pytest.raises(SyndromeError, match="unknown edges"):
            syndrome.require_total(five_cycle)


def test_iter_subsets_order():
    got = list(iter_subsets([3, 1, 2], 2))
    assert got == [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]


def test_graph_equality_is_structural():
    a = DiagnosticGraph((Node(2), Node(1)), (Edge(1, 2, EdgeKind.TEMPORAL),))
    b = DiagnosticGraph((Node(1), Node(2)), (Edge(1, 2, EdgeKind.TEMPORAL),))
    assert a == b
