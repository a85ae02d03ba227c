"""Temporal expansion, restriction, frequency tiers, profiles, audits."""

import random
from fractions import Fraction

import pytest

from conftest import random_digraph
from diagkit.diagnosability import max_diagnosability
from diagkit.errors import GraphError
from diagkit.graph import DiagnosticGraph, Edge, Node
from diagkit.identification import NodeStatus
from diagkit.simulator import ALWAYS_PASS, generate_syndrome
from diagkit.temporal import (
    DEFAULT_TEMPLATE,
    Interval,
    TemporalTemplate,
    audit,
    diagnosability_profile,
    expand,
    frequency_subgraph,
    restrict,
)

DENSE_TEMPLATE = TemporalTemplate(offsets=frozenset({1, 2}), bidirectional=True)


def flat_pairs_as_base(graph):
    """Edge pairs of the flat view, relabeled back to (pane, base id)."""
    return {
        (graph.vertex_of(a), graph.vertex_of(b))
        for a, b in (
            (graph.flat_id(e[0]), graph.flat_id(e[1])) for e in graph.edges
        )
    }


class TestInterval:
    def test_bounds_are_exact(self):
        interval = Interval(0, 0.02)
        assert interval.b == Fraction(1, 50)

    def test_rejects_reversed_bounds(self):
        with pytest.raises(ValueError, match="out of order"):
            Interval(1, 0)

    def test_containment(self):
        assert Interval(0, 2).contains(Interval(1, 2))
        assert not Interval(0, 2).contains(Interval(1, 3))


class TestTemplate:
    def test_rejects_empty_offsets(self):
        with pytest.raises(ValueError):
            TemporalTemplate(offsets=frozenset())

    def test_rejects_non_positive_offsets(self):
        with pytest.raises(ValueError):
            TemporalTemplate(offsets=frozenset({0, 1}))

    @pytest.mark.parametrize("offsets", [{1.5, True}, {1.5}, {True}, {"2"}, {None}])
    def test_rejects_offsets_that_are_not_integers(self, offsets):
        with pytest.raises(ValueError, match="offsets must be integers"):
            TemporalTemplate(offsets=frozenset(offsets))

    def test_integral_offsets_read_as_integers(self):
        template = TemporalTemplate(offsets=[2.0, 1])
        assert template.offsets == frozenset({1, 2})
        assert all(type(offset) is int for offset in template.offsets)


class TestExpand:
    def test_single_sample_is_isomorphic_to_base(self, pane_100hz):
        g = expand(pane_100hz, 100, Interval(0, 0))
        assert g.panes == (0,)
        relabeled = {
            (a[1], b[1]) for a, b in g.edges
        }
        assert relabeled == {e.pair for e in pane_100hz.edges}
        assert g.flat_graph.n == pane_100hz.n

    def test_three_panes_at_100hz(self, pane_100hz):
        g = expand(pane_100hz, 100, Interval(0, 0.02))
        assert g.panes == (0, 1, 2)
        assert g.flat_graph.n == 9

    def test_default_template_edge_count(self, five_cycle):
        m = 3
        g = expand(five_cycle, 1, Interval(0, m))
        pane_edges = sum(1 for (a, b) in g.edges if a[0] == b[0])
        cross_edges = sum(1 for (a, b) in g.edges if a[0] != b[0])
        assert pane_edges == (m + 1) * len(five_cycle.edges)
        assert cross_edges == m * five_cycle.n

    def test_dense_template_raises_diagnosability(self, pane_100hz):
        g = expand(pane_100hz, 100, Interval(0, 0.02), DENSE_TEMPLATE)
        assert len(g.edges) == 33
        assert max_diagnosability(g.flat_graph).t_max == 3

    def test_unaligned_interval_still_finds_samples(self, pane_100hz):
        g = expand(pane_100hz, 100, Interval("0.001", "0.025"))
        assert g.panes == (1, 2)

    def test_empty_expansion_rejected(self, pane_100hz):
        with pytest.raises(GraphError, match="empty expansion"):
            expand(pane_100hz, 100, Interval("0.001", "0.009"))

    def test_cross_module_template(self):
        base = DiagnosticGraph.build([Node(1), Node(2)], [Edge(1, 2)])
        template = TemporalTemplate(offsets=frozenset({1}), base_identity_only=False)
        g = expand(base, 1, Interval(0, 1), template)
        cross = {(a, b) for a, b in g.edges if a[0] != b[0]}
        assert cross == {
            ((0, 1), (1, 1)),
            ((0, 1), (1, 2)),
            ((0, 2), (1, 1)),
            ((0, 2), (1, 2)),
        }

    def test_flat_graph_kinds(self, pane_100hz):
        from diagkit.graph import EdgeKind

        g = expand(pane_100hz, 100, Interval(0, 0.01))
        flat = g.flat_graph
        kinds = {e.kind for e in flat.edges}
        assert EdgeKind.TEMPORAL in kinds
        labels = {nd.label for nd in flat.nodes}
        assert "0:4" in labels and "1:11" in labels


class TestRestrict:
    def test_identity(self, pane_100hz):
        g = expand(pane_100hz, 100, Interval(0, 0.02), DENSE_TEMPLATE)
        assert restrict(g, g.interval) == g

    def test_functorial(self, pane_100hz):
        g = expand(pane_100hz, 100, Interval(0, 0.02), DENSE_TEMPLATE)
        inner = Interval(0, 0.01)
        innermost = Interval(0, 0)
        assert restrict(restrict(g, inner), innermost) == restrict(g, innermost)

    def test_middle_sample_is_single_base_pane(self, pane_100hz):
        g = expand(pane_100hz, 100, Interval(0, 0.02))
        middle = restrict(g, Interval(0.01, 0.01))
        assert middle.panes == (1,)
        relabeled = {(a[1], b[1]) for a, b in middle.edges}
        assert relabeled == {e.pair for e in pane_100hz.edges}

    def test_rejects_escaping_interval(self, pane_100hz):
        g = expand(pane_100hz, 100, Interval(0, 0.02))
        with pytest.raises(ValueError, match="not contained"):
            restrict(g, Interval(0, 0.03))

    def test_functorial_on_random_graphs(self):
        rng = random.Random(61)
        for _ in range(60):
            base = random_digraph(rng, rng.randint(1, 5), rng.random())
            hz = rng.choice([1, 2, 10])
            top = rng.randint(0, 4)
            template = TemporalTemplate(
                offsets=frozenset(rng.sample([1, 2, 3], rng.randint(1, 2))),
                bidirectional=rng.random() < 0.5,
            )
            g = expand(base, hz, Interval(0, Fraction(top, hz)), template)
            assert restrict(g, g.interval) == g
            lo = rng.randint(0, top)
            hi = rng.randint(lo, top)
            outer = Interval(Fraction(lo, hz), Fraction(hi, hz))
            lo2 = rng.randint(lo, hi)
            hi2 = rng.randint(lo2, hi)
            inner = Interval(Fraction(lo2, hz), Fraction(hi2, hz))
            assert restrict(restrict(g, outer), inner) == restrict(g, inner)


class TestFrequencySubgraph:
    def test_hundred_hz_tier(self, localization):
        sub = frequency_subgraph(localization, 100)
        assert sub.node_ids == (4, 9, 11)

    def test_one_hz_tier_is_everything(self, localization):
        assert frequency_subgraph(localization, 1) == localization

    def test_above_everything_is_empty_but_valid(self, localization):
        sub = frequency_subgraph(localization, 1000)
        assert sub.n == 0

    def test_missing_frequencies_rejected(self, five_cycle):
        with pytest.raises(GraphError, match="missing frequencies"):
            frequency_subgraph(five_cycle, 1)

    def test_tiers_nest(self, localization):
        thresholds = [1, 5, 20, 100]
        tiers = [frequency_subgraph(localization, f) for f in thresholds]
        for bigger, smaller in zip(tiers, tiers[1:]):
            assert set(smaller.node_ids) <= set(bigger.node_ids)
            assert {e.pair for e in smaller.edges} <= {e.pair for e in bigger.edges}
        assert [t.n for t in tiers] == [11, 8, 5, 3]

    def test_tiers_nest_for_arbitrary_thresholds(self, localization):
        rng = random.Random(101)
        for _ in range(40):
            f1 = Fraction(rng.randint(1, 400), rng.randint(1, 4))
            f2 = f1 + Fraction(rng.randint(0, 200), 2)
            low, high = frequency_subgraph(localization, f1), frequency_subgraph(
                localization, f2
            )
            assert set(high.node_ids) <= set(low.node_ids)
            assert {e.pair for e in high.edges} <= {e.pair for e in low.edges}


class TestProfile:
    def test_degenerate_chain(self, pane_100hz):
        profile = diagnosability_profile(
            pane_100hz, 100, DENSE_TEMPLATE, [Interval(0, 0.02)]
        )
        assert [e.t for e in profile.entries] == [3]

    def test_three_interval_chain(self, pane_100hz):
        profile = diagnosability_profile(
            pane_100hz,
            100,
            DENSE_TEMPLATE,
            [Interval(0, 0.02), Interval(0, 0.01), Interval(0, 0)],
        )
        values = [e.t for e in profile.entries]
        assert values == sorted(values, reverse=True)
        assert values[-1] == 1

    def test_edgeless_base_gives_zeros(self):
        base = DiagnosticGraph.build([Node(1), Node(2), Node(3)], [])
        profile = diagnosability_profile(
            base, 1, DEFAULT_TEMPLATE, [Interval(0, 2), Interval(0, 1), Interval(0, 0)]
        )
        assert [e.t for e in profile.entries] == [0, 0, 0]

    def test_unnested_chain_rejected(self, pane_100hz):
        with pytest.raises(ValueError, match="nested"):
            diagnosability_profile(
                pane_100hz,
                100,
                DEFAULT_TEMPLATE,
                [Interval(0, 0.01), Interval(0.01, 0.02)],
            )

    def test_entries_past_the_old_cap_are_exact(self, pane_100hz):
        """Every entry carries its exact t and nothing else; the 9-vertex
        expansion is past the size cap the profile used to take."""
        profile = diagnosability_profile(
            pane_100hz, 100, DENSE_TEMPLATE, [Interval(0, 0.02), Interval(0, 0)]
        )
        assert profile.to_json_dict() == {
            "entries": [{"interval": [0, 0.02], "t": 3}, {"interval": [0, 0], "t": 1}]
        }

    def test_non_increasing_on_random_bases(self):
        rng = random.Random(97)
        for _ in range(30):
            base = random_digraph(rng, rng.randint(1, 6), rng.uniform(0.2, 0.8))
            hz = rng.choice([1, 10])
            template = TemporalTemplate(
                offsets=frozenset(rng.sample([1, 2], rng.randint(1, 2))),
                bidirectional=rng.random() < 0.5,
            )
            chain = [
                Interval(0, Fraction(2, hz)),
                Interval(0, Fraction(1, hz)),
                Interval(0, 0),
            ]
            profile = diagnosability_profile(base, hz, template, chain)
            values = [entry.t for entry in profile.entries]
            assert values == sorted(values, reverse=True)


class TestAudit:
    def windows(self):
        return [Interval(0, 0), Interval(0, 0.01), Interval(0, 0.02)]

    def expansion(self, pane_100hz):
        return expand(pane_100hz, 100, Interval(0, 0.02), DENSE_TEMPLATE)

    def test_fault_free_everywhere(self, pane_100hz):
        g = self.expansion(pane_100hz)
        syndrome = generate_syndrome(g.flat_graph, frozenset(), ALWAYS_PASS)
        report = audit(g, syndrome, self.windows())
        for window in report.windows:
            assert not window.inconsistent
            assert all(
                status is NodeStatus.KNOWN_FAULT_FREE
                for status in window.base_statuses.values()
            )

    def test_time_constant_fault_resolves(self, pane_100hz):
        g = self.expansion(pane_100hz)
        faulty = frozenset(g.flat_id((pane, 9)) for pane in g.panes)
        syndrome = generate_syndrome(g.flat_graph, faulty, ALWAYS_PASS, seed=4)
        report = audit(g, syndrome, self.windows(), include_vertices=True)
        smallest = report.windows[0]
        assert smallest.base_statuses[9] in (
            NodeStatus.UNKNOWN,
            NodeStatus.KNOWN_FAULTY,
        )
        largest = report.windows[-1]
        assert largest.base_statuses[9] is NodeStatus.KNOWN_FAULTY
        assert largest.base_statuses[4] is NodeStatus.KNOWN_FAULT_FREE
        assert largest.base_statuses[11] is NodeStatus.KNOWN_FAULT_FREE
        # the three pane copies of the faulty module are all pinned
        assert all(
            largest.vertex_statuses[(pane, 9)] is NodeStatus.KNOWN_FAULTY
            for pane in g.panes
        )

    def test_known_statuses_never_revert(self, pane_100hz):
        g = self.expansion(pane_100hz)
        rng = random.Random(67)
        for _ in range(10):
            base_fault = rng.choice([frozenset(), frozenset({9}), frozenset({4})])
            faulty = frozenset(
                g.flat_id((pane, nid)) for pane in g.panes for nid in base_fault
            )
            syndrome = generate_syndrome(
                g.flat_graph, faulty, ALWAYS_PASS, seed=rng.randint(0, 10**6)
            )
            report = audit(g, syndrome, self.windows())
            for nid in g.base.node_ids:
                history = report.status_history(nid)
                for earlier, later in zip(history, history[1:]):
                    if earlier is not NodeStatus.UNKNOWN:
                        assert later is earlier

    def test_window_validation(self, pane_100hz):
        g = self.expansion(pane_100hz)
        syndrome = generate_syndrome(g.flat_graph, frozenset(), ALWAYS_PASS)
        with pytest.raises(ValueError, match="nested ascending"):
            audit(g, syndrome, [Interval(0, 0.02), Interval(0, 0)])
        with pytest.raises(ValueError, match="not contained"):
            audit(g, syndrome, [Interval(0, 0.05)])


class TestStructureProperties:
    def test_pane_count_and_edge_count_formula(self):
        rng = random.Random(71)
        for _ in range(100):
            base = random_digraph(rng, rng.randint(1, 6), rng.random())
            hz = rng.choice([1, 5, 100])
            m = rng.randint(0, 4)
            g = expand(base, hz, Interval(0, Fraction(m, hz)))
            assert len(g.panes) == m + 1
            pane_edges = sum(1 for (a, b) in g.edges if a[0] == b[0])
            cross_edges = sum(1 for (a, b) in g.edges if a[0] != b[0])
            assert pane_edges == (m + 1) * len(base.edges)
            assert cross_edges == m * base.n

    def test_single_pane_isomorphic_to_base(self):
        rng = random.Random(73)
        for _ in range(100):
            base = random_digraph(rng, rng.randint(1, 6), rng.random())
            anchor = rng.randint(-3, 3)
            g = expand(base, 1, Interval(anchor, anchor))
            assert len(g.panes) == 1
            relabeled = {(a[1], b[1]) for a, b in g.edges}
            assert relabeled == {e.pair for e in base.edges}
            assert [v[1] for v in g.vertices] == list(base.node_ids)
