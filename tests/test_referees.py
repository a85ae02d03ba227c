"""The brute-force referees against literal readings of their definitions.

``all_consistent_fault_sets`` and ``oracle_is_t_diagnosable`` test each
candidate on bitmasks.  The loops below spell each definition out over node
ids and edges instead, so the referees stay held to the model itself.  The
oracle decides its verdict from unions of fault sets; on graphs past the
literal loops' reach its verdict is held to its earlier pair loop
(``conftest.pair_loop_oracle``).  The pair it names is split from a union,
not the pair loop's first, so it is held to what a counterexample must be
(:func:`check_counterexample`).
"""

import random

import pytest

from conftest import (
    clustered_digraph,
    iter_subsets,
    pair_loop_oracle,
    random_digraph,
    scan_fault_sets,
)
from diagkit.diagnosability import (
    common_syndrome,
    oracle_is_t_diagnosable,
    search_ceiling,
)
from diagkit.errors import SizeCapError, SyndromeError
from diagkit.graph import DiagnosticGraph, Edge, Node, Syndrome, pmc_compatible
from diagkit.identification import all_consistent_fault_sets
from diagkit.simulator import adversarial, bernoulli, generate_syndrome


def literal_compatible(graph, syndrome, fault_set):
    """Every check run from outside the set reports 1 exactly on members."""
    return all(
        syndrome.value(edge.tester, edge.testee) == int(edge.testee in fault_set)
        for edge in graph.edges
        if edge.tester not in fault_set
    )


def literal_share_a_syndrome(graph, a, b):
    """Some syndrome fits both sets unless they force one edge both ways.

    An edge run from outside both sets is forced to membership of its testee
    in each; every other edge is forced by at most one set.
    """
    return all(
        (edge.testee in a) == (edge.testee in b)
        for edge in graph.edges
        if edge.tester not in a and edge.tester not in b
    )


def forced_outcomes(graph, a, b):
    """What each set forces on the edges run from outside it; unforced are 0."""
    outcomes = {}
    for edge in graph.edges:
        if edge.tester not in b:
            outcomes[edge.pair] = int(edge.testee in b)
        elif edge.tester not in a:
            outcomes[edge.pair] = int(edge.testee in a)
        else:
            outcomes[edge.pair] = 0
    return Syndrome(outcomes)


def check_counterexample(graph, t, pair):
    """The oracle's named pair: two distinct sets of at most t members, the
    smaller first, that the returned syndrome fits, both by the mask
    predicate and literally; it is the syndrome both sets force."""
    a, b = pair.fault_set_a, pair.fault_set_b
    assert a != b and len(a) <= len(b) <= t
    for members in (a, b):
        assert pmc_compatible(graph, pair.syndrome, members)
        assert literal_compatible(graph, pair.syndrome, members)
    assert pair.syndrome == common_syndrome(graph, a, b)
    assert pair.syndrome == forced_outcomes(graph, a, b)


def spread_digraph(rng, n, p):
    """A ``random_digraph`` on n ids spread over 1..5n instead of 1..n."""
    ids = sorted(rng.sample(range(1, 5 * n + 1), n))
    dense = random_digraph(rng, n, p)
    return DiagnosticGraph.build(
        [Node(nid) for nid in ids],
        [Edge(ids[edge.tester - 1], ids[edge.testee - 1]) for edge in dense.edges],
    )


def policy_syndromes(rng, graph):
    """(policy, syndrome): uniform outcomes; up to four faults whose own
    tests fail with probability 1/2; and, when at most five outcomes are
    free, the adversarial choice for up to two faults."""
    yield "uniform", Syndrome({edge.pair: rng.randint(0, 1) for edge in graph.edges})
    faults = rng.sample(graph.node_ids, rng.randint(0, min(4, graph.n)))
    yield "bernoulli", generate_syndrome(
        graph, faults, bernoulli(0.5), rng.getrandbits(32)
    )
    few = rng.sample(graph.node_ids, rng.randint(0, min(2, graph.n)))
    if sum(edge.tester in few for edge in graph.edges) <= 5:
        yield "adversarial", generate_syndrome(graph, few, adversarial())


def syndromes_for(rng, graph):
    """A uniform random syndrome, one produced by random faults, all-pass."""
    yield Syndrome({edge.pair: rng.randint(0, 1) for edge in graph.edges})
    faults = frozenset(
        rng.sample(graph.node_ids, rng.randint(0, min(3, graph.n)))
    )
    yield Syndrome(
        {
            edge.pair: rng.randint(0, 1)
            if edge.tester in faults
            else int(edge.testee in faults)
            for edge in graph.edges
        }
    )
    yield Syndrome.all_clear(graph)


class TestConsistentFaultSetsReferee:
    def test_matches_per_subset_filters_in_order(self):
        """Random graphs of up to 9 nodes, on ids 1..n and on ids spread
        apart, the graphs without nodes or with one, at budgets from 0 to
        n + 2 and at 10**9, which costs what n does; and graphs of 10 to 14
        nodes at budgets up to 3."""
        rng = random.Random(4242)
        graphs = [random_digraph(rng, rng.randint(1, 9), rng.random()) for _ in range(120)]
        graphs += [spread_digraph(rng, rng.randint(1, 9), rng.random()) for _ in range(40)]
        empty = DiagnosticGraph.build([], [])
        graphs += [empty, random_digraph(rng, 1, 0.0)]
        for graph in graphs:
            for syndrome in syndromes_for(rng, graph):
                subsets = [frozenset(c) for c in iter_subsets(graph.node_ids, graph.n)]
                literal = [f for f in subsets if literal_compatible(graph, syndrome, f)]
                filtered = [f for f in subsets if pmc_compatible(graph, syndrome, f)]
                assert filtered == literal
                for t in (0, 1, 2, rng.randint(0, graph.n + 2), 10**9):
                    expected = [f for f in literal if len(f) <= t]
                    assert all_consistent_fault_sets(graph, syndrome, t) == expected
        for t in (0, 1, 10**9):
            assert all_consistent_fault_sets(empty, Syndrome({}), t) == [frozenset()]
        for n in (10, 11, 12, 13, 14):
            for graph in (
                random_digraph(rng, n, rng.uniform(0.1, 0.5)),
                spread_digraph(rng, n, rng.uniform(0.1, 0.5)),
            ):
                for syndrome in syndromes_for(rng, graph):
                    for t in range(4):
                        subsets = [frozenset(c) for c in iter_subsets(graph.node_ids, t)]
                        literal = [
                            f for f in subsets if literal_compatible(graph, syndrome, f)
                        ]
                        assert all_consistent_fault_sets(graph, syndrome, t) == literal

    def test_bit_sliced_scan_matches_the_per_subset_scan(self):
        """Every budget from 0 to n + 1 on 1,000 graphs of up to 12 nodes,
        and up to 14 on a few graphs of 13 and 14 nodes, under uniform,
        Bernoulli and adversarial syndromes."""
        rng = random.Random(2525)
        adversarial_seen = 0
        cases = []
        for index in range(1000):
            n = rng.randint(1, 12)
            graph = (
                clustered_digraph(rng, n) if index % 2
                else random_digraph(rng, n, rng.random())
            )
            cases.append((graph, range(n + 2)))
        for n in (13, 13, 14, 14):
            cases.append((random_digraph(rng, n, rng.uniform(0.1, 0.9)), range(15)))
        for graph, budgets in cases:
            for policy, syndrome in policy_syndromes(rng, graph):
                adversarial_seen += policy == "adversarial"
                scan = scan_fault_sets(graph, syndrome, budgets[-1])
                for t in budgets:
                    expected = [f for f in scan if len(f) <= t]
                    assert all_consistent_fault_sets(graph, syndrome, t) == expected
        assert adversarial_seen > 300

    def test_strict_compatibility_is_consistency_plus_truthful_passes(self):
        rng = random.Random(99)
        for _ in range(60):
            graph = random_digraph(rng, rng.randint(1, 7), rng.random())
            for syndrome in syndromes_for(rng, graph):
                for combo in iter_subsets(graph.node_ids, 3):
                    members = frozenset(combo)
                    # Every failed test has an endpoint in the set ...
                    covered = all(
                        edge.tester in members or edge.testee in members
                        for edge in graph.edges
                        if syndrome.value(*edge.pair)
                    )
                    # ... and every test run from outside it on a member failed.
                    truthful = all(
                        syndrome.value(*edge.pair)
                        for edge in graph.edges
                        if edge.tester not in members and edge.testee in members
                    )
                    compatible = pmc_compatible(graph, syndrome, members)
                    assert compatible == (covered and truthful)


class TestOracleReferee:
    def test_matches_ordered_pair_loop(self):
        rng = random.Random(8080)
        refuted = 0
        for _ in range(200):
            graph = random_digraph(rng, rng.randint(1, 8), rng.random())
            # Every t up to the ceiling, plus one above it, where most
            # graphs are refuted.
            for t in range(min(search_ceiling(graph) + 2, graph.n)):
                subsets = [frozenset(c) for c in iter_subsets(graph.node_ids, t)]
                collides = any(
                    literal_share_a_syndrome(graph, a, b)
                    for index, a in enumerate(subsets)
                    for b in subsets[index + 1 :]
                )
                result = oracle_is_t_diagnosable(graph, t)
                assert result.t == t
                assert result.diagnosable == (not collides)
                if not collides:
                    assert result.counterexample is None
                    continue
                refuted += 1
                check_counterexample(graph, t, result.counterexample)
        assert refuted > 100

    def test_union_scan_matches_the_pair_loop_from_nine_to_twelve_nodes(self):
        rng = random.Random(2020)
        refuted = decided_by_scan = 0
        for index in range(40):
            n = rng.randint(9, 12)
            graph = (
                clustered_digraph(rng, n) if index % 2
                else random_digraph(rng, n, rng.random())
            )
            for t in range(min(search_ceiling(graph) + 2, graph.n)):
                expected = pair_loop_oracle(graph, t)
                result = oracle_is_t_diagnosable(graph, t)
                assert result.t == t
                assert result.diagnosable == (expected is None)
                if expected is None:
                    assert result.counterexample is None
                    decided_by_scan += t > 0
                    continue
                refuted += 1
                check_counterexample(graph, t, result.counterexample)
        assert refuted > 40 and decided_by_scan > 70

    def test_levels_asked_in_either_order_agree(self):
        """The oracle keeps one scan's result per graph: asking the levels
        from the top down gives the verdicts and pairs of asking them from
        the bottom up, each on a fresh copy of the graph."""
        rng = random.Random(4040)
        for index in range(60):
            n = rng.randint(2, 10)
            up = (
                clustered_digraph(rng, n) if index % 2
                else random_digraph(rng, n, rng.random())
            )
            down = DiagnosticGraph(up.nodes, up.edges)
            ascending = [oracle_is_t_diagnosable(up, t) for t in range(n)]
            descending = [oracle_is_t_diagnosable(down, t) for t in reversed(range(n))]
            assert ascending == descending[::-1]


class TestRefereeErrors:
    def test_partial_or_foreign_syndrome(self, five_cycle):
        with pytest.raises(SyndromeError):
            all_consistent_fault_sets(five_cycle, Syndrome({(1, 2): 0}), 1)
        foreign = dict(Syndrome.all_clear(five_cycle).outcomes)
        foreign[(2, 1)] = 0
        with pytest.raises(SyndromeError):
            all_consistent_fault_sets(five_cycle, Syndrome(foreign), 1)
        with pytest.raises(SyndromeError):
            pmc_compatible(five_cycle, Syndrome({(1, 2): 0}), set())

    def test_unknown_ids(self, five_cycle):
        clear = Syndrome.all_clear(five_cycle)
        with pytest.raises(ValueError, match="unknown node ids"):
            pmc_compatible(five_cycle, clear, {1, 9})
        with pytest.raises(ValueError, match="unknown node ids"):
            common_syndrome(five_cycle, {1}, {9})

    def test_bad_budgets(self, five_cycle):
        clear = Syndrome.all_clear(five_cycle)
        for t in (-1, True, 1.0):
            with pytest.raises(ValueError):
                all_consistent_fault_sets(five_cycle, clear, t)
            with pytest.raises(ValueError):
                oracle_is_t_diagnosable(five_cycle, t)
        with pytest.raises(ValueError):
            oracle_is_t_diagnosable(five_cycle, 5)

    def test_size_caps(self, five_cycle):
        big = DiagnosticGraph.build([Node(i) for i in range(15)], [])
        with pytest.raises(SizeCapError):
            all_consistent_fault_sets(big, Syndrome({}), 1)
        with pytest.raises(SizeCapError):
            oracle_is_t_diagnosable(big, 1)
        clear = Syndrome.all_clear(five_cycle)
        with pytest.raises(SizeCapError):
            all_consistent_fault_sets(five_cycle, clear, 1, cap=4)
        with pytest.raises(SizeCapError):
            oracle_is_t_diagnosable(five_cycle, 1, cap=4)
        assert all_consistent_fault_sets(five_cycle, clear, 1, cap=5) == [frozenset()]
        assert oracle_is_t_diagnosable(five_cycle, 1, cap=5).diagnosable
