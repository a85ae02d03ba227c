"""Checker, exact maximum by minimum cut, and the brute-force oracle."""

import itertools
import random
import time
from dataclasses import replace

import pytest

from conftest import (
    clustered_digraph,
    cycle_syndrome,
    dfs_cond_iii,
    pair_loop_oracle,
    random_digraph,
    scan_cond_iii,
    scan_t_max,
    unseeded_least_cut,
)
from diagkit import diagnosability
from diagkit.diagnosability import (
    CondIIIWitness,
    CondIIWitness,
    DiagnosabilityCertificate,
    Verdict,
    _least_cut,
    _testers,
    common_syndrome,
    is_t_diagnosable,
    max_diagnosability,
    oracle_is_t_diagnosable,
    revalidate_certificate,
    search_ceiling,
)
from diagkit.errors import GraphError, SizeCapError
from diagkit.graph import (
    DiagnosticGraph,
    Edge,
    Node,
    pmc_compatible,
    testable_set,
)
from diagkit.simulator import scenario
from diagkit.temporal import Interval, TemporalTemplate, expand
from test_referees import check_counterexample


class TestIsTDiagnosable:
    def test_five_cycle_at_one(self, five_cycle):
        assert is_t_diagnosable(five_cycle, 1).diagnosable

    def test_five_cycle_at_two_fails_in_degree(self, five_cycle):
        cert = is_t_diagnosable(five_cycle, 2)
        assert not cert.diagnosable
        assert cert.failed_condition == "cond_ii"
        assert cert.witness.in_degree == 1
        assert cert.witness.in_degree < 2

    def test_localization_at_two_fails_subset_condition(self, localization):
        cert = is_t_diagnosable(localization, 2)
        assert not cert.diagnosable
        assert cert.failed_condition == "cond_iii"
        witness = cert.witness
        assert witness.p == 1
        assert len(witness.members) == 8
        assert len(witness.testable) <= witness.p
        # the returned witness is read off the least cut's minimiser: the
        # documented subset {1,2,3,4,5,8,9,10}, the refutation that
        # max_diagnosability prints as well
        pinned = frozenset({1, 2, 3, 4, 5, 8, 9, 10})
        assert witness.members == pinned
        assert witness.testable == testable_set(localization, pinned) == {11}
        assert cert == max_diagnosability(localization).refutation

    def test_t_zero_is_trivially_diagnosable(self, five_cycle):
        assert is_t_diagnosable(five_cycle, 0).diagnosable

    def test_small_graph_fails_count_condition(self):
        g = DiagnosticGraph.build([Node(1), Node(2)], [Edge(1, 2), Edge(2, 1)])
        cert = is_t_diagnosable(g, 1)
        assert cert.failed_condition == "cond_i"
        assert cert.witness.required == 3

    def test_rejects_t_at_or_above_n(self, five_cycle):
        with pytest.raises(ValueError, match="t < n"):
            is_t_diagnosable(five_cycle, 5)

    def test_rejects_negative_t(self, five_cycle):
        with pytest.raises(ValueError):
            is_t_diagnosable(five_cycle, -1)

    def test_rejects_empty_graph(self):
        with pytest.raises(GraphError, match="empty graph"):
            is_t_diagnosable(DiagnosticGraph((), ()), 0)

    def test_monotone_in_t(self):
        rng = random.Random(11)
        for _ in range(60):
            g = random_digraph(rng, rng.randint(1, 7), rng.random())
            verdicts = [
                is_t_diagnosable(g, t).diagnosable for t in range(g.n)
            ]
            # once it fails, it stays failed
            assert all(a or not b for a, b in zip(verdicts, verdicts[1:]))


# (n, k) of the circulant graphs beyond the former cap of 24 nodes.
CIRCULANTS = ((30, 5), (61, 30), (200, 7))


def circulant(n, k):
    """Node i tests the next k nodes round a cycle of n."""
    nodes = [Node(i) for i in range(n)]
    edges = [Edge(i, (i + d) % n) for i in range(n) for d in range(1, k + 1)]
    return DiagnosticGraph(nodes, edges)


class TestMaxDiagnosability:
    def test_five_cycle(self, five_cycle):
        result = max_diagnosability(five_cycle)
        assert result.t_max == 1
        assert result.ceiling == 1
        assert result.refutation is None  # the ceiling itself passed

    def test_localization(self, localization):
        result = max_diagnosability(localization)
        assert result.t_max == 1
        assert result.ceiling == 2
        assert result.refutation.t == 2
        assert result.refutation.failed_condition == "cond_iii"

    def test_certificates_revalidate(self, localization):
        result = max_diagnosability(localization)
        assert revalidate_certificate(localization, result.certificate)
        assert revalidate_certificate(localization, result.refutation)

    def test_tampered_certificate_fails_revalidation(self, localization):
        result = max_diagnosability(localization)
        bad_witness = CondIIIWitness(
            p=result.refutation.witness.p,
            members=result.refutation.witness.members,
            testable=frozenset({1}),
        )
        tampered = replace(result.refutation, witness=bad_witness)
        assert not revalidate_certificate(localization, tampered)

    def test_certificates_that_do_not_fit_the_graph_do_not_hold(self, five_cycle):
        # A t out of range, or a witness naming a node the graph lacks.
        certificates = [
            DiagnosabilityCertificate(5, Verdict.DIAGNOSABLE),
            DiagnosabilityCertificate(-1, Verdict.DIAGNOSABLE),
            DiagnosabilityCertificate(
                1,
                Verdict.NOT_DIAGNOSABLE,
                "cond_ii",
                CondIIWitness(node=99, in_degree=0),
            ),
            DiagnosabilityCertificate(
                1,
                Verdict.NOT_DIAGNOSABLE,
                "cond_iii",
                CondIIIWitness(0, frozenset({1, 2, 99}), frozenset()),
            ),
        ]
        for certificate in certificates:
            assert revalidate_certificate(five_cycle, certificate) is False

    def test_size_cap(self):
        """There is none: a graph past the former cap of 24 nodes gets its
        exact t.  Node i tests the next k nodes round a cycle of n, which is
        k-diagnosable for n >= 2k + 1 (Preparata, Metze and Chien, 1967)."""
        for n, k in CIRCULANTS:
            graph = circulant(n, k)
            result = max_diagnosability(graph)
            assert (result.t_max, result.ceiling, result.refutation) == (k, k, None)
            assert is_t_diagnosable(graph, k).diagnosable
            assert not is_t_diagnosable(graph, k + 1).diagnosable

    def test_empty_graph(self):
        with pytest.raises(GraphError):
            max_diagnosability(DiagnosticGraph((), ()))


class TestOracle:
    def test_five_cycle_at_one(self, five_cycle):
        assert oracle_is_t_diagnosable(five_cycle, 1).diagnosable

    def test_five_cycle_at_two_with_counterexample(self, five_cycle):
        result = oracle_is_t_diagnosable(five_cycle, 2)
        assert not result.diagnosable
        pair = result.counterexample
        assert pair.fault_set_a != pair.fault_set_b
        assert len(pair.fault_set_a) <= 2 and len(pair.fault_set_b) <= 2
        assert "syndrome" not in vars(pair)  # built on first read, then kept
        assert pair.syndrome is pair.syndrome
        assert pmc_compatible(five_cycle, pair.syndrome, pair.fault_set_a)
        assert pmc_compatible(five_cycle, pair.syndrome, pair.fault_set_b)

    def test_documented_counterexample_instance(self, five_cycle):
        shared = common_syndrome(five_cycle, {1, 3}, {1, 2})
        assert shared == cycle_syndrome(0, 1, 0, 0, 1)
        # cross-check by enumerating every syndrome compatible with both
        found = []
        for bits in itertools.product((0, 1), repeat=5):
            syndrome = cycle_syndrome(*bits)
            if pmc_compatible(five_cycle, syndrome, {1, 3}) and pmc_compatible(
                five_cycle, syndrome, {1, 2}
            ):
                found.append(syndrome)
        assert shared in found

    def test_no_common_syndrome_for_distinguishable_pair(self, five_cycle):
        assert common_syndrome(five_cycle, {1}, {2}) is None

    def test_size_cap(self):
        g = DiagnosticGraph.build([Node(i) for i in range(1, 16)], [])
        with pytest.raises(SizeCapError, match="oracle restricted to small graphs"):
            oracle_is_t_diagnosable(g, 1)


def edgeless(n):
    return DiagnosticGraph([Node(i) for i in range(1, n + 1)], [])


def complete_digraph(n):
    ids = range(1, n + 1)
    return DiagnosticGraph(
        [Node(i) for i in ids], [Edge(i, j) for i in ids for j in ids if i != j]
    )


def guarded_clique(d):
    """A complete digraph D on 1..d; a node z = d + 1 that tests all of D;
    a complete digraph Y on d + 2..2d + 1 whose members test z and are
    tested by every node outside Y.  The first union to collide is D ∪ {z},
    with Z = {z}: only Y tests z from outside it."""
    z, ids = d + 1, range(1, 2 * d + 2)
    edges = [Edge(i, j) for i in ids for j in ids if i != j and (
        (j <= d and i <= z) or (j == z and i > z) or j > z
    )]
    return DiagnosticGraph([Node(i) for i in ids], edges)


class TestOracleUnionStep:
    """The step |Z| + ⌈d/2⌉ <= t of the oracle's union scan, on both sides,
    for d odd and even.  An edgeless graph on d nodes has Z empty for every
    union, so at t = ⌈d/2⌉ and one below alike the single node collides
    first.  In a complete digraph on d nodes only the whole node set escapes
    outside tests (Z empty).  In a guarded clique Z = {z} and d = |D|.  In
    the five-cycle, {5, 1} collides with Z = {5} and d = 1."""

    @staticmethod
    def check(graph, t, diagnosable):
        result = oracle_is_t_diagnosable(graph, t)
        assert result.diagnosable == diagnosable
        assert is_t_diagnosable(graph, t).diagnosable == diagnosable
        expected = pair_loop_oracle(graph, t)
        if diagnosable:
            assert expected is None and result.counterexample is None
        else:
            assert expected is not None
            check_counterexample(graph, t, result.counterexample)

    @pytest.mark.parametrize(
        "build, d, t, diagnosable",
        [(edgeless, d, t, False) for d in (5, 6) for t in (2, 3)]
        + [(complete_digraph, d, t, t < 3) for d in (5, 6) for t in (2, 3)]
        + [(guarded_clique, d, t, t < 4) for d in (5, 6) for t in (3, 4)],
    )
    def test_boundary(self, build, d, t, diagnosable):
        self.check(build(d), t, diagnosable)

    def test_five_cycle(self, five_cycle):
        self.check(five_cycle, 1, True)
        self.check(five_cycle, 2, False)
        # The first union to collide is {1, 2}, with Z = {1}: 5 tests 1
        # from outside it, and only 1 tests 2.  Z alone is the smaller side.
        pair = oracle_is_t_diagnosable(five_cycle, 2).counterexample
        assert (pair.fault_set_a, pair.fault_set_b) == ({1}, {1, 2})

    @pytest.mark.parametrize("d", [5, 6])
    def test_guarded_clique_is_split_in_its_first_union(self, d):
        """D ∪ {z}, with Z = {z}: A is z and the first ⌊d/2⌋ nodes of D,
        B is z and the rest."""
        pair = oracle_is_t_diagnosable(guarded_clique(d), 4).counterexample
        z, half = d + 1, d // 2
        assert pair.fault_set_a == {*range(1, half + 1), z}
        assert pair.fault_set_b == {*range(half + 1, d + 1), z}

    def test_dense_graph_of_fourteen_nodes_at_its_ceiling(self):
        graph = random_digraph(random.Random(5), 14, 0.9)
        ceiling = search_ceiling(graph)
        assert ceiling == 6
        # Every union of up to 12 of the 14 nodes is scanned.
        assert oracle_is_t_diagnosable(graph, ceiling).diagnosable
        assert is_t_diagnosable(graph, ceiling).diagnosable

    def test_dense_graph_of_fourteen_nodes_above_its_ceiling(self):
        """At t = 7 the earlier pair loop walked pairs for seconds before
        the first colliding one; the split union is named at once."""
        graph = random_digraph(random.Random(5), 14, 0.9)
        start = time.perf_counter()
        result = oracle_is_t_diagnosable(graph, 7)
        assert time.perf_counter() - start < 1
        assert not result.diagnosable
        assert not is_t_diagnosable(graph, 7).diagnosable
        check_counterexample(graph, 7, result.counterexample)


def f_of(graph, positions):
    """f(W) = |W| + 2·|T(W) \\ W| for W given by its positions, T(W) the
    nodes that test a member of W."""
    w = sum(1 << x for x in positions)
    testers = sum(1 << u for u, row in enumerate(graph.out_masks) if row & w)
    return len(positions) + 2 * (testers & ~w).bit_count()


def least_f(graph):
    """The least f(W) over nonempty W, by enumerating every W."""
    return min(
        f_of(graph, [x for x in range(graph.n) if w >> x & 1])
        for w in range(1, 1 << graph.n)
    )


class TestBounds:
    """The cut stops at a limit: below it, it returns m and a minimiser; at
    it, only the bound m >= limit."""

    def test_five_cycle(self, five_cycle):
        assert _least_cut(_testers(five_cycle), 99) == (3, [0])
        assert _least_cut(_testers(five_cycle), 3) == (3, [])

    def test_localization(self, localization):
        m, least = _least_cut(_testers(localization), 99)
        assert m == least_f(localization) == f_of(localization, least) == 4

    def test_edgeless_graph(self):
        g = DiagnosticGraph.build([Node(1), Node(2), Node(3)], [])
        assert _least_cut(_testers(g), 99) == (1, [0])
        assert max_diagnosability(g).t_max == 0

    def test_budget_exhaustion_degrades_lower_bound(self, localization):
        # m is 4: a limit of 2 or 4 stops the flow there, with no minimiser.
        assert _least_cut(_testers(localization), 2) == (2, [])
        assert _least_cut(_testers(localization), 4) == (4, [])

    def test_bracket_holds_on_random_graphs(self):
        rng = random.Random(17)
        for _ in range(200):
            g = random_digraph(rng, rng.randint(1, 8), rng.random())
            m = least_f(g)
            testers = _testers(g)
            for limit in range(1, g.n + 2):
                value, least = _least_cut(testers, limit)
                assert value == min(m, limit)
                if value < limit:
                    assert f_of(g, least) == m
                else:
                    assert least == []


class TestFlowIsRerouted:
    """Graphs whose least f(W) the cut finds only by cancelling a unit it
    sent from x to a_u: the search must go back from a_u to x, and the
    cancelled unit must leave the record of units sent."""

    GRAPHS = [
        (5, [(1, 2), (1, 4), (1, 5), (2, 1), (2, 3), (3, 2), (3, 5), (4, 2), (5, 1),
             (5, 3), (5, 4)]),
        (9, [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (1, 9), (2, 8),
             (3, 1), (3, 2), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8), (3, 9), (4, 3),
             (4, 5), (4, 6), (4, 9), (5, 1), (5, 2), (5, 3), (5, 4), (5, 6), (5, 7),
             (5, 8), (5, 9), (6, 1), (6, 2), (6, 3), (6, 5), (6, 7), (6, 8), (7, 2),
             (7, 3), (7, 4), (7, 5), (7, 6), (7, 8), (8, 2), (8, 5), (9, 1), (9, 2),
             (9, 3), (9, 4), (9, 5), (9, 7), (9, 8)]),
    ]

    @pytest.mark.parametrize("n, pairs", GRAPHS)
    def test_least_f(self, n, pairs):
        nodes = [Node(i) for i in range(1, n + 1)]
        graph = DiagnosticGraph(nodes, [Edge(*pair) for pair in pairs])
        assert _least_cut(_testers(graph), 99)[0] == least_f(graph)


def localization_expansion():
    """The 1,111-vertex expansion: 100 Hz over [0, 1] s, offsets {1, 2},
    bidirectional."""
    return expand(
        scenario("localization").graph,
        100,
        Interval(0, 1),
        TemporalTemplate(offsets=frozenset({1, 2}), bidirectional=True),
    ).flat_graph


class Reads(list):
    """Tester lists that count how often a list is read."""

    count = 0

    def __getitem__(self, index):
        self.count += 1
        return super().__getitem__(index)


class TestSeededCut:
    """Each cut starts from its direct paths, is skipped when they reach the
    best value so far, and otherwise routes a second unit through each
    tester above v before it searches; the cut from zero flow referees it."""

    def check_against_referee(self, testers):
        """Same value and same minimiser at every limit 1..n + 1.  Past
        1 + 2·|T(v)| for every v, the cut of W = {v}, no limit stops a flow,
        so every higher limit gives the referee's answer at that point."""
        top = 1 + 2 * max(map(len, testers))
        referee = {}
        for limit in range(1, len(testers) + 2):
            at = min(limit, top + 1)
            if at not in referee:
                referee[at] = unseeded_least_cut(testers, at)
            value, least = _least_cut(testers, limit)
            assert (value, set(least)) == (referee[at][0], set(referee[at][1]))

    def test_random_graphs_up_to_twelve_nodes(self):
        rng = random.Random(47)
        for _ in range(500):
            n = rng.randint(1, 12)
            self.check_against_referee(_testers(random_digraph(rng, n, rng.random())))
            self.check_against_referee(_testers(clustered_digraph(rng, n)))

    @pytest.mark.parametrize("n, pairs", TestFlowIsRerouted.GRAPHS)
    def test_rerouted_flow(self, n, pairs):
        nodes = [Node(i) for i in range(1, n + 1)]
        graph = DiagnosticGraph(nodes, [Edge(*pair) for pair in pairs])
        self.check_against_referee(_testers(graph))

    # Graphs on ids 0..n-1 whose minimiser the search finds only by going
    # from x back to a_x, cancelling a unit on a_x -> x.  Without that step,
    # seeded or not, the cut at limit 10 gives m = 9 with a W of f(W) = 11.
    BACK_TO_A_X = [
        (10, [(0, 2), (0, 3), (0, 4), (0, 6), (0, 8), (0, 9), (1, 0), (1, 2), (1, 3),
              (1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (1, 9), (2, 0), (2, 1), (2, 3),
              (2, 4), (2, 5), (2, 7), (2, 8), (2, 9), (3, 1), (3, 2), (3, 5), (3, 7),
              (4, 0), (4, 1), (4, 2), (4, 3), (4, 8), (5, 3), (5, 6), (6, 2), (6, 4),
              (6, 9), (7, 0), (7, 3), (7, 4), (7, 5), (7, 6), (7, 8), (7, 9), (8, 0),
              (8, 1), (8, 5), (8, 7), (9, 2)]),
        (9, [(0, 1), (0, 2), (0, 5), (0, 7), (0, 8), (1, 3), (1, 5), (2, 1), (2, 3),
             (2, 6), (3, 0), (3, 1), (3, 4), (3, 5), (3, 6), (3, 7), (4, 0), (4, 1),
             (4, 2), (4, 3), (4, 5), (4, 7), (4, 8), (5, 0), (5, 1), (5, 3), (5, 4),
             (5, 8), (6, 2), (6, 7), (6, 8), (7, 0), (7, 2), (7, 3), (7, 4), (7, 6),
             (8, 0), (8, 1), (8, 2), (8, 4), (8, 5), (8, 6), (8, 7)]),
    ]

    @pytest.mark.parametrize("n, pairs", BACK_TO_A_X)
    def test_search_goes_back_to_a_x(self, n, pairs):
        nodes = [Node(i) for i in range(n)]
        graph = DiagnosticGraph(nodes, [Edge(*pair) for pair in pairs])
        self.check_against_referee(_testers(graph))

    def test_dense_graphs_of_fourteen_to_nineteen_nodes(self):
        """Edge probabilities 0.5 to 0.85, as the benchmark draws them: here
        nearly every tester above v takes a second unit."""
        rng = random.Random(59)
        for n in range(14, 20):
            for _ in range(20):
                graph = random_digraph(rng, n, rng.uniform(0.5, 0.85))
                self.check_against_referee(_testers(graph))

    @pytest.mark.parametrize("n, k", CIRCULANTS)
    def test_circulant_graphs(self, n, k):
        self.check_against_referee(_testers(circulant(n, k)))

    def test_circulant_graph_runs_no_search(self):
        """Node i tests i + 1..i + 3 of 30, limit 7.  v = 0, 1, 2 reach 7
        with their seed and second units, reading testers[v] three times and
        testers[u] once per second unit (3, 2 and 1 of them); every higher v
        is skipped on its seed, one read each.  A search would read more."""
        testers = Reads(_testers(circulant(30, 3)))
        assert _least_cut(testers, 7) == (7, [])
        assert testers.count == (3 + 3) + (3 + 2) + (3 + 1) + 27

    def test_expansion_of_localization(self):
        self.check_against_referee(_testers(localization_expansion()))

    def test_seed_is_a_lower_bound(self):
        """1 + |T(v)| + |T(v) below v| <= f(W) for every W whose lowest
        position is v, on every W of graphs of up to eight nodes."""
        rng = random.Random(53)
        for trial in range(300):
            n = rng.randint(1, 8)
            if trial % 2:
                graph = clustered_digraph(rng, n)
            else:
                graph = random_digraph(rng, n, rng.random())
            testers = _testers(graph)
            for w in range(1, 1 << n):
                v = (w & -w).bit_length() - 1
                seed = 1 + len(testers[v]) + sum(u < v for u in testers[v])
                assert seed <= f_of(graph, [x for x in range(n) if w >> x & 1])

    @pytest.mark.parametrize("n", range(3, 10))
    def test_complete_digraph_skips_every_cut(self, n):
        """On K_n the seed of v is n + v, at least the limit 2c + 1 with
        c = (n - 1) // 2, so each tester list is read once, for its seed."""
        nodes = [Node(i) for i in range(1, n + 1)]
        pairs = itertools.permutations(range(1, n + 1), 2)
        graph = DiagnosticGraph(nodes, [Edge(*pair) for pair in pairs])
        c = (n - 1) // 2
        testers = Reads(_testers(graph))
        assert _least_cut(testers, 2 * c + 1) == (2 * c + 1, [])
        assert testers.count == n
        assert max_diagnosability(graph).t_max == c


class TestCutAgainstScan:
    """The cut's t_max, certificate and refutation against the literal
    condition-(iii) scan, level by level from the search ceiling down."""

    def check(self, graph):
        result = max_diagnosability(graph)
        assert result.t_max == scan_t_max(graph)
        assert result.ceiling == search_ceiling(graph)
        assert result.certificate == DiagnosabilityCertificate(
            result.t_max, Verdict.DIAGNOSABLE
        )
        assert revalidate_certificate(graph, result.certificate)
        if result.t_max == result.ceiling:
            assert result.refutation is None
        else:
            refutation = result.refutation
            assert refutation.t == result.t_max + 1
            assert refutation.failed_condition == "cond_iii"
            assert revalidate_certificate(graph, refutation)
            # A witness with one member swapped for a non-member fails.
            witness = refutation.witness
            outside = sorted(set(graph.node_ids) - witness.members)
            if outside:
                members = witness.members - {min(witness.members)} | {outside[0]}
                swapped = replace(witness, members=members)
                tampered = replace(refutation, witness=swapped)
                assert not revalidate_certificate(graph, tampered)
            above = DiagnosabilityCertificate(result.t_max + 1, Verdict.DIAGNOSABLE)
            assert not revalidate_certificate(graph, above)
        return result

    def test_every_digraph_up_to_four_nodes(self):
        refuted = 0
        for n in range(1, 5):
            nodes = [Node(i) for i in range(1, n + 1)]
            pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
            for mask in range(1 << len(pairs)):
                edges = [Edge(*pairs[b]) for b in range(len(pairs)) if mask >> b & 1]
                result = self.check(DiagnosticGraph(nodes, edges))
                refuted += result.refutation is not None
        assert refuted > 0

    def test_random_graphs_up_to_ten_nodes(self):
        rng = random.Random(41)
        refuted = 0
        for trial in range(1200):
            n = rng.randint(1, 10)
            if trial % 2:
                graph = clustered_digraph(rng, n)
            else:
                graph = random_digraph(rng, n, rng.random())
            refuted += self.check(graph).refutation is not None
        assert refuted > 100

    def test_dense_graphs_of_fourteen_to_nineteen_nodes(self):
        """One graph per (n, ceiling) cell, ceilings at the top and two below,
        at edge probabilities 0.5 to 0.85, as the benchmark draws them."""
        rng = random.Random(43)
        for n in range(14, 20):
            top = (n - 1) // 2
            for ceiling in (top, top - 1, top - 2):
                while True:
                    graph = random_digraph(rng, n, rng.uniform(0.5, 0.85))
                    if search_ceiling(graph) == ceiling:
                        break
                self.check(graph)

    def test_expansion_of_localization(self):
        """1,111 vertices, far beyond the literal scan: t = 4 at the ceiling.
        Once vertices 555 and 556 are tested only by each other and by the
        same three vertices, W = {555, 556} has f(W) = 2 + 2·3 = 8, so t
        falls to 3 and the refutation at 4 is read off that W."""
        flat = localization_expansion()
        assert flat.n == 1111
        result = max_diagnosability(flat)
        assert (result.t_max, result.ceiling, result.refutation) == (4, 4, None)
        assert revalidate_certificate(flat, result.certificate)

        pair = {555, 556}
        edges = [e for e in flat.edges if e.testee not in pair]
        edges += [Edge(555, 556), Edge(556, 555)]
        edges += [Edge(u, x) for u in (100, 200, 300) for x in pair]
        weakened = DiagnosticGraph(flat.nodes, edges)
        result = max_diagnosability(weakened)
        assert (result.t_max, result.ceiling) == (3, 4)
        witness = result.refutation.witness
        assert (witness.p, len(witness.members)) == (3, 1111 - 5)
        assert witness.members.isdisjoint(pair | {100, 200, 300})
        assert revalidate_certificate(weakened, result.refutation)


class TestWitnessSearch:
    """The pruned depth-first search, the checker's referee, finds the
    literal scan's first (p, X)."""

    def test_random_graphs(self):
        rng = random.Random(47)
        found = 0
        for trial in range(1500):
            n = rng.randint(1, 11)
            if trial % 2:
                graph = clustered_digraph(rng, n)
            else:
                graph = random_digraph(rng, n, rng.random())
            for t in range(1, min(search_ceiling(graph) + 2, (graph.n - 1) // 2 + 1)):
                if min(graph.in_degrees) < t:
                    continue
                witness = dfs_cond_iii(graph, t)
                expected = scan_cond_iii(graph, t)
                if expected is None:
                    assert witness is None
                    continue
                found += 1
                p, members = expected
                assert witness.p == p
                assert witness.members == graph.ids_of(members)
        assert found > 100


def referee_condition(graph, t):
    """The first of conditions (i)-(iii) that fails at t, condition (iii)
    by the depth-first search, or None."""
    if graph.n < 2 * t + 1:
        return "cond_i"
    if min(graph.in_degrees) < t:
        return "cond_ii"
    if dfs_cond_iii(graph, t) is not None:
        return "cond_iii"
    return None


class TestCutAgainstSearch:
    """The checker reads condition (iii) off the graph's one least cut; the
    depth-first search referees its failed condition at every level, the
    oracle its verdict, and each refutation must revalidate."""

    def test_random_graphs_up_to_twelve_nodes(self):
        rng = random.Random(61)
        refuted = 0
        for trial in range(1500):
            n = rng.randint(1, 12)
            if trial % 2:
                graph = clustered_digraph(rng, n)
            else:
                graph = random_digraph(rng, n, rng.random())
            for t in range((n - 1) // 2 + 1):
                cert = is_t_diagnosable(graph, t)
                assert cert.failed_condition == referee_condition(graph, t)
                if n <= 10:
                    oracle = oracle_is_t_diagnosable(graph, t)
                    assert cert.diagnosable == oracle.diagnosable
                if cert.failed_condition == "cond_iii":
                    refuted += 1
                    assert revalidate_certificate(graph, cert)
        assert refuted > 100


class TestOneCutPerGraph:
    """One ``_least_cut`` serves ``max_diagnosability`` and every level of
    ``is_t_diagnosable``; ``revalidate_certificate`` runs its own."""

    @pytest.fixture
    def limits(self, monkeypatch):
        """The limit of every ``_least_cut`` call, in order."""
        calls = []
        cut = diagnosability._least_cut

        def spy(testers, limit):
            calls.append(limit)
            return cut(testers, limit)

        monkeypatch.setattr(diagnosability, "_least_cut", spy)
        return calls

    def graphs(self):
        """Fresh graphs, none of which has a kept cut yet."""
        localization = scenario("localization").graph
        return [
            DiagnosticGraph(localization.nodes, localization.edges),
            circulant(30, 5),
            localization_expansion(),
            guarded_clique(5),
        ]

    @pytest.mark.parametrize("levels_first", [False, True])
    def test_one_cut_for_every_level(self, limits, levels_first):
        for graph in self.graphs():
            ceiling = search_ceiling(graph)
            limits.clear()
            if levels_first:
                certs = [is_t_diagnosable(graph, t) for t in range(ceiling + 2)]
                result = max_diagnosability(graph)
            else:
                result = max_diagnosability(graph)
                certs = [is_t_diagnosable(graph, t) for t in range(ceiling + 2)]
            assert limits == [2 * ceiling + 1]
            assert [cert.diagnosable for cert in certs] == [
                t <= result.t_max for t in range(ceiling + 2)
            ]
            if result.refutation is not None:
                assert certs[result.t_max + 1] == result.refutation

    def test_revalidation_cuts_afresh(self, limits):
        for graph in self.graphs():
            result = max_diagnosability(graph)
            for cert in (result.certificate, is_t_diagnosable(graph, result.t_max)):
                limits.clear()
                assert revalidate_certificate(graph, cert)
                assert limits == [2 * result.t_max + 1]

    def test_revalidation_does_not_read_the_kept_cut(self):
        """A kept cut that claims more than the graph has: the checker
        trusts it, the revalidation does not."""
        graph = self.graphs()[0]
        assert not is_t_diagnosable(graph, 2)
        ceiling, _, _ = vars(graph)["_cut"]
        vars(graph)["_cut"] = (ceiling, 2 * ceiling + 1, ())
        claimed = is_t_diagnosable(graph, 2)
        assert claimed.diagnosable
        assert not revalidate_certificate(graph, claimed)


class TestAgreementWithOracle:
    """The structural checker and the brute-force oracle must always agree.

    The full exhaustive sweep (all digraphs with n <= 5) and the large
    randomized sweep live in the acceptance suite; this is a fast sample.
    """

    def test_exhaustive_tiny(self):
        for n in (1, 2, 3):
            nodes = tuple(Node(i) for i in range(1, n + 1))
            pairs = [
                (i, j)
                for i in range(1, n + 1)
                for j in range(1, n + 1)
                if i != j
            ]
            for mask in range(1 << len(pairs)):
                edges = tuple(
                    Edge(*pairs[b]) for b in range(len(pairs)) if mask >> b & 1
                )
                g = DiagnosticGraph(nodes, edges)
                for t in range((n - 1) // 2 + 1):
                    assert (
                        is_t_diagnosable(g, t).diagnosable
                        == oracle_is_t_diagnosable(g, t).diagnosable
                    )

    def test_random_sample(self):
        rng = random.Random(23)
        for _ in range(100):
            g = random_digraph(rng, rng.randint(4, 7), rng.random())
            for t in range(search_ceiling(g) + 1):
                assert (
                    is_t_diagnosable(g, t).diagnosable
                    == oracle_is_t_diagnosable(g, t).diagnosable
                )


class TestGrowthAndCoverProperties:
    def test_adding_edges_never_hurts_sample(self):
        # small-sample version of the edge-addition property; the 200-pair
        # run is in the acceptance suite
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(2, 7)
            small = random_digraph(rng, n, rng.uniform(0.1, 0.5))
            present = {e.pair for e in small.edges}
            extra = [
                Edge(i, j)
                for i in range(1, n + 1)
                for j in range(1, n + 1)
                if i != j and (i, j) not in present and rng.random() < 0.4
            ]
            big = DiagnosticGraph(small.nodes, small.edges + tuple(extra))
            assert max_diagnosability(small).t_max <= max_diagnosability(big).t_max

    def test_cover_property(self):
        # if every induced part of a cover is t-diagnosable, the whole is
        rng = random.Random(37)
        non_vacuous = 0
        for _ in range(100):
            n = rng.randint(3, 8)
            g = random_digraph(rng, n, rng.uniform(0.4, 0.9))
            ids = list(g.node_ids)
            parts = []
            for _ in range(rng.randint(2, 3)):
                part = {i for i in ids if rng.random() < 0.7}
                parts.append(part)
            leftovers = set(ids) - set().union(*parts)
            if leftovers:
                parts[0] |= leftovers
            for t in range(1, (n - 1) // 2 + 1):
                induced_ok = True
                for part in parts:
                    if not part:
                        induced_ok = False
                        break
                    sub_nodes = [nd for nd in g.nodes if nd.id in part]
                    sub_edges = [
                        e for e in g.edges if e.tester in part and e.testee in part
                    ]
                    sub = DiagnosticGraph(tuple(sub_nodes), tuple(sub_edges))
                    if t >= sub.n or not is_t_diagnosable(sub, t).diagnosable:
                        induced_ok = False
                        break
                if induced_ok:
                    non_vacuous += 1
                    assert is_t_diagnosable(g, t).diagnosable
        assert non_vacuous > 0


def test_certificate_json_shape(localization):
    cert = is_t_diagnosable(localization, 2)
    doc = cert.to_json_dict()
    assert doc["verdict"] == "not_diagnosable"
    assert doc["failed"] == "cond_iii"
    assert set(doc["witness"]) == {"p", "X", "gamma"}
    assert doc["witness"]["p"] == 1
