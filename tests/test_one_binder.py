"""One binder of a syndrome to a graph, and object views kept for output.

``failed_masks`` is the only place a syndrome meets a graph: it returns the
masks of a syndrome already held over that graph, and reads any other once,
raising the coverage error when edges are missing or unknown.  Syndrome
generation, the consistency predicate, identification, the search ceiling
and audit work on ``node_ids``, ``out_masks`` and these masks, so a graph
built from masks never builds its ``Node`` and ``Edge`` views for them.
The helpers below are literal copies of the earlier per-edge code; the
tests hold the mask forms to them, messages and orders included.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from conftest import random_digraph
from diagkit.diagnosability import common_syndrome, search_ceiling
from diagkit.errors import GraphError, SizeCapError, SyndromeError
from diagkit.graph import (
    DiagnosticGraph,
    Node,
    Syndrome,
    as_fraction,
    failed_masks,
    min_in_degree,
    pmc_compatible,
    testable_set,
)
from diagkit.identification import (
    DEFAULT_ENUMERATION_CAP,
    all_consistent_fault_sets,
    identify,
    node_status,
)
from diagkit.simulator import (
    ADVERSARIAL_FREE_EDGE_CAP,
    ALWAYS_FAIL,
    ALWAYS_PASS,
    PolicyKind,
    _unit,
    adversarial,
    bernoulli,
    generate_syndrome,
    scenario,
)
from diagkit.temporal import Interval, TemporalTemplate, audit, expand
from test_runtime_path import (
    gapped_base,
    literal_require_total,
    outcome_of,
    random_expansion,
)

# ---------------------------------------------------------------------------
# Literal copies of the earlier code
# ---------------------------------------------------------------------------


def literal_generate(graph, faults, policy, seed):
    members = frozenset(faults)
    outcomes = {}
    for edge in graph.edges:
        if edge.tester not in members:
            value = int(edge.testee in members)
        elif policy.kind is PolicyKind.ALWAYS_PASS:
            value = 0
        elif policy.kind is PolicyKind.ALWAYS_FAIL:
            value = 1
        else:
            value = int(_unit(seed, edge.tester, edge.testee) < policy.p)
        outcomes[edge.pair] = value
    return Syndrome(outcomes)


def literal_adversarial(graph, members, policy):
    if graph.n > DEFAULT_ENUMERATION_CAP:
        raise SizeCapError(
            f"adversarial policy restricted to small graphs "
            f"(n <= {DEFAULT_ENUMERATION_CAP}, got {graph.n})"
        )
    free = [edge.pair for edge in graph.edges if edge.tester in members]
    if len(free) > ADVERSARIAL_FREE_EDGE_CAP:
        raise SizeCapError(
            f"adversarial policy restricted to {ADVERSARIAL_FREE_EDGE_CAP} "
            f"free outcomes, got {len(free)}"
        )
    budget = policy.budget if policy.budget is not None else len(members)
    forced = {
        edge.pair: int(edge.testee in members)
        for edge in graph.edges
        if edge.tester not in members
    }
    best = None
    best_count = -1
    for assignment in product((0, 1), repeat=len(free)):
        outcomes = dict(forced)
        outcomes.update(zip(free, assignment))
        candidate = Syndrome(outcomes)
        count = len(all_consistent_fault_sets(graph, candidate, budget))
        if count > best_count:
            best, best_count = candidate, count
    return best


def literal_failed(graph, outcomes):
    masks = [0] * graph.n
    pos = graph.positions
    for (tester, testee), value in outcomes.items():
        if value:
            masks[pos[tester]] |= 1 << pos[testee]
    return tuple(masks)


def recording():
    """``localization`` at 100 Hz over [0, 1] s, offsets {1, 2}, both ways."""
    return expand(
        scenario("localization").graph,
        100,
        Interval(0, 1),
        TemporalTemplate(offsets=frozenset({1, 2}), bidirectional=True),
    )


class CountedSyndrome(Syndrome):
    """A syndrome that counts the reads of its ``outcomes``."""

    reads = 0

    @property
    def outcomes(self):
        CountedSyndrome.reads += 1
        return vars(self)["outcomes"]


def partial_syndromes(rng, graph):
    """Dict syndromes over most of the graph's edges, some with foreign pairs."""
    pairs = [edge.pair for edge in graph.edges]
    top = max(graph.node_ids, default=0) + 3
    for keep, extra in ((1.0, 0), (0.8, 0), (1.0, 2), (0.7, 3)):
        kept = [pair for pair in pairs if rng.random() < keep]
        foreign = [(rng.randint(0, top), rng.randint(0, top)) for _ in range(extra)]
        yield Syndrome({pair: rng.randint(0, 1) for pair in kept + foreign})


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


class TestViewFree:
    def test_the_runtime_path_builds_no_object_view(self):
        temporal = recording()
        flat = temporal.flat_graph
        faults = [3, 40, 700]
        syndromes = [
            generate_syndrome(flat, faults, policy, seed=5)
            for policy in (ALWAYS_PASS, ALWAYS_FAIL, bernoulli(0.5))
        ]
        for held in syndromes:
            for syndrome in (held, Syndrome(dict(held.outcomes))):
                verdict = identify(flat, syndrome, 3)
                report = node_status(flat, syndrome, 3)
                assert report.verdict == verdict
                assert pmc_compatible(flat, syndrome, faults)
        assert identify(flat, Syndrome.all_clear(flat), 1).fault_set == frozenset()
        assert search_ceiling(flat) == 4
        report = audit(temporal, syndromes[2], [Interval(0, 0)])
        assert report.windows[0].t_used == 1
        assert "nodes" not in vars(flat)
        assert "edges" not in vars(flat)


class TestOneBinder:
    def test_coverage_errors_match_the_literal_check(self):
        rng = random.Random(5)
        checked = {"ok": 0, "missing": 0, "unknown": 0}
        for _ in range(150):
            graph = gapped_base(rng, rng.randint(1, 7), rng.random())
            for syndrome in partial_syndromes(rng, graph):
                want = outcome_of(literal_require_total, dict(syndrome.outcomes), graph)
                if want[0] == "ok":
                    checked["ok"] += 1
                    want = ("ok", literal_failed(graph, syndrome.outcomes))
                else:
                    checked["missing"] += "missing" in want[1]
                    checked["unknown"] += "unknown edges" in want[1]
                assert outcome_of(failed_masks, graph, syndrome) == want
                if want[0] == "ok":
                    continue
                for call, *args in (
                    (syndrome.require_total, graph),
                    (pmc_compatible, graph, syndrome, []),
                    (identify, graph, syndrome, 1),
                ):
                    assert outcome_of(call, *args) == want
        assert all(count > 20 for count in checked.values()), checked

    def test_a_syndrome_held_over_another_graph_is_read_by_value(self):
        rng = random.Random(8)
        for _ in range(60):
            temporal = random_expansion(rng, rng.randint(1, 5), 4)
            flat = temporal.flat_graph
            held = generate_syndrome(flat, [0], bernoulli(0.5), seed=rng.randrange(99))
            twin = DiagnosticGraph.build(flat.nodes, flat.edges)
            assert failed_masks(twin, held) == failed_masks(flat, held)
            other = gapped_base(rng, rng.randint(1, 5), 0.5)
            assert outcome_of(failed_masks, other, held) == outcome_of(
                literal_require_total, dict(held.outcomes), other
            )

    def test_the_first_binding_is_kept(self):
        flat = recording().flat_graph
        held = generate_syndrome(flat, [3, 40, 700], bernoulli(0.5), seed=5)
        outcomes = dict(held.outcomes)
        syndrome = CountedSyndrome(outcomes)
        partial = CountedSyndrome(dict(list(outcomes.items())[1:]))
        for _ in range(2):  # a failed binding is not kept
            with pytest.raises(SyndromeError, match="missing"):
                failed_masks(flat, partial)
        assert failed_masks(flat, syndrome) == held._failed
        reads = CountedSyndrome.reads
        assert failed_masks(flat, syndrome) is failed_masks(flat, syndrome)
        assert identify(flat, syndrome, 3) == node_status(flat, syndrome, 3).verdict
        assert CountedSyndrome.reads == reads
        # Another graph reads the outcomes again and leaves the binding as it is.
        twin = DiagnosticGraph.build(flat.nodes, flat.edges)
        assert failed_masks(twin, syndrome) == held._failed
        assert CountedSyndrome.reads > reads
        reads = CountedSyndrome.reads
        assert failed_masks(flat, syndrome) is failed_masks(flat, syndrome)
        assert CountedSyndrome.reads == reads
        assert list(syndrome.outcomes.items()) == list(outcomes.items())

    def test_all_clear_is_held_over_its_graph(self, localization):
        clear = Syndrome.all_clear(localization)
        assert failed_masks(localization, clear) == (0,) * localization.n
        assert clear == Syndrome({edge.pair: 0 for edge in localization.edges})
        assert list(clear.outcomes) == [edge.pair for edge in localization.edges]

    def test_empty_graph_has_no_minimum_in_degree(self):
        with pytest.raises(GraphError, match="empty graph"):
            min_in_degree(DiagnosticGraph.build([], []))


class TestGeneratedSyndromes:
    def test_match_the_literal_generator(self):
        rng = random.Random(17)
        for _ in range(120):
            if rng.random() < 0.5:
                graph = gapped_base(rng, rng.randint(1, 7), rng.random())
            else:
                graph = random_expansion(rng, rng.randint(1, 4), 4).flat_graph
            faults = rng.sample(graph.node_ids, rng.randint(0, min(3, graph.n)))
            policy = rng.choice([ALWAYS_PASS, ALWAYS_FAIL, bernoulli(rng.random())])
            seed = rng.randrange(1000)
            got = generate_syndrome(graph, faults, policy, seed)
            want = literal_generate(graph, faults, policy, seed)
            assert list(got.outcomes.items()) == list(want.outcomes.items())

    def test_adversarial_matches_the_literal_search(self):
        rng = random.Random(19)
        compared, most_free = 0, 0
        while compared < 60:
            graph = random_digraph(rng, rng.randint(1, 8), rng.uniform(0.1, 0.6))
            size = rng.randint(0, min(2, graph.n))
            faults = frozenset(rng.sample(graph.node_ids, size))
            free = sum(edge.tester in faults for edge in graph.edges)
            if free > 7:
                continue
            policy = adversarial(rng.choice([None, 0, 1, 2, 3]))
            got = generate_syndrome(graph, faults, policy)
            want = literal_adversarial(graph, faults, policy)
            assert list(got.outcomes) == [edge.pair for edge in graph.edges]
            assert got.outcomes == want.outcomes
            compared += 1
            most_free = max(most_free, free)
        assert most_free >= 5

    def test_adversarial_errors_match_the_literal_search(self):
        rng = random.Random(23)
        big = DiagnosticGraph.build([Node(i) for i in range(15)], [])
        dense = random_digraph(rng, 8, 1.0)
        cases = [
            (big, frozenset(), adversarial()),
            (dense, frozenset({1, 2, 3}), adversarial()),
            (scenario("five_cycle").graph, frozenset({1}), adversarial(-1)),
        ]
        for graph, faults, policy in cases:
            want = outcome_of(literal_adversarial, graph, faults, policy)
            assert want[0] != "ok"
            assert outcome_of(generate_syndrome, graph, faults, policy) == want


class TestIntegrality:
    def test_fault_ids_follow_the_integrality_rule(self, five_cycle):
        clear = Syndrome.all_clear(five_cycle)
        one = generate_syndrome(five_cycle, [1])
        assert generate_syndrome(five_cycle, [1.0]) == one
        assert pmc_compatible(five_cycle, one, [1.0])
        assert testable_set(five_cycle, [1.0]) == frozenset({2})
        assert common_syndrome(five_cycle, [1.0], [1]) == one
        for bad in (True, 1.5, "1", None):
            with pytest.raises(ValueError, match="node ids must be integers"):
                generate_syndrome(five_cycle, [bad])
            with pytest.raises(ValueError, match="node ids must be integers"):
                pmc_compatible(five_cycle, clear, [bad])
            with pytest.raises(ValueError, match="node ids must be integers"):
                testable_set(five_cycle, [bad])
            with pytest.raises(ValueError, match="node ids must be integers"):
                common_syndrome(five_cycle, [1], [bad])

    def test_mixed_bad_ids_do_not_break_the_message(self, five_cycle):
        for members in ([1.5, "a"], ["a", 1.5], [9, "a"], [9, 1.5, 7]):
            with pytest.raises(ValueError):
                five_cycle.mask_of(members)
        with pytest.raises(ValueError, match=r"unknown node ids: \[7, 9\]"):
            five_cycle.mask_of([9, 7.0, 9])

    def test_zero_denominators_are_value_errors(self):
        for text in ("1/0", "0/0", " 3/0 "):
            with pytest.raises(ValueError, match="as a rational"):
                as_fraction(text)
        assert as_fraction("2/4") == Fraction(1, 2)
