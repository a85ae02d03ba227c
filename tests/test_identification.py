"""Fault identification: exact search vs. brute force, statuses, verdicts."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from conftest import (
    clustered_digraph,
    count_in_degrees,
    cycle_syndrome,
    iter_subsets,
    random_digraph,
)
from diagkit.cli import main
from diagkit.diagnosability import max_diagnosability
from diagkit.errors import SizeCapError, SyndromeError
from diagkit.graph import (
    DiagnosticGraph,
    Edge,
    Node,
    Syndrome,
)
from diagkit.identification import (
    NodeStatus,
    StatusReport,
    VerdictKind,
    all_consistent_fault_sets,
    identify,
    node_status,
)
from diagkit.jsonio import dump_json, graph_to_dict, syndrome_to_dict, temporal_to_dict
from diagkit.simulator import adversarial, bernoulli, generate_syndrome, scenario
from diagkit.temporal import Interval, TemporalTemplate, expand, restrict


def random_syndrome(rng, graph):
    return Syndrome({edge.pair: rng.randint(0, 1) for edge in graph.edges})


class TestAllConsistentFaultSets:
    def test_single_fault(self, five_cycle):
        assert all_consistent_fault_sets(
            five_cycle, cycle_syndrome(0, 0, 0, 0, 1), 1
        ) == [frozenset({1})]

    def test_all_pass(self, five_cycle):
        assert all_consistent_fault_sets(
            five_cycle, cycle_syndrome(0, 0, 0, 0, 0), 1
        ) == [frozenset()]

    def test_two_fault_ambiguity(self, five_cycle):
        assert all_consistent_fault_sets(
            five_cycle, cycle_syndrome(0, 1, 0, 0, 1), 2
        ) == [frozenset({1, 2}), frozenset({1, 3})]

    def test_cap(self):
        g = DiagnosticGraph.build([Node(i) for i in range(1, 16)], [])
        with pytest.raises(SizeCapError):
            all_consistent_fault_sets(g, Syndrome({}), 1)


class TestIdentify:
    def test_unique_with_free_outcome_set(self, five_cycle):
        verdict = identify(five_cycle, cycle_syndrome(1, 0, 0, 0, 1), 1)
        assert verdict.kind is VerdictKind.UNIQUE
        assert verdict.fault_set == frozenset({1})

    def test_unique_with_free_outcome_clear(self, five_cycle):
        verdict = identify(five_cycle, cycle_syndrome(0, 0, 0, 0, 1), 1)
        assert verdict.kind is VerdictKind.UNIQUE
        assert verdict.fault_set == frozenset({1})

    def test_ambiguous(self, five_cycle):
        verdict = identify(five_cycle, cycle_syndrome(0, 1, 0, 0, 1), 2)
        assert verdict.kind is VerdictKind.AMBIGUOUS
        assert verdict.candidates == (frozenset({1, 2}), frozenset({1, 3}))
        assert verdict.candidate_count == 2

    def test_inconsistent(self, five_cycle):
        syndrome = cycle_syndrome(1, 1, 1, 1, 1)
        verdict = identify(five_cycle, syndrome, 1)
        assert verdict.kind is VerdictKind.INCONSISTENT
        assert all_consistent_fault_sets(five_cycle, syndrome, 1) == []

    def test_partial_syndrome_rejected(self, five_cycle):
        with pytest.raises(SyndromeError):
            identify(five_cycle, Syndrome({(1, 2): 1}), 1)

    def test_candidate_list_is_capped_with_total_count(self):
        # an edgeless graph constrains nothing: every subset is a candidate
        g = DiagnosticGraph.build([Node(i) for i in range(1, 7)], [])
        verdict = identify(g, Syndrome({}), 6, candidate_limit=3)
        assert verdict.kind is VerdictKind.AMBIGUOUS
        assert len(verdict.candidates) == 3
        assert verdict.candidate_count == 64
        assert verdict.exceeds_majority_budget

    def test_majority_flag_off_for_small_budgets(self, five_cycle):
        verdict = identify(five_cycle, cycle_syndrome(0, 0, 0, 0, 0), 2)
        assert not verdict.exceeds_majority_budget

    def test_verdict_json_shapes(self, five_cycle):
        unique = identify(five_cycle, cycle_syndrome(0, 0, 0, 0, 1), 1)
        assert unique.to_json_dict() == {"kind": "unique", "fault_set": [1]}
        ambiguous = identify(five_cycle, cycle_syndrome(0, 1, 0, 0, 1), 2)
        assert ambiguous.to_json_dict() == {
            "kind": "ambiguous",
            "count": 2,
            "candidates": [[1, 2], [1, 3]],
        }
        inconsistent = identify(five_cycle, cycle_syndrome(1, 1, 1, 1, 1), 1)
        assert inconsistent.to_json_dict() == {"kind": "inconsistent"}


class TestNodeStatus:
    def test_single_fault(self, five_cycle):
        report = node_status(five_cycle, cycle_syndrome(0, 0, 0, 0, 1), 1)
        assert report.statuses[1] is NodeStatus.KNOWN_FAULTY
        for nid in (2, 3, 4, 5):
            assert report.statuses[nid] is NodeStatus.KNOWN_FAULT_FREE

    def test_ambiguous_case(self, five_cycle):
        report = node_status(five_cycle, cycle_syndrome(0, 1, 0, 0, 1), 2)
        assert report.statuses[1] is NodeStatus.KNOWN_FAULTY
        assert report.statuses[2] is NodeStatus.UNKNOWN
        assert report.statuses[3] is NodeStatus.UNKNOWN
        assert report.statuses[4] is NodeStatus.KNOWN_FAULT_FREE
        assert report.statuses[5] is NodeStatus.KNOWN_FAULT_FREE

    def test_all_pass(self, five_cycle):
        report = node_status(five_cycle, cycle_syndrome(0, 0, 0, 0, 0), 1)
        assert all(
            status is NodeStatus.KNOWN_FAULT_FREE
            for status in report.statuses.values()
        )

    def test_inconsistent_marks_everything_unknown(self, five_cycle):
        report = node_status(five_cycle, cycle_syndrome(1, 1, 1, 1, 1), 1)
        assert report.verdict.kind is VerdictKind.INCONSISTENT
        assert all(
            status is NodeStatus.UNKNOWN for status in report.statuses.values()
        )

    def test_json_keyed_by_node_id(self, five_cycle):
        report = node_status(five_cycle, cycle_syndrome(0, 0, 0, 0, 1), 1)
        assert report.to_json_dict() == {"1": "known_faulty"}
        assert report.others is NodeStatus.KNOWN_FAULT_FREE


class TestSearchMatchesBruteForce:
    def test_on_random_syndromes(self):
        rng = random.Random(47)
        for _ in range(150):
            g = random_digraph(rng, rng.randint(1, 8), rng.random())
            syndrome = random_syndrome(rng, g)
            t = rng.randint(0, g.n)
            verdict = identify(g, syndrome, t, candidate_limit=10_000)
            brute = all_consistent_fault_sets(g, syndrome, t)
            if verdict.kind is VerdictKind.INCONSISTENT:
                assert brute == []
            else:
                assert list(verdict.candidates) == brute

    def test_on_generated_fault_patterns(self):
        # exhaustive over fault sets and faulty-tester outcomes, small scale
        rng = random.Random(53)
        for _ in range(25):
            g = random_digraph(rng, rng.randint(2, 6), rng.uniform(0.3, 0.8))
            t = rng.randint(0, 2)
            for combo in iter_subsets(g.node_ids, t):
                members = frozenset(combo)
                free = [e.pair for e in g.edges if e.tester in members]
                forced = {
                    e.pair: int(e.testee in members)
                    for e in g.edges
                    if e.tester not in members
                }
                if len(free) > 8:
                    continue
                for bits in itertools.product((0, 1), repeat=len(free)):
                    outcomes = dict(forced)
                    outcomes.update(zip(free, bits))
                    syndrome = Syndrome(outcomes)
                    verdict = identify(g, syndrome, t, candidate_limit=10_000)
                    brute = all_consistent_fault_sets(g, syndrome, t)
                    assert members in brute  # the true set is never dropped
                    assert list(verdict.candidates) == brute


class TestMonotonicityInBudget:
    def test_candidates_grow_with_t(self):
        rng = random.Random(59)
        for _ in range(60):
            g = random_digraph(rng, rng.randint(1, 7), rng.random())
            syndrome = random_syndrome(rng, g)
            previous: set = set()
            for t in range(g.n + 1):
                current = set(all_consistent_fault_sets(g, syndrome, t))
                assert previous <= current
                previous = current


class TestNothingToIdentify:
    """A graph without nodes has one candidate, the empty set, at every t."""

    def check_unique_empty(self, graph):
        for t in (0, 1, 5):
            syndrome = Syndrome.all_clear(graph)
            verdict = identify(graph, syndrome, t)
            assert verdict.kind is VerdictKind.UNIQUE
            assert verdict.fault_set == frozenset()
            report = node_status(graph, syndrome, t)
            assert report.verdict == verdict
            assert dict(report.statuses) == {}

    def test_empty_graph(self):
        self.check_unique_empty(DiagnosticGraph.build([], []))

    def test_window_without_panes(self):
        base = scenario("pane_100hz").graph
        temporal = expand(base, 100, Interval(0, Fraction(2, 100)))
        # Strictly between the first two pane times: no pane.
        empty = restrict(temporal, Interval(Fraction(1, 300), Fraction(2, 300)))
        assert not empty.panes
        self.check_unique_empty(empty.flat_graph)


def referee_statuses(graph, candidates):
    """Per node id, its status across a referee's candidate list."""
    if not candidates:
        return dict.fromkeys(graph.node_ids, NodeStatus.UNKNOWN)
    statuses = {}
    for nid in graph.node_ids:
        holding = sum(nid in candidate for candidate in candidates)
        if holding == len(candidates):
            statuses[nid] = NodeStatus.KNOWN_FAULTY
        elif holding:
            statuses[nid] = NodeStatus.UNKNOWN
        else:
            statuses[nid] = NodeStatus.KNOWN_FAULT_FREE
    return statuses


class TestSuspects:
    """Only suspects can be faulty: the ends of failed tests and the nodes
    with fewer than t testers.  The search visits no other node, so it is
    held to the brute-force referee at every t, on syndromes that put the
    lemma's cases in play: weak nodes that no test failed, suspects passed
    by a node outside the suspects, and outcomes chosen to confuse."""

    def syndromes(self, rng, graph):
        yield random_syndrome(rng, graph)
        faults = rng.sample(graph.node_ids, rng.randint(0, min(3, graph.n)))
        yield generate_syndrome(graph, faults, bernoulli(0.5), rng.getrandbits(32))
        few = rng.sample(graph.node_ids, rng.randint(0, min(2, graph.n)))
        free = sum(edge.tester in few for edge in graph.edges)
        if free <= 6:
            yield generate_syndrome(graph, few, adversarial(rng.randint(0, 3)))

    def test_candidates_lie_within_the_suspects(self):
        rng = random.Random(71)
        seen = {"weak suspect faulty": 0, "cleared suspect": 0, "ambiguous": 0}
        for index in range(160):
            n = rng.randint(1, 12)
            if index % 2:
                graph = clustered_digraph(rng, n)
            else:
                graph = random_digraph(rng, n, rng.uniform(0.05, 0.6))
            degrees = dict(zip(graph.node_ids, count_in_degrees(graph)))
            for syndrome in self.syndromes(rng, graph):
                ends = {
                    member
                    for pair, value in syndrome.outcomes.items()
                    if value
                    for member in pair
                }
                referee = all_consistent_fault_sets(graph, syndrome, graph.n)
                for t in range(graph.n + 1):
                    candidates = [c for c in referee if len(c) <= t]
                    suspects = ends | {v for v in graph.node_ids if degrees[v] < t}
                    for candidate in candidates:
                        assert candidate <= suspects
                        seen["weak suspect faulty"] += bool(candidate - ends)
                    seen["cleared suspect"] += any(
                        edge.tester not in suspects and edge.testee in suspects
                        for edge in graph.edges
                    )
                    verdict = identify(graph, syndrome, t, candidate_limit=10_000)
                    assert list(verdict.candidates) == candidates
                    assert verdict.candidate_count == len(candidates)
                    seen["ambiguous"] += verdict.kind is VerdictKind.AMBIGUOUS
                    report = node_status(graph, syndrome, t, candidate_limit=10_000)
                    assert report.verdict == verdict
                    assert dict(report.statuses) == referee_statuses(graph, candidates)
        assert all(seen.values()), seen


def expand_document(document, node_ids):
    """Every node's status as an ``identify --json`` document gives it: its
    listed status, else the one status of all the others."""
    listed, others = document["statuses"], document["others"]
    return {nid: NodeStatus(listed.get(str(nid), others)) for nid in node_ids}


class TestIdentifyDocument:
    """``identify --json`` lists the nodes some candidate holds and gives
    one status, ``others``, for the rest; expanded, it is the complete
    ``node_status(...).statuses``."""

    def identify_json(self, capsys, graph_path, syndrome_path, t):
        argv = ["identify", str(graph_path), str(syndrome_path), "--t", str(t)]
        code = main([*argv, "--json"])
        return code, json.loads(capsys.readouterr().out)

    def test_expanded_document_matches_the_referee(self, tmp_path, capsys):
        rng = random.Random(83)
        kinds = dict.fromkeys(VerdictKind, 0)
        graph_path, syndrome_path = tmp_path / "g.json", tmp_path / "s.json"
        for _ in range(60):
            graph = random_digraph(rng, rng.randint(1, 8), rng.uniform(0.1, 0.7))
            syndrome = random_syndrome(rng, graph)
            graph_path.write_text(dump_json(graph_to_dict(graph)))
            syndrome_path.write_text(dump_json(syndrome_to_dict(syndrome)))
            referee = all_consistent_fault_sets(graph, syndrome, graph.n)
            for t in range(graph.n + 1):
                code, document = self.identify_json(capsys, graph_path, syndrome_path, t)
                report = node_status(graph, syndrome, t)
                kind = report.verdict.kind
                kinds[kind] += 1
                assert code == (0 if kind is VerdictKind.UNIQUE else 1)
                assert document["verdict"] == report.verdict.to_json_dict()
                expanded = expand_document(document, graph.node_ids)
                assert expanded == dict(report.statuses)
                candidates = [c for c in referee if len(c) <= t]
                assert expanded == referee_statuses(graph, candidates)
                if kind is VerdictKind.INCONSISTENT:
                    assert document["statuses"] == {}
                    assert document["others"] == "unknown"
                else:
                    assert document["others"] == "known_fault_free"
                    assert "known_fault_free" not in document["statuses"].values()
        assert min(kinds.values()) > 0, kinds

    def test_report_lists_the_nodes_that_differ(self, five_cycle):
        for outcomes, t, others in (
            ((0, 0, 0, 0, 1), 1, NodeStatus.KNOWN_FAULT_FREE),
            ((0, 1, 0, 0, 1), 2, NodeStatus.KNOWN_FAULT_FREE),
            ((1, 1, 1, 1, 1), 1, NodeStatus.UNKNOWN),
        ):
            report = node_status(five_cycle, cycle_syndrome(*outcomes), t)
            assert report.others is others
            assert list(report.statuses) == list(five_cycle.node_ids)
            assert {
                nid: status
                for nid, status in report.statuses.items()
                if status is not others
            } == dict(report.listed)

    def test_ten_second_recording_prints_a_small_document(
        self, tmp_path, capsys, monkeypatch
    ):
        recording = expand(
            scenario("localization").graph,
            100,
            Interval(0, 10),
            TemporalTemplate(offsets=frozenset({1, 2}), bidirectional=True),
        )
        flat = recording.flat_graph
        assert flat.n == 11_011
        faults = [7, 5005, 11000]
        syndrome = generate_syndrome(flat, faults, bernoulli(0.5), seed=3)
        graph_path, syndrome_path = tmp_path / "rec.json", tmp_path / "syn.json"
        graph_path.write_text(dump_json(temporal_to_dict(recording)))
        syndrome_path.write_text(dump_json(syndrome_to_dict(syndrome)))

        def refuse(self):
            raise AssertionError("the full status mapping was built")

        monkeypatch.setattr(StatusReport, "statuses", property(refuse))
        code = main(["identify", str(graph_path), str(syndrome_path), "--t", "4", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.encode()) < 1024
        document = json.loads(out)
        assert document == {
            "verdict": {"kind": "unique", "fault_set": faults},
            "statuses": {str(nid): "known_faulty" for nid in faults},
            "others": "known_fault_free",
            "exceeds_majority_budget": False,
        }
        code = main(["identify", str(graph_path), str(syndrome_path), "--t", "4"])
        assert code == 0
        assert capsys.readouterr().out == (
            "verdict: unique [7, 5005, 11000]\n"
            "  node 7: known_faulty\n"
            "  node 5005: known_faulty\n"
            "  node 11000: known_faulty\n"
            "  all 11,008 other nodes: known_fault_free\n"
        )
