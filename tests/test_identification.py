"""Fault identification: exact search vs. brute force, statuses, verdicts."""

import itertools
import random

import pytest

from conftest import cycle_syndrome, iter_subsets, random_digraph
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
    VerdictKind,
    all_consistent_fault_sets,
    identify,
    node_status,
)


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
        assert report.to_json_dict() == {
            "1": "known_faulty",
            "2": "known_fault_free",
            "3": "known_fault_free",
            "4": "known_fault_free",
            "5": "known_fault_free",
        }


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
