"""Syndrome generation, bundled scenarios, Monte-Carlo harness."""

import itertools
import json
import random
from importlib import resources

import pytest

from conftest import cycle_syndrome, random_digraph
from diagkit.diagnosability import max_diagnosability
from diagkit.errors import SizeCapError
from diagkit.graph import pmc_compatible
from diagkit import simulator
from diagkit.cli import _jsonable
from diagkit.identification import VerdictKind, all_consistent_fault_sets
from diagkit.jsonio import graph_from_dict
from diagkit.simulator import (
    ALWAYS_FAIL,
    ALWAYS_PASS,
    FaultPolicy,
    PolicyKind,
    adversarial,
    bernoulli,
    generate_syndrome,
    monte_carlo,
    parse_policy,
    scenario,
    scenario_names,
)


class TestGenerateSyndrome:
    def test_no_faults_means_all_pass(self, five_cycle):
        for policy in (ALWAYS_PASS, ALWAYS_FAIL, bernoulli(0.5), adversarial()):
            syndrome = generate_syndrome(five_cycle, frozenset(), policy, seed=1)
            assert syndrome == cycle_syndrome(0, 0, 0, 0, 0)

    def test_always_pass_single_fault(self, five_cycle):
        assert generate_syndrome(five_cycle, {1}, ALWAYS_PASS) == cycle_syndrome(
            0, 0, 0, 0, 1
        )

    def test_always_fail_single_fault(self, five_cycle):
        assert generate_syndrome(five_cycle, {1}, ALWAYS_FAIL) == cycle_syndrome(
            1, 0, 0, 0, 1
        )

    def test_unknown_fault_ids_rejected(self, five_cycle):
        with pytest.raises(ValueError, match="unknown node ids"):
            generate_syndrome(five_cycle, {42}, ALWAYS_PASS)

    def test_deterministic_across_calls(self, five_cycle):
        a = generate_syndrome(five_cycle, {1, 3}, bernoulli(0.5), seed=123)
        b = generate_syndrome(five_cycle, {1, 3}, bernoulli(0.5), seed=123)
        assert a == b
        c = generate_syndrome(five_cycle, {1, 3}, bernoulli(0.5), seed=124)
        # different seed is allowed to differ (and does for this instance)
        assert a != c

    def test_generated_syndromes_are_compatible_with_truth(self):
        rng = random.Random(79)
        policies = [ALWAYS_PASS, ALWAYS_FAIL, bernoulli(0.3), bernoulli(0.9)]
        for _ in range(80):
            g = random_digraph(rng, rng.randint(1, 8), rng.random())
            members = frozenset(i for i in g.node_ids if rng.random() < 0.3)
            policy = rng.choice(policies)
            syndrome = generate_syndrome(g, members, policy, seed=rng.randint(0, 99))
            assert pmc_compatible(g, syndrome, members)

    def test_adversarial_maximizes_candidates(self, five_cycle):
        syndrome = generate_syndrome(five_cycle, {1, 2}, adversarial(budget=2))
        achieved = len(all_consistent_fault_sets(five_cycle, syndrome, 2))
        # brute-force the best achievable count over the free outcomes
        free = [(1, 2), (2, 3)]
        forced = {
            e.pair: int(e.testee in {1, 2})
            for e in five_cycle.edges
            if e.tester not in {1, 2}
        }
        best = 0
        from diagkit.graph import Syndrome

        for bits in itertools.product((0, 1), repeat=2):
            candidate = dict(forced)
            candidate.update(zip(free, bits))
            best = max(
                best,
                len(all_consistent_fault_sets(five_cycle, Syndrome(candidate), 2)),
            )
        assert achieved == best
        assert achieved >= 2  # ambiguity is achievable here

    def test_adversarial_is_pmc_compatible_with_truth(self, five_cycle):
        syndrome = generate_syndrome(five_cycle, {1, 2}, adversarial(budget=2))
        assert pmc_compatible(five_cycle, syndrome, {1, 2})

    def test_adversarial_cap(self):
        rng = random.Random(83)
        g = random_digraph(rng, 15, 0.5)
        with pytest.raises(SizeCapError):
            generate_syndrome(g, {1}, adversarial())


class TestPolicyParsing:
    def test_spellings(self):
        assert parse_policy("always_pass") is ALWAYS_PASS
        assert parse_policy("always_fail") is ALWAYS_FAIL
        assert parse_policy("bernoulli:0.25") == bernoulli(0.25)
        assert parse_policy("adversarial") == adversarial()
        assert parse_policy("adversarial:3") == adversarial(3)

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy"):
            parse_policy("coin_flip")

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            FaultPolicy(PolicyKind.BERNOULLI, p=1.5)


class TestScenarios:
    def test_names(self):
        assert scenario_names() == ("five_cycle", "localization", "pane_100hz")

    def test_five_cycle(self):
        scen = scenario("five_cycle")
        assert scen.graph.n == 5
        assert len(scen.graph.edges) == 5
        assert max_diagnosability(scen.graph).t_max == 1

    def test_localization(self):
        scen = scenario("localization")
        g = scen.graph
        assert g.n == 11
        assert max_diagnosability(g).t_max == 1
        names = {p.name for p in scen.documented_properties}
        assert "min_in_degree" in names and "t_max" in names
        assert "reconstruction" in scen.notes

    def test_pane_100hz(self):
        scen = scenario("pane_100hz")
        assert scen.graph.node_ids == (4, 9, 11)
        assert max_diagnosability(scen.graph).t_max == 1

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario("nope")

    def test_bundled_files_hold_their_property_lists(self):
        for name in scenario_names():
            document = json.loads(_packaged_text(name))
            scen = scenario(name)
            assert scen.graph == graph_from_dict(document)
            listed = [
                {"name": p.name, "expected": _jsonable(p.expected), "provenance": p.provenance}
                for p in scen.documented_properties
            ]
            assert listed == document["documented_properties"]
            assert scen.notes == document["notes"]

    def test_property_lists_cover_every_self_check(self):
        names = {
            name: [p.name for p in scenario(name).documented_properties]
            for name in scenario_names()
        }
        assert names == {
            "five_cycle": [
                "node_count",
                "edge_count",
                "min_in_degree",
                "t_max",
                "min_in_degree_attained_at",
                "refuted_at_t=2",
            ],
            "localization": [
                "node_count",
                "min_in_degree",
                "min_in_degree_attained_at",
                "testable_set({1,2,3,4,5,8,9,10})",
                "t_max",
                "refuted_at_t=2",
                "nodes_at_100hz",
                "edge_count",
            ],
            "pane_100hz": [
                "node_ids",
                "t_max",
                "equals_frequency_subgraph(localization,100)",
            ],
        }
        five_cycle = {p.name: p.expected for p in scenario("five_cycle").documented_properties}
        assert five_cycle["min_in_degree_attained_at"] == frozenset({1, 2, 3, 4, 5})

    def test_every_documented_property_is_verified_on_load(self, served):
        for name in scenario_names():
            document = json.loads(_packaged_text(name))
            for entry in document["documented_properties"]:
                original = entry["expected"]
                entry["expected"] = _wrong(original)
                served[name] = json.dumps(document)
                scenario.cache_clear()
                with pytest.raises(RuntimeError, match="scenario self-check failed"):
                    scenario(name)
                entry["expected"] = original
            del served[name]

    def test_document_with_an_edge_removed_fails_to_load(self, served):
        for name in scenario_names():
            edges = json.loads(_packaged_text(name))["edges"]
            for index in range(len(edges)):
                document = json.loads(_packaged_text(name))
                del document["edges"][index]
                served[name] = json.dumps(document)
                scenario.cache_clear()
                with pytest.raises(RuntimeError, match="scenario self-check failed"):
                    scenario(name)
            del served[name]

    def test_unmeasured_property_fails_to_load(self, served):
        document = json.loads(_packaged_text("five_cycle"))
        document["documented_properties"].append(
            {"name": "girth", "expected": 5, "provenance": "defining constraint"}
        )
        served["five_cycle"] = json.dumps(document)
        with pytest.raises(RuntimeError, match="five_cycle girth: no measure"):
            scenario("five_cycle")


def _packaged_text(name):
    return resources.files("diagkit").joinpath("scenarios", f"{name}.json").read_text()


def _wrong(value):
    """A JSON value that no correct measure of a bundled scenario gives."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return -1
    if isinstance(value, list):
        return value + [99]
    return value + "?"


@pytest.fixture
def served(monkeypatch):
    """Scenario documents to serve in place of the packaged ones, by name."""
    documents = {}
    packaged = simulator._scenario_text
    monkeypatch.setattr(
        simulator, "_scenario_text", lambda name: documents.get(name) or packaged(name)
    )
    scenario.cache_clear()
    yield documents
    scenario.cache_clear()


class TestMonteCarlo:
    def test_within_budget_identification_is_perfect(self, five_cycle):
        report = monte_carlo(five_cycle, 1, 1000, ALWAYS_PASS, seed=7)
        assert report.unique_rate == 1.0
        assert report.unique_correct == 1000
        # nothing healthy was ever flagged
        for confusion in report.confusion.values():
            assert confusion.healthy_flagged == 0
            assert confusion.faulty_cleared == 0

    def test_adversary_beats_overstretched_budget(self, five_cycle):
        report = monte_carlo(five_cycle, 2, 200, adversarial(), seed=7)
        assert report.unique_rate < 1.0

    def test_zero_budget(self, five_cycle):
        report = monte_carlo(five_cycle, 0, 50, ALWAYS_FAIL, seed=3)
        assert report.unique_rate == 1.0
        assert all(record.faults == frozenset() for record in report.records)

    def test_deterministic(self, five_cycle):
        a = monte_carlo(five_cycle, 2, 100, bernoulli(0.4), seed=11)
        b = monte_carlo(five_cycle, 2, 100, bernoulli(0.4), seed=11)
        assert a.to_json_dict() == b.to_json_dict()
        assert a.records == b.records

    def test_rates_sum_to_one(self, five_cycle):
        report = monte_carlo(five_cycle, 2, 100, bernoulli(0.4), seed=11)
        assert report.unique + report.ambiguous + report.inconsistent == 100

    def test_csv_output(self, five_cycle, tmp_path):
        report = monte_carlo(five_cycle, 1, 10, ALWAYS_PASS, seed=1)
        path = tmp_path / "trials.csv"
        report.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "trial,faults,verdict,correct"
        assert len(lines) == 11

    def test_report_json_shape(self, five_cycle):
        doc = monte_carlo(five_cycle, 1, 20, ALWAYS_PASS, seed=2).to_json_dict()
        assert doc["trials"] == 20
        assert doc["unique_rate"] == 1.0
        assert set(doc["confusion"]) == {"1", "2", "3", "4", "5"}
