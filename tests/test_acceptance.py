"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria with stated runtime limits assert them.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from conftest import cycle_syndrome, iter_subsets, random_digraph
from diagkit.cli import main as cli_main
from diagkit.diagnosability import (
    is_t_diagnosable,
    max_diagnosability,
    oracle_is_t_diagnosable,
    search_ceiling,
)
from diagkit.graph import (
    DiagnosticGraph,
    Edge,
    Node,
    Syndrome,
    min_in_degree,
    pmc_compatible,
    testable_set,
)
from diagkit.identification import VerdictKind, identify
from diagkit.simulator import ALWAYS_PASS, generate_syndrome, monte_carlo, scenario
from diagkit.temporal import (
    Interval,
    TemporalTemplate,
    expand,
    frequency_subgraph,
    restrict,
)

DENSE_TEMPLATE = TemporalTemplate(offsets=frozenset({1, 2}), bidirectional=True)


def report(number: int, text: str) -> None:
    print(f"[acceptance] criterion {number:>2}: PASS — {text}")


def test_c01_five_cycle_diagnosability(five_cycle):
    start = time.perf_counter()
    result = max_diagnosability(five_cycle)
    assert result.t_max == 1
    two = is_t_diagnosable(five_cycle, 2)
    assert not two.diagnosable
    assert two.failed_condition == "cond_ii"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"five-cycle t_max = 1, t = 2 fails cond_ii ({elapsed:.3f}s)")


def test_c02_single_fault_identification(five_cycle):
    for free_bit in (0, 1):
        syndrome = cycle_syndrome(free_bit, 0, 0, 0, 1)
        verdict = identify(five_cycle, syndrome, 1)
        assert verdict.kind is VerdictKind.UNIQUE
        assert verdict.fault_set == frozenset({1})
    report(2, "both faulty-tester outcomes identify module 1 uniquely")


def test_c03_double_fault_ambiguity(five_cycle):
    result = oracle_is_t_diagnosable(five_cycle, 2)
    assert not result.diagnosable
    pair = result.counterexample
    assert pair is not None and pair.fault_set_a != pair.fault_set_b
    assert pmc_compatible(five_cycle, pair.syndrome, pair.fault_set_a)
    assert pmc_compatible(five_cycle, pair.syndrome, pair.fault_set_b)
    verdict = identify(five_cycle, pair.syndrome, 2)
    assert verdict.kind is VerdictKind.AMBIGUOUS
    report(
        3,
        f"shared syndrome for {sorted(pair.fault_set_a)} vs "
        f"{sorted(pair.fault_set_b)} is ambiguous at t = 2",
    )


def test_c04_localization_reverification():
    start = time.perf_counter()
    graph = scenario("localization").graph  # load re-verifies its properties
    degree, attaining = min_in_degree(graph)
    assert degree == 2 and 6 in attaining
    assert testable_set(graph, {1, 2, 3, 4, 5, 8, 9, 10}) == frozenset({11})
    result = max_diagnosability(graph)
    assert result.t_max == 1
    refutation = is_t_diagnosable(graph, 2)
    assert refutation.failed_condition == "cond_iii"
    assert refutation.witness.p == 1
    assert len(refutation.witness.members) == 8
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(4, f"localization fixture re-verified, t_max = 1 ({elapsed:.3f}s)")


def test_c05_frequency_tiers(localization):
    sub = frequency_subgraph(localization, 100)
    assert sub.node_ids == (4, 9, 11)
    assert max_diagnosability(sub).t_max == 1
    report(5, "100 Hz tier is {4, 9, 11} and 1-diagnosable")


def test_c06_temporal_gain(pane_100hz):
    start = time.perf_counter()
    expansion = expand(pane_100hz, 100, Interval(0, "0.02"), DENSE_TEMPLATE)
    flat = expansion.flat_graph
    assert flat.n == 9
    checker_t = max_diagnosability(flat).t_max
    oracle_at_checker = oracle_is_t_diagnosable(flat, checker_t)
    oracle_above = (
        oracle_is_t_diagnosable(flat, checker_t + 1)
        if checker_t + 1 < flat.n
        else None
    )
    assert oracle_at_checker.diagnosable and (
        oracle_above is None or not oracle_above.diagnosable
    ), f"checker and oracle disagree around t = {checker_t}"
    # reconstruction caveat: the pane graph is a bundled reconstruction; if
    # the computed value ever drifts from 3, surface it rather than hide it
    assert checker_t == 3, (
        f"expected 3-diagnosable temporal expansion, computed t_max = {checker_t}"
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(6, f"3-pane expansion is exactly 3-diagnosable per checker and oracle ({elapsed:.1f}s)")


def test_c07_expansion_structure():
    rng = random.Random(20260811)
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
        single = expand(base, hz, Interval(0, 0))
        assert {(a[1], b[1]) for a, b in single.edges} == {
            e.pair for e in base.edges
        }
        assert [v[1] for v in single.vertices] == list(base.node_ids)
    report(7, "pane/edge structure exact on 100 random bases; single pane ≅ base")


def test_c08_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for n in range(1, 6):
        nodes = tuple(Node(i) for i in range(1, n + 1))
        pairs = [
            (i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j
        ]
        for mask in range(1 << len(pairs)):
            edges = tuple(
                Edge(*pairs[b]) for b in range(len(pairs)) if mask >> b & 1
            )
            graph = DiagnosticGraph(nodes, edges)
            for t in range((n - 1) // 2 + 1):
                assert (
                    is_t_diagnosable(graph, t).diagnosable
                    == oracle_is_t_diagnosable(graph, t).diagnosable
                ), (n, mask, t)
                checked += 1
    exhaustive = time.perf_counter() - start
    rng = random.Random(314159)
    for trial in range(1000):
        graph = random_digraph(rng, rng.randint(6, 10), rng.uniform(0.05, 0.95))
        for t in range(search_ceiling(graph) + 1):
            assert (
                is_t_diagnosable(graph, t).diagnosable
                == oracle_is_t_diagnosable(graph, t).diagnosable
            ), trial
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(
        8,
        f"checker == oracle on all digraphs n <= 5 and 1000 random n in [6,10] "
        f"({checked} checks, exhaustive {exhaustive:.0f}s, total {elapsed:.0f}s)",
    )


def test_c09_identification_soundness():
    start = time.perf_counter()
    rng = random.Random(271828)
    graphs_used = 0
    syndromes = 0
    free_cap = 12  # keeps the per-fault-set syndrome space exhaustively enumerable
    while graphs_used < 60:
        graph = random_digraph(rng, rng.randint(3, 8), rng.uniform(0.2, 0.7))
        t = max_diagnosability(graph).t_max
        if t == 0 and graphs_used > 5:
            continue
        out_degree = {nid: 0 for nid in graph.node_ids}
        for edge in graph.edges:
            out_degree[edge.tester] += 1
        worst_free = sum(sorted(out_degree.values(), reverse=True)[:t])
        if worst_free > free_cap:
            continue
        graphs_used += 1
        for combo in iter_subsets(graph.node_ids, t):
            members = frozenset(combo)
            free = [e.pair for e in graph.edges if e.tester in members]
            forced = {
                e.pair: int(e.testee in members)
                for e in graph.edges
                if e.tester not in members
            }
            for bits in itertools.product((0, 1), repeat=len(free)):
                outcomes = dict(forced)
                outcomes.update(zip(free, bits))
                verdict = identify(graph, Syndrome(outcomes), t)
                assert verdict.kind is VerdictKind.UNIQUE, (members, bits)
                assert verdict.fault_set == members, (members, bits)
                syndromes += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(
        9,
        f"unique identification on {graphs_used} t-diagnosable graphs over "
        f"{syndromes} exhaustive syndromes ({elapsed:.0f}s)",
    )


def test_c10_monotonicity_suites():
    rng = random.Random(161803)
    for _ in range(200):
        n = rng.randint(2, 8)
        small = random_digraph(rng, n, rng.uniform(0.05, 0.6))
        present = {e.pair for e in small.edges}
        additions = tuple(
            Edge(i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j and (i, j) not in present and rng.random() < 0.5
        )
        big = DiagnosticGraph(small.nodes, small.edges + additions)
        assert max_diagnosability(small).t_max <= max_diagnosability(big).t_max

    for _ in range(100):
        base = random_digraph(rng, rng.randint(1, 5), rng.uniform(0.2, 0.8))
        hz = rng.choice([1, 10, 100])
        template = TemporalTemplate(
            offsets=frozenset(rng.sample([1, 2], rng.randint(1, 2))),
            bidirectional=rng.random() < 0.5,
        )
        g = expand(base, hz, Interval(0, Fraction(2, hz)), template)
        values = []
        for panes in (2, 1, 0):
            sub = restrict(g, Interval(0, Fraction(panes, hz)))
            values.append(max_diagnosability(sub.flat_graph).t_max)
        assert values == sorted(values, reverse=True), values
    report(10, "edge addition (200 pairs) and restriction (100 graphs): zero violations")


def test_c11_determinism(tmp_path, five_cycle, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code = cli_main(
            [
                "simulate",
                "five_cycle",
                "--random",
                "2",
                "--policy",
                "bernoulli:0.5",
                "--seed",
                "7",
                "--out",
                str(path),
            ]
        )
        assert code == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()

    mc = monte_carlo(five_cycle, 1, 1000, ALWAYS_PASS, seed=7)
    assert mc.unique_rate == 1.0
    assert mc.unique_correct == 1000
    report(11, "byte-identical syndrome files; 1000-trial unique rate = 1.0")
