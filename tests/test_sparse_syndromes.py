"""Syndrome files that list their failed tests and fingerprint their graph.

A syndrome made over a graph is written as ``{"failed": [[tester, testee],
...], "graph": <fingerprint>, "others": "pass"}``.  The tests read one
syndrome as that document, as full rows and as shuffled object rows, and
hold all three to the literal row reader; they check that a sparse round
trip gives the same bytes, and that every mutation of a sparse document is
refused, by the library and, with exit code 2, by the command line.
"""

import hashlib
import json
import pickle
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import random_digraph
from diagkit.cli import main
from diagkit.errors import SyndromeError
from diagkit.graph import DiagnosticGraph, Edge, EdgeKind, Node, Syndrome, failed_masks
from diagkit.jsonio import (
    dump_json,
    graph_to_dict,
    syndrome_from_dict,
    syndrome_to_dict,
)
from diagkit.simulator import bernoulli, generate_syndrome, scenario
from diagkit.temporal import Interval, TemporalTemplate, expand, restrict
from test_runtime_path import (
    FIELDS,
    gapped_base,
    literal_syndrome_from_dict,
    outcome_of,
    random_expansion,
)


@pytest.fixture(scope="module")
def recording():
    """``localization`` at 100 Hz over one second: 1,111 vertices."""
    template = TemporalTemplate(offsets=frozenset({1, 2}), bidirectional=True)
    return expand(scenario("localization").graph, 100, Interval(0, 1), template)


def small_graphs(rng, count):
    """Random graphs with at most 10 nodes, ids dense or gapped."""
    for _ in range(count):
        n = rng.randint(1, 10)
        if rng.random() < 0.5:
            yield random_digraph(rng, n, rng.random())
        else:
            yield gapped_base(rng, n, rng.random())


def random_syndrome(rng, graph):
    faults = rng.sample(graph.node_ids, min(graph.n, rng.randint(0, 4)))
    return generate_syndrome(graph, faults, bernoulli(0.5), seed=rng.randrange(10**6))


def three_shapes(rng, syndrome):
    """A mask-held syndrome as written, as full rows and as shuffled object rows."""
    rows = [[*pair, value] for pair, value in syndrome.outcomes.items()]
    objects = [dict(zip(FIELDS, row)) for row in rows]
    rng.shuffle(objects)
    return syndrome_to_dict(syndrome), {"outcomes": rows}, {"outcomes": objects}


def assert_shapes_read_equal(rng, graph, syndrome):
    sparse, rows, objects = three_shapes(rng, syndrome)
    want = literal_syndrome_from_dict(rows, graph)
    assert sparse["failed"] == sorted([a, b] for (a, b), value in want.items() if value)
    for data in (sparse, rows, objects):
        read = syndrome_from_dict(json.loads(dump_json(data)), graph)
        assert read._failed == syndrome._failed
        assert dict(read.outcomes) == want
        assert failed_masks(graph, Syndrome(dict(read.outcomes))) == syndrome._failed


class TestThreeShapesReadEqual:
    def test_small_random_graphs(self):
        rng = random.Random(61)
        for graph in small_graphs(rng, 300):
            assert_shapes_read_equal(rng, graph, random_syndrome(rng, graph))

    def test_the_recording(self, recording):
        rng = random.Random(67)
        flat = recording.flat_graph
        assert flat.n == 1111
        for _ in range(3):
            assert_shapes_read_equal(rng, flat, random_syndrome(rng, flat))


def test_sparse_round_trip_gives_the_same_bytes(recording):
    rng = random.Random(71)
    graphs = [*small_graphs(rng, 100), DiagnosticGraph([], []), recording.flat_graph]
    for graph in graphs:
        text = dump_json(syndrome_to_dict(random_syndrome(rng, graph)))
        again = syndrome_from_dict(json.loads(text), graph)
        assert dump_json(syndrome_to_dict(again)) == text


def test_a_pickled_syndrome_keeps_its_bytes(five_cycle, recording):
    rng = random.Random(73)
    for graph in [*small_graphs(rng, 30), five_cycle, recording.flat_graph]:
        held = random_syndrome(rng, graph)
        again = pickle.loads(pickle.dumps(held))
        assert again._held and again == held
        assert dump_json(syndrome_to_dict(again)) == dump_json(syndrome_to_dict(held))
    given = Syndrome(dict(held.outcomes))
    failed_masks(recording.flat_graph, given)
    again = pickle.loads(pickle.dumps(given))
    assert not again._held
    assert syndrome_to_dict(again) == syndrome_to_dict(given)


def test_only_a_syndrome_made_over_a_graph_is_written_sparse(five_cycle):
    held = generate_syndrome(five_cycle, [1], bernoulli(0.5), seed=3)
    given = Syndrome(dict(held.outcomes))
    failed_masks(five_cycle, given)  # bound, but built from outcomes
    assert set(syndrome_to_dict(held)) == {"failed", "graph", "others"}
    assert syndrome_to_dict(given) == {
        "outcomes": [[*pair, value] for pair, value in sorted(held.outcomes.items())]
    }


class TestFingerprint:
    def test_is_the_sha256_of_hex_ids_and_rows(self, five_cycle):
        # ids 1..5, then the rows: position p tests p + 1, and 5 tests 1.
        text = b"1,2,3,4,5,;2,4,8,10,1,"
        assert five_cycle.fingerprint == hashlib.sha256(text).hexdigest()
        assert five_cycle.fingerprint == (
            "20e83e274829e93686a5c28b97c907575ae6f1a24f0041187e81e58eec276489"
        )

    def test_covers_ids_and_edges_not_labels_kinds_or_rates(self, five_cycle):
        relabelled = DiagnosticGraph(
            [Node(node.id, "x", Fraction(7)) for node in five_cycle.nodes],
            [Edge(*edge.pair, EdgeKind.TEMPORAL) for edge in five_cycle.edges],
        )
        assert relabelled.fingerprint == five_cycle.fingerprint
        nodes, edges = five_cycle.nodes, five_cycle.edges
        others = [
            DiagnosticGraph(nodes, edges[1:]),
            DiagnosticGraph(nodes, [*edges, Edge(1, 3)]),
            DiagnosticGraph([*nodes, Node(6)], edges),
            DiagnosticGraph(
                [Node(node.id * 2) for node in nodes],
                [Edge(edge.tester * 2, edge.testee * 2) for edge in edges],
            ),
        ]
        prints = {graph.fingerprint for graph in [five_cycle, *others]}
        assert len(prints) == 5

    def test_a_flat_graph_is_named_by_its_recipe(self, recording):
        flat = recording.flat_graph
        base, template = recording.base, recording.template
        text = (
            f"flat;base={base.fingerprint};offsets=1,2;bidirectional=true"
            ";identity_only=true;panes=101"
        )
        assert flat.fingerprint == hashlib.sha256(text.encode()).hexdigest()
        # 101 panes again, at another rate or from another first pane.
        for hz, interval in [(100, Interval(3, 4)), (200, Interval(1, Fraction(3, 2)))]:
            again = expand(base, hz, interval, template).flat_graph
            assert (again.node_ids, again.out_masks) == (flat.node_ids, flat.out_masks)
            assert again.fingerprint == flat.fingerprint
        # One recipe field changed at a time.
        fewer_edges = DiagnosticGraph(base.nodes, base.edges[1:])
        changed = [
            expand(fewer_edges, 100, Interval(0, 1), template),
            expand(base, 100, Interval(0, 1), replace(template, offsets={1})),
            expand(base, 100, Interval(0, 1), replace(template, offsets={1, 3})),
            expand(base, 100, Interval(0, 1), replace(template, bidirectional=False)),
            expand(
                base, 100, Interval(0, 1), replace(template, base_identity_only=False)
            ),
            expand(base, 100, Interval(0, Fraction(99, 100)), template),
        ]
        prints = {flat.fingerprint, *(view.flat_graph.fingerprint for view in changed)}
        assert len(prints) == len(changed) + 1
        rng = random.Random(79)
        small = [random_expansion(rng, rng.randint(1, 4), 4) for _ in range(20)]
        empty = restrict(recording, Interval(Fraction(1, 300), Fraction(2, 300)))
        for view in [recording, *changed, *small, empty]:
            graph = view.flat_graph
            twin = DiagnosticGraph(graph.nodes, graph.edges)
            assert twin == graph and twin.fingerprint != graph.fingerprint


# ---------------------------------------------------------------------------
# Mutations of a sparse document
# ---------------------------------------------------------------------------


def sparse_document(graph):
    """A five-cycle syndrome that fails (2, 3) and (5, 1), as written."""
    return {
        "failed": [[2, 3], [5, 1]],
        "graph": graph.fingerprint,
        "others": "pass",
    }


NO_KEY = object()  # a key the mutation deletes
NOT_A_PAIR = "each failed test must be a [tester, testee] pair, got "
NOT_IDS = "must name two integer ids"
NO_MARKER = 'syndrome document with \'failed\' must have "others": "pass", got '
ANOTHER_GRAPH = "syndrome was recorded against another graph"

# name: (a pair appended to "failed", keys set or deleted, error, message start)
MUTATIONS = {
    "non-edge pair": ([1, 3], {}, SyndromeError, "failed test (1, 3) is no edge"),
    "undeclared id": ([9, 1], {}, SyndromeError, "failed test (9, 1) is no edge"),
    "repeated pair": ([2, 3.0], {}, SyndromeError, "duplicate failed test (2, 3)"),
    "pair 1.5": ([1.5, 2], {}, ValueError, f"failed test [1.5, 2] {NOT_IDS}"),
    "pair true": ([True, 2], {}, ValueError, f"failed test [True, 2] {NOT_IDS}"),
    "pair string": (["1", 2], {}, ValueError, f"failed test ['1', 2] {NOT_IDS}"),
    "pair null": ([1, None], {}, ValueError, f"failed test [1, None] {NOT_IDS}"),
    "pair of three": ([1, 2, 1], {}, ValueError, NOT_A_PAIR + "[1, 2, 1]"),
    "pair of one": ([1], {}, ValueError, NOT_A_PAIR + "[1]"),
    "pair object": ({}, {}, ValueError, NOT_A_PAIR + "{}"),
    "failed not a list": (None, {"failed": 7}, ValueError, "'failed' must be a list"),
    "others missing": (None, {"others": NO_KEY}, ValueError, NO_MARKER + "None"),
    "others fail": (None, {"others": "fail"}, ValueError, NO_MARKER + "'fail'"),
    "others 0": (None, {"others": 0}, ValueError, NO_MARKER + "0"),
    "others PASS": (None, {"others": "PASS"}, ValueError, NO_MARKER + "'PASS'"),
    "fingerprint missing": (None, {"graph": NO_KEY}, SyndromeError, ANOTHER_GRAPH),
    "fingerprint wrong": (None, {"graph": "0" * 64}, SyndromeError, ANOTHER_GRAPH),
    "with outcomes": (
        None, {"outcomes": []}, ValueError, "syndrome document has both 'failed'"
    ),
}


def mutate(data, mutation):
    """``data`` with one mutation, and the error type and message it must raise."""
    pair, keys, error, message = MUTATIONS[mutation]
    data = dict(data, failed=[*data["failed"], *([pair] if pair is not None else [])])
    for key, value in keys.items():
        if value is NO_KEY:
            del data[key]
        else:
            data[key] = value
    return data, (error, message)


class TestSparseMutations:
    def test_the_unmutated_document_reads(self, five_cycle):
        read = syndrome_from_dict(sparse_document(five_cycle), five_cycle)
        assert dict(read.outcomes) == {
            (1, 2): 0, (2, 3): 1, (3, 4): 0, (4, 5): 0, (5, 1): 1
        }

    def test_a_pair_reads_only_if_it_is_an_edge(self):
        # Pairs next to an edge: ids off by one are often undeclared, between
        # two declared ones.
        rng = random.Random(73)
        seen = {"edge": 0, "no edge": 0}
        for graph in small_graphs(rng, 300):
            edges = [edge.pair for edge in graph.edges]
            if not edges:
                continue
            a, b = rng.choice(edges)
            pair = (a + rng.choice([-1, 0, 1]), b + rng.choice([-1, 0, 1]))
            data = {"failed": [list(pair)], "graph": graph.fingerprint, "others": "pass"}
            got = outcome_of(syndrome_from_dict, data, graph)
            if pair in edges:
                seen["edge"] += 1
                assert [p for p, value in got[1].outcomes.items() if value] == [pair]
            else:
                seen["no edge"] += 1
                message = f"failed test {pair} is no edge of the graph"
                assert got == (SyndromeError, message)
        assert min(seen.values()) > 50, seen

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_a_mutation_raises(self, five_cycle, mutation):
        data, (kind, message) = mutate(sparse_document(five_cycle), mutation)
        with pytest.raises(kind) as raised:
            syndrome_from_dict(data, five_cycle)
        assert str(raised.value).startswith(message)

    def test_a_read_with_no_graph_raises(self, five_cycle):
        with pytest.raises(ValueError, match="needs its graph"):
            syndrome_from_dict(sparse_document(five_cycle))

    def test_a_syndrome_of_another_graph_is_refused(self, five_cycle, recording):
        flat = recording.flat_graph
        data = syndrome_to_dict(generate_syndrome(flat, [], bernoulli(0.5)))
        assert data["failed"] == []
        with pytest.raises(SyndromeError, match="recorded against another graph"):
            syndrome_from_dict(data, five_cycle)

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_a_mutation_exits_2_through_the_cli(self, capsys, tmp_path, mutation):
        graph = scenario("five_cycle").graph
        data, (_, message) = mutate(sparse_document(graph), mutation)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        code = main(["identify", "five_cycle", str(path), "--t", "1", "--json"])
        out, err = capsys.readouterr()
        assert code == 2
        assert json.loads(out)["error"].startswith(message)
        assert err.startswith("error: ") and "Traceback" not in err

    def test_the_cli_reads_the_unmutated_document(self, capsys, tmp_path):
        graph_path = tmp_path / "g.json"
        graph_path.write_text(dump_json(graph_to_dict(scenario("five_cycle").graph)))
        path = tmp_path / "s.json"
        path.write_text(json.dumps(sparse_document(scenario("five_cycle").graph)))
        code = main(["identify", str(graph_path), str(path), "--t", "2", "--json"])
        document = json.loads(capsys.readouterr().out)
        assert code == 1
        assert document["verdict"]["candidates"] == [[1, 2], [1, 3]]
