"""The mask-built flat graph and mask-held syndromes against the literal referees.

A temporal graph's flat graph computes its rows of bitmasks from the
recipe when they are read, and a syndrome read against a graph goes
straight into per-tester failed masks.  Their ``nodes``, ``edges`` and
``outcomes`` are views built on first read.  The tests hold them to the
literal builder and reader in ``test_runtime_path``, values, kinds, orders
and messages included, check that ``identify`` on a recording writes and
hashes no row, and run an 11,011-vertex recording through the command
line.
"""

import hashlib
import json
import pickle
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import diagkit.graph
from conftest import tester_masks
from diagkit.cli import main
from diagkit.diagnosability import common_syndrome
from diagkit.errors import GraphError, SyndromeError
from diagkit.graph import DiagnosticGraph, Syndrome, failed_masks
from diagkit.jsonio import (
    dump_json,
    syndrome_from_dict,
    syndrome_to_dict,
    temporal_to_dict,
)
from diagkit.simulator import bernoulli, generate_syndrome, scenario
from diagkit.temporal import FlatRows, Interval, TemporalTemplate, expand, restrict
from test_runtime_path import (
    FIELDS,
    gapped_base,
    literal_expand_edges,
    literal_flat_graph,
    literal_syndrome_from_dict,
    outcome_of,
    random_expansion,
    shaped,
)


def literal_flat(temporal):
    """The literal flat builder, fed the literal expansion's edges."""
    if not temporal.panes:
        return DiagnosticGraph.build([], [])
    edges = literal_expand_edges(temporal.base, temporal.panes, temporal.template)
    return literal_flat_graph(
        SimpleNamespace(base=temporal.base, panes=temporal.panes, edges=edges)
    )


def views_of(temporal, rng):
    """The expansion, a restriction to an inner run of panes, and an empty one."""
    views = [temporal]
    if len(temporal.panes) > 2:
        lo = rng.randrange(1, len(temporal.panes) - 1)
        hi = rng.randrange(lo, len(temporal.panes) - 1)
        sub = Interval(
            temporal.pane_time(temporal.panes[lo]), temporal.pane_time(temporal.panes[hi])
        )
        views.append(restrict(temporal, sub))
    if len(temporal.panes) > 1:
        # A third of a pane period after the first pane: no sample time.
        gap = Fraction(1, 3) / temporal.frequency_hz
        first = temporal.pane_time(temporal.panes[0])
        views.append(restrict(temporal, Interval(first + gap, first + 2 * gap)))
    return views


class TestFlatGraphFromMasks:
    def test_equals_the_literal_builder(self):
        rng = random.Random(31)
        seen = {"cross": 0, "offsets": 0, "restricted": 0, "empty": 0}
        for _ in range(150):
            temporal = random_expansion(rng, rng.randint(1, 6), 7)
            seen["cross"] += not temporal.template.base_identity_only
            seen["offsets"] += len(temporal.template.offsets) > 1
            for index, view in enumerate(views_of(temporal, rng)):
                seen["restricted"] += index > 0 and bool(view.panes)
                seen["empty"] += not view.panes
                flat = view.flat_graph
                expected = literal_flat(view)
                # Compared before anything else reads the views.
                assert flat.out_masks == expected.out_masks
                assert flat.node_ids == expected.node_ids
                assert flat.nodes == expected.nodes
                assert [edge.kind for edge in flat.edges] == [
                    edge.kind for edge in expected.edges
                ]
                assert flat.edges == expected.edges
                assert flat == expected and expected == flat
                assert hash(flat) == hash(expected)
                assert {e.pair for e in flat.edges} == {e.pair for e in expected.edges}
                assert flat.in_degrees == expected.in_degrees
                assert list(flat.in_degrees) == [
                    mask.bit_count() for mask in tester_masks(expected)
                ]
                assert view.edges == tuple(
                    (view.vertex_of(edge.tester), view.vertex_of(edge.testee))
                    for edge in expected.edges
                )
        assert all(seen.values()), seen

    def test_public_constructor_still_validates(self):
        temporal = expand(
            scenario("pane_100hz").graph,
            100,
            Interval(0, Fraction(2, 100)),
            TemporalTemplate(offsets=frozenset({1, 2}), bidirectional=True),
        )
        flat = temporal.flat_graph
        rebuilt = DiagnosticGraph.build(flat.nodes, flat.edges)
        assert rebuilt == flat and hash(rebuilt) == hash(flat)
        assert repr(rebuilt) == repr(flat)
        with pytest.raises(GraphError) as raised:
            DiagnosticGraph(flat.nodes, flat.edges + flat.edges[:1])
        assert str(raised.value) == (
            f"duplicate edge: ({flat.edges[0].tester}, {flat.edges[0].testee})"
        )

    def test_views_are_frozen_and_pickle_by_value(self):
        temporal = expand(scenario("five_cycle").graph, 10, Interval(0, 1))
        flat = temporal.flat_graph
        with pytest.raises(AttributeError):
            flat.nodes = ()
        syndrome = syndrome_from_dict(
            syndrome_to_dict(generate_syndrome(flat, [3], bernoulli(0.5), seed=1)), flat
        )
        with pytest.raises(AttributeError):
            syndrome.outcomes = {}
        again = pickle.loads(pickle.dumps((temporal, syndrome)))
        assert again == (temporal, syndrome)
        assert again[0].flat_graph == flat


class TestFlatRows:
    """A flat graph's ``out_masks`` computes each row from the recipe when
    it is read, and writes them all in one full pass when iterated."""

    def test_rows_by_index_then_by_iteration_equal_the_literal_rows(self):
        rng = random.Random(53)
        seen = {
            "cross": 0, "bidirectional": 0, "forward": 0, "offsets": 0,
            "restricted": 0, "empty": 0, "shifted": 0,
        }
        for _ in range(150):
            temporal = random_expansion(rng, rng.randint(1, 6), 7)
            template = temporal.template
            seen["cross"] += not template.base_identity_only
            seen["bidirectional"] += template.bidirectional
            seen["forward"] += not template.bidirectional
            seen["offsets"] += len(template.offsets) > 1
            for index, view in enumerate(views_of(temporal, rng)):
                seen["restricted"] += index > 0 and bool(view.panes)
                seen["empty"] += not view.panes
                # The full pass shifts the rows of a pane that every offset
                # reaches from both ways, like the one before it.
                seen["shifted"] += len(view.panes) > 2 * max(template.offsets) + 1
                rows = view.flat_graph.out_masks
                expected = literal_flat(view).out_masks
                n = len(expected)
                assert len(rows) == n
                assert [rows[i] for i in range(-n, n)] == [*expected, *expected]
                for i in (n, n + 5, -n - 1):
                    with pytest.raises(IndexError):
                        rows[i]
                assert rows._rows is None  # no full pass yet
                assert tuple(rows) == expected
                assert rows._rows == expected
                assert [rows[i] for i in range(-n, n)] == [*expected, *expected]
                with pytest.raises(IndexError):
                    rows[n]
                assert rows[1:-1] == expected[1:-1]
                assert rows == expected and expected == rows and rows == rows
                assert rows != list(expected)
        assert all(seen.values()), seen

    def test_identify_on_a_recording_writes_and_hashes_no_row(
        self, tmp_path, capsys, monkeypatch
    ):
        recording = expand(
            scenario("localization").graph,
            100,
            Interval(0, 1),
            TemporalTemplate(offsets=frozenset({1, 2}), bidirectional=True),
        )
        flat = recording.flat_graph
        assert flat.n == 1111
        faults = [7, 500, 1100]
        syndrome = generate_syndrome(flat, faults, bernoulli(0.5), seed=11)
        graph_path = tmp_path / "recording.json"
        syndrome_path = tmp_path / "syndrome.json"
        graph_path.write_text(dump_json(temporal_to_dict(recording)))
        syndrome_path.write_text(dump_json(syndrome_to_dict(syndrome)))

        passes = []
        full_pass = FlatRows._all_rows

        def spy_pass(rows):
            passes.append(len(rows))
            return full_pass(rows)

        hashed = []

        class SpySha256:
            def __init__(self, data=b""):
                hashed.append(len(data))
                self._digest = hashlib.sha256(data)

            def update(self, data):
                hashed.append(len(data))
                self._digest.update(data)

            def hexdigest(self):
                return self._digest.hexdigest()

        monkeypatch.setattr(FlatRows, "_all_rows", spy_pass)
        monkeypatch.setattr(diagkit.graph, "hashlib", SimpleNamespace(sha256=SpySha256))
        argv = ["identify", str(graph_path), str(syndrome_path), "--t", "4", "--json"]
        code = main(argv)
        document = json.loads(capsys.readouterr().out)
        assert code == 0
        assert document["verdict"] == {"kind": "unique", "fault_set": faults}
        assert passes == []
        # The base graph's rows and the recipe's text: a few hundred bytes,
        # where the rows of the flat graph are 162 KB of hex.
        assert hashed and sum(hashed) < 400

    def test_a_held_syndrome_pickles_as_its_recipe(self):
        recording = expand(
            scenario("localization").graph,
            100,
            Interval(0, 10),
            TemporalTemplate(offsets=frozenset({1, 2}), bidirectional=True),
        )
        flat = recording.flat_graph
        held = generate_syndrome(flat, [7, 5005, 11000], bernoulli(0.5), seed=3)
        data = pickle.dumps(held)
        assert "edges" not in vars(flat)
        # With the graph pickled by value, as its nodes and edges: 2.95 MB.
        assert len(data) < 8_000
        again = pickle.loads(data)
        graph = again._graph
        assert "edges" not in vars(graph) and graph.out_masks._rows is None
        assert graph.fingerprint == flat.fingerprint
        assert again._held and again._failed == held._failed
        assert syndrome_to_dict(again) == syndrome_to_dict(held)


def transposed(rows, members):
    """The positions whose row holds a member of ``members``: the testers."""
    return sum(1 << u for u, row in enumerate(rows) if row & members)


class TestTestersOf:
    """``testers_of`` is the transpose of the rows: one pass over a built
    graph's rows, and on a flat graph read from the recipe, writing no
    row."""

    def check(self, graph, rows, rng):
        """Every single position, and random masks, against ``rows``."""
        n = len(rows)
        for p in range(n):
            assert graph.testers_of(1 << p) == transposed(rows, 1 << p)
        for _ in range(40):
            members = rng.getrandbits(n) & rng.getrandbits(n)
            assert graph.testers_of(members) == transposed(rows, members)
        assert graph.testers_of(0) == 0
        assert graph.testers_of((1 << n) - 1) == transposed(rows, (1 << n) - 1)

    def test_built_graphs(self):
        rng = random.Random(71)
        for _ in range(100):
            graph = gapped_base(rng, rng.randint(1, 9), rng.random())
            self.check(graph, graph.out_masks, rng)

    @pytest.mark.parametrize("identity", [True, False], ids=["identity", "cross"])
    @pytest.mark.parametrize(
        "bidirectional", [False, True], ids=["forward", "bidirectional"]
    )
    def test_flat_graphs_write_no_row(self, identity, bidirectional):
        """Offsets at and past the pane count, and one pane alone; the
        single positions cover the first and the last pane."""
        rng = random.Random(73)
        base = gapped_base(rng, 5, 0.4)
        for offsets in ({1}, {1, 2}, {3}, {2, 7}):
            template = TemporalTemplate(frozenset(offsets), bidirectional, identity)
            for count in (1, 2, 3, 6):
                interval = Interval(0, Fraction(count - 1, 10))
                temporal = expand(base, 10, interval, template)
                graph = temporal.flat_graph
                self.check(graph, literal_flat(temporal).out_masks, rng)
                assert graph.out_masks._rows is None and not graph.out_masks._read

    def test_random_expansions_and_restrictions(self):
        rng = random.Random(79)
        for _ in range(60):
            temporal = random_expansion(rng, rng.randint(1, 6), 7)
            for view in views_of(temporal, rng):
                if view.panes:
                    self.check(view.flat_graph, literal_flat(view).out_masks, rng)


# ---------------------------------------------------------------------------
# Syndromes held as masks
# ---------------------------------------------------------------------------


def random_graph(rng):
    """A flat expansion or a base graph with gapped ids, at random."""
    if rng.random() < 0.5:
        return random_expansion(rng, rng.randint(1, 4), 4).flat_graph
    return gapped_base(rng, rng.randint(1, 7), rng.random())


def flawed_rows(rng, graph):
    """Rows over ``graph`` in random order, arrays and objects mixed, some
    of them malformed."""
    pairs = [edge.pair for edge in graph.edges]
    rows = [[a, b, rng.randint(0, 1)] for a, b in rng.sample(pairs, len(pairs))]
    if rows and rng.random() < 0.25:
        rng.choice(rows)[2] = rng.choice([2, -1, 0.7, True, "1", None, 1.0])
    rows = [shaped(rng, fields) for fields in rows]
    for _ in range(rng.choice([0, 0, 1, 2])):
        index = rng.randrange(len(rows) + 1)
        flaw = rng.randrange(9)
        fields = [*rng.choice(pairs), rng.randint(0, 1)] if pairs else [0, 1, 0]
        row = None
        if flaw == 0:
            del rows[index:index + 1]  # an edge left without a row
            continue
        if flaw == 1:
            junk = rng.choice([1.5, "1", True, None, [1], 1e300 * 10])
            fields[rng.randrange(2)] = junk
        elif flaw == 2:
            fields[1] = rng.randint(0, 3 * graph.n + 3)  # often no edge
        elif flaw == 3:
            row = dict(zip(FIELDS, fields))
            del row[rng.choice(FIELDS)]
        elif flaw == 4:
            row = (fields + [0])[: rng.choice([0, 1, 2, 4])]  # not three fields
        elif flaw == 5:
            row = rng.choice([5, "x", None, True])  # neither an array nor an object
        # flaws 6 to 8 repeat an edge
        rows.insert(index, shaped(rng, fields) if row is None else row)
    return rows


class TestSyndromeFromMasks:
    def test_reader_matches_the_literal_reader(self):
        rng = random.Random(37)
        outcomes = {"ok": 0, "error": 0}
        for _ in range(300):
            graph = random_graph(rng)
            data = {"outcomes": flawed_rows(rng, graph)}
            want = outcome_of(literal_syndrome_from_dict, data, graph)
            got = outcome_of(syndrome_from_dict, data, graph)
            if want[0] == "ok":
                outcomes["ok"] += 1
                syndrome = got[1]
                assert list(syndrome.outcomes) == [edge.pair for edge in graph.edges]
                assert syndrome.outcomes == want[1]
                assert syndrome == Syndrome(want[1])
                assert syndrome == syndrome_from_dict(data)
                assert failed_masks(graph, syndrome) == failed_masks(
                    graph, Syndrome(want[1])
                )
                syndrome.require_total(graph)
            elif want[0] is KeyError:  # an object row without one of its fields
                outcomes["error"] += 1
                assert got[0] is ValueError
            else:
                outcomes["error"] += 1
                assert got == want
        assert min(outcomes.values()) > 50, outcomes

    def test_object_and_array_rows_read_equal(self):
        rng = random.Random(43)
        for _ in range(150):
            graph = random_graph(rng)
            faults = rng.sample(graph.node_ids, min(graph.n, rng.randint(0, 2)))
            syndrome = generate_syndrome(
                graph, faults, bernoulli(0.5), seed=rng.randrange(99)
            )
            written = [[*pair, value] for pair, value in syndrome.outcomes.items()]
            if rng.random() < 0.5:
                rng.shuffle(written)
            objects = [dict(zip(FIELDS, row)) for row in written]
            mixed = [shaped(rng, row) for row in written]
            reads = [
                syndrome_from_dict({"outcomes": rows}, against)
                for rows in (written, objects, mixed)
                for against in (graph, None)
            ]
            want = [((a, b), value) for a, b, value in written]
            edge_order = [edge.pair for edge in graph.edges]
            for index, read in enumerate(reads):
                # Read with its graph, a syndrome lists its outcomes in edge
                # order; read without one, in row order.
                order = [pair for pair, _ in want] if index % 2 else edge_order
                assert list(read.outcomes) == order
                assert read.outcomes == dict(want)
            masks = {failed_masks(graph, read) for read in reads}
            assert masks == {failed_masks(graph, Syndrome(dict(want)))}

    def test_mask_held_syndrome_against_another_graph(self):
        rng = random.Random(41)
        temporal = random_expansion(rng, 4, 4)
        flat = temporal.flat_graph
        twin = literal_flat(temporal)
        assert twin is not flat
        syndrome = generate_syndrome(flat, [flat.node_ids[0]], bernoulli(0.5), seed=5)
        read = syndrome_from_dict(syndrome_to_dict(syndrome), flat)
        assert read == syndrome
        read.require_total(twin)
        assert failed_masks(twin, read) == failed_masks(flat, read)
        other = gapped_base(rng, 3, 1.0)
        want = outcome_of(Syndrome(dict(read.outcomes)).require_total, other)
        assert want[0] is SyndromeError
        assert outcome_of(read.require_total, other) == want

    def test_oracle_counterexample_is_held_as_masks(self, five_cycle):
        shared = common_syndrome(five_cycle, {1, 3}, {1, 2})
        assert failed_masks(five_cycle, shared) is shared._failed
        assert list(shared.outcomes) == [edge.pair for edge in five_cycle.edges]
        assert shared == Syndrome(dict(shared.outcomes))


# ---------------------------------------------------------------------------
# Scale: a ten-second recording through the command line
# ---------------------------------------------------------------------------


def test_eleven_thousand_vertex_recording_through_the_cli(tmp_path, capsys):
    recording = expand(
        scenario("localization").graph,
        100,
        Interval(0, 10),
        TemporalTemplate(offsets=frozenset({1, 2}), bidirectional=True),
    )
    flat = recording.flat_graph
    assert flat.n == 11_011
    faults = sorted(random.Random(43).sample(flat.node_ids, 4))
    syndrome = generate_syndrome(flat, faults, bernoulli(0.5), seed=47)
    graph_path = tmp_path / "recording.json"
    syndrome_path = tmp_path / "syndrome.json"
    graph_path.write_text(dump_json(temporal_to_dict(recording)))
    syndrome_path.write_text(dump_json(syndrome_to_dict(syndrome)))
    code = main(["identify", str(graph_path), str(syndrome_path), "--t", "4", "--json"])
    document = json.loads(capsys.readouterr().out)
    assert code == 0
    assert document["verdict"] == {"kind": "unique", "fault_set": faults}
    faulty = [int(nid) for nid, s in document["statuses"].items() if s == "known_faulty"]
    assert sorted(faulty) == faults
