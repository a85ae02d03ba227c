"""JSON round trips, format validation, and DOT rendering."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle_syndrome, random_digraph
from diagkit.dot import graph_to_dot, temporal_to_dot
from diagkit.errors import SyndromeError
from diagkit.graph import (
    DiagnosticGraph,
    Edge,
    EdgeKind,
    Node,
    Syndrome,
    as_fraction,
    failed_masks,
)
from diagkit.jsonio import (
    dump_json,
    fraction_to_json,
    graph_from_dict,
    graph_to_dict,
    load_graph_file,
    syndrome_from_dict,
    syndrome_to_dict,
    temporal_from_dict,
    temporal_to_dict,
)
from diagkit.simulator import ALWAYS_PASS, bernoulli, generate_syndrome
from diagkit.temporal import Interval, TemporalGraph, TemporalTemplate, expand, restrict


@st.composite
def arbitrary_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    ids = list(range(1, n + 1))
    frequencies = st.one_of(
        st.none(),
        st.sampled_from([1, 5, 100, Fraction(1, 3), 0.02, Fraction(7, 2)]),
    )
    nodes = [
        Node(
            i,
            label=draw(st.sampled_from(["", "io", 'quo"ted', "reader"])),
            frequency_hz=draw(frequencies),
        )
        for i in ids
    ]
    pairs = [(i, j) for i in ids for j in ids if i != j]
    chosen = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    edges = [Edge(a, b, draw(st.sampled_from(list(EdgeKind)))) for a, b in chosen]
    return DiagnosticGraph.build(nodes, edges)


class TestGraphRoundTrip:
    @given(arbitrary_graphs())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_preserves_structure(self, graph):
        data = json.loads(json.dumps(graph_to_dict(graph)))
        assert graph_from_dict(data) == graph

    def test_documented_shape(self, localization):
        doc = graph_to_dict(localization)
        assert {"id": 1, "label": "GPS reader", "hz": 1.0} in doc["nodes"]
        assert {"tester": 6, "testee": 1, "kind": "input_admissibility"} in doc[
            "edges"
        ]

    def test_unknown_kind_warns_and_maps_to_unspecified(self):
        data = {
            "nodes": [{"id": 1}, {"id": 2}],
            "edges": [{"tester": 1, "testee": 2, "kind": "vibes"}],
        }
        with pytest.warns(UserWarning, match="unknown edge kind"):
            graph = graph_from_dict(data)
        assert graph.edges[0].kind is EdgeKind.UNSPECIFIED

    def test_missing_kind_defaults_to_unspecified(self):
        data = {"nodes": [{"id": 1}, {"id": 2}], "edges": [{"tester": 1, "testee": 2}]}
        assert graph_from_dict(data).edges[0].kind is EdgeKind.UNSPECIFIED

    def test_malformed_document(self):
        with pytest.raises(ValueError, match="nodes"):
            graph_from_dict({"edges": []})


class TestFractionJson:
    def test_decimal_representable_stays_numeric(self):
        assert fraction_to_json(Fraction(1, 50)) == 0.02
        assert fraction_to_json(Fraction(100)) == 100.0

    def test_non_decimal_becomes_ratio_string(self):
        assert fraction_to_json(Fraction(1, 3)) == "1/3"
        assert as_fraction("1/3") == Fraction(1, 3)

    def test_round_trip(self):
        for value in (Fraction(1, 3), Fraction(1, 50), Fraction(7, 2), Fraction(5)):
            assert as_fraction(fraction_to_json(value)) == value

    def test_floats_read_at_decimal_face_value(self):
        """Integral floats take a shortcut; every float still reads as its
        shortest decimal spelling, as ``Fraction(str(value))`` does."""
        boundary = [0.0, -0.0, 1.0, -1.0, 100.0, 2.0**53 - 1, 2.0**53, -(2.0**53)]
        boundary += [2.0**53 + 2, 1e16, 1e300, -1e300, 0.02, 0.5, 1e-300]
        rng = random.Random(29)
        integral = [float(rng.randint(-(2**60), 2**60)) for _ in range(2000)]
        integral += [float(rng.randint(-1000, 1000)) for _ in range(1000)]
        scattered = [rng.uniform(-1e6, 1e6) for _ in range(1000)]
        scattered += [rng.random() * 10.0 ** rng.randint(-20, 300) for _ in range(1000)]
        for value in boundary + integral + scattered:
            assert as_fraction(value) == Fraction(str(value)), value
        assert as_fraction(1e300) == 10**300


class TestSyndromeJson:
    def test_round_trip(self, five_cycle):
        syndrome = cycle_syndrome(0, 1, 0, 0, 1)
        data = json.loads(json.dumps(syndrome_to_dict(syndrome)))
        assert syndrome_from_dict(data, five_cycle) == syndrome

    def test_documented_shape(self):
        doc = syndrome_to_dict(Syndrome({(5, 1): 1, (1, 2): 0}))
        assert doc == {"outcomes": [[1, 2, 0], [5, 1, 1]]}
        assert dump_json(doc) == '{"outcomes":[[1,2,0],[5,1,1]]}\n'

    def test_a_bound_syndrome_is_written_from_its_masks(self, five_cycle):
        syndrome = Syndrome({(5, 1): 1, (3, 4): 0, (1, 2): 1, (4, 5): 0, (2, 3): 0})
        unbound = syndrome_to_dict(syndrome)
        failed_masks(five_cycle, syndrome)
        assert syndrome._graph is five_cycle
        assert syndrome_to_dict(syndrome) == unbound
        assert unbound["outcomes"][0] == [1, 2, 1]

    @staticmethod
    def last_row_error(graph, row):
        """The error of a five-cycle syndrome whose row for (5, 1) is ``row``."""
        rows = [[1, 2, 0], [2, 3, 0], [3, 4, 0], [4, 5, 0], row]
        with pytest.raises((ValueError, SyndromeError)) as caught:
            syndrome_from_dict({"outcomes": rows}, graph)
        return caught.type, str(caught.value)

    @pytest.mark.parametrize("row", [[5, 1], [5, 1, 1, 0], [], (5, 1), 7, None])
    def test_rows_of_another_shape(self, five_cycle, row):
        assert self.last_row_error(five_cycle, row) == (
            ValueError,
            "each outcome must be a [tester, testee, value] array or an object, "
            f"got {row!r}",
        )

    @pytest.mark.parametrize(
        "row, key",
        [([True, 1, 1], "tester"), ([5, 1.5, 1], "testee"), (["5", 1, 1], "tester"),
         ([5, None, 1], "testee")],
    )
    def test_array_ids_that_are_not_integers(self, five_cycle, row, key):
        assert self.last_row_error(five_cycle, row) == (
            ValueError, f"outcome {row!r}: {key!r} must be an integer"
        )

    @pytest.mark.parametrize("value", [True, 1.5, "2", None, 2])
    def test_array_values_that_are_not_0_or_1(self, five_cycle, value):
        assert self.last_row_error(five_cycle, [5, 1, value]) == (
            SyndromeError, f"outcome for edge (5, 1) must be 0 or 1, got {value!r}"
        )

    def test_duplicate_array_row(self, five_cycle):
        assert self.last_row_error(five_cycle, [4, 5, 1]) == (
            SyndromeError, "duplicate outcome for edge (4, 5)"
        )

    def test_duplicate_outcome_rejected(self, five_cycle):
        data = {
            "outcomes": [
                {"tester": 1, "testee": 2, "value": 0},
                {"tester": 1, "testee": 2, "value": 1},
            ]
        }
        with pytest.raises(SyndromeError, match="duplicate"):
            syndrome_from_dict(data, five_cycle)

    def test_partial_coverage_rejected(self, five_cycle):
        data = {"outcomes": [{"tester": 1, "testee": 2, "value": 0}]}
        with pytest.raises(SyndromeError, match="missing"):
            syndrome_from_dict(data, five_cycle)


class TestTemporalJson:
    def test_round_trip(self, pane_100hz):
        template = TemporalTemplate(offsets=frozenset({1, 2}), bidirectional=True)
        g = expand(pane_100hz, 100, Interval(0, 0.02), template)
        data = json.loads(json.dumps(temporal_to_dict(g)))
        assert temporal_from_dict(data) == g

    def test_round_trip_of_restriction(self, pane_100hz):
        g = expand(pane_100hz, 100, Interval(0, 0.02))
        sub = restrict(g, Interval(0, 0.01))
        assert temporal_from_dict(temporal_to_dict(sub)) == sub

    def test_random_round_trips(self):
        rng = random.Random(89)
        for _ in range(40):
            base = random_digraph(rng, rng.randint(1, 5), rng.random())
            hz = rng.choice([1, 10, Fraction(1, 3)])
            m = rng.randint(0, 3)
            template = TemporalTemplate(
                offsets=frozenset(rng.sample([1, 2, 3], rng.randint(1, 2))),
                bidirectional=rng.random() < 0.5,
                base_identity_only=rng.random() < 0.8,
            )
            g = expand(base, hz, Interval(0, Fraction(m, 1) / hz), template)
            assert temporal_from_dict(temporal_to_dict(g)) == g


class TestFiles:
    def test_load_graph_file_detects_kind(self, tmp_path, pane_100hz):
        plain = tmp_path / "plain.json"
        plain.write_text(dump_json(graph_to_dict(pane_100hz)))
        loaded = load_graph_file(plain)
        assert isinstance(loaded, DiagnosticGraph)
        temporal = tmp_path / "temporal.json"
        g = expand(pane_100hz, 100, Interval(0, 0.01))
        temporal.write_text(dump_json(temporal_to_dict(g)))
        loaded = load_graph_file(temporal)
        assert isinstance(loaded, TemporalGraph)
        assert loaded == g

    def test_dump_json_is_stable(self, five_cycle):
        doc = graph_to_dict(five_cycle)
        assert dump_json(doc) == dump_json(json.loads(json.dumps(doc)))

    def test_dump_json_is_compact_and_reads_back_to_the_same_bytes(self, pane_100hz):
        template = TemporalTemplate(offsets=frozenset({1, 2}), bidirectional=True)
        temporal = expand(pane_100hz, Fraction(100, 3), Interval(0, 0.06), template)
        flat = temporal.flat_graph
        syndrome = generate_syndrome(flat, [0, 4], bernoulli(0.5), seed=3)
        for doc in (
            graph_to_dict(pane_100hz),
            graph_to_dict(flat),
            temporal_to_dict(temporal),
            syndrome_to_dict(syndrome),
        ):
            text = dump_json(doc)
            assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
            assert text.count("\n") == 1
            assert dump_json(json.loads(text)) == text


class TestDot:
    def test_nodes_and_kind_labels(self, localization):
        rendered = graph_to_dot(localization)
        assert '"1" [label="1:GPS reader"];' in rendered
        assert '"6" -> "1" [label="input_admissibility"];' in rendered

    def test_syndrome_highlights_failures(self, five_cycle):
        rendered = graph_to_dot(five_cycle, cycle_syndrome(0, 0, 0, 0, 1))
        assert '"5" -> "1" [color="crimson", penwidth=2.0];' in rendered
        assert '"1" -> "2";' in rendered

    def test_label_escaping(self):
        g = DiagnosticGraph.build([Node(1, label='say "hi"')], [])
        assert '\\"hi\\"' in graph_to_dot(g)

    def test_temporal_vertex_names(self, pane_100hz):
        g = expand(pane_100hz, 100, Interval(0, 0.01))
        rendered = temporal_to_dot(g)
        assert '"0:4";' in rendered
        assert '"0:4" -> "1:4" [label="temporal"];' in rendered

    def test_temporal_with_syndrome(self, pane_100hz):
        g = expand(pane_100hz, 100, Interval(0, 0.01))
        faulty = frozenset({g.flat_id((0, 9))})
        syndrome = generate_syndrome(g.flat_graph, faulty, ALWAYS_PASS)
        rendered = temporal_to_dot(g, syndrome)
        assert "crimson" in rendered
