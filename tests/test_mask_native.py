"""The mask-built flat graph and mask-held syndromes against the literal referees.

A temporal graph writes its flat graph as rows of bitmasks, and a syndrome
read against a graph goes straight into per-tester failed masks.  Their
``nodes``, ``edges`` and ``outcomes`` are views built on first read.  The
tests hold them to the literal builder and reader in
``test_runtime_path``, values, kinds, orders and messages included, and run
an 11,011-vertex recording through the command line.
"""

import json
import pickle
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from diagkit.cli import main
from diagkit.diagnosability import common_syndrome
from diagkit.errors import SyndromeError
from diagkit.graph import DiagnosticGraph, Syndrome, failed_masks
from diagkit.jsonio import (
    dump_json,
    syndrome_from_dict,
    syndrome_to_dict,
    temporal_to_dict,
)
from diagkit.simulator import bernoulli, generate_syndrome, scenario
from diagkit.temporal import Interval, TemporalTemplate, expand, restrict
from test_runtime_path import (
    gapped_base,
    literal_expand_edges,
    literal_flat_graph,
    literal_syndrome_from_dict,
    outcome_of,
    random_expansion,
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
                assert flat.tester_masks == expected.tester_masks
                assert flat.in_degrees == expected.in_degrees
                assert flat.violations == ()
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
        broken = DiagnosticGraph(flat.nodes, flat.edges + flat.edges[:1])
        assert broken.violations == (
            f"duplicate edge: ({flat.edges[0].tester}, {flat.edges[0].testee})",
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


# ---------------------------------------------------------------------------
# Syndromes held as masks
# ---------------------------------------------------------------------------


def flawed_rows(rng, graph):
    """Rows over ``graph`` in random order, some of them malformed."""
    pairs = [edge.pair for edge in graph.edges]
    rows = [
        {"tester": a, "testee": b, "value": rng.randint(0, 1)}
        for a, b in rng.sample(pairs, len(pairs))
    ]
    for _ in range(rng.choice([0, 0, 1, 2])):
        index = rng.randrange(len(rows) + 1)
        flaw = rng.randrange(8)
        row = dict(rng.choice(rows)) if rows else {"tester": 0, "testee": 1, "value": 0}
        if flaw == 0:
            del rows[index:index + 1]  # an edge left without a row
            continue
        if flaw == 1:
            row["value"] = rng.choice([2, -1, 0.7, True, "1", None, 1.0])
            rows[index:index + 1] = [row]
            continue
        if flaw == 2:
            row["tester"] = rng.choice([1.5, "1", True, None, [1], 1e300 * 10])
        elif flaw == 3:
            row["testee"] = rng.randint(0, 3 * graph.n + 3)  # often no edge
        elif flaw == 4:
            del row[rng.choice(["tester", "testee", "value"])]
        elif flaw == 5:
            row = [row.get("tester"), row.get("testee"), row.get("value")]
        # flaw 6 and 7 repeat an edge
        rows.insert(index, row)
    return rows


class TestSyndromeFromMasks:
    def test_reader_matches_the_literal_reader(self):
        rng = random.Random(37)
        outcomes = {"ok": 0, "error": 0}
        for _ in range(300):
            if rng.random() < 0.5:
                graph = random_expansion(rng, rng.randint(1, 4), 4).flat_graph
            else:
                graph = gapped_base(rng, rng.randint(1, 7), rng.random())
            data = {"outcomes": flawed_rows(rng, graph)}
            want = outcome_of(literal_syndrome_from_dict, data, graph)
            got = outcome_of(syndrome_from_dict, data, graph)
            if want[0] == "ok":
                outcomes["ok"] += 1
                syndrome = got[1]
                assert list(syndrome.outcomes.items()) == list(want[1].items())
                assert syndrome == Syndrome(want[1])
                assert syndrome == syndrome_from_dict(data)
                assert failed_masks(graph, syndrome) == failed_masks(
                    graph, Syndrome(want[1])
                )
                syndrome.require_total(graph)
            elif want[0] in (TypeError, KeyError):
                outcomes["error"] += 1
                assert got[0] is ValueError
            else:
                outcomes["error"] += 1
                assert got == want
        assert min(outcomes.values()) > 50, outcomes

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
