"""The runtime identification path against literal copies of its older code.

``identify`` on a temporal recording loads a syndrome, expands and flattens
the recording and propagates tester rows as bitmasks.  The helpers below
spell out the earlier per-edge forms of each step over dicts and tuples;
the tests hold the fast forms to them, messages and orders included.
"""

import random
from fractions import Fraction

import pytest

from conftest import tester_masks
from diagkit.errors import GraphError, SyndromeError
from diagkit.graph import (
    DiagnosticGraph,
    Edge,
    EdgeKind,
    Node,
    Syndrome,
    failed_masks,
)
from diagkit.identification import (
    NodeStatus,
    VerdictKind,
    all_consistent_fault_sets,
    identify,
    node_status,
)
from diagkit.jsonio import syndrome_from_dict
from diagkit.simulator import adversarial, bernoulli, generate_syndrome, scenario
from diagkit.temporal import Interval, TemporalTemplate, expand, restrict

BASE_KINDS = [kind for kind in EdgeKind if kind is not EdgeKind.TEMPORAL]


# ---------------------------------------------------------------------------
# Literal copies of the earlier code
# ---------------------------------------------------------------------------


def literal_expand_edges(base, panes, template):
    last = panes[-1]
    edges = []
    for pane in panes:
        for edge in base.edges:
            edges.append(((pane, edge.tester), (pane, edge.testee)))
    ids = base.node_ids
    for pane in panes:
        for offset in sorted(template.offsets):
            other = pane + offset
            if other > last:
                continue
            if template.base_identity_only:
                pairs = [(nid, nid) for nid in ids]
            else:
                pairs = [(i, j) for i in ids for j in ids]
            for i, j in pairs:
                edges.append(((pane, i), (other, j)))
                if template.bidirectional:
                    edges.append(((other, j), (pane, i)))
    edges.sort()
    return tuple(edges)


def literal_flat_ids(temporal):
    vertices = [(pane, nid) for pane in temporal.panes for nid in temporal.base.node_ids]
    return {vertex: fid for fid, vertex in enumerate(vertices)}


def literal_flat_graph(temporal):
    flat = literal_flat_ids(temporal)
    base_nodes = {node.id: node for node in temporal.base.nodes}
    nodes = [
        Node(
            id=flat[(pane, nid)],
            label=f"{pane}:{nid}",
            frequency_hz=base_nodes[nid].frequency_hz,
        )
        for pane, nid in flat
    ]
    kinds = {edge.pair: edge.kind for edge in temporal.base.edges}
    edges = []
    for (pane_a, id_a), (pane_b, id_b) in temporal.edges:
        kind = kinds[(id_a, id_b)] if pane_a == pane_b else EdgeKind.TEMPORAL
        edges.append(Edge(flat[(pane_a, id_a)], flat[(pane_b, id_b)], kind))
    return DiagnosticGraph.build(nodes, edges)


def literal_violations(nodes, edges):
    nodes = sorted(nodes, key=lambda node: node.id)
    edges = sorted(edges, key=lambda edge: edge.pair)
    found = []
    seen_ids = set()
    for node in nodes:
        if node.id in seen_ids:
            found.append(f"duplicate node id: {node.id}")
        seen_ids.add(node.id)
    seen_pairs = set()
    for edge in edges:
        if edge.tester == edge.testee:
            found.append(f"self-loop: edge ({edge.tester}, {edge.testee})")
        if edge.pair in seen_pairs:
            found.append(f"duplicate edge: ({edge.tester}, {edge.testee})")
        seen_pairs.add(edge.pair)
        for endpoint in edge.pair:
            if endpoint not in seen_ids:
                found.append(
                    f"dangling endpoint: edge ({edge.tester}, {edge.testee}) "
                    f"references undeclared node {endpoint}"
                )
    return tuple(found)


def literal_integer(value):
    """The integrality rule: a non-bool number equal to an integer, else None."""
    if isinstance(value, bool):
        return None
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return number if number == value else None


def literal_normalized(outcomes):
    normalized = {}
    for (tester, testee), value in dict(outcomes).items():
        if literal_integer(value) not in (0, 1):
            raise SyndromeError(
                f"outcome for edge ({tester}, {testee}) must be 0 or 1, got {value!r}"
            )
        if literal_integer(tester) is None or literal_integer(testee) is None:
            raise SyndromeError(
                f"outcome for edge ({tester!r}, {testee!r}) must name integer node ids"
            )
        normalized[(int(tester), int(testee))] = int(value)
    return normalized


def literal_require_total(outcomes, graph):
    expected = {edge.pair for edge in graph.edges}
    got = set(outcomes)
    missing = sorted(expected - got)
    unknown = sorted(got - expected)
    if missing or unknown:
        parts = []
        if missing:
            parts.append(f"missing outcomes for edges {missing}")
        if unknown:
            parts.append(f"outcomes for unknown edges {unknown}")
        raise SyndromeError(
            "syndrome must cover every edge exactly once: " + "; ".join(parts)
        )


FIELDS = ("tester", "testee", "value")


def shaped(rng, fields):
    """``fields`` as a [tester, testee, value] array or as an object, at random."""
    return fields if rng.random() < 0.5 else dict(zip(FIELDS, fields))


def literal_field(entry, key):
    """A field of a row: a [tester, testee, value] array, or an object."""
    if isinstance(entry, (list, tuple)):
        return entry[FIELDS.index(key)]
    return entry[key]


def literal_id(entry, key):
    number = literal_integer(literal_field(entry, key))
    if number is None:
        raise ValueError(f"outcome {entry!r}: {key!r} must be an integer")
    return number


def literal_syndrome_from_dict(data, graph=None):
    if not isinstance(data, dict) or "outcomes" not in data:
        raise ValueError("syndrome document must have an 'outcomes' list")
    outcomes = {}
    for entry in data["outcomes"]:
        if not (
            isinstance(entry, dict)
            or isinstance(entry, (list, tuple)) and len(entry) == 3
        ):
            raise ValueError(
                "each outcome must be a [tester, testee, value] array or an "
                f"object, got {entry!r}"
            )
        pair = (literal_id(entry, "tester"), literal_id(entry, "testee"))
        if pair in outcomes:
            raise SyndromeError(f"duplicate outcome for edge {pair}")
        outcomes[pair] = literal_field(entry, "value")
    normalized = literal_normalized(outcomes)
    if graph is not None:
        literal_require_total(normalized, graph)
    return normalized


def literal_candidate_masks(graph, syndrome, t):
    """The search with its earlier flood, which trusts one tester at a time."""
    failed = failed_masks(graph, syndrome)
    full = (1 << graph.n) - 1
    passed = [out & ~flagged for out, flagged in zip(graph.out_masks, failed)]

    def propagate(in_mask, out_mask, pending):
        while pending:
            low = pending & -pending
            pending ^= low
            tester = low.bit_length() - 1
            flagged, cleared = failed[tester], passed[tester]
            if flagged & out_mask or cleared & in_mask:
                return None
            if flagged & ~in_mask:
                in_mask |= flagged
                if in_mask.bit_count() > t:
                    return None
            fresh = cleared & ~out_mask
            out_mask |= fresh
            pending |= fresh
        return in_mask, out_mask

    found = []
    stack = [(0, 0)]
    while stack:
        in_mask, out_mask = stack.pop()
        undecided = full & ~(in_mask | out_mask)
        if not undecided:
            found.append(in_mask)
            continue
        low = undecided & -undecided
        grown = in_mask | low
        if grown.bit_count() <= t:
            stack.append((grown, out_mask))
        state = propagate(in_mask, out_mask | low, low)
        if state is not None:
            stack.append(state)
    found.sort(key=lambda mask: (mask.bit_count(), graph.id_tuple(mask)))
    return found


def outcome_of(call, *args):
    """``("ok", result)`` or ``(exception type, message)``."""
    try:
        return "ok", call(*args)
    except Exception as exc:  # the type is what is compared
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# Random inputs
# ---------------------------------------------------------------------------


def gapped_base(rng, n, p):
    """Valid base graph on ``n`` ids drawn with gaps, random kinds and rates."""
    ids = sorted(rng.sample(range(40), n))
    nodes = [
        Node(nid, f"m{nid}", rng.choice([None, Fraction(rng.randint(1, 200))]))
        for nid in ids
    ]
    edges = [
        Edge(i, j, rng.choice(BASE_KINDS))
        for i in ids
        for j in ids
        if i != j and rng.random() < p
    ]
    rng.shuffle(edges)
    return DiagnosticGraph.build(nodes, edges)


def random_template(rng):
    return TemporalTemplate(
        offsets=frozenset(rng.sample([1, 2, 3], rng.randint(1, 3))),
        bidirectional=rng.random() < 0.5,
        base_identity_only=rng.random() < 0.5,
    )


def random_expansion(rng, n_base, max_panes):
    base = gapped_base(rng, n_base, rng.uniform(0.1, 0.8))
    hz = rng.choice([10, 100, 50])
    start = rng.randint(0, 5)
    panes = rng.randint(1, max_panes)
    interval = Interval(Fraction(start, hz), Fraction(start + panes - 1, hz))
    return expand(base, hz, interval, random_template(rng))


# ---------------------------------------------------------------------------
# Expansion and flattening
# ---------------------------------------------------------------------------


class TestFlatGraphMatchesLiteral:
    def test_random_bases_templates_and_restrictions(self):
        rng = random.Random(3)
        for _ in range(120):
            temporal = random_expansion(rng, rng.randint(1, 6), 6)
            assert temporal.edges == literal_expand_edges(
                temporal.base, temporal.panes, temporal.template
            )
            views = [temporal]
            if len(temporal.panes) > 2:
                lo, hi = temporal.panes[1], temporal.panes[-2]
                sub = Interval(
                    temporal.pane_time(lo), temporal.pane_time(hi)
                )
                views.append(restrict(temporal, sub))
            for view in views:
                flat = view.flat_graph
                expected = literal_flat_graph(view)
                assert flat.nodes == expected.nodes
                assert flat.edges == expected.edges
                for vertex, fid in literal_flat_ids(view).items():
                    assert view.flat_id(vertex) == fid
                    assert view.vertex_of(fid) == vertex

    def test_vertex_tuples_are_shared(self):
        temporal = expand(
            scenario("localization").graph,
            100,
            Interval(0, Fraction(1, 20)),
            TemporalTemplate(offsets=frozenset({1, 2}), bidirectional=True),
        )
        endpoints = [vertex for edge in temporal.edges for vertex in edge]
        assert len({id(vertex) for vertex in endpoints}) == len(set(endpoints))


# ---------------------------------------------------------------------------
# Validation and syndromes
# ---------------------------------------------------------------------------


class TestValidationMatchesLiteral:
    def test_violations_on_malformed_graphs(self):
        rng = random.Random(5)
        seen = {"malformed": 0, "clean": 0}
        for _ in range(300):
            ids = [rng.randint(0, 8) for _ in range(rng.randint(0, 7))]
            nodes = tuple(Node(nid) for nid in ids)
            edges = tuple(
                Edge(rng.randint(0, 10), rng.randint(0, 10))
                for _ in range(rng.randint(0, 12))
            )
            found = literal_violations(nodes, edges)
            if found:
                seen["malformed"] += 1
                with pytest.raises(GraphError) as raised:
                    DiagnosticGraph(nodes, edges)
                assert str(raised.value) == "; ".join(found)
            else:
                seen["clean"] += 1
                graph = DiagnosticGraph(nodes, edges)
                order = graph.node_ids
                assert order == tuple(sorted(ids))
                pairs = [(order[u], order[v]) for u, v in graph.position_pairs()]
                assert pairs == sorted(edge.pair for edge in edges)
        assert all(seen.values()), seen

    def test_require_total_messages(self):
        rng = random.Random(7)
        for _ in range(200):
            graph = gapped_base(rng, rng.randint(1, 7), rng.random())
            pairs = [edge.pair for edge in graph.edges]
            kept = [pair for pair in pairs if rng.random() < 0.8]
            extra = [
                (rng.randint(0, 45), rng.randint(0, 45))
                for _ in range(rng.choice([0, 0, 1, 3]))
            ]
            outcomes = {pair: rng.randint(0, 1) for pair in kept + extra}
            syndrome = Syndrome(outcomes)
            assert outcome_of(syndrome.require_total, graph) == outcome_of(
                literal_require_total, dict(syndrome.outcomes), graph
            )

    def test_syndrome_normalisation(self):
        rng = random.Random(11)
        keys = [1, 2, 3, "2", 3.0, True]
        values = [0, 1, 0, 1, "1", 1.0, False, 2, -1, "x", None]
        for _ in range(400):
            outcomes = {
                (rng.choice(keys), rng.choice(keys)): rng.choice(values)
                for _ in range(rng.randint(0, 6))
            }
            got = outcome_of(lambda: list(Syndrome(outcomes).outcomes.items()))
            want = outcome_of(lambda: list(literal_normalized(outcomes).items()))
            assert got == want

    def test_syndrome_from_dict(self):
        rng = random.Random(13)
        graph = gapped_base(random.Random(1), 5, 0.6)
        pairs = [edge.pair for edge in graph.edges]

        def row():
            tester, testee = rng.choice(pairs)
            entry = {"tester": tester, "testee": testee, "value": rng.randint(0, 1)}
            flaw = rng.randrange(12)
            if flaw == 0:
                entry["value"] = rng.choice([2, "x", None, "1", 1.0])
            elif flaw == 1:
                del entry[rng.choice(["tester", "testee", "value"])]
            elif flaw == 2:
                return [tester, testee, entry["value"]]
            elif flaw == 3:
                entry["tester"] = rng.choice(["a", str(tester), [tester], float(tester)])
            elif flaw == 4:
                fields = [tester, testee, entry["value"]]
                fields[rng.randrange(3)] = rng.choice([True, 1.5, "2", None])
                return fields
            elif flaw == 5:
                return [tester, testee, entry["value"], 0][: rng.choice([0, 2, 4])]
            return entry

        seen = {"ok": 0, KeyError: 0, "error": 0}
        for _ in range(400):
            rows = [row() for _ in range(rng.randint(0, 8))]
            if rng.random() < 0.5:
                # every edge once, in random order and either row shape: the
                # document is often total
                rows = [
                    shaped(rng, [a, b, rng.randint(0, 1)])
                    for a, b in rng.sample(pairs, len(pairs))
                ] + rows[: rng.randint(0, 1)]
            data = {"outcomes": rows}
            against = rng.choice([None, graph])
            want = outcome_of(literal_syndrome_from_dict, data, against)
            got = outcome_of(
                lambda: dict(syndrome_from_dict(data, against).outcomes)
            )
            seen[want[0] if want[0] in ("ok", KeyError) else "error"] += 1
            if want[0] is KeyError:  # an object row without one of its fields
                assert got[0] is ValueError
            elif want[0] == "ok":
                assert got == want
                # Read with its graph, a syndrome lists its outcomes in edge
                # order; read without one, in row order.
                order = list(want[1]) if against is None else pairs
                assert list(got[1]) == order
            else:
                assert got == want
        assert min(seen.values()) > 20, seen


# ---------------------------------------------------------------------------
# Identification on expansions
# ---------------------------------------------------------------------------


def statuses_from(graph, candidates):
    if not candidates:
        return {nid: NodeStatus.UNKNOWN for nid in graph.node_ids}
    everywhere = frozenset.intersection(*candidates)
    anywhere = frozenset.union(*candidates)
    return {
        nid: NodeStatus.KNOWN_FAULTY
        if nid in everywhere
        else NodeStatus.UNKNOWN
        if nid in anywhere
        else NodeStatus.KNOWN_FAULT_FREE
        for nid in graph.node_ids
    }


class TestIdentificationOnExpansions:
    def test_matches_referee_on_small_expansions(self):
        rng = random.Random(17)
        checked = 0
        while checked < 150:
            temporal = random_expansion(rng, rng.randint(1, 4), 4)
            flat = temporal.flat_graph
            if flat.n > 14:
                continue
            checked += 1
            t = rng.randint(0, 3)
            faults = rng.sample(flat.node_ids, min(rng.randint(0, t + 1), flat.n))
            if rng.random() < 0.3:
                syndrome = Syndrome(
                    {edge.pair: rng.randint(0, 1) for edge in flat.edges}
                )
            else:
                syndrome = generate_syndrome(
                    flat, faults, bernoulli(0.5), seed=rng.getrandbits(32)
                )
            brute = all_consistent_fault_sets(flat, syndrome, t)
            verdict = identify(flat, syndrome, t, candidate_limit=1 << 20)
            assert list(verdict.candidates) == brute
            assert verdict.candidate_count == len(brute)
            report = node_status(flat, syndrome, t)
            assert dict(report.statuses) == statuses_from(flat, brute)
            assert report.verdict == identify(flat, syndrome, t)

    def test_edgeless_graph_beyond_the_recursion_limit(self):
        graph = DiagnosticGraph.build([Node(i) for i in range(1200)], [])
        verdict = identify(graph, Syndrome({}), 0)
        assert verdict.kind is VerdictKind.UNIQUE
        assert verdict.fault_set == frozenset()

    def test_round_flood_matches_the_per_tester_flood_on_a_recording(self):
        # The brute-force referee cannot run on 1,111 vertices; the earlier
        # per-tester flood can.  The adversarial policy is capped at 14
        # vertices, so its syndrome is drawn on the first pane (vertices
        # 0-10) and written over the rows of a Bernoulli syndrome there.
        recording = expand(
            scenario("localization").graph,
            100,
            Interval(0, 1),
            TemporalTemplate(offsets=frozenset({1, 2}), bidirectional=True),
        )
        flat = recording.flat_graph
        pane = restrict(recording, Interval(0, 0)).flat_graph
        assert pane.node_ids == flat.node_ids[: pane.n]
        inside = (1 << pane.n) - 1
        assert pane.out_masks == tuple(row & inside for row in flat.out_masks[: pane.n])
        # The testers of a vertex with four, all faulty, make it unknown at t = 5.
        cut_off = [mask for mask in tester_masks(flat) if mask.bit_count() == 4]
        rng = random.Random(29)
        kinds = {"unique": 0, "ambiguous": 0, "inconsistent": 0}
        for source in ("bernoulli", "adversarial", "uniform"):
            for k in range(4):
                if k < 2:
                    faults = sorted(flat.ids_of(rng.choice(cut_off)))
                else:
                    faults = rng.sample(flat.node_ids, rng.randint(0, 6))
                seed = rng.getrandbits(32)
                if source == "adversarial":
                    framed = rng.sample(pane.node_ids, rng.randint(1, 2))
                    faults = [nid for nid in faults if nid >= pane.n] + framed
                failed = list(generate_syndrome(flat, faults, bernoulli(0.5), seed)._failed)
                if source == "adversarial":
                    window = generate_syndrome(pane, framed, adversarial(2))
                    for u, row in enumerate(window._failed):
                        failed[u] = failed[u] & ~inside | row
                elif source == "uniform":
                    failed = [out & rng.getrandbits(flat.n) for out in flat.out_masks]
                syndrome = Syndrome._from_masks(flat, failed)
                for t in range(6):
                    want = [
                        flat.ids_of(mask)
                        for mask in literal_candidate_masks(flat, syndrome, t)
                    ]
                    verdict = identify(flat, syndrome, t, candidate_limit=1 << 20)
                    assert list(verdict.candidates) == want
                    assert verdict.candidate_count == len(want)
                    kinds[verdict.kind.value] += 1
                    report = node_status(flat, syndrome, t)
                    assert dict(report.statuses) == statuses_from(flat, want)
                    assert report.verdict == identify(flat, syndrome, t)
        assert min(kinds.values()) > 1, kinds

    def test_ten_second_recording(self):
        recording = expand(
            scenario("localization").graph,
            100,
            Interval(0, 10),
            TemporalTemplate(offsets=frozenset({1, 2}), bidirectional=True),
        )
        flat = recording.flat_graph
        assert flat.n == 11_011
        rng = random.Random(19)
        faults = frozenset(rng.sample(flat.node_ids, 4))
        syndrome = generate_syndrome(flat, faults, bernoulli(0.5), seed=23)
        report = node_status(flat, syndrome, 4)
        assert report.verdict.kind is VerdictKind.UNIQUE
        assert report.verdict.fault_set == faults
        faulty = {nid for nid, s in report.statuses.items() if s is NodeStatus.KNOWN_FAULTY}
        assert faulty == faults
