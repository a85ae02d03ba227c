"""Node and audit statuses against literal copies of their earlier code.

``node_status`` and ``audit`` share one rule: a group of vertices is
known-faulty when every candidate holds all of it, known-fault-free when
none holds any of it, and unknown otherwise.  The helpers below keep the
two earlier spellings of that rule, and a third computed from the
brute-force referee on each window's restriction; the tests hold the
shared rule to all of them.
"""

import random
from fractions import Fraction
from types import MappingProxyType

from conftest import scan_t_max
from diagkit.graph import DiagnosticGraph, Edge, EdgeKind, Node, Syndrome
from diagkit.identification import (
    NodeStatus,
    _candidate_masks,
    all_consistent_fault_sets,
    node_status,
)
from diagkit.simulator import bernoulli, generate_syndrome
from diagkit.temporal import (
    AuditReport,
    Interval,
    TemporalTemplate,
    WindowAudit,
    audit,
    expand,
    restrict,
)

BASE_KINDS = [kind for kind in EdgeKind if kind is not EdgeKind.TEMPORAL]


# ---------------------------------------------------------------------------
# Literal copies of the earlier code
# ---------------------------------------------------------------------------


def literal_node_statuses(graph, syndrome, t):
    masks = _candidate_masks(graph, syndrome, t)
    statuses = {}
    if not masks:
        for nid in graph.node_ids:
            statuses[nid] = NodeStatus.UNKNOWN
    else:
        everywhere = masks[0]
        anywhere = 0
        for mask in masks:
            everywhere &= mask
            anywhere |= mask
        for pos, nid in enumerate(graph.node_ids):
            bit = 1 << pos
            if everywhere & bit:
                statuses[nid] = NodeStatus.KNOWN_FAULTY
            elif not anywhere & bit:
                statuses[nid] = NodeStatus.KNOWN_FAULT_FREE
            else:
                statuses[nid] = NodeStatus.UNKNOWN
    return statuses


def literal_audit(graph, syndrome, windows, *, include_vertices=False):
    syndrome.require_total(graph.flat_graph)
    if not windows:
        raise ValueError("audit needs at least one window")
    for smaller, bigger in zip(windows, windows[1:]):
        if not bigger.contains(smaller):
            raise ValueError(
                f"windows must be nested ascending: {bigger} does not contain {smaller}"
            )
    if not graph.interval.contains(windows[-1]):
        raise ValueError(
            f"window {windows[-1]} is not contained in the graph interval "
            f"{graph.interval}"
        )
    by_temporal_edge = {
        edge: syndrome.value(graph.flat_id(edge[0]), graph.flat_id(edge[1]))
        for edge in graph.edges
    }
    results = []
    for window in windows:
        sub = restrict(graph, window)
        if not sub.panes:
            statuses = {nid: NodeStatus.UNKNOWN for nid in graph.base.node_ids}
            results.append(
                WindowAudit(window, 0, False, MappingProxyType(statuses), None)
            )
            continue
        flat = sub.flat_graph
        window_syndrome = Syndrome(
            {
                (sub.flat_id(edge[0]), sub.flat_id(edge[1])): by_temporal_edge[edge]
                for edge in sub.edges
            }
        )
        t_used = scan_t_max(flat)
        masks = _candidate_masks(flat, window_syndrome, t_used)

        group_masks = {}
        for nid in graph.base.node_ids:
            group = 0
            for pane in sub.panes:
                group |= 1 << flat.positions[sub.flat_id((pane, nid))]
            group_masks[nid] = group
        constant = [
            mask
            for mask in masks
            if all(
                (mask & group) == 0 or (mask & group) == group
                for group in group_masks.values()
            )
        ]

        statuses = {}
        if not constant:
            statuses = {nid: NodeStatus.UNKNOWN for nid in graph.base.node_ids}
        else:
            for nid, group in group_masks.items():
                if all(mask & group == group for mask in constant):
                    statuses[nid] = NodeStatus.KNOWN_FAULTY
                elif all(mask & group == 0 for mask in constant):
                    statuses[nid] = NodeStatus.KNOWN_FAULT_FREE
                else:
                    statuses[nid] = NodeStatus.UNKNOWN

        vertex_statuses = None
        if include_vertices:
            vertex_statuses = {}
            if masks:
                everywhere = masks[0]
                anywhere = 0
                for mask in masks:
                    everywhere &= mask
                    anywhere |= mask
            for vertex in sub.vertices:
                if not masks:
                    vertex_statuses[vertex] = NodeStatus.UNKNOWN
                    continue
                bit = 1 << flat.positions[sub.flat_id(vertex)]
                if everywhere & bit:
                    vertex_statuses[vertex] = NodeStatus.KNOWN_FAULTY
                elif not anywhere & bit:
                    vertex_statuses[vertex] = NodeStatus.KNOWN_FAULT_FREE
                else:
                    vertex_statuses[vertex] = NodeStatus.UNKNOWN
            vertex_statuses = MappingProxyType(vertex_statuses)

        results.append(
            WindowAudit(
                window=window,
                t_used=t_used,
                inconsistent=not constant,
                base_statuses=MappingProxyType(statuses),
                vertex_statuses=vertex_statuses,
            )
        )
    return AuditReport(windows=tuple(results))


def referee_window(graph, syndrome, window):
    """Base and vertex statuses of one window, from the subset referee."""
    sub = restrict(graph, window)
    flat = sub.flat_graph
    window_syndrome = Syndrome(
        {
            (sub.flat_id(a), sub.flat_id(b)): syndrome.value(
                graph.flat_id(a), graph.flat_id(b)
            )
            for a, b in sub.edges
        }
    )
    t_used = scan_t_max(flat)
    candidates = all_consistent_fault_sets(flat, window_syndrome, t_used)
    vertices = {
        vertex: classify(candidates, {sub.flat_id(vertex)}) for vertex in sub.vertices
    }
    copies = {
        nid: {sub.flat_id((pane, nid)) for pane in sub.panes}
        for nid in graph.base.node_ids
    }
    constant = [
        c for c in candidates if all(ids <= c or not ids & c for ids in copies.values())
    ]
    base = {nid: classify(constant, ids) for nid, ids in copies.items()}
    return t_used, not constant, base, vertices


def classify(candidates, ids):
    if not candidates:
        return NodeStatus.UNKNOWN
    if all(ids <= c for c in candidates):
        return NodeStatus.KNOWN_FAULTY
    if all(not ids & c for c in candidates):
        return NodeStatus.KNOWN_FAULT_FREE
    return NodeStatus.UNKNOWN


# ---------------------------------------------------------------------------
# Random inputs
# ---------------------------------------------------------------------------


def gapped_base(rng, n, p):
    """Valid base graph on ``n`` ids drawn with gaps and random kinds."""
    ids = sorted(rng.sample(range(40), n))
    nodes = [Node(nid, f"m{nid}") for nid in ids]
    edges = [
        Edge(i, j, rng.choice(BASE_KINDS))
        for i in ids
        for j in ids
        if i != j and rng.random() < p
    ]
    return DiagnosticGraph.build(nodes, edges)


def random_recording(rng):
    """An expansion with at most 14 vertices, and a syndrome over it."""
    n_base = rng.randint(1, 5)
    base = gapped_base(rng, n_base, rng.uniform(0.2, 0.9))
    hz = rng.choice([10, 50, 100])
    start = rng.randint(0, 5)
    panes = rng.randint(1, max(1, 14 // n_base))
    template = TemporalTemplate(
        offsets=frozenset(rng.sample([1, 2], rng.randint(1, 2))),
        bidirectional=rng.random() < 0.5,
    )
    interval = Interval(Fraction(start, hz), Fraction(start + panes - 1, hz))
    recording = expand(base, hz, interval, template)
    flat = recording.flat_graph
    if rng.random() < 0.3:
        syndrome = Syndrome({edge.pair: rng.randint(0, 1) for edge in flat.edges})
    else:
        faulty_modules = rng.sample(base.node_ids, rng.randint(0, min(2, n_base)))
        faults = [
            flat_id
            for flat_id in flat.node_ids
            if recording.vertex_of(flat_id)[1] in faulty_modules
        ]
        if rng.random() < 0.3 and flat.n:
            faults.append(rng.choice(flat.node_ids))  # an intermittent fault
        syndrome = generate_syndrome(
            flat, set(faults), bernoulli(0.5), seed=rng.getrandbits(32)
        )
    return recording, syndrome


def nested_windows(rng, recording):
    """Nested ascending windows; some start past the first pane, some hold none."""
    hz = recording.frequency_hz
    first, last = recording.panes[0], recording.panes[-1]
    lo = hi = rng.randint(first, last)
    windows = []
    if lo < last and rng.random() < 0.4:
        # Strictly between two pane times: the window holds no pane.
        windows.append(
            Interval(Fraction(3 * lo + 1, 3 * hz), Fraction(3 * lo + 2, 3 * hz))
        )
        hi = lo + 1
    while len(windows) < 4:
        windows.append(Interval(Fraction(lo, hz), Fraction(hi, hz)))
        if lo == first and hi == last:
            break
        lo = max(first, lo - rng.randint(0, 2))
        hi = min(last, hi + rng.randint(0, 2))
    return windows


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


class TestStatusesMatchLiteral:
    def test_node_status_on_random_graphs(self):
        rng = random.Random(29)
        for _ in range(200):
            recording, syndrome = random_recording(rng)
            flat = recording.flat_graph
            t = rng.randint(0, 3)
            report = node_status(flat, syndrome, t)
            expected = literal_node_statuses(flat, syndrome, t)
            assert list(report.statuses.items()) == list(expected.items())

    def test_audit_on_random_recordings(self):
        rng = random.Random(31)
        shapes = {"empty window": 0, "late start": 0, "inconsistent": 0}
        for _ in range(150):
            recording, syndrome = random_recording(rng)
            windows = nested_windows(rng, recording)
            for include_vertices in (False, True):
                report = audit(
                    recording, syndrome, windows, include_vertices=include_vertices
                )
                expected = literal_audit(
                    recording, syndrome, windows, include_vertices=include_vertices
                )
                assert report == expected
                assert report.to_json_dict() == expected.to_json_dict()
                for got, want in zip(report.windows, expected.windows):
                    assert list(got.base_statuses.items()) == list(
                        want.base_statuses.items()
                    )
                    if include_vertices and want.vertex_statuses is not None:
                        assert list(got.vertex_statuses.items()) == list(
                            want.vertex_statuses.items()
                        )
            for window, got in zip(windows, report.windows):
                if not restrict(recording, window).panes:
                    shapes["empty window"] += 1
                    assert got.vertex_statuses is None
                    continue
                if window.a > recording.interval.a:
                    shapes["late start"] += 1
                shapes["inconsistent"] += got.inconsistent
                t_used, inconsistent, base, vertices = referee_window(
                    recording, syndrome, window
                )
                assert (got.t_used, got.inconsistent) == (t_used, inconsistent)
                assert dict(got.base_statuses) == base
                assert dict(got.vertex_statuses) == vertices
        # Every shape the rule must handle was drawn.
        assert all(count >= 5 for count in shapes.values()), shapes
