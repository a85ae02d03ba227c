"""Temporal diagnostic graphs: panes over time plus cross-time checks.

A base graph sampled at frequency f over an interval [a, b] yields one pane
per sample time k/f in the interval.  Each pane replicates the base edges;
cross-time edges connect panes whose distance (in pane indices) appears in
the template's offsets.  The default template — offset 1, one-directional,
same-node only — is the minimal construction: each module checks its own
next occurrence.

Restriction crops a temporal graph to a subinterval, keeping the panes
anchored inside it and all surviving edges.  Diagnosability can only drop
under restriction, which is what the profile over a nested chain of
intervals records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .diagnosability import (
    DEFAULT_EXACT_CAP,
    Bounds,
    diagnosability_bounds,
    max_diagnosability,
)
from .errors import GraphError, SizeCapError
from .graph import (
    DiagnosticGraph,
    Edge,
    EdgeKind,
    Node,
    NodeId,
    Syndrome,
    as_fraction,
    fraction_to_json,
)
from .identification import NodeStatus, _candidate_masks, _group_statuses


@dataclass(frozen=True)
class Interval:
    """Closed time interval [a, b], in seconds, with exact rational bounds."""

    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", as_fraction(self.a))
        object.__setattr__(self, "b", as_fraction(self.b))
        if self.a > self.b:
            raise ValueError(f"interval bounds out of order: a = {self.a} > b = {self.b}")

    def contains(self, other: "Interval") -> bool:
        return self.a <= other.a and other.b <= self.b

    def __str__(self) -> str:
        return f"[{self.a}, {self.b}]"


@dataclass(frozen=True)
class TemporalTemplate:
    """Which cross-time edges an expansion adds.

    ``offsets`` are pane distances carrying temporal checks; with
    ``bidirectional`` both directions are added; ``base_identity_only``
    restricts cross-time edges to copies of the same base node (when False,
    every ordered pair of base nodes is connected across qualifying panes).
    """

    offsets: frozenset[int] = frozenset({1})
    bidirectional: bool = False
    base_identity_only: bool = True

    def __post_init__(self) -> None:
        offsets = frozenset(int(o) for o in self.offsets)
        if not offsets:
            raise ValueError("template needs at least one offset")
        if any(o < 1 for o in offsets):
            raise ValueError(f"offsets must be >= 1, got {sorted(offsets)}")
        object.__setattr__(self, "offsets", offsets)


DEFAULT_TEMPLATE = TemporalTemplate()

# A vertex of a temporal graph: (pane index, base node id).
TemporalVertex = tuple[int, NodeId]
TemporalEdge = tuple[TemporalVertex, TemporalVertex]


@dataclass(frozen=True)
class TemporalGraph:
    """Panes of a base graph over an interval, plus cross-time edges.

    Pane k is anchored at time k / frequency_hz.  The flat view re-labels
    vertices with dense integer ids so the ordinary analyses apply.
    """

    base: DiagnosticGraph
    interval: Interval
    frequency_hz: Fraction
    template: TemporalTemplate
    panes: tuple[int, ...]
    edges: tuple[TemporalEdge, ...]

    @property
    def vertices(self) -> tuple[TemporalVertex, ...]:
        return tuple(
            (pane, nid) for pane in self.panes for nid in self.base.node_ids
        )

    def pane_time(self, pane: int) -> Fraction:
        return Fraction(pane, 1) / self.frequency_hz

    @cached_property
    def _pane_starts(self) -> Mapping[int, int]:
        """Flat id of each pane's first vertex: ``pane_index * width``."""
        width = self.base.n
        return MappingProxyType(
            {pane: index * width for index, pane in enumerate(self.panes)}
        )

    def flat_id(self, vertex: TemporalVertex) -> int:
        pane, nid = vertex
        return self._pane_starts[pane] + self.base.positions[nid]

    def vertex_of(self, flat_id: int) -> TemporalVertex:
        return self.vertices[flat_id]

    @cached_property
    def flat_graph(self) -> DiagnosticGraph:
        """The expansion as a plain diagnostic graph with dense ids.

        Vertex (pane, nid) gets id ``pane_index * width + base_position``,
        so ids follow the vertex order and edges keep theirs.
        """
        starts = self._pane_starts
        pos = self.base.positions
        nodes = [
            Node(id=start + p, label=f"{pane}:{node.id}", frequency_hz=node.frequency_hz)
            for pane, start in starts.items()
            for p, node in enumerate(self.base.nodes)
        ]
        kinds = {edge.pair: edge.kind for edge in self.base.edges}
        temporal = EdgeKind.TEMPORAL
        edges = [
            Edge(
                starts[pane_a] + pos[id_a],
                starts[pane_b] + pos[id_b],
                kinds[(id_a, id_b)] if pane_a == pane_b else temporal,
            )
            for (pane_a, id_a), (pane_b, id_b) in self.edges
        ]
        return DiagnosticGraph.build(nodes, edges)


def expand(
    base: DiagnosticGraph,
    frequency_hz: int | float | str | Fraction,
    interval: Interval,
    template: TemporalTemplate = DEFAULT_TEMPLATE,
) -> TemporalGraph:
    """Replicate ``base`` at every sample time in ``interval`` and wire panes.

    Sample times are k / frequency_hz for integer k; the interval must
    contain at least one.  Pane-internal edges copy the base edges; cross
    pane edges follow the template.
    """
    base.require_valid()
    rate = as_fraction(frequency_hz)
    if rate <= 0:
        raise ValueError(f"frequency must be positive, got {rate}")
    first = math.ceil(interval.a * rate)
    last = math.floor(interval.b * rate)
    if first > last:
        raise GraphError(
            f"empty expansion: no sample time k/{rate} lies in {interval}"
        )
    panes = tuple(range(first, last + 1))
    ids = base.node_ids
    # One tuple per vertex, shared by all its edges; the sort below then
    # finds equal endpoints by identity.
    vertex = {pane: {nid: (pane, nid) for nid in ids} for pane in panes}
    edges: list[TemporalEdge] = []
    for pane in panes:
        row = vertex[pane]
        edges.extend((row[edge.tester], row[edge.testee]) for edge in base.edges)
    if template.base_identity_only:
        pairs = [(nid, nid) for nid in ids]
    else:
        pairs = [(i, j) for i in ids for j in ids]
    for pane in panes:
        row = vertex[pane]
        for offset in sorted(template.offsets):
            other = pane + offset
            if other > last:
                continue
            far = vertex[other]
            for i, j in pairs:
                edges.append((row[i], far[j]))
                if template.bidirectional:
                    edges.append((far[j], row[i]))
    edges.sort()
    return TemporalGraph(
        base=base,
        interval=interval,
        frequency_hz=rate,
        template=template,
        panes=panes,
        edges=tuple(edges),
    )


def restrict(graph: TemporalGraph, sub: Interval) -> TemporalGraph:
    """Crop to a subinterval: keep panes anchored inside it, induce edges."""
    if not graph.interval.contains(sub):
        raise ValueError(
            f"restriction interval {sub} is not contained in {graph.interval}"
        )
    kept = tuple(
        pane for pane in graph.panes if sub.a <= graph.pane_time(pane) <= sub.b
    )
    kept_set = set(kept)
    edges = tuple(
        edge
        for edge in graph.edges
        if edge[0][0] in kept_set and edge[1][0] in kept_set
    )
    return TemporalGraph(
        base=graph.base,
        interval=sub,
        frequency_hz=graph.frequency_hz,
        template=graph.template,
        panes=kept,
        edges=edges,
    )


def frequency_subgraph(
    base: DiagnosticGraph, f_min_hz: int | float | str | Fraction
) -> DiagnosticGraph:
    """Induced subgraph on the nodes publishing at least ``f_min_hz``.

    All nodes must carry a frequency.  The result may be empty, which is
    valid: it simply means no module publishes that fast.
    """
    base.require_valid()
    missing = [node.id for node in base.nodes if node.frequency_hz is None]
    if missing:
        raise GraphError(f"missing frequencies: nodes {missing}")
    threshold = as_fraction(f_min_hz)
    keep = {node.id for node in base.nodes if node.frequency_hz >= threshold}
    nodes = [node for node in base.nodes if node.id in keep]
    edges = [
        edge for edge in base.edges if edge.tester in keep and edge.testee in keep
    ]
    return DiagnosticGraph.build(nodes, edges)


@dataclass(frozen=True)
class ProfileEntry:
    interval: Interval
    t: int | None
    bounds: Bounds | None
    exact: bool

    def to_json_dict(self) -> dict:
        doc: dict = {
            "interval": [
                fraction_to_json(self.interval.a),
                fraction_to_json(self.interval.b),
            ],
            "exact": self.exact,
        }
        if self.exact:
            doc["t"] = self.t
        else:
            doc["bounds"] = [self.bounds.lower, self.bounds.upper]
        return doc


@dataclass(frozen=True)
class DiagnosabilityProfile:
    """Diagnosability of one expansion over a nested chain of intervals.

    Non-increasing toward smaller intervals; the constructor path enforces
    that, since a violation would mean the analysis itself is broken.
    """

    entries: tuple[ProfileEntry, ...]

    def to_json_dict(self) -> dict:
        return {"entries": [entry.to_json_dict() for entry in self.entries]}


def diagnosability_profile(
    base: DiagnosticGraph,
    frequency_hz: int | float | str | Fraction,
    template: TemporalTemplate,
    chain: Sequence[Interval],
    *,
    exact_cap: int = DEFAULT_EXACT_CAP,
) -> DiagnosabilityProfile:
    """Expand over each interval of a nested chain and measure each one.

    ``chain`` must be sorted by inclusion, each interval containing the
    next.  Entries past the exact-size cap fall back to bounds.
    """
    if not chain:
        raise ValueError("chain must contain at least one interval")
    for bigger, smaller in zip(chain, chain[1:]):
        if not bigger.contains(smaller):
            raise ValueError(
                f"chain must be nested by inclusion: {bigger} does not contain {smaller}"
            )
    entries: list[ProfileEntry] = []
    for interval in chain:
        expansion = expand(base, frequency_hz, interval, template)
        flat = expansion.flat_graph
        if flat.n <= exact_cap:
            result = max_diagnosability(flat, exact_cap=exact_cap)
            entries.append(ProfileEntry(interval, result.t_max, None, True))
        else:
            entries.append(
                ProfileEntry(interval, None, diagnosability_bounds(flat), False)
            )
    previous: int | None = None
    for entry in entries:
        if not entry.exact:
            previous = None
            continue
        if previous is not None and entry.t > previous:
            raise AssertionError(
                "diagnosability increased under restriction "
                f"({previous} -> {entry.t}); this indicates a bug in the analysis"
            )
        previous = entry.t
    return DiagnosabilityProfile(entries=tuple(entries))


@dataclass(frozen=True)
class WindowAudit:
    """Statuses for one window, at the exact budget of its restriction."""

    window: Interval
    t_used: int
    inconsistent: bool
    base_statuses: Mapping[NodeId, NodeStatus]
    vertex_statuses: Mapping[TemporalVertex, NodeStatus] | None


@dataclass(frozen=True)
class AuditReport:
    windows: tuple[WindowAudit, ...]

    def status_history(self, base_id: NodeId) -> list[NodeStatus]:
        return [audit.base_statuses[base_id] for audit in self.windows]

    def to_json_dict(self) -> dict:
        return {
            "windows": [
                {
                    "interval": [
                        fraction_to_json(audit.window.a),
                        fraction_to_json(audit.window.b),
                    ],
                    "t": audit.t_used,
                    "inconsistent": audit.inconsistent,
                    "nodes": {
                        str(nid): status.value
                        for nid, status in sorted(audit.base_statuses.items())
                    },
                }
                for audit in self.windows
            ]
        }


def audit(
    graph: TemporalGraph,
    syndrome: Syndrome,
    windows: Sequence[Interval],
    *,
    include_vertices: bool = False,
    exact_cap: int = DEFAULT_EXACT_CAP,
) -> AuditReport:
    """Re-run identification over progressively longer windows.

    ``syndrome`` is over the flat view of ``graph``; ``windows`` must be
    nested ascending, the largest contained in the graph's interval.  Each
    window is analysed at the exact diagnosability of its restriction.

    Base-node statuses assume faults are time-constant: a module is faulty
    in all panes of a window or in none, so candidate fault sets that flip
    a module between panes are discarded before mapping vertex verdicts
    back to modules.  Per-vertex statuses (which allow intermittent
    patterns) are included when ``include_vertices`` is set.
    """
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
    results: list[WindowAudit] = []
    for window in windows:
        sub = restrict(graph, window)
        if not sub.panes:
            statuses = {nid: NodeStatus.UNKNOWN for nid in graph.base.node_ids}
            results.append(
                WindowAudit(window, 0, False, MappingProxyType(statuses), None)
            )
            continue
        flat = sub.flat_graph
        if flat.n > exact_cap:
            raise SizeCapError(
                f"audit window {window} expands to {flat.n} vertices, beyond the "
                f"exact cap of {exact_cap}"
            )
        window_syndrome = Syndrome(
            {
                (sub.flat_id(edge[0]), sub.flat_id(edge[1])): by_temporal_edge[edge]
                for edge in sub.edges
            }
        )
        t_used = max_diagnosability(flat, exact_cap=exact_cap).t_max
        masks = _candidate_masks(flat, window_syndrome, t_used)

        # Flat ids number the window's vertices pane by pane, so a module's
        # copies sit one base width apart.
        width = graph.base.n
        column = sum(1 << (index * width) for index in range(len(sub.panes)))
        groups = [column << pos for pos in range(width)]
        constant = [
            mask
            for mask in masks
            if all((mask & group) == 0 or (mask & group) == group for group in groups)
        ]
        statuses = dict(zip(graph.base.node_ids, _group_statuses(constant, groups)))

        vertex_statuses = None
        if include_vertices:
            bits = [1 << flat_id for flat_id in range(flat.n)]
            vertex_statuses = MappingProxyType(
                dict(zip(sub.vertices, _group_statuses(masks, bits)))
            )

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
