"""Temporal diagnostic graphs: panes over time plus cross-time checks.

A base graph sampled at frequency f over an interval [a, b] yields one pane
per sample time k/f in the interval.  Each pane replicates the base edges;
cross-time edges connect panes whose distance (in pane indices) appears in
the template's offsets.  The default template — offset 1, one-directional,
same-node only — is the minimal construction: each module checks its own
next occurrence.

A temporal graph stores one edge list, its flat graph: vertex (pane, base
id) gets the dense id ``pane_index * width + base_position``, and one
builder writes the pane copies and the cross-time edges under that
numbering as bitmask rows.  The views by (pane, base id) are derived from
it.

Restriction crops a temporal graph to a subinterval.  The panes anchored
inside it form a contiguous run, and the subgraph they induce is exactly
the expansion over that run, so a restriction is built like an expansion;
its flat ids are the parent's, shifted by the run's first pane.
Diagnosability can only drop under restriction, which is what the profile
over a nested chain of intervals records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

from .diagnosability import (
    DEFAULT_EXACT_CAP,
    Bounds,
    diagnosability_bounds,
    max_diagnosability,
)
from .errors import GraphError, SizeCapError
from .graph import (
    DiagnosticGraph,
    EdgeKind,
    Node,
    NodeId,
    Syndrome,
    as_fraction,
    as_integer,
    failed_masks,
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
    Offsets may come in any iterable and follow the integrality rule of
    :func:`~diagkit.graph.as_integer`: ``2.0`` reads as 2, while ``1.5``
    and ``True`` are rejected.
    """

    offsets: frozenset[int] = frozenset({1})
    bidirectional: bool = False
    base_identity_only: bool = True

    def __post_init__(self) -> None:
        offsets = frozenset(map(as_integer, self.offsets))
        if None in offsets:
            raise ValueError(f"offsets must be integers, got {self.offsets!r}")
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

    Pane k is anchored at time k / frequency_hz; ``panes`` is a contiguous
    run of pane indices, possibly empty after a restriction.  The one edge
    list is ``flat_graph``, built from these fields on first use; ``edges``
    and ``vertices`` are views of it by (pane, base id).
    """

    base: DiagnosticGraph
    interval: Interval
    frequency_hz: Fraction
    template: TemporalTemplate
    panes: tuple[int, ...]

    def pane_time(self, pane: int) -> Fraction:
        return Fraction(pane, 1) / self.frequency_hz

    @cached_property
    def flat_graph(self) -> DiagnosticGraph:
        """The expansion as a plain diagnostic graph with dense ids.

        Vertex (pane, nid) gets id ``pane_index * width + base_position``
        and label ``<pane>:<nid>``.  Each pane copies the base edges with
        their kinds; each template offset adds ``TEMPORAL`` edges to the
        pane that far ahead, and back from it when bidirectional.  The
        graph is written as masks: a vertex's row is its base row shifted
        to its pane, plus its temporal testees in the panes an offset away.
        Its ``nodes`` and ``edges`` are built on first read.
        """
        base, template, panes = self.base, self.template, self.panes
        width, count = base.n, len(panes)
        full = (1 << width) - 1
        rows: list[int] = []
        for index in range(count):
            start = index * width
            # One bit at the start of every pane the template reaches.
            column = 0
            for offset in template.offsets:
                if index + offset < count:
                    column |= 1 << (start + offset * width)
                if template.bidirectional and index >= offset:
                    column |= 1 << (start - offset * width)
            if template.base_identity_only:
                rows.extend(
                    row << start | column << p for p, row in enumerate(base.out_masks)
                )
            else:
                spread = column * full  # every position of those panes
                rows.extend(row << start | spread for row in base.out_masks)

        base_ids, base_nodes = base.node_ids, base.nodes
        base_pos = base.positions
        base_kinds = {
            (base_pos[edge.tester], base_pos[edge.testee]): edge.kind
            for edge in base.edges
        }

        def node(flat_id: int) -> Node:
            index, p = divmod(flat_id, width)
            label = f"{panes[index]}:{base_ids[p]}"
            return Node(flat_id, label, base_nodes[p].frequency_hz)

        def kind(tester: int, testee: int) -> EdgeKind:
            (pane, i), (other, j) = divmod(tester, width), divmod(testee, width)
            return base_kinds[(i, j)] if pane == other else EdgeKind.TEMPORAL

        return DiagnosticGraph._from_masks(range(count * width), rows, node, kind)

    @cached_property
    def vertices(self) -> tuple[TemporalVertex, ...]:
        """``(pane, base id)`` of each flat id, in flat-id order."""
        return tuple((pane, nid) for pane in self.panes for nid in self.base.node_ids)

    @cached_property
    def edges(self) -> tuple[TemporalEdge, ...]:
        """The flat edges by vertex, in flat order; endpoints are shared tuples."""
        vertex = self.vertices
        return tuple(
            (vertex[tester], vertex[testee])
            for tester, testee in self.flat_graph.position_pairs()
        )

    def flat_id(self, vertex: TemporalVertex) -> int:
        pane, nid = vertex
        if not self.panes or not self.panes[0] <= pane <= self.panes[-1]:
            raise KeyError(pane)
        return (pane - self.panes[0]) * self.base.n + self.base.positions[nid]

    def vertex_of(self, flat_id: int) -> TemporalVertex:
        width, count = self.base.n, len(self.panes) * self.base.n
        if not 0 <= flat_id < count:
            raise IndexError(f"no flat id {flat_id} among {count} vertices")
        index, position = divmod(flat_id, width)
        return (self.panes[index], self.base.node_ids[position])


def _panes(rate: Fraction, interval: Interval) -> tuple[int, ...]:
    """Indices k of the sample times k / rate that lie in ``interval``."""
    return tuple(range(math.ceil(interval.a * rate), math.floor(interval.b * rate) + 1))


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
    panes = _panes(rate, interval)
    if not panes:
        raise GraphError(
            f"empty expansion: no sample time k/{rate} lies in {interval}"
        )
    return TemporalGraph(base, interval, rate, template, panes)


def restrict(graph: TemporalGraph, sub: Interval) -> TemporalGraph:
    """Crop to a subinterval: the expansion over ``sub``, which may have no pane.

    The panes anchored in ``sub`` are a contiguous run of the graph's, and
    the subgraph they induce is exactly the expansion over that run.
    """
    if not graph.interval.contains(sub):
        raise ValueError(
            f"restriction interval {sub} is not contained in {graph.interval}"
        )
    rate = graph.frequency_hz
    return TemporalGraph(graph.base, sub, rate, graph.template, _panes(rate, sub))


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
    failed = failed_masks(graph.flat_graph, syndrome)
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
    width = graph.base.n
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
        # The window's flat ids are the graph's, shifted by its first pane,
        # and its edges are the graph's edges between its vertices.
        shift = (sub.panes[0] - graph.panes[0]) * width
        inside = (1 << flat.n) - 1
        window_syndrome = Syndrome._from_masks(
            flat, [row >> shift & inside for row in failed[shift : shift + flat.n]]
        )
        t_used = max_diagnosability(flat, exact_cap=exact_cap).t_max
        masks = _candidate_masks(flat, window_syndrome, t_used)

        # Flat ids number the window's vertices pane by pane, so a module's
        # copies sit one base width apart.
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
