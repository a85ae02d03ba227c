"""Temporal diagnostic graphs: panes over time plus cross-time checks.

A base graph sampled at frequency f over an interval [a, b] yields one pane
per sample time k/f in the interval.  Each pane replicates the base edges;
cross-time edges connect panes whose distance (in pane indices) appears in
the template's offsets.  The default template — offset 1, one-directional,
same-node only — is the minimal construction: each module checks its own
next occurrence.

A temporal graph has one edge list, its flat graph: vertex (pane, base
id) gets the dense id ``pane_index * width + base_position``.  The flat
graph is its recipe (base, template and pane count).  Its bitmask rows are
computed when read (:class:`FlatRows`), and written all at once only by
code that iterates them; its fingerprint hashes the recipe, not the rows;
and it pickles as the temporal graph.  The views by (pane, base id) are
derived from it.

Restriction crops a temporal graph to a subinterval.  The panes anchored
inside it form a contiguous run, and the subgraph they induce is exactly
the expansion over that run, so a restriction is built like an expansion;
its flat ids are the parent's, shifted by the run's first pane.
Diagnosability can only drop under restriction, which is what the profile
over a nested chain of intervals records.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .diagnosability import max_diagnosability
from .errors import GraphError
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
    mask_pairs,
)
from .identification import (
    NodeStatus,
    _all_statuses,
    _candidate_masks,
    _group_statuses,
    _listed_statuses,
)


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

    def to_json(self) -> list[float | str]:
        """``[a, b]``, each bound written by :func:`~diagkit.graph.fraction_to_json`."""
        return [fraction_to_json(self.a), fraction_to_json(self.b)]

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


class FlatRows(Sequence):
    """The ``out_masks`` of a flat graph, each row computed when it is read.

    Row ``index * width + p`` is base row p shifted to pane ``index``, OR
    the template column: one bit at the start of each pane an offset
    ahead, and behind when bidirectional, shifted to position p, or spread
    over every position of those panes across modules.  Reading one row
    computes it once and keeps it, so a syndrome reader that checks a
    failed test's edge and the identification search that reads the same
    tester's row share one computation.  Iterating, slicing and comparing
    take the full pass, which writes every row once and keeps the tuple;
    indexing then reads that tuple.  The sequence compares equal to the
    tuple of its rows.  :meth:`testers_of` reads the recipe the other way
    round and writes no row.
    """

    __slots__ = ("_base", "_count", "_template", "_rows", "_read", "_into")

    def __init__(
        self, base_rows: Sequence[int], count: int, template: TemporalTemplate
    ) -> None:
        self._base = tuple(base_rows)
        self._count = count
        self._template = template
        self._rows: tuple[int, ...] | None = None
        self._read: dict[int, int] = {}  # rows read one at a time, by index
        self._into: list[int] | None = None  # per base position, its testers

    def __len__(self) -> int:
        return self._count * len(self._base)

    def _column(self, index: int) -> int:
        """One bit at the start of every pane that pane ``index`` tests."""
        width, template = len(self._base), self._template
        start = index * width
        column = 0
        for offset in template.offsets:
            if index + offset < self._count:
                column |= 1 << (start + offset * width)
            if template.bidirectional and index >= offset:
                column |= 1 << (start - offset * width)
        return column

    def testers_of(self, members: int) -> int:
        """Bitmask of the positions that test some position in the bitmask
        ``members``, from the recipe.  Vertex p of pane k is tested by the
        base testers of p in pane k, and by p (every position, across
        modules) in each pane an offset behind k, and ahead when
        bidirectional."""
        into = self._into
        if into is None:
            into = [0] * len(self._base)
            for u, p in mask_pairs(self._base):
                into[p] |= 1 << u
            self._into = into
        width, count, template = len(into), self._count, self._template
        pane = (1 << width) - 1
        testers = 0
        while members:
            low = members & -members
            members ^= low
            index, p = divmod(low.bit_length() - 1, width)
            start = index * width
            testers |= into[p] << start
            copy = 1 << p if template.base_identity_only else pane
            for offset in template.offsets:
                if index >= offset:
                    testers |= copy << (start - offset * width)
                if template.bidirectional and index + offset < count:
                    testers |= copy << (start + offset * width)
        return testers

    def _all_rows(self) -> tuple[int, ...]:
        """The full pass: every row, written once and kept."""
        rows = self._rows
        if rows is None:
            base, width, count = self._base, len(self._base), self._count
            full = (1 << width) - 1
            reach = max(self._template.offsets)
            written: list[int] = []
            for index in range(count):
                if reach < index and index + reach < count:
                    # Every offset stays inside the run, both ways, from this
                    # pane and from the one before: its rows are that pane's,
                    # shifted one pane on.
                    written += [row << width for row in written[-width:]]
                    continue
                start, column = index * width, self._column(index)
                if self._template.base_identity_only:
                    written.extend(
                        row << start | column << p for p, row in enumerate(base)
                    )
                else:
                    spread = column * full  # every position of those panes
                    written.extend(row << start | spread for row in base)
            rows = self._rows = tuple(written)
            self._read.clear()
        return rows

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self._all_rows()[key]
        rows = self._rows
        if rows is not None:
            return rows[key]
        i, size = operator.index(key), len(self)
        if i < 0:
            i += size
        if not 0 <= i < size:
            raise IndexError("row index out of range")
        row = self._read.get(i)
        if row is None:
            width = len(self._base)
            index, p = divmod(i, width)
            column = self._column(index)
            if self._template.base_identity_only:
                column <<= p
            else:
                column *= (1 << width) - 1
            row = self._read[i] = self._base[p] << index * width | column
        return row

    def __iter__(self) -> Iterator[int]:
        return iter(self._all_rows())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FlatRows):
            other = other._all_rows()
        if isinstance(other, tuple):
            return self._all_rows() == other
        return NotImplemented


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
        graph is its recipe: ``out_masks`` is a :class:`FlatRows`, which
        computes a row when it is read; the in-degrees are counted from
        the template; the fingerprint hashes :meth:`fingerprint_text`; and
        the graph pickles as this temporal graph's five fields.  Its
        ``nodes`` and ``edges`` are built on first read.
        """
        base, template, panes = self.base, self.template, self.panes
        width, count = base.n, len(panes)
        # Each pane that reaches another sends one tester to each vertex
        # there, or a whole pane of them across modules.  Pane ``index`` is
        # reached from the panes an offset behind it, and ahead when
        # bidirectional; that number changes only an offset from either
        # end, so the panes between two such bounds share their in-degrees.
        per_pane = 1 if template.base_identity_only else width
        inside = [offset for offset in template.offsets if offset < count]
        bounds = sorted({0, count, *inside, *(count - offset for offset in inside)})
        degrees: list[int] = []
        for index, end in zip(bounds, bounds[1:]):
            reached = sum(index >= offset for offset in inside)
            if template.bidirectional:
                reached += sum(index + offset < count for offset in inside)
            extra = reached * per_pane
            degrees += [degree + extra for degree in base.in_degrees] * (end - index)

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

        # The recipe is a copy of this graph without its cached views: a
        # graph that held this one would make a reference cycle, which only
        # the cyclic collector frees.
        return DiagnosticGraph._from_masks(
            range(count * width),
            FlatRows(base.out_masks, count, template),
            degrees,
            node,
            kind,
            replace(self),
        )

    def fingerprint_text(self) -> str:
        """The tagged text whose sha256 is the flat graph's fingerprint.

        It holds the base's fingerprint, the sorted offsets,
        ``bidirectional``, ``identity_only`` and the pane count, which fix
        the flat graph's ids and edges.  Rate and first pane change only
        labels, so they are left out.
        """
        template = self.template
        return (
            f"flat;base={self.base.fingerprint}"
            f";offsets={','.join(map(str, sorted(template.offsets)))}"
            f";bidirectional={str(template.bidirectional).lower()}"
            f";identity_only={str(template.base_identity_only).lower()}"
            f";panes={len(self.panes)}"
        )

    def __reduce__(self) -> tuple:
        # The five fields, without the cached views.
        return (
            type(self),
            (self.base, self.interval, self.frequency_hz, self.template, self.panes),
        )

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
    t: int

    def to_json_dict(self) -> dict:
        return {"interval": self.interval.to_json(), "t": self.t}


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
) -> DiagnosabilityProfile:
    """Expand over each interval of a nested chain and find each one's exact t.

    ``chain`` must be sorted by inclusion, each interval containing the
    next.
    """
    if not chain:
        raise ValueError("chain must contain at least one interval")
    for bigger, smaller in zip(chain, chain[1:]):
        if not bigger.contains(smaller):
            raise ValueError(
                f"chain must be nested by inclusion: {bigger} does not contain {smaller}"
            )
    entries = []
    for interval in chain:
        flat = expand(base, frequency_hz, interval, template).flat_graph
        entries.append(ProfileEntry(interval, max_diagnosability(flat).t_max))
    for bigger, smaller in zip(entries, entries[1:]):
        if smaller.t > bigger.t:
            raise AssertionError(
                "diagnosability increased under restriction "
                f"({bigger.t} -> {smaller.t}); this indicates a bug in the analysis"
            )
    return DiagnosabilityProfile(entries=tuple(entries))


@dataclass(frozen=True)
class WindowAudit:
    """Statuses for one window, at the exact budget of its restriction."""

    window: Interval
    t_used: int
    inconsistent: bool
    base_statuses: Mapping[NodeId, NodeStatus]
    vertex_statuses: Mapping[TemporalVertex, NodeStatus] | None

    def to_json_dict(self) -> dict:
        """One window of ``audit --json``.  Vertex statuses, when kept, are
        written in the shape of ``identify --json``: ``vertex_others`` is
        the status of every vertex not listed (``unknown`` when every vertex
        is unknown, else ``known_fault_free``), and ``vertex_statuses``
        lists each other vertex, keyed ``"<pane>:<id>"``."""
        doc = {
            "interval": self.window.to_json(),
            "t": self.t_used,
            "inconsistent": self.inconsistent,
            "nodes": {
                str(nid): status.value
                for nid, status in sorted(self.base_statuses.items())
            },
        }
        vertices = self.vertex_statuses
        if vertices is not None:
            unknown = NodeStatus.UNKNOWN
            others = (
                unknown
                if set(vertices.values()) == {unknown}
                else NodeStatus.KNOWN_FAULT_FREE
            )
            doc["vertex_others"] = others.value
            doc["vertex_statuses"] = {
                f"{pane}:{nid}": status.value
                for (pane, nid), status in vertices.items()
                if status is not others
            }
        return doc


@dataclass(frozen=True)
class AuditReport:
    windows: tuple[WindowAudit, ...]

    def status_history(self, base_id: NodeId) -> list[NodeStatus]:
        return [audit.base_statuses[base_id] for audit in self.windows]

    def to_json_dict(self) -> dict:
        return {"windows": [audit.to_json_dict() for audit in self.windows]}


def audit(
    graph: TemporalGraph,
    syndrome: Syndrome,
    windows: Sequence[Interval],
    *,
    include_vertices: bool = False,
) -> AuditReport:
    """Re-run identification over progressively longer windows.

    ``syndrome`` is over the flat view of ``graph``; ``windows`` must be
    nested ascending, the largest contained in the graph's interval.  Each
    window is analysed at the exact diagnosability of its restriction,
    which the minimum cut of :func:`max_diagnosability` gives at any size.

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
        # The window's flat ids are the graph's, shifted by its first pane,
        # and its edges are the graph's edges between its vertices.
        shift = (sub.panes[0] - graph.panes[0]) * width
        inside = (1 << flat.n) - 1
        window_syndrome = Syndrome._from_masks(
            flat, [row >> shift & inside for row in failed[shift : shift + flat.n]]
        )
        t_used = max_diagnosability(flat).t_max
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
            listed, others = _listed_statuses(masks, sub.vertices)
            vertex_statuses = MappingProxyType(
                _all_statuses(sub.vertices, listed, others)
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
