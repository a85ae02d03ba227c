"""Core model: diagnostic graphs, syndromes, fault sets, consistency predicates.

A diagnostic graph is a directed graph whose nodes are the modules of a
system and whose edge (i, j) records that module i runs a check against
module j.  A syndrome assigns the observed pass/fail outcome (0 = pass,
1 = fail) to every edge.  Checks run by fault-free modules are truthful;
checks run by faulty modules carry no information at all.

All types here are immutable after construction and every operation is a
pure function, so everything is safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import GraphError, SyndromeError

NodeId = int

_BY_ID = attrgetter("id")
_BY_PAIR = attrgetter("tester", "testee")
_BINARY = frozenset((0, 1))

# A fault set is just a frozenset of node ids; no wrapper type needed.
FaultSet = frozenset


class EdgeKind(Enum):
    """What a test edge checks.

    Informational metadata only: no algorithm in this package changes its
    behaviour based on the kind of an edge.
    """

    INPUT_ADMISSIBILITY = "input_admissibility"
    OUTPUT_ADMISSIBILITY = "output_admissibility"
    INPUT_CONSISTENCY = "input_consistency"
    OUTPUT_CONSISTENCY = "output_consistency"
    INPUT_OUTPUT_CONSISTENCY = "input_output_consistency"
    TEMPORAL = "temporal"
    UNSPECIFIED = "unspecified"


def as_fraction(value: int | float | str | Fraction) -> Fraction:
    """Exact rational from assorted inputs.

    Floats are read at decimal face value (0.02 becomes 1/50), since rates
    and timestamps are written decimally everywhere this library touches.
    Strings may be decimal ("0.02") or explicit ratios ("1/50").
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("expected a number, got a bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot interpret {value!r} as a rational")
        return Fraction(str(value))
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def fraction_to_json(x: Fraction) -> float | str:
    """A JSON number when ``x`` has an exact decimal spelling, else "p/q"."""
    value = float(x)
    if as_fraction(value) == x:
        return value
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class Node:
    """A module in the pipeline.

    ``frequency_hz`` is the module's publishing rate; it is optional and
    only consulted when slicing a graph by rate.
    """

    id: NodeId
    label: str = ""
    frequency_hz: Fraction | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.id, int) or isinstance(self.id, bool) or self.id < 0:
            raise ValueError(f"node id must be a non-negative integer, got {self.id!r}")
        if self.frequency_hz is not None:
            hz = as_fraction(self.frequency_hz)
            if hz.numerator <= 0:
                raise ValueError(f"frequency must be positive, got {hz}")
            object.__setattr__(self, "frequency_hz", hz)


@dataclass(frozen=True)
class Edge:
    """A test assignment: ``tester`` checks ``testee``."""

    tester: NodeId
    testee: NodeId
    kind: EdgeKind = EdgeKind.UNSPECIFIED

    @property
    def pair(self) -> tuple[NodeId, NodeId]:
        return (self.tester, self.testee)


@dataclass(frozen=True)
class DiagnosticGraph:
    """A set of modules plus the test assignments between them.

    Invariants (checked by :func:`validate` / :meth:`require_valid`):
    no self-tests, no duplicate (tester, testee) pairs, no duplicate node
    ids, and every edge endpoint declared as a node.

    Node ids are kept as small integers so that node subsets can live in
    machine-word bitmasks; subset enumeration dominates the runtime of the
    analyses built on top of this type.
    """

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes, key=_BY_ID)))
        object.__setattr__(self, "edges", tuple(sorted(self.edges, key=_BY_PAIR)))

    @classmethod
    def build(
        cls, nodes: Iterable[Node], edges: Iterable[Edge]
    ) -> "DiagnosticGraph":
        """Construct and validate; raises :class:`GraphError` on violations."""
        graph = cls(tuple(nodes), tuple(edges))
        graph.require_valid()
        return graph

    # -- structural validation -------------------------------------------

    @cached_property
    def violations(self) -> tuple[str, ...]:
        found: list[str] = []
        seen_ids: set[int] = set()
        for node in self.nodes:
            if node.id in seen_ids:
                found.append(f"duplicate node id: {node.id}")
            seen_ids.add(node.id)
        seen_pairs: set[tuple[int, int]] = set()
        for pair in map(_BY_PAIR, self.edges):
            tester, testee = pair
            if tester == testee:
                found.append(f"self-loop: edge ({tester}, {testee})")
            if pair in seen_pairs:
                found.append(f"duplicate edge: ({tester}, {testee})")
            seen_pairs.add(pair)
            for endpoint in pair:
                if endpoint not in seen_ids:
                    found.append(
                        f"dangling endpoint: edge ({tester}, {testee}) "
                        f"references undeclared node {endpoint}"
                    )
        return tuple(found)

    def require_valid(self) -> None:
        if self.violations:
            raise GraphError("; ".join(self.violations))

    # -- basic views ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.nodes)

    @cached_property
    def node_ids(self) -> tuple[NodeId, ...]:
        return tuple(node.id for node in self.nodes)

    @cached_property
    def edge_pairs(self) -> frozenset[tuple[NodeId, NodeId]]:
        """The (tester, testee) pair of every edge."""
        return frozenset(map(_BY_PAIR, self.edges))

    @cached_property
    def node_by_id(self) -> Mapping[NodeId, Node]:
        return MappingProxyType({node.id: node for node in self.nodes})

    @cached_property
    def positions(self) -> Mapping[NodeId, int]:
        """Dense position of each node id, in ascending id order."""
        return MappingProxyType({nid: pos for pos, nid in enumerate(self.node_ids)})

    # -- bitmask adjacency (valid graphs only) ----------------------------

    @cached_property
    def out_masks(self) -> tuple[int, ...]:
        """Per position, bitmask of out-neighbours (the nodes it tests)."""
        masks = [0] * self.n
        pos = self.positions
        for edge in self.edges:
            masks[pos[edge.tester]] |= 1 << pos[edge.testee]
        return tuple(masks)

    @cached_property
    def tester_masks(self) -> tuple[int, ...]:
        """Per position, bitmask of in-neighbours (the nodes testing it)."""
        masks = [0] * self.n
        pos = self.positions
        for edge in self.edges:
            masks[pos[edge.testee]] |= 1 << pos[edge.tester]
        return tuple(masks)

    @cached_property
    def in_degrees(self) -> tuple[int, ...]:
        return tuple(mask.bit_count() for mask in self.tester_masks)

    def mask_of(self, members: Iterable[NodeId]) -> int:
        pos = self.positions
        mask = 0
        unknown = []
        for member in members:
            p = pos.get(member)
            if p is None:
                unknown.append(member)
            else:
                mask |= 1 << p
        if unknown:
            raise ValueError(f"unknown node ids: {sorted(set(unknown))}")
        return mask

    def ids_of(self, mask: int) -> frozenset[NodeId]:
        return frozenset(self.id_tuple(mask))

    def id_tuple(self, mask: int) -> tuple[NodeId, ...]:
        """Ids selected by ``mask``, ascending (lexicographic sort key)."""
        ids = self.node_ids
        out = []
        while mask:
            low = mask & -mask
            out.append(ids[low.bit_length() - 1])
            mask ^= low
        return tuple(out)


@dataclass(frozen=True)
class Syndrome:
    """The complete vector of test outcomes, keyed by (tester, testee).

    1 means the tester flagged the testee as faulty, 0 that the check
    passed.  A syndrome is only meaningful relative to a graph whose edge
    set it covers exactly; see :meth:`require_total`.
    """

    outcomes: Mapping[tuple[NodeId, NodeId], int]

    def __post_init__(self) -> None:
        outcomes = dict(self.outcomes)
        try:
            normalized = {
                (int(tester), int(testee)): int(value)
                for (tester, testee), value in outcomes.items()
            }
        except (TypeError, ValueError, OverflowError):
            normalized = None
        if normalized is None or not _BINARY.issuperset(normalized.values()):
            # Re-scan in order, so the first bad entry names the error.
            normalized = {}
            for (tester, testee), value in outcomes.items():
                value = int(value)
                if value not in _BINARY:
                    raise SyndromeError(
                        f"outcome for edge ({tester}, {testee}) must be 0 or 1, "
                        f"got {value}"
                    )
                normalized[(int(tester), int(testee))] = value
        object.__setattr__(self, "outcomes", MappingProxyType(normalized))

    @classmethod
    def all_clear(cls, graph: DiagnosticGraph) -> "Syndrome":
        """The all-pass syndrome over ``graph``."""
        return cls({edge.pair: 0 for edge in graph.edges})

    def value(self, tester: NodeId, testee: NodeId) -> int:
        try:
            return self.outcomes[(tester, testee)]
        except KeyError:
            raise SyndromeError(
                f"no outcome recorded for edge ({tester}, {testee})"
            ) from None

    def require_total(self, graph: DiagnosticGraph) -> None:
        """Raise unless this syndrome covers every edge of ``graph`` exactly."""
        expected = graph.edge_pairs
        if self.outcomes.keys() == expected:
            return
        got = set(self.outcomes)
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


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def validate(graph: DiagnosticGraph) -> list[str]:
    """Report structural violations; an empty list means the graph is valid."""
    return list(graph.violations)


def min_in_degree(graph: DiagnosticGraph) -> tuple[int, frozenset[NodeId]]:
    """Minimum in-degree and the set of nodes attaining it."""
    graph.require_valid()
    if not graph.nodes:
        raise GraphError("empty graph")
    degrees = graph.in_degrees
    minimum = min(degrees)
    attaining = frozenset(
        nid for nid, deg in zip(graph.node_ids, degrees) if deg == minimum
    )
    return minimum, attaining


def testable_set(graph: DiagnosticGraph, members: Iterable[NodeId]) -> frozenset[NodeId]:
    """Nodes outside ``members`` that are tested by some member.

    This is the out-neighbourhood of the set, minus the set itself.
    """
    graph.require_valid()
    member_mask = graph.mask_of(members)
    return graph.ids_of(tested_by(graph.out_masks, member_mask) & ~member_mask)


def tested_by(out_masks: Sequence[int], members: int) -> int:
    """Bitmask of the nodes that some node in the bitmask ``members`` tests."""
    reached = 0
    while members:
        low = members & -members
        reached |= out_masks[low.bit_length() - 1]
        members ^= low
    return reached


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of a consistency check, naming the first violated condition.

    ``failed_condition`` is ``cond_i`` (fault budget exceeded) or
    ``cond_ii`` (a failing check with both endpoints outside the set).
    Condition (iii), that every check between two modules outside the set
    passed, describes the same edges from the other side over a total
    syndrome, so its violations are reported as ``cond_ii``.
    """

    consistent: bool
    failed_condition: str | None = None
    witness_edge: tuple[NodeId, NodeId] | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.consistent


def is_consistent_fault_set(
    graph: DiagnosticGraph,
    syndrome: Syndrome,
    fault_set: Iterable[NodeId],
    t: int,
) -> ConsistencyReport:
    """Check the three consistency conditions for a fault hypothesis.

    A set F is consistent with a syndrome at budget ``t`` when |F| <= t,
    every failing check has an endpoint in F, and every check between two
    modules outside F passed.
    """
    graph.require_valid()
    syndrome.require_total(graph)
    members = frozenset(fault_set)
    graph.mask_of(members)  # reject unknown ids
    if len(members) > t:
        return ConsistencyReport(
            False, "cond_i", None, f"|F| = {len(members)} exceeds budget t = {t}"
        )
    for edge in graph.edges:
        if syndrome.value(*edge.pair) == 1:
            if edge.tester not in members and edge.testee not in members:
                return ConsistencyReport(
                    False,
                    "cond_ii",
                    edge.pair,
                    f"edge ({edge.tester}, {edge.testee}) failed but neither "
                    "endpoint is in the fault set",
                )
    return ConsistencyReport(True)


def pmc_compatible(
    graph: DiagnosticGraph, syndrome: Syndrome, fault_set: Iterable[NodeId]
) -> bool:
    """Strict compatibility: fault-free testers are truthful both ways.

    For every edge whose tester is outside the fault set, the outcome must
    be 1 exactly when the testee is inside it.  This is strictly stronger
    than :func:`is_consistent_fault_set` and is the semantics all
    diagnosability and identification routines in this package rely on.
    """
    graph.require_valid()
    syndrome.require_total(graph)
    return pmc_fits(
        graph.out_masks, failed_masks(graph, syndrome), graph.mask_of(fault_set)
    )


def failed_masks(graph: DiagnosticGraph, syndrome: Syndrome) -> tuple[int, ...]:
    """Per position, bitmask of the testees it failed; needs a total syndrome."""
    masks = [0] * graph.n
    pos = graph.positions
    for (tester, testee), value in syndrome.outcomes.items():
        if value:
            masks[pos[tester]] |= 1 << pos[testee]
    return tuple(masks)


def pmc_fits(out_masks: Sequence[int], failed: Sequence[int], fault_mask: int) -> bool:
    """:func:`pmc_compatible` on masks, ``failed`` from :func:`failed_masks`:
    ``out_masks[u] & F == failed[u]`` for every tester u outside F."""
    bit = 1
    for out, flagged in zip(out_masks, failed):
        if not fault_mask & bit and out & fault_mask != flagged:
            return False
        bit <<= 1
    return True


def iter_subsets(
    ids: Sequence[NodeId], max_size: int
) -> Iterator[tuple[NodeId, ...]]:
    """All subsets of ``ids`` up to ``max_size``, by size then lexicographic."""
    ordered = sorted(ids)
    top = min(max_size, len(ordered))
    for size in range(top + 1):
        yield from itertools.combinations(ordered, size)
