"""Core model: diagnostic graphs, syndromes, fault sets, consistency predicates.

A diagnostic graph is a directed graph whose nodes are the modules of a
system and whose edge (i, j) records that module i runs a check against
module j.  A syndrome assigns the observed pass/fail outcome (0 = pass,
1 = fail) to every edge.  Checks run by fault-free modules are truthful;
checks run by faulty modules carry no information at all.

Every analysis reads a graph's ``node_ids`` and ``out_masks`` and a
syndrome's per-tester masks of failed testees, which :func:`failed_masks`
binds to a graph in one step.  The ``Node``, ``Edge`` and outcome objects
of a graph or syndrome built from masks are made only for output.

All types here are immutable after construction and every operation is a
pure function, so everything is safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"cannot interpret {value!r} as a rational") from None
    raise TypeError(f"cannot interpret {value!r} as a rational")


def as_integer(value: object) -> int | None:
    """``value`` as an int if it is a non-bool number equal to an integer, else None.

    The one integrality rule for node ids, outcome values and template
    offsets: ``3`` and ``3.0`` pass, ``1.5``, ``True`` and ``"3"`` do not.
    """
    if type(value) is int:  # the common case; bool is a subclass, not int
        return value
    if isinstance(value, bool):
        return None
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return number if number == value else None


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


class _Frozen:
    """Instances refuse attribute assignment, like a frozen dataclass.

    Cached views are written straight into the instance dict, as
    :class:`functools.cached_property` does.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class DiagnosticGraph(_Frozen):
    """A set of modules plus the test assignments between them.

    Invariants (checked by :func:`validate` / :meth:`require_valid`):
    no self-tests, no duplicate (tester, testee) pairs, no duplicate node
    ids, and every edge endpoint declared as a node.

    Node ids are kept as small integers so that node subsets can live in
    machine-word bitmasks; subset enumeration dominates the runtime of the
    analyses built on top of this type.  A graph built from nodes and edges
    keeps both, sorted by id and by (tester, testee).  A graph built from
    masks (:meth:`_from_masks`) is valid by construction and keeps its node
    ids and ``out_masks``; its ``nodes`` and ``edges`` are views built on
    first read, with the same values and order.
    """

    # Set on mask-built graphs only: the node at a position, and the kind
    # of the edge between a tester and a testee position.
    _node: Callable[[int], Node] | None = None
    _kind: Callable[[int, int], EdgeKind] | None = None

    def __init__(self, nodes: Iterable[Node], edges: Iterable[Edge]) -> None:
        vars(self).update(
            nodes=tuple(sorted(nodes, key=_BY_ID)),
            edges=tuple(sorted(edges, key=_BY_PAIR)),
        )

    @classmethod
    def build(
        cls, nodes: Iterable[Node], edges: Iterable[Edge]
    ) -> "DiagnosticGraph":
        """Construct and validate; raises :class:`GraphError` on violations."""
        graph = cls(tuple(nodes), tuple(edges))
        graph.require_valid()
        return graph

    @classmethod
    def _from_masks(
        cls,
        node_ids: Sequence[NodeId],
        out_masks: Sequence[int],
        node: Callable[[int], Node],
        kind: Callable[[int, int], EdgeKind],
    ) -> "DiagnosticGraph":
        """A graph that is valid by construction, from masks; nothing is checked.

        ``node_ids`` must ascend and be non-negative, and ``out_masks[p]``
        must hold only positions of the graph other than p.  ``node(p)``
        gives the node at position p and ``kind(p, q)`` the kind of edge
        (p, q); both are called when ``nodes`` or ``edges`` is first read.
        """
        graph = cls.__new__(cls)
        vars(graph).update(
            node_ids=tuple(node_ids),
            out_masks=tuple(out_masks),
            violations=(),
            _node=node,
            _kind=kind,
        )
        return graph

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.nodes, self.edges) == (other.nodes, other.edges)

    def __hash__(self) -> int:
        return hash((self.nodes, self.edges))

    def __repr__(self) -> str:
        name = type(self).__qualname__
        return f"{name}(nodes={self.nodes!r}, edges={self.edges!r})"

    def __reduce__(self) -> tuple:
        # Pickled and copied by value, so a mask-built graph travels too.
        return (type(self), (self.nodes, self.edges))

    # -- views of a mask-built graph ----------------------------------------

    @cached_property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(map(self._node, range(len(self.node_ids))))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        ids, kind = self.node_ids, self._kind
        return tuple(
            Edge(ids[u], ids[v], kind(u, v)) for u, v in self.position_pairs()
        )

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
        return len(self.node_ids)

    @cached_property
    def node_ids(self) -> tuple[NodeId, ...]:
        return tuple(node.id for node in self.nodes)

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
        bit = 1
        for out in self.out_masks:
            while out:
                low = out & -out
                masks[low.bit_length() - 1] |= bit
                out ^= low
            bit <<= 1
        return tuple(masks)

    @cached_property
    def in_degrees(self) -> tuple[int, ...]:
        return tuple(mask.bit_count() for mask in self.tester_masks)

    def position_pairs(self) -> Iterator[tuple[int, int]]:
        """(tester, testee) positions of every edge, in edge order.

        Each row is shifted down to its lowest bit first, so that a row of
        a large graph costs its few bits, not its length, per step.
        """
        for tester, out in enumerate(self.out_masks):
            offset = (out & -out).bit_length() - 1 if out else 0
            out >>= offset
            while out:
                low = out & -out
                yield tester, offset + low.bit_length() - 1
                out ^= low

    def mask_of(self, members: Iterable[NodeId]) -> int:
        """Bitmask of the ids in ``members``, read by :func:`as_integer`."""
        pos = self.positions
        mask = 0
        unknown = []
        for member in members:
            nid = as_integer(member)
            if nid is None:
                raise ValueError(f"node ids must be integers, got {member!r}")
            p = pos.get(nid)
            if p is None:
                unknown.append(nid)
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


class Syndrome(_Frozen):
    """The complete vector of test outcomes, keyed by (tester, testee).

    1 means the tester flagged the testee as faulty, 0 that the check
    passed.  A syndrome is only meaningful relative to a graph whose edge
    set it covers exactly; see :meth:`require_total`.

    Ids and outcomes follow one integrality rule (:func:`as_integer`):
    ``1.0`` reads as 1, while ``0.7``, ``True`` and ``"1"`` are rejected.
    A syndrome can also be held as per-tester failed masks against one
    graph (:meth:`_from_masks`); ``outcomes`` is then built on first read,
    for output only: the analyses read a syndrome through :func:`failed_masks`.
    """

    # Set on mask-held syndromes only: the graph, per tester position the
    # testees it failed, and the (tester, testee) positions in reading order.
    _graph: DiagnosticGraph | None = None
    _failed: tuple[int, ...] = ()
    _order: Sequence[tuple[int, int]] | None = None

    __hash__ = None  # type: ignore[assignment]

    def __init__(self, outcomes: Mapping[tuple[NodeId, NodeId], int]) -> None:
        normalized = {}
        for (tester, testee), value in dict(outcomes).items():
            outcome = as_integer(value)
            if outcome not in _BINARY:
                raise SyndromeError(
                    f"outcome for edge ({tester}, {testee}) must be 0 or 1, "
                    f"got {value!r}"
                )
            pair = (as_integer(tester), as_integer(testee))
            if None in pair:
                raise SyndromeError(
                    f"outcome for edge ({tester!r}, {testee!r}) must name "
                    "integer node ids"
                )
            normalized[pair] = outcome
        vars(self)["outcomes"] = MappingProxyType(normalized)

    @classmethod
    def _from_masks(
        cls,
        graph: DiagnosticGraph,
        failed: Sequence[int],
        order: Sequence[tuple[int, int]] | None = None,
    ) -> "Syndrome":
        """The syndrome over ``graph`` whose tester at position p fails the
        testees in ``failed[p]``, a subset of ``graph.out_masks[p]``.

        ``order`` lists every edge once, as (tester, testee) positions, in
        the order ``outcomes`` should have; by default it is edge order.
        """
        syndrome = cls.__new__(cls)
        vars(syndrome).update(_graph=graph, _failed=tuple(failed), _order=order)
        return syndrome

    @cached_property
    def outcomes(self) -> Mapping[tuple[NodeId, NodeId], int]:
        graph, failed = self._graph, self._failed
        ids = graph.node_ids
        order = graph.position_pairs() if self._order is None else self._order
        return MappingProxyType(
            {(ids[u], ids[v]): failed[u] >> v & 1 for u, v in order}
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.outcomes == other.outcomes

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(outcomes={self.outcomes!r})"

    def __reduce__(self) -> tuple:
        return (type(self), (dict(self.outcomes),))

    @classmethod
    def all_clear(cls, graph: DiagnosticGraph) -> "Syndrome":
        """The all-pass syndrome over ``graph``."""
        return cls._from_masks(graph, [0] * graph.n)

    def value(self, tester: NodeId, testee: NodeId) -> int:
        try:
            return self.outcomes[(tester, testee)]
        except KeyError:
            raise SyndromeError(
                f"no outcome recorded for edge ({tester}, {testee})"
            ) from None

    def require_total(self, graph: DiagnosticGraph) -> None:
        """Raise unless this syndrome covers every edge of ``graph`` exactly."""
        failed_masks(graph, self)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def validate(graph: DiagnosticGraph) -> list[str]:
    """Report structural violations; an empty list means the graph is valid."""
    return list(graph.violations)


def min_in_degree(graph: DiagnosticGraph) -> tuple[int, frozenset[NodeId]]:
    """Minimum in-degree and the set of nodes attaining it."""
    graph.require_valid()
    if not graph.n:
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
    failed = failed_masks(graph, syndrome)
    fault_mask = graph.mask_of(fault_set)
    size = fault_mask.bit_count()
    if size > t:
        return ConsistencyReport(
            False, "cond_i", None, f"|F| = {size} exceeds budget t = {t}"
        )
    # The first failing edge, in edge order, with both endpoints outside F.
    for tester, flagged in enumerate(failed):
        outside = 0 if fault_mask >> tester & 1 else flagged & ~fault_mask
        if outside:
            ids = graph.node_ids
            u, v = ids[tester], ids[(outside & -outside).bit_length() - 1]
            return ConsistencyReport(
                False,
                "cond_ii",
                (u, v),
                f"edge ({u}, {v}) failed but neither endpoint is in the fault set",
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
    return pmc_fits(
        graph.out_masks, failed_masks(graph, syndrome), graph.mask_of(fault_set)
    )


def failed_masks(graph: DiagnosticGraph, syndrome: Syndrome) -> tuple[int, ...]:
    """Per position of ``graph``, bitmask of the testees it failed.

    The one binder of a syndrome to a graph, which must be valid.  A
    syndrome held as masks over this graph costs nothing; any other is read
    once and must cover every edge exactly, or a :class:`SyndromeError`
    names the missing and unknown.
    """
    graph.require_valid()
    if syndrome._graph is graph:
        return syndrome._failed
    pos, out = graph.positions, graph.out_masks
    masks = [0] * graph.n
    unknown = []
    for (tester, testee), value in syndrome.outcomes.items():
        u, v = pos.get(tester), pos.get(testee)
        if u is None or v is None or not out[u] >> v & 1:
            unknown.append((tester, testee))
        elif value:
            masks[u] |= 1 << v
    if unknown or len(syndrome.outcomes) != sum(row.bit_count() for row in out):
        ids = graph.node_ids
        pairs = ((ids[u], ids[v]) for u, v in graph.position_pairs())
        missing = [pair for pair in pairs if pair not in syndrome.outcomes]
        parts = [f"missing outcomes for edges {missing}"] if missing else []
        if unknown:
            parts.append(f"outcomes for unknown edges {sorted(unknown)}")
        raise SyndromeError(
            "syndrome must cover every edge exactly once: " + "; ".join(parts)
        )
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
