"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Sequence

import pytest

from diagkit.diagnosability import CondIIIWitness
from diagkit.graph import (
    DiagnosticGraph,
    Edge,
    Node,
    NodeId,
    Syndrome,
    failed_masks,
    pmc_fits,
)
from diagkit.simulator import scenario

# Edge order of the five-processor cycle; the syndrome tuples used all over
# the suite follow this order.
CYCLE_PAIRS = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]


def cycle_syndrome(*values: int) -> Syndrome:
    assert len(values) == 5
    return Syndrome(dict(zip(CYCLE_PAIRS, values)))


def iter_subsets(ids: Sequence[int], max_size: int) -> Iterator[tuple[int, ...]]:
    """All subsets of ``ids`` up to ``max_size``, by size then lexicographic."""
    ordered = sorted(ids)
    for size in range(min(max_size, len(ordered)) + 1):
        yield from itertools.combinations(ordered, size)


def tester_masks(graph: DiagnosticGraph) -> list[int]:
    """Per position, the bitmask of the positions that test it, read off
    ``graph.edges`` one edge at a time."""
    pos = graph.positions
    masks = [0] * graph.n
    for edge in graph.edges:
        masks[pos[edge.testee]] |= 1 << pos[edge.tester]
    return masks


def count_in_degrees(graph: DiagnosticGraph) -> list[int]:
    """Per position, the number of nodes that test it, counted one
    ``position_pairs()`` pair at a time: the referee for ``in_degrees``."""
    degrees = [0] * graph.n
    for _, testee in graph.position_pairs():
        degrees[testee] += 1
    return degrees


def scan_cond_iii(graph: DiagnosticGraph, t: int) -> tuple[int, int] | None:
    """First failing (p, X mask) of condition (iii), by p and then X in
    ``itertools.combinations`` order: the literal subset scan."""
    n = graph.n
    for p in range(t):
        size = n - 2 * t + p
        if size <= 0:
            continue
        for combo in itertools.combinations(range(n), size):
            members = reached = 0
            for pos in combo:
                members |= 1 << pos
                reached |= graph.out_masks[pos]
            if (reached & ~members).bit_count() <= p:
                return p, members
    return None


def scan_t_max(graph: DiagnosticGraph) -> int:
    """Largest t passing conditions (i)-(iii), by the literal scan at each
    level from the search ceiling down."""
    t = min(min(graph.in_degrees), (graph.n - 1) // 2)
    while scan_cond_iii(graph, t) is not None:
        t -= 1
    return t


def dfs_cond_iii(graph: DiagnosticGraph, t: int) -> CondIIIWitness | None:
    """First failing (p, X) of condition (iii), by p ascending and X
    lexicographically: ``is_t_diagnosable``'s search as it was before it
    read condition (iii) off the least cut.  The referee for the cut's
    verdicts, fast enough for n = 24, where ``scan_cond_iii`` is not.

    X grows one position at a time, depth first in lexicographic order.
    Growing a prefix P takes out of its testable set Γ(P) only the members
    it adds, which lie above P's last position, so P is dropped once
    |Γ(P)|, less the fewer of the members still to add and the members of
    Γ(P) above its last position, exceeds p.
    """
    n = graph.n
    out_masks = tuple(graph.out_masks)
    for p in range(t):
        size = n - 2 * t + p
        if size <= 0:  # unreachable once condition (i) holds
            continue
        # (members, the nodes they test, last position, members still to
        # add); children are pushed from the highest position down, so the
        # lowest is popped first.
        stack = [(0, 0, -1, size)]
        while stack:
            members, reached, last, left = stack.pop()
            if not left:
                return CondIIIWitness(
                    p=p,
                    members=graph.ids_of(members),
                    testable=graph.ids_of(reached & ~members),
                )
            left -= 1
            for pos in range(n - 1 - left, last, -1):
                grown = members | 1 << pos
                tested = reached | out_masks[pos]
                outside = tested & ~grown
                if outside.bit_count() - min(left, (outside >> pos).bit_count()) <= p:
                    stack.append((grown, tested, pos, left))
    return None


def unseeded_least_cut(testers: list[list[int]], limit: int) -> tuple[int, list[int]]:
    """``_least_cut`` as it was before each cut started from its direct
    paths: every cut from zero flow, none skipped.  The referee for the
    seeded cut, which must give the same value and the same minimiser."""
    best, least = limit, []
    for v in range(len(testers)):
        into: dict[int, dict[int, int]] = {}  # u -> {x: units on x -> a_u}
        through: dict[int, int] = {}  # u -> units on a_u -> u
        full: set[int] = set()  # the x whose unit to the sink is taken
        flow = 0
        while flow < best:
            # A node x >= 0 is a position; ~u < 0 is a_u.
            parent: dict[int, int | None] = {v: None}
            queue = [v]
            for node in queue:
                if node >= 0:
                    if node < v or node not in full:
                        break
                    for u in testers[node]:
                        if ~u not in parent:
                            parent[~u] = node
                            queue.append(~u)
                    if through.get(node) and ~node not in parent:
                        parent[~node] = node
                        queue.append(~node)
                else:
                    u = ~node
                    if through.get(u, 0) < 2 and u not in parent:
                        parent[u] = node
                        queue.append(u)
                    for x in into.get(u, ()):
                        if x not in parent:
                            parent[x] = node
                            queue.append(x)
            else:
                best, least = flow, [x for x in parent if x >= 0]
                break
            full.add(node)
            flow += 1
            # One unit along the path: a_u -> u and x -> a_u (u tests x)
            # carry it forward; u -> a_u and a_u -> x cancel a unit.
            while (prev := parent[node]) is not None:
                enters = node >= 0  # a_u -> x, else x -> a_u
                u, x = (~prev, node) if enters else (~node, prev)
                if x == u:
                    through[u] = through.get(u, 0) + (1 if enters else -1)
                else:
                    units = into.setdefault(u, {})
                    units[x] = units.get(x, 0) + (-1 if enters else 1)
                    if not units[x]:
                        del units[x]
                node = prev
    return best, least


def pair_loop_oracle(graph: DiagnosticGraph, t: int) -> tuple[int, int] | None:
    """The first pair of distinct fault-set masks of size at most t that
    admit a shared syndrome, by size and then lexicographically, or None:
    ``oracle_is_t_diagnosable`` as it was before it scanned unions, every
    ordered pair tried one by one.  The referee of the union scan's
    verdict; the pair the scan names is split from a union instead."""
    bits = [1 << pos for pos in range(graph.n)]
    subsets = [
        sum(combo) for size in range(t + 1) for combo in itertools.combinations(bits, size)
    ]
    from_outside = [0]
    for out in graph.out_masks:
        from_outside = [reached | out for reached in from_outside] + from_outside
    for index, mask_a in enumerate(subsets):
        for mask_b in itertools.islice(subsets, index + 1, None):
            if not (mask_a ^ mask_b) & from_outside[mask_a | mask_b]:
                return mask_a, mask_b
    return None


def scan_fault_sets(
    graph: DiagnosticGraph, syndrome: Syndrome, t: int
) -> list[frozenset[NodeId]]:
    """``all_consistent_fault_sets`` as it was before it tested every subset
    at once: one ``pmc_fits`` call per subset of at most t members, by size
    and then lexicographically.  The referee of the bit-sliced scan."""
    failed = failed_masks(graph, syndrome)
    out_masks = tuple(graph.out_masks)
    # Positions ascend with ids, so combinations of the bits come by size,
    # then lexicographically.
    bits = [1 << pos for pos in range(graph.n)]
    return [
        graph.ids_of(mask)
        for size in range(min(t, graph.n) + 1)
        for mask in map(sum, itertools.combinations(bits, size))
        if pmc_fits(out_masks, failed, mask)
    ]


def random_digraph(rng: random.Random, n: int, p: float) -> DiagnosticGraph:
    """Loop-free digraph on ids 1..n with independent edge probability p."""
    nodes = tuple(Node(i) for i in range(1, n + 1))
    edges = tuple(
        Edge(i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j and rng.random() < p
    )
    return DiagnosticGraph(nodes, edges)


def clustered_digraph(rng: random.Random, n: int) -> DiagnosticGraph:
    """Digraph on ids 1..n in which a random set W is tested from outside
    only by a random set S; refutations of condition (iii) are common."""
    ids = range(1, n + 1)
    inside = set(rng.sample(ids, rng.randint(1, n)))
    allowed = inside | set(rng.sample(ids, rng.randint(0, n // 3)))
    p = rng.uniform(0.5, 1.0)
    edges = tuple(
        Edge(i, j)
        for i in ids
        for j in ids
        if i != j and (j not in inside or i in allowed) and rng.random() < p
    )
    return DiagnosticGraph(tuple(Node(i) for i in ids), edges)


@pytest.fixture
def five_cycle() -> DiagnosticGraph:
    return scenario("five_cycle").graph


@pytest.fixture
def localization() -> DiagnosticGraph:
    return scenario("localization").graph


@pytest.fixture
def pane_100hz() -> DiagnosticGraph:
    return scenario("pane_100hz").graph
