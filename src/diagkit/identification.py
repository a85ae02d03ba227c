"""Turning an observed syndrome into a verdict about which modules failed.

The exact search runs over the suspects only: the ends of the failed
tests and the modules with fewer than t testers, since no other module is
faulty in any fault set of size <= t.  It branches on the lowest
undecided suspect: it is either faulty, or fault-free, in which case every
outcome it reported is taken at face value (unit propagation).  Outcomes
are kept as bitmask rows per tester, and trusting modules applies their
whole rows at once, a round at a time: the modules they failed become
faulty, the modules they passed are trusted in the next round, and a
module that ends up on both sides kills the branch.  Branches also die
once more than t modules are assumed faulty, so the search is exact for
every t and fast for the small budgets these graphs call for.  The search
keeps its branches on an explicit stack, so graph size meets no recursion
limit.

Its referee, :func:`all_consistent_fault_sets`, shares none of this: it
tests every subset of at most 14 nodes against the syndrome at once, with
one integer of 2**n bits per node, bit F standing for the subset with
position mask F.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Hashable, Mapping, Sequence

from .errors import SizeCapError
from .graph import (
    DiagnosticGraph,
    NodeId,
    Syndrome,
    failed_masks,
)

DEFAULT_CANDIDATE_LIMIT = 64
DEFAULT_ENUMERATION_CAP = 14


class VerdictKind(Enum):
    UNIQUE = "unique"
    AMBIGUOUS = "ambiguous"
    INCONSISTENT = "inconsistent"


class NodeStatus(Enum):
    KNOWN_FAULTY = "known_faulty"
    KNOWN_FAULT_FREE = "known_fault_free"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class DiagnosisVerdict:
    """What a syndrome says at fault budget t.

    ``candidates`` is sorted by cardinality then lexicographically and is
    truncated to the configured limit; ``candidate_count`` always carries
    the true total.  ``exceeds_majority_budget`` flags budgets above
    floor((n-1)/2), where unique identification can no longer be guaranteed
    for any graph (still useful for audits).
    """

    kind: VerdictKind
    budget: int
    fault_set: frozenset[NodeId] | None
    candidates: tuple[frozenset[NodeId], ...]
    candidate_count: int
    exceeds_majority_budget: bool

    def to_json_dict(self) -> dict:
        if self.kind is VerdictKind.UNIQUE:
            return {"kind": "unique", "fault_set": sorted(self.fault_set)}
        if self.kind is VerdictKind.AMBIGUOUS:
            return {
                "kind": "ambiguous",
                "count": self.candidate_count,
                "candidates": [sorted(c) for c in self.candidates],
            }
        return {"kind": "inconsistent"}


@dataclass(frozen=True)
class StatusReport:
    """Per-node knowability derived from the full candidate list.

    ``listed`` holds the nodes some candidate contains, in id order:
    known-faulty when every candidate does, unknown when only some do.
    Every other node of ``node_ids`` has the status ``others``:
    known-fault-free, or unknown when there is no candidate at all (then
    nothing is listed).  ``statuses`` is the complete mapping, in
    ``node_ids`` order, built on first read.
    """

    listed: Mapping[NodeId, NodeStatus]
    others: NodeStatus
    verdict: DiagnosisVerdict
    node_ids: Sequence[NodeId] = field(repr=False)

    @cached_property
    def statuses(self) -> Mapping[NodeId, NodeStatus]:
        return MappingProxyType(_all_statuses(self.node_ids, self.listed, self.others))

    def to_json_dict(self) -> dict:
        """The listed nodes, keyed by id as a string; ``identify --json``
        prints ``others`` beside them."""
        # ``_value_`` is a plain attribute; ``value`` is a property.  Key
        # order is left to the writer: ``jsonio.dump_json`` sorts the keys.
        return {str(nid): status._value_ for nid, status in self.listed.items()}


def _require_inputs(graph: DiagnosticGraph, syndrome: Syndrome, t: object) -> tuple:
    """The failed masks of a syndrome over a valid graph; t must be an integer >= 0."""
    failed = failed_masks(graph, syndrome)
    if not isinstance(t, int) or isinstance(t, bool) or t < 0:
        raise ValueError(f"t must be a non-negative integer, got {t!r}")
    return failed


def _candidate_masks(graph: DiagnosticGraph, syndrome: Syndrome, t: int) -> list[int]:
    """All fault sets of size <= t compatible with the syndrome, as bitmasks.

    Only suspects can be faulty: the two ends of each failed test, and the
    nodes with fewer than t testers.  A faulty node that no test failed was
    passed by all its testers, so all of them lie too, which makes more
    than t faults once it has t testers or more.  The search reads the
    suspects' rows only, cut to the suspects.  A suspect with a tester
    outside them is fault-free from the start: that tester is never faulty
    and failed nothing, so it passed the suspect.
    """
    failed = _require_inputs(graph, syndrome, t)
    out_masks, degrees = graph.out_masks, graph.in_degrees
    suspects = 0
    for tester in itertools.compress(range(graph.n), failed):
        suspects |= failed[tester] | 1 << tester
    if degrees and t > min(degrees):
        for pos, degree in enumerate(degrees):
            if degree < t:
                suspects |= 1 << pos
    passed: dict[int, int] = {}  # per suspect, the suspects it passed
    inside: dict[int, int] = {}  # per suspect, its testers among the suspects
    rest = suspects
    while rest:
        low = rest & -rest
        rest ^= low
        tester = low.bit_length() - 1
        cut = out_masks[tester] & suspects
        passed[tester] = cut & ~failed[tester]
        while cut:
            low = cut & -cut
            cut ^= low
            testee = low.bit_length() - 1
            inside[testee] = inside.get(testee, 0) + 1
    trusted = 0
    for pos in passed:
        if degrees[pos] > inside.get(pos, 0):
            trusted |= 1 << pos

    def propagate(in_mask: int, out_mask: int, pending: int) -> tuple[int, int] | None:
        """Trust every tester in ``pending``, one round at a time: apply the
        rows of a round's testers together, and trust the testees they pass
        next.  None once a module is on both sides or more than t are faulty.
        """
        while pending:
            flagged = cleared = 0
            while pending:
                low = pending & -pending
                pending ^= low
                tester = low.bit_length() - 1
                flagged |= failed[tester]
                cleared |= passed[tester]
            in_mask |= flagged
            pending = cleared & ~out_mask
            out_mask |= cleared
            if in_mask & out_mask or in_mask.bit_count() > t:
                return None
        return in_mask, out_mask

    start = propagate(0, trusted, trusted)
    found: list[int] = []
    stack = [start] if start is not None else []
    while stack:
        in_mask, out_mask = stack.pop()
        undecided = suspects & ~(in_mask | out_mask)
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


def _verdict_from_masks(
    graph: DiagnosticGraph, masks: list[int], t: int, candidate_limit: int
) -> DiagnosisVerdict:
    beyond = t > (graph.n - 1) // 2
    if not masks:
        return DiagnosisVerdict(
            VerdictKind.INCONSISTENT,
            budget=t,
            fault_set=None,
            candidates=(),
            candidate_count=0,
            exceeds_majority_budget=beyond,
        )
    if len(masks) == 1:
        only = graph.ids_of(masks[0])
        return DiagnosisVerdict(
            VerdictKind.UNIQUE,
            budget=t,
            fault_set=only,
            candidates=(only,),
            candidate_count=1,
            exceeds_majority_budget=beyond,
        )
    shown = tuple(graph.ids_of(mask) for mask in masks[:candidate_limit])
    return DiagnosisVerdict(
        VerdictKind.AMBIGUOUS,
        budget=t,
        fault_set=None,
        candidates=shown,
        candidate_count=len(masks),
        exceeds_majority_budget=beyond,
    )


def identify(
    graph: DiagnosticGraph,
    syndrome: Syndrome,
    t: int,
    *,
    candidate_limit: int = DEFAULT_CANDIDATE_LIMIT,
) -> DiagnosisVerdict:
    """Identify the faulty set from a syndrome, assuming at most t faults.

    Unique when exactly one compatible fault set of size <= t exists;
    Inconsistent when none does (which covers the case of more than t
    actual faults); Ambiguous otherwise, listing the candidates up to the
    configured limit.
    """
    masks = _candidate_masks(graph, syndrome, t)
    return _verdict_from_masks(graph, masks, t, candidate_limit)


def all_consistent_fault_sets(
    graph: DiagnosticGraph,
    syndrome: Syndrome,
    t: int,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[frozenset[NodeId]]:
    """Brute-force referee for :func:`identify`: test every subset at once.

    Returns all compatible fault sets of size <= t, sorted by size then
    lexicographically.  Exhaustive over all 2**n subsets, hence the node
    cap.  Each subset is tested by the ``pmc_compatible`` predicate, for
    all of them together: bit F of an integer stands for the subset with
    position mask F, so one integer of 2**n bits per node says which
    subsets hold it, and the predicate costs one AND per edge.  F fits iff
    every tester u is in F or reported each testee's membership in F.  The
    call keeps n + min(t, n) + O(1) such integers, 2 KiB each at 14 nodes.
    """
    failed = _require_inputs(graph, syndrome, t)
    n = graph.n
    if n > cap:
        raise SizeCapError(
            f"exhaustive enumeration restricted to small graphs (n <= {cap}, "
            f"got {n})"
        )
    top = min(t, n)
    # Doubling over the positions: once x is added, the subsets holding x
    # are the copies of the earlier ones shifted up by 2**x.  ``member[x]``
    # holds the subsets with x in them, ``size[k]`` those of k members.
    full = 1
    member: list[int] = []
    size = [1] + [0] * top
    for x in range(n):
        half = 1 << x
        for index, mask in enumerate(member):
            member[index] = mask | mask << half
        member.append(full << half)
        for k in range(top, 0, -1):
            size[k] |= size[k - 1] << half
        full |= full << half
    fits = full
    for u, (out, flagged) in enumerate(zip(graph.out_masks, failed)):
        truthful = full
        while out:
            low = out & -out
            out ^= low
            v = low.bit_length() - 1
            truthful &= member[v] if flagged & low else full ^ member[v]
        fits &= member[u] | truthful
    found: list[frozenset[NodeId]] = []
    for layer in size:
        hits, masks = fits & layer, []
        while hits:
            low = hits & -hits
            hits ^= low
            masks.append(low.bit_length() - 1)
        found.extend(map(frozenset, sorted(map(graph.id_tuple, masks))))
    return found


def _spread(masks: list[int]) -> tuple[int, int]:
    """The bits every mask holds and the bits some mask holds; masks nonempty."""
    everywhere = anywhere = masks[0]
    for mask in masks:
        everywhere &= mask
        anywhere |= mask
    return everywhere, anywhere


def _group_statuses(masks: list[int], groups: list[int]) -> list[NodeStatus]:
    """Status of each group of bits across the candidate masks.

    A group is known-faulty when every candidate holds all of it, known
    fault-free when no candidate holds any of it, and unknown otherwise;
    with no candidate at all, every group is unknown.  One pass over the
    masks, one over the groups.
    """
    if not masks:
        return [NodeStatus.UNKNOWN for _ in groups]
    everywhere, anywhere = _spread(masks)
    statuses = []
    for group in groups:
        if everywhere & group == group:
            statuses.append(NodeStatus.KNOWN_FAULTY)
        elif anywhere & group:
            statuses.append(NodeStatus.UNKNOWN)
        else:
            statuses.append(NodeStatus.KNOWN_FAULT_FREE)
    return statuses


def _listed_statuses(
    masks: list[int], keys: Sequence[Hashable]
) -> tuple[dict, NodeStatus]:
    """The status of each bit position p that some candidate mask holds,
    keyed by ``keys[p]`` in position order, and the one status of every
    other key, as :class:`StatusReport` reads them.  Only those bits are
    visited.
    """
    if not masks:
        return {}, NodeStatus.UNKNOWN
    everywhere, anywhere = _spread(masks)
    listed = {}
    while anywhere:
        low = anywhere & -anywhere
        anywhere ^= low
        listed[keys[low.bit_length() - 1]] = (
            NodeStatus.KNOWN_FAULTY if everywhere & low else NodeStatus.UNKNOWN
        )
    return listed, NodeStatus.KNOWN_FAULT_FREE


def _all_statuses(
    keys: Sequence[Hashable], listed: Mapping, others: NodeStatus
) -> dict:
    """Every key's status, in ``keys`` order: its listed one, else ``others``."""
    statuses = dict.fromkeys(keys, others)
    statuses.update(listed)
    return statuses


def node_status(
    graph: DiagnosticGraph,
    syndrome: Syndrome,
    t: int,
    *,
    candidate_limit: int = DEFAULT_CANDIDATE_LIMIT,
) -> StatusReport:
    """Classify each node as known-faulty, known-fault-free, or unknown.

    A node is known-faulty when it belongs to every candidate fault set and
    known-fault-free when it belongs to none.  When the syndrome admits no
    candidate at all, every node is unknown and the verdict says so.
    """
    masks = _candidate_masks(graph, syndrome, t)
    verdict = _verdict_from_masks(graph, masks, t, candidate_limit)
    listed, others = _listed_statuses(masks, graph.node_ids)
    return StatusReport(
        listed=MappingProxyType(listed),
        others=others,
        verdict=verdict,
        node_ids=graph.node_ids,
    )
