"""Turning an observed syndrome into a verdict about which modules failed.

The exact search branches on the lowest undecided module: it is either
faulty, or fault-free, in which case every outcome it reported is taken at
face value (unit propagation).  Outcomes are kept as bitmask rows per
tester, so trusting a tester applies its whole row at once: the modules it
failed become faulty, the modules it passed become trusted in turn, and a
module that ends up on both sides kills the branch.  Branches also die once
more than t modules are assumed faulty, so the search is exact for every t
and fast for the small budgets these graphs call for.  The search keeps its
branches on an explicit stack, so graph size meets no recursion limit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Mapping

from .errors import SizeCapError
from .graph import (
    DiagnosticGraph,
    NodeId,
    Syndrome,
    failed_masks,
    pmc_fits,
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
    """Per-node knowability derived from the full candidate list."""

    statuses: Mapping[NodeId, NodeStatus]
    verdict: DiagnosisVerdict

    def to_json_dict(self) -> dict:
        return {str(nid): status.value for nid, status in sorted(self.statuses.items())}


def _require_inputs(graph: DiagnosticGraph, syndrome: Syndrome, t: object) -> tuple:
    """The failed masks of a syndrome over a valid graph; t must be an integer >= 0."""
    failed = failed_masks(graph, syndrome)
    if not isinstance(t, int) or isinstance(t, bool) or t < 0:
        raise ValueError(f"t must be a non-negative integer, got {t!r}")
    return failed


def _candidate_masks(graph: DiagnosticGraph, syndrome: Syndrome, t: int) -> list[int]:
    """All fault sets of size <= t compatible with the syndrome, as bitmasks."""
    failed = _require_inputs(graph, syndrome, t)
    full = (1 << graph.n) - 1
    passed = [out & ~flagged for out, flagged in zip(graph.out_masks, failed)]

    def propagate(in_mask: int, out_mask: int, pending: int) -> tuple[int, int] | None:
        """Trust every tester in ``pending`` and apply its row; None on conflict."""
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

    found: list[int] = []
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
    """Brute-force referee for :func:`identify`: try every subset directly.

    Returns all compatible fault sets of size <= t, sorted by size then
    lexicographically.  Exhaustive over all subsets, hence the node cap.
    Each subset is tested by the ``pmc_compatible`` predicate on bitmasks.
    """
    failed = _require_inputs(graph, syndrome, t)
    if graph.n > cap:
        raise SizeCapError(
            f"exhaustive enumeration restricted to small graphs (n <= {cap}, "
            f"got {graph.n})"
        )
    out_masks = graph.out_masks
    # Positions ascend with ids, so combinations of the bits come by size,
    # then lexicographically.
    bits = [1 << pos for pos in range(graph.n)]
    return [
        graph.ids_of(mask)
        for size in range(min(t, graph.n) + 1)
        for mask in map(sum, itertools.combinations(bits, size))
        if pmc_fits(out_masks, failed, mask)
    ]


def _group_statuses(masks: list[int], groups: list[int]) -> list[NodeStatus]:
    """Status of each group of bits across the candidate masks.

    A group is known-faulty when every candidate holds all of it, known
    fault-free when no candidate holds any of it, and unknown otherwise;
    with no candidate at all, every group is unknown.  One pass over the
    masks, one over the groups.
    """
    if not masks:
        return [NodeStatus.UNKNOWN for _ in groups]
    everywhere = anywhere = masks[0]
    for mask in masks:
        everywhere &= mask
        anywhere |= mask
    statuses = []
    for group in groups:
        if everywhere & group == group:
            statuses.append(NodeStatus.KNOWN_FAULTY)
        elif anywhere & group:
            statuses.append(NodeStatus.UNKNOWN)
        else:
            statuses.append(NodeStatus.KNOWN_FAULT_FREE)
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
    bits = [1 << pos for pos in range(graph.n)]
    statuses = dict(zip(graph.node_ids, _group_statuses(masks, bits)))
    return StatusReport(statuses=MappingProxyType(statuses), verdict=verdict)
