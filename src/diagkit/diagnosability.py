"""Deciding how many simultaneous faults a diagnostic graph can pin down.

A graph is t-diagnosable when every syndrome produced by at most t faulty
modules determines the faulty set uniquely.  The checker decides this with
three structural conditions:

  (i)   n >= 2t + 1,
  (ii)  every node is tested by at least t others,
  (iii) for each p in [0, t), every node subset X of size n - 2t + p has
        more than p nodes outside X that some member of X tests.

Condition (iii) is decided by enumerating the subsets directly, so the
exact path is gated to small graphs; ``diagnosability_bounds`` serves
larger ones.  Alongside the checker lives a definition-level brute-force
oracle that searches for two small fault sets sharing a syndrome; the two
must always agree, and the test suite holds them to that.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

from .errors import GraphError, SizeCapError
from .graph import (
    DiagnosticGraph,
    NodeId,
    Syndrome,
    min_in_degree,
    testable_set,
    tested_by,
)

DEFAULT_EXACT_CAP = 24
DEFAULT_ORACLE_CAP = 14
DEFAULT_SUBSET_BUDGET = 2_000_000


class Verdict(Enum):
    DIAGNOSABLE = "diagnosable"
    NOT_DIAGNOSABLE = "not_diagnosable"


@dataclass(frozen=True)
class CondIWitness:
    """Too few nodes: ``n`` is below the ``required`` 2t + 1."""

    n: int
    required: int

    def to_json_dict(self) -> dict:
        return {"n": self.n, "required": self.required}


@dataclass(frozen=True)
class CondIIWitness:
    """A node tested by fewer than t others."""

    node: NodeId
    in_degree: int

    def to_json_dict(self) -> dict:
        return {"node": self.node, "in_degree": self.in_degree}


@dataclass(frozen=True)
class CondIIIWitness:
    """A subset X whose testable set is too small: |Γ(X)| <= p."""

    p: int
    members: frozenset[NodeId]
    testable: frozenset[NodeId]

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "X": sorted(self.members),
            "gamma": sorted(self.testable),
        }


Witness = CondIWitness | CondIIWitness | CondIIIWitness


@dataclass(frozen=True)
class DiagnosabilityCertificate:
    """The verdict for one t, with a checkable witness on failure."""

    t: int
    verdict: Verdict
    failed_condition: str | None = None
    witness: Witness | None = None

    @property
    def diagnosable(self) -> bool:
        return self.verdict is Verdict.DIAGNOSABLE

    def __bool__(self) -> bool:
        return self.diagnosable

    def to_json_dict(self) -> dict:
        doc: dict = {"t": self.t, "verdict": self.verdict.value}
        if self.failed_condition is not None:
            doc["failed"] = self.failed_condition
            doc["witness"] = self.witness.to_json_dict() if self.witness else None
        return doc


class _BudgetExceeded(Exception):
    pass


class _Budget:
    """Mutable countdown over enumerated subsets."""

    __slots__ = ("remaining",)

    def __init__(self, remaining: int) -> None:
        self.remaining = remaining


def _check_args(graph: DiagnosticGraph, t: int) -> int:
    n = graph.n
    if n == 0:
        raise GraphError("empty graph")
    if not isinstance(t, int) or isinstance(t, bool):
        raise ValueError(f"t must be an integer, got {t!r}")
    if t < 0:
        raise ValueError(f"t must satisfy t >= 0, got {t}")
    if t >= n:
        raise ValueError(f"t must satisfy t < n, got t = {t} with n = {n}")
    return n


def _cond_iii_witness(
    graph: DiagnosticGraph, t: int, budget: _Budget | None = None
) -> CondIIIWitness | None:
    """First failing (p, X), scanning p ascending and X lexicographically."""
    n = graph.n
    out_masks = graph.out_masks
    for p in range(t):
        size = n - 2 * t + p
        if size <= 0:  # unreachable once condition (i) holds
            continue
        for combo in itertools.combinations(range(n), size):
            if budget is not None:
                budget.remaining -= 1
                if budget.remaining < 0:
                    raise _BudgetExceeded
            subset_mask = 0
            reached = 0
            for pos in combo:
                subset_mask |= 1 << pos
                reached |= out_masks[pos]
            reached &= ~subset_mask
            if reached.bit_count() <= p:
                return CondIIIWitness(
                    p=p,
                    members=graph.ids_of(subset_mask),
                    testable=graph.ids_of(reached),
                )
    return None


def _is_t_diagnosable(
    graph: DiagnosticGraph, t: int, budget: _Budget | None
) -> DiagnosabilityCertificate:
    n = _check_args(graph, t)
    if n < 2 * t + 1:
        return DiagnosabilityCertificate(
            t, Verdict.NOT_DIAGNOSABLE, "cond_i", CondIWitness(n=n, required=2 * t + 1)
        )
    for nid, degree in zip(graph.node_ids, graph.in_degrees):
        if degree < t:
            return DiagnosabilityCertificate(
                t,
                Verdict.NOT_DIAGNOSABLE,
                "cond_ii",
                CondIIWitness(node=nid, in_degree=degree),
            )
    witness = _cond_iii_witness(graph, t, budget)
    if witness is not None:
        return DiagnosabilityCertificate(t, Verdict.NOT_DIAGNOSABLE, "cond_iii", witness)
    return DiagnosabilityCertificate(t, Verdict.DIAGNOSABLE)


def is_t_diagnosable(graph: DiagnosticGraph, t: int) -> DiagnosabilityCertificate:
    """Decide t-diagnosability and return a certificate.

    t = 0 is trivially diagnosable for any nonempty graph: there is nothing
    to identify.
    """
    return _is_t_diagnosable(graph, t, None)


def revalidate_certificate(
    graph: DiagnosticGraph, certificate: DiagnosabilityCertificate
) -> bool:
    """Re-check a certificate against the graph it was computed from.

    Failure witnesses are validated directly from adjacency queries rather
    than by re-running the subset scan; passing certificates are re-derived.
    """
    t = certificate.t
    if certificate.diagnosable:
        return is_t_diagnosable(graph, t).diagnosable
    witness = certificate.witness
    if certificate.failed_condition == "cond_i":
        return (
            isinstance(witness, CondIWitness)
            and witness.n == graph.n
            and graph.n < 2 * t + 1 == witness.required
        )
    if certificate.failed_condition == "cond_ii":
        if not isinstance(witness, CondIIWitness):
            return False
        pos = graph.positions.get(witness.node)
        if pos is None:
            return False
        return graph.in_degrees[pos] == witness.in_degree and witness.in_degree < t
    if certificate.failed_condition == "cond_iii":
        if not isinstance(witness, CondIIIWitness):
            return False
        p = witness.p
        if not (0 <= p < t and len(witness.members) == graph.n - 2 * t + p):
            return False
        reached = testable_set(graph, witness.members)
        return reached == witness.testable and len(reached) <= p
    return False


def search_ceiling(graph: DiagnosticGraph) -> int:
    """Upper limit of the search: min(minimum in-degree, floor((n-1)/2))."""
    degree, _ = min_in_degree(graph)
    return min(degree, (graph.n - 1) // 2)


@dataclass(frozen=True)
class MaxDiagnosability:
    """Largest verified t, plus the certificates bracketing it."""

    t_max: int
    ceiling: int
    certificate: DiagnosabilityCertificate
    refutation: DiagnosabilityCertificate | None

    def to_json_dict(self) -> dict:
        return {
            "t_max": self.t_max,
            "ceiling": self.ceiling,
            "certificate": self.certificate.to_json_dict(),
            "refutation": self.refutation.to_json_dict() if self.refutation else None,
        }


def max_diagnosability(
    graph: DiagnosticGraph, *, exact_cap: int = DEFAULT_EXACT_CAP
) -> MaxDiagnosability:
    """Exact largest t for which the graph is t-diagnosable.

    Searches downward from the ceiling; thanks to monotonicity in t, the
    first success from above is the answer.  Exponential in the worst case,
    hence the node cap; use :func:`diagnosability_bounds` beyond it.
    """
    if graph.n == 0:
        raise GraphError("empty graph")
    if graph.n > exact_cap:
        raise SizeCapError(
            f"exact search is capped at {exact_cap} nodes (graph has {graph.n}); "
            "raise the cap or use diagnosability_bounds"
        )
    ceiling = search_ceiling(graph)
    refutation: DiagnosabilityCertificate | None = None
    for t in range(ceiling, -1, -1):
        certificate = is_t_diagnosable(graph, t)
        if certificate.diagnosable:
            return MaxDiagnosability(
                t_max=t, ceiling=ceiling, certificate=certificate, refutation=refutation
            )
        refutation = certificate
    raise AssertionError("t = 0 must be diagnosable for a nonempty graph")


class Bounds(NamedTuple):
    lower: int
    upper: int


def diagnosability_bounds(
    graph: DiagnosticGraph, *, subset_budget: int = DEFAULT_SUBSET_BUDGET
) -> Bounds:
    """Cheap bracket: lower <= t(D) <= upper.

    The upper bound is structural (min in-degree and the majority limit).
    The lower bound is the largest t verified by a downward search allowed
    to enumerate at most ``subset_budget`` subsets in total; it degrades to
    0 when the budget runs out before any level is verified.
    """
    if graph.n == 0:
        return Bounds(0, 0)
    ceiling = search_ceiling(graph)
    budget = _Budget(subset_budget)
    for t in range(ceiling, 0, -1):
        try:
            certificate = _is_t_diagnosable(graph, t, budget)
        except _BudgetExceeded:
            return Bounds(0, ceiling)
        if certificate.diagnosable:
            return Bounds(t, ceiling)
    return Bounds(0, ceiling)


@dataclass(frozen=True)
class OracleCounterexample:
    """Two distinct small fault sets that some syndrome cannot tell apart."""

    fault_set_a: frozenset[NodeId]
    fault_set_b: frozenset[NodeId]
    syndrome: Syndrome


@dataclass(frozen=True)
class OracleResult:
    t: int
    diagnosable: bool
    counterexample: OracleCounterexample | None

    def __bool__(self) -> bool:
        return self.diagnosable


def common_syndrome(
    graph: DiagnosticGraph,
    fault_a: Iterable[NodeId],
    fault_b: Iterable[NodeId],
) -> Syndrome | None:
    """A syndrome compatible with both fault sets, or None if none exists.

    One exists exactly when every node on which the two sets disagree is
    tested only from inside their union.  Outcomes that neither set forces
    (both testers faulty) are materialized as 0 for determinism.
    """
    mask_a = graph.mask_of(fault_a)
    mask_b = graph.mask_of(fault_b)
    outside = ((1 << graph.n) - 1) & ~(mask_a | mask_b)
    if (mask_a ^ mask_b) & tested_by(graph.out_masks, outside):
        return None
    return _shared_syndrome(graph, mask_a, mask_b)


def _shared_syndrome(graph: DiagnosticGraph, mask_a: int, mask_b: int) -> Syndrome:
    """The syndrome of two fault sets whose forced outcomes agree; unforced are 0.

    Held as masks: a tester outside B fails B's members among its testees,
    else one outside A fails A's, else it fails none.
    """
    failed = []
    bit = 1
    for out in graph.out_masks:
        truth = mask_b if not bit & mask_b else mask_a if not bit & mask_a else 0
        failed.append(out & truth)
        bit <<= 1
    return Syndrome._from_masks(graph, failed)


def oracle_is_t_diagnosable(
    graph: DiagnosticGraph, t: int, *, cap: int = DEFAULT_ORACLE_CAP
) -> OracleResult:
    """Brute-force referee for :func:`is_t_diagnosable`.

    Enumerates every pair of distinct fault sets of size at most t (by size,
    then lexicographically) and reports the first pair admitting a shared
    syndrome: A and B admit one exactly when no node on which they disagree
    is tested from outside A | B.  Exponential by design, in memory too (the
    pair test reads a table of 2**n entries); it exists to referee the
    checker, not to replace it.
    """
    n = _check_args(graph, t)
    if n > cap:
        raise SizeCapError(
            f"oracle restricted to small graphs (n <= {cap}, got {n})"
        )
    if t == 0:  # the empty set is the only fault set: no pair to tell apart
        return OracleResult(t=t, diagnosable=True, counterexample=None)
    # Positions ascend with ids, so combinations of the bits come by size,
    # then lexicographically.
    bits = [1 << pos for pos in range(n)]
    subsets = [
        sum(combo) for size in range(t + 1) for combo in itertools.combinations(bits, size)
    ]
    # from_outside[U]: the nodes tested by some node outside U.  Each node
    # doubles the table; the sets without it (the lower half) gain its tests.
    from_outside = [0]
    for out in graph.out_masks:
        from_outside = [reached | out for reached in from_outside] + from_outside
    for index, mask_a in enumerate(subsets):
        for mask_b in itertools.islice(subsets, index + 1, None):
            if not (mask_a ^ mask_b) & from_outside[mask_a | mask_b]:
                return OracleResult(
                    t=t,
                    diagnosable=False,
                    counterexample=OracleCounterexample(
                        graph.ids_of(mask_a),
                        graph.ids_of(mask_b),
                        _shared_syndrome(graph, mask_a, mask_b),
                    ),
                )
    return OracleResult(t=t, diagnosable=True, counterexample=None)
