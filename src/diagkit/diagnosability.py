"""Deciding how many simultaneous faults a diagnostic graph can pin down.

A graph is t-diagnosable when every syndrome produced by at most t faulty
modules determines the faulty set uniquely.  The checker decides this with
three structural conditions:

  (i)   n >= 2t + 1,
  (ii)  every node is tested by at least t others,
  (iii) for each p in [0, t), every node subset X of size n - 2t + p has
        more than p nodes outside X that some member of X tests.

Conditions (i) and (ii) are read off the node count and the in-degrees;
together they bound t by the search ceiling, min(minimum in-degree,
⌊(n − 1)/2⌋).  Condition (iii) and the largest t, t(D), both follow from
one quantity, m, the least |W| + 2·|T(W) \\ W| over nonempty node sets W
and T(W) their testers (Hakimi & Amin, IEEE Trans. Computers C-23(1),
1974; Sullivan, FOCS 1984): given (i) and (ii), condition (iii) holds at t
exactly when m > 2t, so t(D) = ⌊(m − 1)/2⌋.  m is found by minimum cuts in
polynomial time, once per graph, and the set W that attains it, read as a
condition-(iii) witness, refutes every t from t(D) + 1 to the ceiling.

Alongside lives a definition-level brute-force oracle that scans the unions
of two small fault sets for a pair sharing a syndrome; it and the checker
must always agree, and the test suite holds them to that.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .errors import GraphError, SizeCapError
from .graph import (
    DiagnosticGraph,
    NodeId,
    Syndrome,
    min_in_degree,
    testable_set,
    tested_by,
)

DEFAULT_ORACLE_CAP = 14


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


def is_t_diagnosable(graph: DiagnosticGraph, t: int) -> DiagnosabilityCertificate:
    """Decide t-diagnosability and return a certificate.

    t = 0 is trivially diagnosable for any nonempty graph: there is nothing
    to identify.  A refusal names the first condition that fails.  Once (i)
    and (ii) hold, t is at most the search ceiling, and condition (iii)
    holds exactly when the graph's least f(W) exceeds 2t; otherwise its
    minimiser W, found once per graph (:func:`_graph_cut`), gives the
    (p, X) of the refutation (:func:`_refutation`).
    """
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
    if t:  # at t = 0, m >= 1 > 2t with no cut
        _, m, least = _graph_cut(graph)
        if m <= 2 * t:
            return _refutation(graph, t, least)
    return DiagnosabilityCertificate(t, Verdict.DIAGNOSABLE)


def _testers(graph: DiagnosticGraph) -> list[list[int]]:
    """Per position, the positions that test it."""
    testers: list[list[int]] = [[] for _ in range(graph.n)]
    for tester, testee in graph.position_pairs():
        testers[testee].append(tester)
    return testers


def _least_cut(testers: list[list[int]], limit: int) -> tuple[int, list[int]]:
    """min(m, limit), where m is the least f(W) = |W| + 2·|T(W) \\ W| over
    nonempty W, and a W attaining it if that is below ``limit`` (else []).

    The least f(W) over the W whose lowest position is v is a minimum cut
    between v and a sink, in a network with a node a_u per tester u:
    x -> sink (1) for each x, x -> a_u (unbounded) for each tester u of x,
    and a_u -> u (2).  A cut that keeps W on v's side pays 1 per member and
    2 per tester outside W.  Positions below v lead to the sink without
    bound, so they stay outside W.

    Each cut starts from the direct paths: v -> sink (1) and
    v -> a_u -> u -> sink per tester u of v, 2 units if u < v, else 1.
    Their 1 + |T(v)| + |T(v) below v| units bound the cut from below, since
    any W whose lowest position is v holds v and pays at least 1 per tester
    of v and 2 per tester below v; a cut whose seed reaches the best value
    so far is skipped.  Then each tester u above v takes a second unit,
    v -> a_u -> u -> a_w -> w -> sink, through the first tester w of u with
    room on a_w -> w and on w -> sink (any w below v; above v, a w not yet
    in the flow).  The flow stays feasible: a_u -> u and a_w -> w carry at
    most 2, each x >= v sends at most 1 unit to the sink, and u and a_w
    pass on what they take in.  From there, unit paths are found by
    breadth-first search from v, and the flow stops at the least value found
    so far; a search that finds no path has reached exactly the W it cuts
    off, which is the same for every maximum flow, so neither the seed nor
    the second units change the minimiser.  Each search stops at the first
    node with room to the sink, so a cut explores only a neighbourhood of v.
    """
    best, least = limit, []
    for v in range(len(testers)):
        through = {u: 2 if u < v else 1 for u in testers[v]}  # units on a_u -> u
        flow = 1 + sum(through.values())
        if flow >= best:
            continue
        # u -> {x: units on x -> a_u}, and the x whose unit to the sink is taken.
        into = {u: {v: units} for u, units in through.items()}
        full = {v, *(u for u in testers[v] if u > v)}
        for u in testers[v]:
            if u < v or flow >= best:
                continue
            for w in testers[u]:
                if through.get(w, 0) < 2 and (w < v or w not in full):
                    into[u][v] += 1  # v -> a_u
                    through[u] = 2  # a_u -> u
                    units = into.setdefault(w, {})
                    units[u] = units.get(u, 0) + 1  # u -> a_w
                    through[w] = through.get(w, 0) + 1  # a_w -> w
                    full.add(w)  # w -> sink
                    flow += 1
                    break
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


def _refutation(
    graph: DiagnosticGraph, t: int, least: Sequence[int]
) -> DiagnosabilityCertificate:
    """The condition-(iii) failure at t given by a W with f(W) <= 2t, for t
    no higher than the search ceiling.

    With S = T(W) \\ W, no node of X = V \\ (W ∪ S) tests W, so Γ(X) ⊆ S.
    X has n − |W| − |S| = n − 2t + p members for p = 2t − |W| − |S|, and
    |Γ(X)| <= |S| <= p follows from f(W) <= 2t.  p < t because each w in W
    has at least t testers, all in (W − w) ∪ S, so |W| + |S| > t.
    """
    rows = tuple(graph.out_masks)
    inside = tested = 0
    for x in least:
        inside |= 1 << x
    for u, row in enumerate(rows):
        if row & inside:
            tested |= 1 << u
    outside = tested & ~inside
    members = ((1 << graph.n) - 1) & ~(inside | outside)
    p = 2 * t - len(least) - outside.bit_count()
    testable = tested_by(rows, members) & ~members
    witness = CondIIIWitness(p, graph.ids_of(members), graph.ids_of(testable))
    return DiagnosabilityCertificate(t, Verdict.NOT_DIAGNOSABLE, "cond_iii", witness)


def revalidate_certificate(
    graph: DiagnosticGraph, certificate: DiagnosabilityCertificate
) -> bool:
    """Re-check a certificate against the graph it was computed from.

    Failure witnesses are validated directly from adjacency queries;
    passing certificates are re-derived by a fresh minimum cut, never the
    one the graph keeps.  A certificate whose t is out of range for the
    graph, or whose witness names a node the graph lacks, does not hold.
    """
    t = certificate.t
    if certificate.diagnosable:
        try:
            _check_args(graph, t)
        except ValueError:
            return False
        return _least_cut(_testers(graph), 2 * t + 1)[0] > 2 * t
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
        try:
            reached = testable_set(graph, witness.members)
        except ValueError:  # a member that is no node of the graph
            return False
        return reached == witness.testable and len(reached) <= p
    return False


def search_ceiling(graph: DiagnosticGraph) -> int:
    """Upper limit of the search: min(minimum in-degree, floor((n-1)/2))."""
    degree, _ = min_in_degree(graph)
    return min(degree, (graph.n - 1) // 2)


def _graph_cut(graph: DiagnosticGraph) -> tuple[int, int, tuple[int, ...]]:
    """(c, min(m, 2c + 1), W) for the graph's search ceiling c, m its least
    f(W), and W the positions of a set attaining m if m <= 2c (else ()).

    One :func:`_least_cut` per graph decides condition (iii) at every level
    up to c: a W with f(W) = m <= 2t refutes each t from t(D) + 1 to c.
    The result is kept in the graph's instance dict, as its cached views
    are; the tester lists are not, since they would hold a list per node
    for as long as the graph lives.
    """
    cut = vars(graph).get("_cut")
    if cut is None:
        ceiling = search_ceiling(graph)
        m, least = _least_cut(_testers(graph), 2 * ceiling + 1)
        cut = vars(graph)["_cut"] = (ceiling, m, tuple(least))
    return cut


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
            "refutation": (
                None if self.refutation is None else self.refutation.to_json_dict()
            ),
        }


def max_diagnosability(graph: DiagnosticGraph) -> MaxDiagnosability:
    """Exact largest t for which the graph is t-diagnosable, in polynomial time.

    Two fault sets A ≠ B share a syndrome exactly when no node of
    W = A △ B is tested from outside A ∪ B, that is when T(W) \\ W lies in
    A ∩ B; the larger of the two then has at least ⌈|W|/2⌉ + |T(W) \\ W|
    members, and a pair attains it.  So t(D) = ⌊(m − 1)/2⌋, where m is the
    least f(W) = |W| + 2·|T(W) \\ W| over nonempty W, found by one minimum
    cut per node, once per graph (:func:`_graph_cut`).  Below the search
    ceiling the refutation at t(D) + 1 is the minimiser, read as a
    condition-(iii) witness (:func:`_refutation`).
    """
    ceiling, m, least = _graph_cut(graph)
    t_max = (m - 1) // 2
    return MaxDiagnosability(
        t_max=t_max,
        ceiling=ceiling,
        certificate=DiagnosabilityCertificate(t_max, Verdict.DIAGNOSABLE),
        refutation=_refutation(graph, t_max + 1, least) if least else None,
    )


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
    if (mask_a ^ mask_b) & tested_by(tuple(graph.out_masks), outside):
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


def _some_union_collides(bits: list[int], from_outside: list[int], t: int) -> bool:
    """Whether some union U of at most 2t positions has d >= 1 and
    |Z| + ⌈d/2⌉ <= t, that is |Z| < |U| and |U| + |Z| <= 2t, where
    Z = U & from_outside[U] and d = |U| - |Z|."""
    for size in range(1, min(2 * t, len(bits)) + 1):
        room = min(size - 1, 2 * t - size)  # the most |Z| may be
        for union in map(sum, itertools.combinations(bits, size)):
            if (union & from_outside[union]).bit_count() <= room:
                return True
    return False


def oracle_is_t_diagnosable(
    graph: DiagnosticGraph, t: int, *, cap: int = DEFAULT_ORACLE_CAP
) -> OracleResult:
    """Brute-force referee for :func:`is_t_diagnosable`.

    Two distinct fault sets A and B of size at most t admit a shared
    syndrome exactly when no node on which they disagree is tested from
    outside their union U = A | B.  The verdict comes from a scan of every
    U of at most 2t nodes, by size:

      Z = U & from_outside[U], the nodes of U tested from outside U, must
      lie in A & B; the d = |U| - |Z| other nodes can be split between A
      and B; so some pair with union U collides iff d >= 1 and
      |Z| + ⌈d/2⌉ <= t.

    Only when some U collides are the pairs of distinct fault sets of size
    at most t walked (by size, then lexicographically), to report the first
    one admitting a shared syndrome.  Exponential by design, in memory too
    (both read a table of 2**n entries); it exists to referee the checker,
    not to replace it.
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
    # from_outside[U]: the nodes tested by some node outside U.  Each node
    # doubles the table; the sets without it (the lower half) gain its tests.
    from_outside = [0]
    for out in graph.out_masks:
        from_outside = [reached | out for reached in from_outside] + from_outside
    if not _some_union_collides(bits, from_outside, t):
        return OracleResult(t=t, diagnosable=True, counterexample=None)
    subsets = [
        sum(combo) for size in range(t + 1) for combo in itertools.combinations(bits, size)
    ]
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
    raise AssertionError(f"a union collides at t = {t} but no pair does")
