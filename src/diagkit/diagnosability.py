"""Deciding how many simultaneous faults a diagnostic graph can pin down.

A graph is t-diagnosable when no two distinct fault sets of at most t
modules can produce the same syndrome (Preparata, Metze & Chien, 1967).
The checker decides this with three structural conditions:

  (i)   n >= 2t + 1,
  (ii)  every node is tested by at least t others,
  (iii) for each p in [0, t), every node subset X of size n - 2t + p has
        more than p nodes outside X that some member of X tests.

Conditions (i) and (ii) are read off the node count and the in-degrees;
together they bound t by the search ceiling, min(minimum in-degree,
⌊(n − 1)/2⌋).  Condition (iii) and the largest t, t(D), both follow from
one quantity, m, the least f(W) = |W| + 2·|T(W) \\ W| over nonempty node
sets W and T(W) their testers (Hakimi & Amin, IEEE Trans. Computers
C-23(1), 1974; Sullivan, FOCS 1984): given (i) and (ii), condition (iii)
holds at t exactly when m > 2t, so t(D) = ⌊(m − 1)/2⌋.  m is found by
minimum cuts in polynomial time, once per graph.

Every refutation, whichever condition fails, is the definition's own: a
:class:`Counterexample`, two distinct fault sets of at most t members that
share a syndrome.  Each failed condition gives a W with f(W) <= 2t (V
itself, a node with fewer than t testers, or the cut's minimiser), and one
split (:func:`_split`) turns it into the pair, so
:func:`revalidate_certificate` checks a refutation with one pass over the
graph and no theorem to trust.

Alongside lives a definition-level brute-force oracle that scans the unions
of two fault sets, once per graph, for the least t at which a pair shares a
syndrome; it names its pair with the same split.  It and the checker must
always agree, and the test suite holds them to that.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable

from .errors import GraphError, SizeCapError
from .graph import DiagnosticGraph, NodeId, Syndrome

DEFAULT_ORACLE_CAP = 14


class Verdict(Enum):
    DIAGNOSABLE = "diagnosable"
    NOT_DIAGNOSABLE = "not_diagnosable"


@dataclass(frozen=True)
class Counterexample:
    """Two distinct fault sets of ``graph``, each of at most t members, that
    share a syndrome: the definition of "not t-diagnosable", and the one
    refutation of the checker and the oracle alike.  ``syndrome`` is the
    one both sets force, as :func:`common_syndrome` gives it, built on
    first read: a verdict alone never needs it."""

    fault_set_a: frozenset[NodeId]
    fault_set_b: frozenset[NodeId]
    graph: DiagnosticGraph = field(repr=False, compare=False)

    @cached_property
    def syndrome(self) -> Syndrome:
        graph = self.graph
        return _shared_syndrome(
            graph, graph.mask_of(self.fault_set_a), graph.mask_of(self.fault_set_b)
        )

    def to_json_dict(self) -> dict:
        return {"A": sorted(self.fault_set_a), "B": sorted(self.fault_set_b)}


def _split(graph: DiagnosticGraph, inside: int, outside: int) -> Counterexample:
    """The pair that a nonempty W, the position mask ``inside``, and a set S
    holding T(W) \\ W and missing W, the mask ``outside``, give: A is S plus
    the first ⌊|W|/2⌋ members of W, B is S plus the rest.

    A ∩ B = S and A △ B = W, so no node on which the two differ is tested
    from outside A ∪ B, and they share a syndrome.  |A| <= |B| =
    |S| + ⌈|W|/2⌉, which is at most t when |W| + 2·|S| <= 2t.
    """
    rest = inside
    for _ in range(inside.bit_count() // 2):
        rest &= rest - 1  # B's share: all but the first ⌊|W|/2⌋ of W
    return Counterexample(
        graph.ids_of(outside | inside & ~rest), graph.ids_of(outside | rest), graph
    )


@dataclass(frozen=True)
class DiagnosabilityCertificate:
    """The verdict for one t; on failure, the condition that fails, named as
    in the paper, and the pair of fault sets that refutes t."""

    t: int
    verdict: Verdict
    failed_condition: str | None = None
    witness: Counterexample | None = None

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
    to identify.  A refusal names the first condition that fails and the
    W with f(W) <= 2t that refutes it (:func:`_refutation`): all of V under
    condition (i), the first node with fewer than t testers under (ii).
    Once (i) and (ii) hold, t is at most the search ceiling, and condition
    (iii) holds exactly when the graph's least f(W) exceeds 2t; otherwise
    its minimiser W, found once per graph (:func:`_graph_cut`), refutes t.
    """
    n = _check_args(graph, t)
    if n < 2 * t + 1:
        return _refutation(graph, t, "cond_i", (1 << n) - 1)
    degrees = graph.in_degrees
    if t > min(degrees):
        below = next(pos for pos, degree in enumerate(degrees) if degree < t)
        return _refutation(graph, t, "cond_ii", 1 << below)
    if t:  # at t = 0, m >= 1 > 2t with no cut
        _, m, least = _graph_cut(graph)
        if m <= 2 * t:
            return _refutation(graph, t, "cond_iii", least)
    return DiagnosabilityCertificate(t, Verdict.DIAGNOSABLE)


def _testers(graph: DiagnosticGraph) -> list[list[int]]:
    """Per position, the positions that test it, ascending."""
    testers: list[list[int]] = [[] for _ in range(graph.n)]
    for tester, row in enumerate(graph.out_masks):
        # Shifted down to its lowest bit, a row of a large graph costs its
        # few bits, not its length, per step.
        offset = (row & -row).bit_length() - 1 if row else 0
        row >>= offset
        while row:
            low = row & -row
            testers[offset + low.bit_length() - 1].append(tester)
            row ^= low
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
    of v and 2 per tester below v.  Tester lists ascend, so |T(v) below v|
    is where v would sit in T(v), and a cut whose seed reaches the best
    value so far is skipped before any of its flow is built.  Then each
    tester u above v takes a second unit,
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
        mine = testers[v]
        below = bisect_left(mine, v)  # the testers of v below v
        flow = 1 + len(mine) + below
        if flow >= best:
            continue
        above = mine[below:]
        through = dict.fromkeys(mine[:below], 2)  # units on a_u -> u
        through.update(dict.fromkeys(above, 1))
        # u -> {x: units on x -> a_u}, and the x whose unit to the sink is taken.
        into = {u: {v: units} for u, units in through.items()}
        full = {v, *above}
        for u in above:
            if flow >= best:
                break
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
    graph: DiagnosticGraph, t: int, condition: str, inside: int
) -> DiagnosabilityCertificate:
    """The refutation of t under ``condition`` by the nonempty W, the
    position mask ``inside``, with f(W) = |W| + 2·|S| <= 2t for
    S = T(W) \\ W: the pair :func:`_split` gives.  Under condition (i)
    W = V and S is empty; otherwise :meth:`DiagnosticGraph.testers_of`
    finds S, on a flat graph without writing a row."""
    outside = 0 if condition == "cond_i" else graph.testers_of(inside) & ~inside
    pair = _split(graph, inside, outside)
    return DiagnosabilityCertificate(t, Verdict.NOT_DIAGNOSABLE, condition, pair)


def revalidate_certificate(
    graph: DiagnosticGraph, certificate: DiagnosabilityCertificate
) -> bool:
    """Re-check a certificate against the graph it was computed from.

    A refutation is checked against the definition, whatever condition it
    names: its two fault sets are distinct, each has at most t members, all
    of them nodes of the graph, and no node on which they differ is tested
    from outside their union, so they share a syndrome
    (:func:`common_syndrome`).  A passing certificate is re-derived by a
    fresh minimum cut, never the one the graph keeps.  A certificate whose
    t is out of range for the graph, or whose pair names a node the graph
    lacks, does not hold.
    """
    t = certificate.t
    try:
        _check_args(graph, t)
    except ValueError:
        return False
    if certificate.diagnosable:
        return _least_cut(_testers(graph), 2 * t + 1)[0] > 2 * t
    pair = certificate.witness
    if not isinstance(pair, Counterexample):
        return False
    try:
        mask_a = graph.mask_of(pair.fault_set_a)
        mask_b = graph.mask_of(pair.fault_set_b)
    except ValueError:  # an id that is no node of the graph
        return False
    return (
        mask_a != mask_b
        and max(mask_a.bit_count(), mask_b.bit_count()) <= t
        and _collide(graph, mask_a, mask_b)
    )


def search_ceiling(graph: DiagnosticGraph) -> int:
    """Upper limit of the search: min(minimum in-degree, floor((n-1)/2))."""
    if not graph.n:
        raise GraphError("empty graph")
    return min(min(graph.in_degrees), (graph.n - 1) // 2)


def _graph_cut(graph: DiagnosticGraph) -> tuple[int, int, int]:
    """(c, min(m, 2c + 1), W) for the graph's search ceiling c, m its least
    f(W), and W the position mask of a set attaining m if m <= 2c (else 0).

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
        cut = vars(graph)["_cut"] = (ceiling, m, sum(1 << x for x in least))
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
    ceiling the refutation at t(D) + 1 is the pair split from the
    minimiser, under condition (iii) (:func:`_refutation`).
    """
    ceiling, m, least = _graph_cut(graph)
    t_max = (m - 1) // 2
    return MaxDiagnosability(
        t_max=t_max,
        ceiling=ceiling,
        certificate=DiagnosabilityCertificate(t_max, Verdict.DIAGNOSABLE),
        refutation=(
            _refutation(graph, t_max + 1, "cond_iii", least) if least else None
        ),
    )


@dataclass(frozen=True)
class OracleResult:
    t: int
    diagnosable: bool
    counterexample: Counterexample | None

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
    if not _collide(graph, mask_a, mask_b):
        return None
    return _shared_syndrome(graph, mask_a, mask_b)


def _collide(graph: DiagnosticGraph, mask_a: int, mask_b: int) -> bool:
    """Whether two fault sets, as position masks, share a syndrome: no node
    on which they differ is tested from outside their union."""
    return not graph.testers_of(mask_a ^ mask_b) & ~(mask_a | mask_b)


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


def _least_collision(graph: DiagnosticGraph) -> tuple[int, int, int]:
    """(L, U, Z): L the least |Z| + ⌈d/2⌉ over unions U of nodes with
    d >= 1, where Z = U & from_outside[U] are the members of U tested from
    outside it and d = |U| - |Z|; U the first union attaining L, by size and
    then lexicographically.

    |Z| + ⌈d/2⌉ = ⌈(|U| + |Z|)/2⌉ >= ⌈|U|/2⌉, so the scan stops at the
    first size whose half reaches the least value found; the whole node set
    (Z empty) bounds L by ⌈n/2⌉.  The result is kept in the graph's
    instance dict, as :func:`_graph_cut` keeps the cut; the table of 2**n
    entries is not.
    """
    found = vars(graph).get("_collision")
    if found is None:
        # from_outside[U]: the nodes tested by some node outside U.  Each
        # node doubles the table; the sets without it (the lower half) gain
        # its tests.
        from_outside = [0]
        for out in graph.out_masks:
            from_outside = [reached | out for reached in from_outside] + from_outside
        # Positions ascend with ids, so combinations of the bits come
        # lexicographically.
        bits = [1 << pos for pos in range(graph.n)]
        best = graph.n + 1
        for size in range(1, graph.n + 1):
            # U beats ``best`` iff |Z| < |U| and |U| + |Z| <= 2·best - 2.
            room = min(size - 1, 2 * best - 2 - size)
            if room < 0:
                break
            for union in map(sum, itertools.combinations(bits, size)):
                inside = union & from_outside[union]
                if inside.bit_count() <= room:
                    best = (size + inside.bit_count() + 1) // 2
                    found = (best, union, inside)
                    room = min(size - 1, 2 * best - 2 - size)
                    if room < 0:
                        break
        vars(graph)["_collision"] = found
    return found


def oracle_is_t_diagnosable(
    graph: DiagnosticGraph, t: int, *, cap: int = DEFAULT_ORACLE_CAP
) -> OracleResult:
    """Brute-force referee for :func:`is_t_diagnosable`.

    Two distinct fault sets A and B of size at most t admit a shared
    syndrome exactly when no node on which they disagree is tested from
    outside their union U = A | B.  So the nodes Z of U tested from outside
    it must lie in A & B, and the d = |U| - |Z| others can be split between
    A and B: some pair with union U collides at t iff d >= 1 and
    |Z| + ⌈d/2⌉ <= t.  A union that collides at t collides at every larger
    t, so one scan of the unions, by size, per graph finds the least such
    value L and the first union attaining it (:func:`_least_collision`),
    and the graph is t-diagnosable iff t < L.

    At a refuted level the counterexample is that union split as the
    checker splits its refutations (:func:`_split`), with W = U - Z and
    S = Z: A is Z plus the first ⌊d/2⌋ other members, B is Z plus the
    rest, each of at most L <= t members.  Exponential by design, in
    memory too (the scan reads a table of 2**n entries); it exists to
    referee the checker, not to replace it.
    """
    n = _check_args(graph, t)
    if n > cap:
        raise SizeCapError(
            f"oracle restricted to small graphs (n <= {cap}, got {n})"
        )
    if t == 0:  # the empty set is the only fault set: no pair to tell apart
        return OracleResult(t=t, diagnosable=True, counterexample=None)
    least, union, inside = _least_collision(graph)
    if t < least:
        return OracleResult(t=t, diagnosable=True, counterexample=None)
    return OracleResult(
        t=t, diagnosable=False, counterexample=_split(graph, union & ~inside, inside)
    )
