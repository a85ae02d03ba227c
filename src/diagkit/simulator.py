"""Deterministic syndrome generation, bundled scenarios, Monte-Carlo harness.

Fault-free testers always report the truth; what faulty testers report is
policy.  Randomized policies draw from a counter-based generator keyed by
(seed, tester, testee), so outcomes are reproducible under any evaluation
order or parallel schedule.  Syndromes are generated on the graph's
``out_masks`` and held as failed masks over it, building no ``Edge``; the
adversarial policy counts candidates with the identification search.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import struct
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from importlib import resources
from itertools import product
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .diagnosability import is_t_diagnosable, max_diagnosability
from .errors import SizeCapError
from .graph import (
    DiagnosticGraph,
    NodeId,
    Syndrome,
    min_in_degree,
    testable_set,
)
from .identification import (
    DEFAULT_ENUMERATION_CAP,
    NodeStatus,
    VerdictKind,
    _candidate_masks,
    node_status,
)
from .jsonio import graph_from_dict
from .temporal import frequency_subgraph

ADVERSARIAL_FREE_EDGE_CAP = 16


class PolicyKind(Enum):
    ALWAYS_PASS = "always_pass"
    ALWAYS_FAIL = "always_fail"
    BERNOULLI = "bernoulli"
    ADVERSARIAL = "adversarial"


@dataclass(frozen=True)
class FaultPolicy:
    """What a faulty tester reports.

    ``p`` is the fail probability for Bernoulli policies.  ``budget`` bounds
    the candidate-set size an adversarial policy optimizes against; when
    None it defaults to the size of the injected fault set (the Monte-Carlo
    harness substitutes its own budget).
    """

    kind: PolicyKind
    p: float = 0.0
    budget: int | None = None

    def __post_init__(self) -> None:
        if self.kind is PolicyKind.BERNOULLI and not 0.0 <= self.p <= 1.0:
            raise ValueError(f"probability must lie in [0, 1], got {self.p}")


ALWAYS_PASS = FaultPolicy(PolicyKind.ALWAYS_PASS)
ALWAYS_FAIL = FaultPolicy(PolicyKind.ALWAYS_FAIL)


def bernoulli(p: float) -> FaultPolicy:
    return FaultPolicy(PolicyKind.BERNOULLI, p=p)


def adversarial(budget: int | None = None) -> FaultPolicy:
    return FaultPolicy(PolicyKind.ADVERSARIAL, budget=budget)


def parse_policy(text: str) -> FaultPolicy:
    """Parse CLI spellings: always_pass, always_fail, bernoulli:P, adversarial."""
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    if name == "always_pass":
        return ALWAYS_PASS
    if name == "always_fail":
        return ALWAYS_FAIL
    if name == "bernoulli":
        return bernoulli(float(arg or "0.5"))
    if name == "adversarial":
        return adversarial(int(arg) if arg else None)
    raise ValueError(f"unknown policy {text!r}")


def _hash_u64(*parts: int) -> int:
    digest = hashlib.blake2b(
        struct.pack(f">{len(parts)}q", *parts), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def _unit(seed: int, tester: int, testee: int) -> float:
    return _hash_u64(seed, tester, testee) / 2**64


def derive_seed(seed: int, *parts: int) -> int:
    """Stable 63-bit sub-seed for a (seed, parts...) counter."""
    return _hash_u64(seed, *parts) >> 1


def generate_syndrome(
    graph: DiagnosticGraph,
    faults: Iterable[NodeId],
    policy: FaultPolicy = ALWAYS_PASS,
    seed: int = 0,
) -> Syndrome:
    """Syndrome produced by the given fault set under a tester policy.

    Fault-free testers report 1 exactly on faulty testees.  Faulty testers
    report per the policy; the adversarial policy searches over all of its
    free outcomes for the assignment admitting the most candidate fault
    sets, breaking ties toward the lexicographically smallest assignment.
    Fault ids follow the integrality rule of ``DiagnosticGraph.mask_of``.
    The syndrome is held as failed masks over ``graph``.
    """
    fault_mask = graph.mask_of(faults)
    if policy.kind is PolicyKind.ADVERSARIAL:
        return _adversarial_syndrome(graph, fault_mask, policy)
    ids = graph.node_ids
    failed = []
    for tester, row in enumerate(graph.out_masks):
        if not fault_mask >> tester & 1:
            row &= fault_mask
        elif policy.kind is PolicyKind.ALWAYS_PASS:
            row = 0
        elif policy.kind is PolicyKind.BERNOULLI:
            u = ids[tester]
            row = graph.mask_of(
                v for v in graph.id_tuple(row) if _unit(seed, u, v) < policy.p
            )
        failed.append(row)  # under ALWAYS_FAIL, a faulty tester fails its whole row
    return Syndrome._from_masks(graph, failed)


def _adversarial_syndrome(
    graph: DiagnosticGraph, fault_mask: int, policy: FaultPolicy
) -> Syndrome:
    if graph.n > DEFAULT_ENUMERATION_CAP:
        raise SizeCapError(
            f"adversarial policy restricted to small graphs "
            f"(n <= {DEFAULT_ENUMERATION_CAP}, got {graph.n})"
        )
    free = [(u, v) for u, v in graph.position_pairs() if fault_mask >> u & 1]
    if len(free) > ADVERSARIAL_FREE_EDGE_CAP:
        raise SizeCapError(
            f"adversarial policy restricted to {ADVERSARIAL_FREE_EDGE_CAP} "
            f"free outcomes, got {len(free)}"
        )
    budget = policy.budget if policy.budget is not None else fault_mask.bit_count()
    forced = [
        0 if fault_mask >> u & 1 else row & fault_mask
        for u, row in enumerate(graph.out_masks)
    ]
    best: Syndrome | None = None
    best_count = -1
    for assignment in product((0, 1), repeat=len(free)):
        failed = list(forced)
        for (tester, testee), value in zip(free, assignment):
            failed[tester] |= value << testee
        candidate = Syndrome._from_masks(graph, failed)
        count = len(_candidate_masks(graph, candidate, budget))
        if count > best_count:
            best, best_count = candidate, count
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# Bundled scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioProperty:
    """One property the scenario is documented to satisfy."""

    name: str
    expected: object
    provenance: str


@dataclass(frozen=True)
class Scenario:
    name: str
    graph: DiagnosticGraph
    documented_properties: tuple[ScenarioProperty, ...]
    notes: str = ""


def _refutation(graph: DiagnosticGraph, t: int) -> str | None:
    """The condition refuting ``t``; for condition (iii), the shape of the
    subset X = V \\ (A ∪ B) that its pair of fault sets gives: no node of X
    tests a node on which A and B differ, so Γ(X) ⊆ A ∩ B, and X has
    n − 2t + p members for p = 2t − |A ∪ B|."""
    cert = is_t_diagnosable(graph, t)
    if cert.failed_condition == "cond_iii":
        pair = cert.witness
        union = len(pair.fault_set_a | pair.fault_set_b)
        return f"cond_iii with p={2 * t - union}, |X|={graph.n - union}"
    return cert.failed_condition


# One measure of the graph per documented property name.
_MEASURES: dict[str, Callable[[DiagnosticGraph], object]] = {
    "node_count": lambda graph: graph.n,
    "edge_count": lambda graph: len(graph.edges),
    "node_ids": lambda graph: graph.node_ids,
    "min_in_degree": lambda graph: min_in_degree(graph)[0],
    "min_in_degree_attained_at": lambda graph: min_in_degree(graph)[1],
    "t_max": lambda graph: max_diagnosability(graph).t_max,
    "refuted_at_t=2": lambda graph: _refutation(graph, 2),
    "testable_set({1,2,3,4,5,8,9,10})": lambda graph: testable_set(
        graph, {1, 2, 3, 4, 5, 8, 9, 10}
    ),
    "nodes_at_100hz": lambda graph: frozenset(frequency_subgraph(graph, 100).node_ids),
    "equals_frequency_subgraph(localization,100)": lambda graph: (
        graph == frequency_subgraph(scenario("localization").graph, 100)
    ),
}


def _verified(name: str, graph: DiagnosticGraph, entry: dict) -> ScenarioProperty:
    """Measure the graph for one documented property and compare.

    A list read from JSON takes the measure's type (a node set or a tuple
    of ids).  A single id expected of a node-set measure names one of its
    members; anything else must be equal.
    """
    prop, expected = entry["name"], entry["expected"]
    measure = _MEASURES.get(prop)
    if measure is None:
        raise RuntimeError(f"scenario self-check failed: {name} {prop}: no measure")
    measured = measure(graph)
    if isinstance(expected, list):
        expected = type(measured)(expected)
    if not (
        expected == measured
        or (
            isinstance(measured, frozenset)
            and isinstance(expected, int)
            and expected in measured
        )
    ):
        raise RuntimeError(
            f"scenario self-check failed: {name} {prop}: "
            f"expected {expected!r}, measured {measured!r}"
        )
    return ScenarioProperty(prop, expected, entry["provenance"])


def _scenario_text(name: str) -> str:
    """The packaged JSON document of a bundled scenario."""
    return resources.files(__package__).joinpath("scenarios", f"{name}.json").read_text()


@lru_cache(maxsize=None)
def scenario_names() -> tuple[str, ...]:
    folder = resources.files(__package__).joinpath("scenarios")
    return tuple(
        sorted(
            entry.name[: -len(".json")]
            for entry in folder.iterdir()
            if entry.name.endswith(".json")
        )
    )


@lru_cache(maxsize=None)
def scenario(name: str) -> Scenario:
    """Load a bundled scenario, re-verifying its documented properties."""
    if name not in scenario_names():
        raise ValueError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        )
    document = json.loads(_scenario_text(name))
    graph = graph_from_dict(document)
    properties = tuple(
        _verified(name, graph, entry) for entry in document["documented_properties"]
    )
    return Scenario(name, graph, properties, notes=document["notes"])


# ---------------------------------------------------------------------------
# Monte-Carlo harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeConfusion:
    """Per-node tallies of predicted status against injected truth."""

    faulty_flagged: int = 0
    faulty_unknown: int = 0
    faulty_cleared: int = 0
    healthy_cleared: int = 0
    healthy_unknown: int = 0
    healthy_flagged: int = 0

    def to_json_dict(self) -> dict:
        return {
            "faulty": {
                "known_faulty": self.faulty_flagged,
                "unknown": self.faulty_unknown,
                "known_fault_free": self.faulty_cleared,
            },
            "healthy": {
                "known_fault_free": self.healthy_cleared,
                "unknown": self.healthy_unknown,
                "known_faulty": self.healthy_flagged,
            },
        }


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    faults: frozenset[NodeId]
    verdict: VerdictKind
    correct: bool


@dataclass(frozen=True)
class MonteCarloReport:
    trials: int
    seed: int
    budget: int
    unique: int
    ambiguous: int
    inconsistent: int
    unique_correct: int
    confusion: Mapping[NodeId, NodeConfusion]
    records: tuple[TrialRecord, ...]

    @property
    def unique_rate(self) -> float:
        return self.unique / self.trials

    @property
    def ambiguous_rate(self) -> float:
        return self.ambiguous / self.trials

    @property
    def inconsistent_rate(self) -> float:
        return self.inconsistent / self.trials

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "t": self.budget,
            "unique": self.unique,
            "ambiguous": self.ambiguous,
            "inconsistent": self.inconsistent,
            "unique_correct": self.unique_correct,
            "unique_rate": self.unique_rate,
            "ambiguous_rate": self.ambiguous_rate,
            "inconsistent_rate": self.inconsistent_rate,
            "confusion": {
                str(nid): conf.to_json_dict()
                for nid, conf in sorted(self.confusion.items())
            },
        }

    def write_csv(self, path) -> None:
        """Per-trial records: trial, injected faults, verdict, correctness."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["trial", "faults", "verdict", "correct"])
            for record in self.records:
                writer.writerow(
                    [
                        record.trial,
                        " ".join(str(n) for n in sorted(record.faults)),
                        record.verdict.value,
                        int(record.correct),
                    ]
                )


def monte_carlo(
    graph: DiagnosticGraph,
    t: int,
    trials: int,
    policy: FaultPolicy = ALWAYS_PASS,
    seed: int = 0,
) -> MonteCarloReport:
    """Inject random fault sets of size <= t and score identification.

    Each trial draws the fault-set size uniformly from [0, t], the set
    uniformly at that size, generates a syndrome and identifies at budget
    t.  Deterministic given the seed.  Adversarial policies without an
    explicit budget are given t.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if policy.kind is PolicyKind.ADVERSARIAL and policy.budget is None:
        policy = replace(policy, budget=t)
    ids = graph.node_ids
    unique = ambiguous = inconsistent = unique_correct = 0
    tallies = {nid: [0, 0, 0, 0, 0, 0] for nid in ids}
    records = []
    for trial in range(trials):
        rng = random.Random(derive_seed(seed, trial))
        size = rng.randint(0, min(t, len(ids)))
        faults = frozenset(rng.sample(ids, size))
        syndrome = generate_syndrome(
            graph, faults, policy, seed=derive_seed(seed, trial, 1)
        )
        report = node_status(graph, syndrome, t)
        verdict = report.verdict
        correct = verdict.kind is VerdictKind.UNIQUE and verdict.fault_set == faults
        if verdict.kind is VerdictKind.UNIQUE:
            unique += 1
            unique_correct += int(correct)
        elif verdict.kind is VerdictKind.AMBIGUOUS:
            ambiguous += 1
        else:
            inconsistent += 1
        for nid in ids:
            status = report.statuses[nid]
            offset = 0 if nid in faults else 3
            if status is NodeStatus.KNOWN_FAULTY:
                column = 0 if nid in faults else 2
            elif status is NodeStatus.UNKNOWN:
                column = 1
            else:
                column = 2 if nid in faults else 0
            tallies[nid][offset + column] += 1
        records.append(TrialRecord(trial, faults, verdict.kind, correct))
    confusion = {
        nid: NodeConfusion(
            faulty_flagged=counts[0],
            faulty_unknown=counts[1],
            faulty_cleared=counts[2],
            healthy_cleared=counts[3],
            healthy_unknown=counts[4],
            healthy_flagged=counts[5],
        )
        for nid, counts in tallies.items()
    }
    return MonteCarloReport(
        trials=trials,
        seed=seed,
        budget=t,
        unique=unique,
        ambiguous=ambiguous,
        inconsistent=inconsistent,
        unique_correct=unique_correct,
        confusion=MappingProxyType(confusion),
        records=tuple(records),
    )
