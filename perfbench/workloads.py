"""The benchmark's workloads: seeded inputs, the timed operation, its checks.

Every workload is a closed loop with one caller: the benchmark calls the
library the way a user's script does and waits for each result before the
next call.  Inputs come from the seed alone and are grouped in *rounds*.
A round holds one input per stratum (a fixed cell of graph size and
search ceiling, or of fault count), so a run's mix of cheap and expensive
operations is the same whatever the seed and however many rounds it runs.
That is what keeps the medians and tails steady from seed to seed.

Library functions are always looked up as module attributes at call time
(``dk.diagnosability.max_diagnosability``), never bound at import, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

# tmax-dense: random digraphs, each node tested by any other with edge
# probability p.  The exact search costs about the same for every graph
# with the same (n, search ceiling), so each round draws graphs for a fixed
# list of ceilings per n.  The top ceiling, reached by about half of all
# graphs at these densities, gets three of the five; the p50 and p90 then
# fall inside groups of equal cost rather than between two of them.
TMAX_SIZES = range(14, 20)
TMAX_P = (0.5, 0.85)
TMAX_ROUNDS = 1


def tmax_ceilings(n: int) -> tuple[int, ...]:
    top = (n - 1) // 2
    return (top, top, top, top - 1, top - 2)


# sweep-small: many cheap graphs over the whole density range, one per
# (n, ceiling) cell in each round.
SWEEP_SIZES = range(6, 11)
SWEEP_P = (0.05, 0.95)
SWEEP_ROUNDS = 50

# recording-cli: `localization` expanded at 100 Hz over [0, 1] s with pane
# offsets {1, 2} in both directions, identified from syndrome files.
RECORDING_HZ = 100
RECORDING_INTERVAL = (0, 1)
RECORDING_OFFSETS = (1, 2)
RECORDING_MAX_FAULTS = 4
RECORDING_BUDGET = 4
RECORDING_PER_ROUND = 10
RECORDING_ROUNDS = 3


@dataclass
class Workload:
    """Seeded inputs plus how to run and check one operation.

    ``run(item)`` is the timed call.  ``check(item, result)`` runs outside
    the timing and returns ``(ok, summary)``; the summary is a JSON-able
    record of the outputs that must repeat exactly for the same input.
    """

    rounds: list[list[Any]]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], tuple[bool, Any]]


def import_library() -> SimpleNamespace:
    """Import the package modules the workloads call into."""
    import importlib

    names = ("graph", "diagnosability", "identification", "simulator",
             "temporal", "jsonio", "cli")
    importlib.import_module("diagkit")
    return SimpleNamespace(
        **{name: importlib.import_module(f"diagkit.{name}") for name in names}
    )


def load_scenarios(dk: SimpleNamespace) -> None:
    """Load every bundled scenario; each re-verifies its documented properties."""
    for name in dk.simulator.scenario_names():
        dk.simulator.scenario(name)


def _random_digraph(
    rng: random.Random, n: int, p_range: tuple[float, float], ceiling: int
) -> list[tuple[int, int]]:
    """Edges of a random digraph on 0..n-1 whose search ceiling is ``ceiling``.

    The edge probability is drawn uniformly from ``p_range``; graphs with
    another ceiling are drawn again (rejection sampling), so the result is a
    random graph of that density conditioned on its ceiling.
    """
    majority = (n - 1) // 2
    while True:
        p = rng.uniform(*p_range)
        pairs = [
            (i, j) for i in range(n) for j in range(n) if i != j and rng.random() < p
        ]
        in_degree = [0] * n
        for _, testee in pairs:
            in_degree[testee] += 1
        if min(min(in_degree), majority) == ceiling:
            return pairs


def _graph_parts(dk: SimpleNamespace, n: int, pairs: list[tuple[int, int]]):
    graph = dk.graph
    return (
        tuple(graph.Node(i) for i in range(n)),
        tuple(graph.Edge(i, j) for i, j in pairs),
    )


# ---------------------------------------------------------------------------
# tmax-dense
# ---------------------------------------------------------------------------


def tmax_dense(dk: SimpleNamespace, seed: int, rounds: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    plan = [
        [
            _graph_parts(dk, n, _random_digraph(rng, n, TMAX_P, c))
            for n in TMAX_SIZES
            for c in tmax_ceilings(n)
        ]
        for _ in range(rounds)
    ]
    dx = dk.diagnosability

    def run(item):
        graph = dk.graph.DiagnosticGraph.build(*item)
        return graph, dx.max_diagnosability(graph)

    def check(item, result):
        graph, found = result
        t_max = found.t_max
        ok = (
            found.certificate.diagnosable
            and found.certificate.t == t_max <= found.ceiling
            and found.ceiling == dx.search_ceiling(graph)
        )
        # The search starts at the ceiling, so a graph diagnosable there has
        # no refutation on record; t_max + 1 then fails condition (i) or
        # (ii), which is cheap to certify here.
        refutation = found.refutation or dx.is_t_diagnosable(graph, t_max + 1)
        ok = (
            ok
            and refutation.t == t_max + 1
            and not refutation.diagnosable
            and dx.revalidate_certificate(graph, refutation)
        )
        return ok, [t_max, found.ceiling, refutation.failed_condition]

    return Workload(plan, run, check)


# ---------------------------------------------------------------------------
# sweep-small
# ---------------------------------------------------------------------------


def sweep_small(dk: SimpleNamespace, seed: int, rounds: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    policy = dk.simulator.bernoulli(0.5)
    plan = []
    for _ in range(rounds):
        batch = []
        for n in SWEEP_SIZES:
            for c in range((n - 1) // 2 + 1):
                pairs = _random_digraph(rng, n, SWEEP_P, c)
                budget = min(c + 1, n - 1)
                faults = frozenset(rng.sample(range(n), rng.randint(0, budget)))
                batch.append(
                    (_graph_parts(dk, n, pairs), faults, rng.getrandbits(62))
                )
        plan.append(batch)
    dx = dk.diagnosability
    ident = dk.identification

    def run(item):
        parts, faults, syndrome_seed = item
        graph = dk.graph.DiagnosticGraph.build(*parts)
        ceiling = dx.search_ceiling(graph)
        levels = range(ceiling + 1)
        checker = [dx.is_t_diagnosable(graph, t).diagnosable for t in levels]
        oracle = [dx.oracle_is_t_diagnosable(graph, t).diagnosable for t in levels]
        budget = min(ceiling + 1, graph.n - 1)
        syndrome = dk.simulator.generate_syndrome(
            graph, faults, policy, seed=syndrome_seed
        )
        verdict = ident.identify(graph, syndrome, budget)
        referee = ident.all_consistent_fault_sets(graph, syndrome, budget)
        return ceiling, checker, oracle, verdict, referee

    def check(item, result):
        _, faults, _ = item
        ceiling, checker, oracle, verdict, referee = result
        kinds = ident.VerdictKind
        expected_kind = (
            kinds.INCONSISTENT if not referee
            else kinds.UNIQUE if len(referee) == 1
            else kinds.AMBIGUOUS
        )
        ok = (
            checker == oracle
            and verdict.kind is expected_kind
            and verdict.candidate_count == len(referee)
            and list(verdict.candidates)
            == referee[: ident.DEFAULT_CANDIDATE_LIMIT]
            and faults in referee
        )
        return ok, [ceiling, checker, verdict.kind.value, verdict.candidate_count]

    return Workload(plan, run, check)


# ---------------------------------------------------------------------------
# recording-cli
# ---------------------------------------------------------------------------


def recording_cli(
    dk: SimpleNamespace, seed: int, rounds: int, workdir: Path
) -> Workload:
    rng = random.Random(seed)
    tg = dk.temporal
    jsonio = dk.jsonio
    base = dk.simulator.scenario("localization").graph
    template = tg.TemporalTemplate(
        offsets=frozenset(RECORDING_OFFSETS), bidirectional=True
    )
    recording = tg.expand(base, RECORDING_HZ, tg.Interval(*RECORDING_INTERVAL), template)
    workdir.mkdir(parents=True, exist_ok=True)
    recording_path = workdir / "recording.json"
    recording_path.write_text(jsonio.dump_json(jsonio.temporal_to_dict(recording)))
    flat = recording.flat_graph
    policy = dk.simulator.bernoulli(0.5)
    plan = []
    for r in range(rounds):
        batch = []
        for k in range(RECORDING_PER_ROUND):
            faults = frozenset(
                rng.sample(flat.node_ids, k % RECORDING_MAX_FAULTS + 1)
            )
            syndrome = dk.simulator.generate_syndrome(
                flat, faults, policy, seed=rng.getrandbits(62)
            )
            path = workdir / f"syndrome-{r}-{k}.json"
            path.write_text(jsonio.dump_json(jsonio.syndrome_to_dict(syndrome)))
            batch.append((str(path), faults))
        plan.append(batch)
    argv_head = ["identify", str(recording_path)]
    argv_tail = ["--t", str(RECORDING_BUDGET), "--json"]

    def run(item):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = dk.cli.main(argv_head + [item[0]] + argv_tail)
        return code, out.getvalue()

    def check(item, result):
        code, text = result
        faults = sorted(item[1])
        verdict = json.loads(text)["verdict"]
        kind = verdict["kind"]
        if kind == "unique":
            found = verdict["fault_set"] == faults
            size = 1
        else:
            found = faults in verdict.get("candidates", [])
            size = verdict.get("count", 0)
        return code != 2 and found, [code, kind, size]

    return Workload(plan, run, check)


WORKLOADS = {
    "tmax-dense": (tmax_dense, TMAX_ROUNDS),
    "sweep-small": (sweep_small, SWEEP_ROUNDS),
    "recording-cli": (recording_cli, RECORDING_ROUNDS),
}
