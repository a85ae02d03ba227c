"""Tracing from outside the program: wrap public functions, keep spans.

The traced run replaces each public function below with a wrapper that
records a span (name, phase, start, end, parent) and, for some, an exact
count read from the call's inputs or outputs.  Every module attribute of
the package that refers to the function is replaced, so names re-imported
elsewhere (``temporal.max_diagnosability``, ``jsonio.expand``, the package's
own re-exports) are traced too.  ``uninstall`` puts every original back.
The timed run never installs a wrapper.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import cached_property
from pathlib import Path
from typing import Iterator


def _count_build(counts, args, graph):
    counts["graph.nodes_built"] += graph.n
    counts["graph.edges_built"] += len(graph.edges)


def _count_max(counts, args, found):
    refuted = found.ceiling - found.t_max
    counts["diagnosability.levels_refuted"] += refuted
    counts["diagnosability.levels_tried"] += refuted + 1
    counts["diagnosability.answers"] += 1


def _count_verdict(counts, args, result):
    verdict = getattr(result, "verdict", result)  # node_status wraps a verdict
    counts["identification.candidates"] += verdict.candidate_count
    counts["identification.verdicts"] += 1
    counts["identification.unique"] += verdict.kind.value == "unique"


def _count_expand(counts, args, expansion):
    counts["temporal.vertices"] += len(expansion.panes) * expansion.base.n


def _count_file(counts, args, result):
    counts["jsonio.bytes_read"] += os.path.getsize(args[0])


# (metric prefix, module, attribute, counter).  An attribute "Class.name"
# is a classmethod or cached property of that class.
TARGETS = (
    ("graph.build", "diagkit.graph", "DiagnosticGraph.build", _count_build),
    ("diagnosability.is_t", "diagkit.diagnosability", "is_t_diagnosable", None),
    ("diagnosability.max", "diagkit.diagnosability", "max_diagnosability", _count_max),
    ("diagnosability.oracle", "diagkit.diagnosability", "oracle_is_t_diagnosable", None),
    ("identification.identify", "diagkit.identification", "identify", _count_verdict),
    ("identification.node_status", "diagkit.identification", "node_status", _count_verdict),
    ("identification.referee", "diagkit.identification", "all_consistent_fault_sets", None),
    ("simulator.generate", "diagkit.simulator", "generate_syndrome", None),
    ("temporal.expand", "diagkit.temporal", "expand", _count_expand),
    ("temporal.flatten", "diagkit.temporal", "TemporalGraph.flat_graph", None),
    ("jsonio.load_graph", "diagkit.jsonio", "load_graph_file", _count_file),
    ("jsonio.load_syndrome", "diagkit.jsonio", "load_syndrome_file", _count_file),
    ("cli.main", "diagkit.cli", "main", None),
)

# Exact counts reported as per-layer metrics, with their units.
COUNTS = {
    "graph.nodes_built": "count",
    "graph.edges_built": "count",
    "diagnosability.levels_refuted": "count",
    "diagnosability.answer_ratio": "ratio",
    "identification.candidates": "count",
    "identification.unique_ratio": "ratio",
    "temporal.vertices": "count",
    "jsonio.bytes_read": "B",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for prefix, *_ in TARGETS:
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.self_s"] = "s"
        units[f"{prefix}.setup_s"] = "s"
    units.update(COUNTS)
    units.update(
        {
            "trace.op_s": "s",
            "trace.setup_s": "s",
            "trace.bench_share": "ratio",
            "trace.overhead_pct": "%",
        }
    )
    return units


class Tracer:
    """Spans and counts of one traced run, kept in memory until the end.

    A span is ``[name, phase, start, end, parent]``, with ``parent`` the
    index of the enclosing span.  Wrappers record only inside a root span,
    so the benchmark's correctness checks, which run outside one, leave
    neither spans nor counts.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.phase: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.phase, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str, phase: str) -> Iterator[None]:
        """A top-level span; wrappers record inside it under ``phase``."""
        self.phase = phase
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)
            self.phase = None

    def _wrap(self, name, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if counter is not None and tracer.phase == "op":
                counter(tracer.counts, args, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; raises if the package no longer has one."""
        modules = [
            module for key, module in list(sys.modules.items())
            if module is not None and (key == "diagkit" or key.startswith("diagkit."))
        ]
        try:
            for prefix, module_name, attribute, counter in TARGETS:
                module = sys.modules[module_name]
                if "." in attribute:
                    self._install_member(module, attribute, prefix, counter)
                    continue
                original = getattr(module, attribute)
                traced = self._wrap(prefix, original, counter)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._replace(holder, key, traced)
        except BaseException:
            self.uninstall()
            raise

    def _install_member(self, module, attribute, prefix, counter) -> None:
        class_name, member = attribute.split(".")
        owner = getattr(module, class_name)
        original = owner.__dict__[member]
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(prefix, original.__func__, counter))
        elif isinstance(original, cached_property):
            replacement = cached_property(self._wrap(prefix, original.func, counter))
            replacement.__set_name__(owner, member)
        else:
            raise TypeError(f"cannot trace {attribute}: {type(original).__name__}")
        self._replace(owner, member, replacement)

    def _replace(self, holder, key, value) -> None:
        self._restore.append((holder, key, holder.__dict__[key]))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        while self._restore:
            holder, key, original = self._restore.pop()
            setattr(holder, key, original)

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, _, start, end, _ in self.spans]
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: calls, counts and self time of the operations,
        and each function's self time during set-up."""
        own = self.self_times()
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        setup_self: defaultdict = defaultdict(float)
        op_s = setup_s = bench_s = 0.0
        for (name, phase, start, end, parent), mine in zip(self.spans, own):
            if parent is None:
                if phase == "op":
                    op_s += end - start
                    bench_s += mine
                else:
                    setup_s += end - start
            elif phase == "op":
                calls[name] += 1
                self_s[name] += mine
            else:
                setup_self[name] += mine
        values: dict[str, float] = {}
        for prefix, *_ in TARGETS:
            values[f"{prefix}.calls"] = calls[prefix]
            values[f"{prefix}.self_s"] = self_s[prefix]
            values[f"{prefix}.setup_s"] = setup_self[prefix]
        counts = self.counts
        for name in COUNTS:
            values[name] = counts[name]
        values["diagnosability.answer_ratio"] = _ratio(
            counts["diagnosability.answers"], counts["diagnosability.levels_tried"]
        )
        values["identification.unique_ratio"] = _ratio(
            counts["identification.unique"], counts["identification.verdicts"]
        )
        values["trace.op_s"] = op_s
        values["trace.setup_s"] = setup_s
        values["trace.bench_share"] = _ratio(bench_s, op_s)
        return values

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: name, phase, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0

