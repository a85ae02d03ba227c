"""JSON formats for graphs, syndromes, and temporal graphs.

Graph files look like::

    {"nodes": [{"id": 1, "label": "GPS reader", "hz": 1.0}, ...],
     "edges": [{"tester": 6, "testee": 1, "kind": "input_admissibility"}, ...]}

Syndrome files::

    {"outcomes": [{"tester": 5, "testee": 1, "value": 1}, ...]}

Temporal graph files embed the base graph plus the expansion recipe, which
reconstructs the expansion exactly::

    {"base": {...}, "temporal": {"interval": [0.0, 0.02], "hz": 100,
     "template": {"offsets": [1, 2], "bidirectional": true,
                  "identity_only": true}}}

Rationals that have an exact decimal spelling are written as JSON numbers;
anything else is written as a "p/q" string.  Unknown edge-kind strings map
to "unspecified" with a warning.
"""

from __future__ import annotations

import json
import warnings
from fractions import Fraction
from pathlib import Path

from .errors import SyndromeError
from .graph import (
    DiagnosticGraph,
    Edge,
    EdgeKind,
    Node,
    Syndrome,
    as_fraction,
    fraction_to_json,
)
from .temporal import Interval, TemporalGraph, TemporalTemplate, expand

_KINDS_BY_VALUE = {kind.value: kind for kind in EdgeKind}


def fraction_from_json(value: int | float | str) -> Fraction:
    return as_fraction(value)


def graph_to_dict(graph: DiagnosticGraph) -> dict:
    nodes = []
    for node in graph.nodes:
        entry: dict = {"id": node.id, "label": node.label}
        if node.frequency_hz is not None:
            entry["hz"] = fraction_to_json(node.frequency_hz)
        nodes.append(entry)
    edges = [
        {"tester": edge.tester, "testee": edge.testee, "kind": edge.kind.value}
        for edge in graph.edges
    ]
    return {"nodes": nodes, "edges": edges}


def graph_from_dict(data: dict) -> DiagnosticGraph:
    if not isinstance(data, dict) or "nodes" not in data or "edges" not in data:
        raise ValueError("graph document must have 'nodes' and 'edges' lists")
    nodes = []
    for entry in data["nodes"]:
        hz = entry.get("hz")
        nodes.append(
            Node(
                id=int(entry["id"]),
                label=str(entry.get("label", "")),
                frequency_hz=fraction_from_json(hz) if hz is not None else None,
            )
        )
    edges = []
    for entry in data["edges"]:
        kind_name = entry.get("kind", EdgeKind.UNSPECIFIED.value)
        kind = _KINDS_BY_VALUE.get(kind_name)
        if kind is None:
            warnings.warn(
                f"unknown edge kind {kind_name!r}; treating as unspecified",
                stacklevel=2,
            )
            kind = EdgeKind.UNSPECIFIED
        edges.append(Edge(int(entry["tester"]), int(entry["testee"]), kind))
    return DiagnosticGraph.build(nodes, edges)


def syndrome_to_dict(syndrome: Syndrome) -> dict:
    rows = [
        {"tester": tester, "testee": testee, "value": value}
        for (tester, testee), value in sorted(syndrome.outcomes.items())
    ]
    return {"outcomes": rows}


def syndrome_from_dict(data: dict, graph: DiagnosticGraph | None = None) -> Syndrome:
    if not isinstance(data, dict) or "outcomes" not in data:
        raise ValueError("syndrome document must have an 'outcomes' list")
    outcomes: dict[tuple[int, int], int] = {}
    for entry in data["outcomes"]:
        pair = (int(entry["tester"]), int(entry["testee"]))
        if pair in outcomes:
            raise SyndromeError(f"duplicate outcome for edge {pair}")
        outcomes[pair] = int(entry["value"])
    syndrome = Syndrome(outcomes)
    if graph is not None:
        syndrome.require_total(graph)
    return syndrome


def temporal_to_dict(graph: TemporalGraph) -> dict:
    return {
        "base": graph_to_dict(graph.base),
        "temporal": {
            "interval": [
                fraction_to_json(graph.interval.a),
                fraction_to_json(graph.interval.b),
            ],
            "hz": fraction_to_json(graph.frequency_hz),
            "template": {
                "offsets": sorted(graph.template.offsets),
                "bidirectional": graph.template.bidirectional,
                "identity_only": graph.template.base_identity_only,
            },
        },
    }


def temporal_from_dict(data: dict) -> TemporalGraph:
    if not isinstance(data, dict) or "base" not in data or "temporal" not in data:
        raise ValueError("temporal document must have 'base' and 'temporal' entries")
    base = graph_from_dict(data["base"])
    recipe = data["temporal"]
    lo, hi = recipe["interval"]
    interval = Interval(fraction_from_json(lo), fraction_from_json(hi))
    tmpl = recipe.get("template", {})
    template = TemporalTemplate(
        offsets=frozenset(int(o) for o in tmpl.get("offsets", [1])),
        bidirectional=bool(tmpl.get("bidirectional", False)),
        base_identity_only=bool(tmpl.get("identity_only", True)),
    )
    return expand(base, fraction_from_json(recipe["hz"]), interval, template)


def dump_json(document: dict) -> str:
    """Canonical rendering used for files the CLI writes: stable byte-for-byte."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def load_graph_file(path: str | Path) -> DiagnosticGraph | TemporalGraph:
    """Load either a plain graph file or a temporal graph file."""
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict) and "temporal" in data:
        return temporal_from_dict(data)
    return graph_from_dict(data)


def load_syndrome_file(
    path: str | Path, graph: DiagnosticGraph | None = None
) -> Syndrome:
    return syndrome_from_dict(json.loads(Path(path).read_text()), graph)
