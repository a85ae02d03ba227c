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
from typing import Iterator

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


def _objects(rows: object, what: str) -> Iterator[dict]:
    """The entries of a JSON list, each checked in turn to be an object."""
    if not isinstance(rows, (list, tuple)):
        raise ValueError(f"expected a list of {what} objects, got {rows!r}")
    for row in rows:
        if not isinstance(row, dict):
            raise ValueError(f"each {what} must be an object, got {row!r}")
        yield row


def _integer(row: dict, key: str, what: str) -> int:
    if key not in row:
        raise ValueError(f"{what} {row!r} has no {key!r}")
    try:
        return int(row[key])
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{what} {row!r}: {key!r} must be an integer") from exc


def graph_from_dict(data: dict) -> DiagnosticGraph:
    if not isinstance(data, dict) or "nodes" not in data or "edges" not in data:
        raise ValueError("graph document must have 'nodes' and 'edges' lists")
    nodes = []
    for entry in _objects(data["nodes"], "node"):
        hz = entry.get("hz")
        node_id = _integer(entry, "id", "node")
        try:
            frequency = fraction_from_json(hz) if hz is not None else None
        except (TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"node {entry!r}: 'hz' must be a rational") from exc
        nodes.append(
            Node(id=node_id, label=str(entry.get("label", "")), frequency_hz=frequency)
        )
    edges = []
    for entry in _objects(data["edges"], "edge"):
        kind_name = entry.get("kind", EdgeKind.UNSPECIFIED.value)
        kind = _KINDS_BY_VALUE.get(kind_name) if isinstance(kind_name, str) else None
        if kind is None:
            warnings.warn(
                f"unknown edge kind {kind_name!r}; treating as unspecified",
                stacklevel=2,
            )
            kind = EdgeKind.UNSPECIFIED
        edges.append(
            Edge(
                _integer(entry, "tester", "edge"), _integer(entry, "testee", "edge"), kind
            )
        )
    return DiagnosticGraph.build(nodes, edges)


def syndrome_to_dict(syndrome: Syndrome) -> dict:
    rows = [
        {"tester": tester, "testee": testee, "value": value}
        for (tester, testee), value in sorted(syndrome.outcomes.items())
    ]
    return {"outcomes": rows}


def syndrome_from_dict(data: dict, graph: DiagnosticGraph | None = None) -> Syndrome:
    rows = data.get("outcomes") if isinstance(data, dict) else None
    if not isinstance(rows, (list, tuple)):
        raise ValueError("syndrome document must have an 'outcomes' list")
    # One pass, left to Syndrome to normalise; a repeated edge shrinks the
    # dict, and any bad row sends the rows through the ordered scan, which
    # raises at the first of them.
    try:
        syndrome = Syndrome(
            {(entry["tester"], entry["testee"]): entry["value"] for entry in rows}
        )
    except (KeyError, TypeError, ValueError, OverflowError, SyndromeError):
        syndrome = None
    if syndrome is None or len(syndrome.outcomes) != len(rows):
        syndrome = Syndrome(_outcomes_in_order(rows))
    if graph is not None:
        syndrome.require_total(graph)
    return syndrome


def _outcomes_in_order(rows: object) -> dict[tuple[int, int], int]:
    """Read outcome rows one at a time, raising at the first bad or repeated one."""
    outcomes: dict[tuple[int, int], int] = {}
    for entry in _objects(rows, "outcome"):
        pair = (_integer(entry, "tester", "outcome"), _integer(entry, "testee", "outcome"))
        if pair in outcomes:
            raise SyndromeError(f"duplicate outcome for edge {pair}")
        outcomes[pair] = _integer(entry, "value", "outcome")
    return outcomes


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


def _rational(value: object, what: str) -> Fraction:
    try:
        return fraction_from_json(value)
    except (TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"{what} must be a rational, got {value!r}") from exc


def temporal_from_dict(data: dict) -> TemporalGraph:
    if not isinstance(data, dict) or "base" not in data or "temporal" not in data:
        raise ValueError("temporal document must have 'base' and 'temporal' entries")
    base = graph_from_dict(data["base"])
    recipe = data["temporal"]
    if not isinstance(recipe, dict) or "hz" not in recipe:
        raise ValueError(f"'temporal' must be an object with an 'hz', got {recipe!r}")
    bounds = recipe.get("interval")
    if not isinstance(bounds, (list, tuple)) or len(bounds) != 2:
        raise ValueError(f"'interval' must be a [start, end] pair, got {bounds!r}")
    interval = Interval(*(_rational(bound, "'interval' bound") for bound in bounds))
    tmpl = recipe.get("template", {})
    if not isinstance(tmpl, dict):
        raise ValueError(f"'template' must be an object, got {tmpl!r}")
    offsets = tmpl.get("offsets", [1])
    message = f"'offsets' must be a list of integers, got {offsets!r}"
    if not isinstance(offsets, (list, tuple)):
        raise ValueError(message)
    try:
        integral = all(not isinstance(o, bool) and int(o) == o for o in offsets)
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ValueError(message)
    template = TemporalTemplate(
        offsets=frozenset(offsets),
        bidirectional=bool(tmpl.get("bidirectional", False)),
        base_identity_only=bool(tmpl.get("identity_only", True)),
    )
    return expand(base, _rational(recipe["hz"], "'hz'"), interval, template)


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
