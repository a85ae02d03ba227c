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
    as_integer,
    failed_masks,
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
    number = as_integer(row[key])
    if number is None:
        raise ValueError(f"{what} {row!r}: {key!r} must be an integer")
    return number


def graph_from_dict(data: dict) -> DiagnosticGraph:
    if not isinstance(data, dict) or "nodes" not in data or "edges" not in data:
        raise ValueError("graph document must have 'nodes' and 'edges' lists")
    nodes = []
    for entry in _objects(data["nodes"], "node"):
        hz = entry.get("hz")
        node_id = _integer(entry, "id", "node")
        try:
            frequency = fraction_from_json(hz) if hz is not None else None
        except TypeError as exc:
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
    """Read a syndrome document in one pass over its rows.

    Each row must be an object with integer ``tester`` and ``testee`` ids,
    name its edge once and hold a ``value``; the first row that does not
    raises.  A value other than 0 or 1, and then (with ``graph``) rows for
    edges the graph lacks or edges without a row, are reported once the
    pass is done, with the messages of :class:`Syndrome` and
    :func:`~diagkit.graph.failed_masks`.  With ``graph``, the rows go
    straight into per-tester failed masks.
    """
    rows = data.get("outcomes") if isinstance(data, dict) else None
    if not isinstance(rows, (list, tuple)):
        raise ValueError("syndrome document must have an 'outcomes' list")
    pos = graph.positions if graph is not None else {}
    out = graph.out_masks if graph is not None else ()
    failed = [0] * len(out)
    read: dict[tuple[int, int], int | None] = {}  # rows of graph's edges, by position
    others: dict[tuple[int, int], int | None] = {}  # rows naming no edge of graph
    bad = None  # the first row whose value is not 0 or 1
    for entry in _objects(rows, "outcome"):
        tester, testee = entry.get("tester"), entry.get("testee")
        if type(tester) is not int or type(testee) is not int:
            tester = _integer(entry, "tester", "outcome")
            testee = _integer(entry, "testee", "outcome")
        u, v = pos.get(tester), pos.get(testee)
        edge = u is not None and v is not None and out[u] >> v & 1
        key, kept = ((u, v), read) if edge else ((tester, testee), others)
        if key in kept:
            raise SyndromeError(f"duplicate outcome for edge {(tester, testee)}")
        if "value" not in entry:
            raise ValueError(f"outcome {entry!r} has no 'value'")
        value = as_integer(entry["value"])
        if value not in (0, 1) and bad is None:
            bad = (tester, testee, entry["value"])
        kept[key] = value
        if edge and value == 1:
            failed[u] |= 1 << v
    if bad is not None:
        tester, testee, value = bad
        raise SyndromeError(
            f"outcome for edge ({tester}, {testee}) must be 0 or 1, got {value!r}"
        )
    if graph is None:
        return Syndrome(others)
    if others or len(read) != sum(row.bit_count() for row in out):
        ids = graph.node_ids
        rows = {(ids[u], ids[v]): value for (u, v), value in read.items()}
        failed_masks(graph, Syndrome({**rows, **others}))  # raises the coverage error
    return Syndrome._from_masks(graph, failed, list(read))


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
    except TypeError as exc:
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
    if not isinstance(offsets, (list, tuple)):
        raise ValueError(f"'offsets' must be a list of integers, got {offsets!r}")
    for key in ("bidirectional", "identity_only"):
        if not isinstance(tmpl.get(key, True), bool):
            raise ValueError(f"{key!r} must be true or false, got {tmpl[key]!r}")
    template = TemporalTemplate(
        offsets=offsets,
        bidirectional=tmpl.get("bidirectional", False),
        base_identity_only=tmpl.get("identity_only", True),
    )
    return expand(base, _rational(recipe["hz"], "'hz'"), interval, template)


def dump_json(document: dict) -> str:
    """Canonical rendering used for files the CLI writes: stable byte-for-byte."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _read_json(path: str | Path) -> object:
    """The JSON document in a file; nesting too deep to parse is a ValueError."""
    try:
        return json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to read") from None


def load_graph_file(path: str | Path) -> DiagnosticGraph | TemporalGraph:
    """Load either a plain graph file or a temporal graph file."""
    data = _read_json(path)
    if isinstance(data, dict) and "temporal" in data:
        return temporal_from_dict(data)
    return graph_from_dict(data)


def load_syndrome_file(
    path: str | Path, graph: DiagnosticGraph | None = None
) -> Syndrome:
    return syndrome_from_dict(_read_json(path), graph)
