"""JSON formats for graphs, syndromes, and temporal graphs.

Graph files look like::

    {"nodes": [{"id": 1, "label": "GPS reader", "hz": 1.0}, ...],
     "edges": [{"tester": 6, "testee": 1, "kind": "input_admissibility"}, ...]}

Syndrome files list the failed tests and the fingerprint of the graph
they were recorded against (:attr:`DiagnosticGraph.fingerprint`); every
other test of that graph passed::

    {"failed": [[5, 1], ...], "graph": "<sha256 hex>", "others": "pass"}

Files with one ``[tester, testee, value]`` row per edge,
``{"outcomes": [[5, 1, 1], ...]}``, and with the earlier object rows,
``{"tester": 5, "testee": 1, "value": 1}``, are still read.

Temporal graph files embed the base graph plus the expansion recipe, which
reconstructs the expansion exactly::

    {"base": {...}, "temporal": {"interval": [0.0, 0.02], "hz": 100,
     "template": {"offsets": [1, 2], "bidirectional": true,
                  "identity_only": true}}}

Rationals that have an exact decimal spelling are written as JSON numbers;
anything else is written as a "p/q" string.  Unknown edge-kind strings map
to "unspecified" with a warning.  Every file is written by :func:`dump_json`
in one compact canonical form.
"""

from __future__ import annotations

import json
import warnings
from bisect import bisect_left
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
    mask_pairs,
)
from .temporal import Interval, TemporalGraph, TemporalTemplate, expand

_KINDS_BY_VALUE = {kind.value: kind for kind in EdgeKind}


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
            frequency = as_fraction(hz) if hz is not None else None
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
    """The failed tests of a syndrome made over a graph, or else its rows.

    A syndrome held as masks gives ``{"failed": [[tester, testee], ...],
    "graph": graph.fingerprint, "others": "pass"}``, pairs in edge
    order.  One built from outcomes gives ``{"outcomes": [[tester, testee,
    value], ...]}``, rows by (tester, testee), bound to a graph or not.
    """
    graph = syndrome._graph
    if graph is None or not syndrome._held:
        rows = sorted([*pair, value] for pair, value in syndrome.outcomes.items())
        return {"outcomes": rows}
    ids = graph.node_ids
    failed = [[ids[u], ids[v]] for u, v in mask_pairs(syndrome._failed)]
    return {"failed": failed, "graph": graph.fingerprint, "others": "pass"}


_NO_VALUE = object()  # an object row without a "value"


def _outcome_fields(row: object) -> tuple[object, object, object]:
    """The tester, testee and value of a row that is not an object, or its error."""
    if isinstance(row, (list, tuple)) and len(row) == 3:
        return tuple(row)
    raise ValueError(
        "each outcome must be a [tester, testee, value] array or an object, "
        f"got {row!r}"
    )


def _outcome_ids(row: object, tester: object, testee: object) -> tuple[int, int]:
    """The ids of a row whose tester or testee is not an int, or its error."""
    if isinstance(row, dict):
        return _integer(row, "tester", "outcome"), _integer(row, "testee", "outcome")
    ids = as_integer(tester), as_integer(testee)
    for key, number in zip(("tester", "testee"), ids):
        if number is None:
            raise ValueError(f"outcome {row!r}: {key!r} must be an integer")
    return ids


def syndrome_from_dict(data: dict, graph: DiagnosticGraph | None = None) -> Syndrome:
    """Read a syndrome document: its failed tests over ``graph``, or its rows.

    The README's "Syndrome JSON" gives both shapes and what each refuses.
    """
    if isinstance(data, dict) and "failed" in data:
        return _read_failed(data, graph)
    rows = data.get("outcomes") if isinstance(data, dict) else None
    if not isinstance(rows, (list, tuple)):
        raise ValueError("syndrome document must have an 'outcomes' list")
    return _read_rows(rows, graph)


def _read_failed(data: dict, graph: DiagnosticGraph | None) -> Syndrome:
    """The syndrome over ``graph`` that fails the listed tests and passes the rest."""
    if graph is None:
        raise ValueError("a syndrome document of failed tests needs its graph to read")
    if "outcomes" in data:
        raise ValueError("syndrome document has both 'failed' and 'outcomes'")
    if data.get("others") != "pass":
        raise ValueError(
            "syndrome document with 'failed' must have \"others\": \"pass\", "
            f"got {data.get('others')!r}"
        )
    fingerprint = graph.fingerprint
    if data.get("graph") != fingerprint:
        raise SyndromeError(
            "syndrome was recorded against another graph: its 'graph' is "
            f"{data.get('graph')!r}, this graph's fingerprint {fingerprint!r}"
        )
    pairs = data["failed"]
    if not isinstance(pairs, (list, tuple)):
        raise ValueError(
            f"'failed' must be a list of [tester, testee] pairs, got {pairs!r}"
        )
    # Ids are found by bisection: building ``positions`` costs more than
    # reading the few pairs.
    ids, out = graph.node_ids, graph.out_masks
    n = len(ids)
    failed = [0] * n
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(
                f"each failed test must be a [tester, testee] pair, got {pair!r}"
            )
        tester, testee = map(as_integer, pair)
        if tester is None or testee is None:
            raise ValueError(f"failed test {pair!r} must name two integer ids")
        u, v = bisect_left(ids, tester), bisect_left(ids, testee)
        known = u < n and v < n and ids[u] == tester and ids[v] == testee
        if not (known and out[u] >> v & 1):
            raise SyndromeError(
                f"failed test ({tester}, {testee}) is no edge of the graph"
            )
        bit = 1 << v
        if failed[u] & bit:
            raise SyndromeError(f"duplicate failed test ({tester}, {testee})")
        failed[u] |= bit
    return Syndrome._from_masks(graph, failed)


def _read_rows(rows: list | tuple, graph: DiagnosticGraph | None) -> Syndrome:
    """The general pass of :func:`syndrome_from_dict`: any rows, in one pass."""
    # A dict copy of the positions: its get is faster than the read-only view's.
    pos = dict(graph.positions) if graph is not None else {}
    out = tuple(graph.out_masks) if graph is not None else ()
    failed = [0] * len(out)
    seen = [0] * len(out)  # per tester position, the testees that have a row
    others: dict[tuple[int, int], int | None] = {}  # rows naming no edge of graph
    bad = None  # the first row whose value is not 0 or 1
    for row in rows:
        if row.__class__ is list and len(row) == 3:
            tester, testee, value = row
        elif isinstance(row, dict):
            tester, testee = row.get("tester"), row.get("testee")
            value = row.get("value", _NO_VALUE)
        else:
            tester, testee, value = _outcome_fields(row)
        if tester.__class__ is not int or testee.__class__ is not int:
            tester, testee = _outcome_ids(row, tester, testee)
        u, v = pos.get(tester), pos.get(testee)
        edge = u is not None and v is not None and out[u] >> v & 1
        if edge:
            have, bit = seen[u], 1 << v
            if have & bit:
                raise SyndromeError(f"duplicate outcome for edge {(tester, testee)}")
            seen[u] = have | bit
        elif (tester, testee) in others:
            raise SyndromeError(f"duplicate outcome for edge {(tester, testee)}")
        if value is _NO_VALUE:
            raise ValueError(f"outcome {row!r} has no 'value'")
        number = value if value.__class__ is int else as_integer(value)
        if number != 0 and number != 1 and bad is None:
            bad = (tester, testee, value)
        if not edge:
            others[(tester, testee)] = number
        elif number == 1:
            failed[u] |= bit
    if bad is not None:
        tester, testee, value = bad
        raise SyndromeError(
            f"outcome for edge ({tester}, {testee}) must be 0 or 1, got {value!r}"
        )
    if graph is None:
        return Syndrome(others)
    if others or seen != list(out):
        ids = graph.node_ids
        read = {(ids[u], ids[v]): 0 for u, v in mask_pairs(seen)}
        failed_masks(graph, Syndrome({**read, **others}))  # raises the coverage error
    return Syndrome._from_masks(graph, failed)


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
        return as_fraction(value)
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
    """The canonical rendering of every file diagkit writes.

    Keys sorted, no whitespace between tokens, one final newline: the same
    document always gives the same bytes, and a graph, temporal or syndrome
    document read back from them renders to them again.  Without
    ``indent``, ``json.dumps`` runs CPython's C encoder.
    """
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


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
