"""JSON formats for graphs, syndromes, and temporal graphs.

Graph files look like::

    {"nodes": [{"id": 1, "label": "GPS reader", "hz": 1.0}, ...],
     "edges": [{"tester": 6, "testee": 1, "kind": "input_admissibility"}, ...]}

Syndrome files hold one ``[tester, testee, value]`` row per edge::

    {"outcomes": [[5, 1, 1], ...]}

and the earlier object rows, ``{"tester": 5, "testee": 1, "value": 1}``,
are still read.

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
    """``{"outcomes": [[tester, testee, value], ...]}``, rows by (tester, testee).

    A syndrome held as masks is written straight from them in edge order,
    which is (tester, testee) order because positions ascend with ids.
    """
    graph = syndrome._graph
    if graph is None:
        rows = sorted([*pair, value] for pair, value in syndrome.outcomes.items())
    else:
        ids, failed = graph.node_ids, syndrome._failed
        rows = [[ids[u], ids[v], failed[u] >> v & 1] for u, v in graph.position_pairs()]
    return {"outcomes": rows}


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
    """Read a syndrome document.

    A row is a ``[tester, testee, value]`` array (what
    :func:`syndrome_to_dict` writes) or a ``{"tester", "testee", "value"}``
    object (the earlier format); the two may be mixed.  Each row must have
    integer ``tester`` and ``testee`` ids, name its edge once and hold a
    ``value``; the first row that does not raises.  A value other than 0
    or 1, and then (with ``graph``) rows for edges the graph lacks or edges
    without a row, are reported once all rows are read, with the messages
    of :class:`Syndrome` and :func:`~diagkit.graph.failed_masks`.

    With ``graph``, the rows go straight into per-tester failed masks.
    Rows exactly as :func:`syndrome_to_dict` writes them are read by a
    strict pass (:func:`_edge_order_masks`); every other document, valid
    or not, is read by the general pass (:func:`_read_rows`), the only one
    that reports errors.
    """
    rows = data.get("outcomes") if isinstance(data, dict) else None
    if not isinstance(rows, (list, tuple)):
        raise ValueError("syndrome document must have an 'outcomes' list")
    if graph is not None:
        failed = _edge_order_masks(rows, graph)
        if failed is not None:
            return Syndrome._from_masks(graph, failed)
    return _read_rows(rows, graph)


def _edge_order_masks(rows: list | tuple, graph: DiagnosticGraph) -> list[int] | None:
    """The failed masks of ``rows`` if they are ``graph``'s edges in edge order.

    Each row must be a list of three ints: a tester id, a testee id and a
    value of 0 or 1.  The rows of one tester must be consecutive, testers
    must come by rising position and, within a tester, testees too; so the
    key ``u * n + v`` of the rows' positions rises strictly.  The testees
    seen per tester must be the graph's ``out_masks``.  Anything else gives
    None.
    """
    get = dict(graph.positions).get
    out = graph.out_masks
    n = len(out)
    bits = [1 << v for v in range(n)]
    seen = [0] * n
    failed = [0] * n
    u = last = -1  # the positions of the current tester and its last testee
    current = None  # the id of the current tester
    have = flagged = 0  # the current tester's testees so far, and those failed
    for row in rows:
        if row.__class__ is not list:
            return None
        try:
            tester, testee, value = row
        except ValueError:
            return None
        if (
            tester.__class__ is not int
            or testee.__class__ is not int
            or value.__class__ is not int
        ):
            return None
        if tester != current:
            if u >= 0:
                seen[u], failed[u] = have, flagged
            p = get(tester)
            if p is None or p <= u:
                return None
            u, current, have, flagged, last = p, tester, 0, 0, -1
        v = get(testee)
        if v is None or v <= last:
            return None
        last = v
        bit = bits[v]
        have |= bit
        if value == 1:
            flagged |= bit
        elif value:
            return None
    if u >= 0:
        seen[u], failed[u] = have, flagged
    return failed if seen == list(out) else None


def _read_rows(rows: list | tuple, graph: DiagnosticGraph | None) -> Syndrome:
    """The general pass of :func:`syndrome_from_dict`: any rows, in one pass."""
    # A dict copy of the positions: its get is faster than the read-only view's.
    pos = dict(graph.positions) if graph is not None else {}
    out = graph.out_masks if graph is not None else ()
    failed = [0] * len(out)
    seen = [0] * len(out)  # per tester position, the testees that have a row
    others: dict[tuple[int, int], int | None] = {}  # rows naming no edge of graph
    bad = None  # the first row whose value is not 0 or 1
    order = None  # (tester, testee) positions of the rows, once out of edge order
    last = 0  # the tester position of the last row of an edge
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
            if order is not None:
                order.append((u, v))
            elif have > bit or u < last:  # the first row out of edge order
                order = [*mask_pairs(seen[: last + 1]), (u, v)]  # the rows so far
            last = u
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
    return Syndrome._from_masks(graph, failed, order)


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
