"""Graphviz DOT export. Write-only: DOT is never parsed back."""

from __future__ import annotations

from .graph import DiagnosticGraph, EdgeKind, Syndrome
from .temporal import TemporalGraph

_FAIL_ATTRS = 'color="crimson", penwidth=2.0'


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(
    graph: DiagnosticGraph, syndrome: Syndrome | None = None, name: str = "D"
) -> str:
    """Nodes labeled ``id:label``, edges labeled by kind.

    With a syndrome, failing edges (outcome 1) are highlighted; passing
    edges stay plain solid.
    """
    if syndrome is not None:
        syndrome.require_total(graph)
    lines = [f"digraph {name} {{"]
    for node in graph.nodes:
        label = f"{node.id}:{node.label}" if node.label else str(node.id)
        lines.append(f"  {_quote(str(node.id))} [label={_quote(label)}];")
    for edge in graph.edges:
        attrs = []
        if edge.kind is not EdgeKind.UNSPECIFIED:
            attrs.append(f"label={_quote(edge.kind.value)}")
        if syndrome is not None and syndrome.value(*edge.pair) == 1:
            attrs.append(_FAIL_ATTRS)
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(
            f"  {_quote(str(edge.tester))} -> {_quote(str(edge.testee))}{suffix};"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def temporal_to_dot(
    graph: TemporalGraph, syndrome: Syndrome | None = None, name: str = "T"
) -> str:
    """Temporal graphs render vertices as ``<pane>:<base id>``.

    An edge is labeled ``temporal`` when it crosses panes, whatever its kind.
    """
    flat = graph.flat_graph
    if syndrome is not None:
        syndrome.require_total(flat)
    width = graph.base.n
    names = [_quote(node.label) for node in flat.nodes]
    lines = [f"digraph {name} {{"]
    lines.extend(f"  {vertex};" for vertex in names)
    for edge in flat.edges:
        attrs = []
        if edge.tester // width != edge.testee // width:
            attrs.append(f"label={_quote(EdgeKind.TEMPORAL.value)}")
        if syndrome is not None and syndrome.value(*edge.pair) == 1:
            attrs.append(_FAIL_ATTRS)
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {names[edge.tester]} -> {names[edge.testee]}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"
