"""Command-line front end.

Exit codes: 0 for success (diagnosable / unique verdict), 1 for a negative
analytic result (not diagnosable, ambiguous, inconsistent), 2 for usage or
input errors.  Every subcommand emits a single JSON document on stdout when
given --json.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from functools import lru_cache
from pathlib import Path
from typing import Callable

from . import diagnosability as dx
from . import identification as ident
from . import jsonio
from . import simulator as sim
from . import temporal as tg
from .dot import graph_to_dot, temporal_to_dot
from .errors import DiagkitError
from .graph import DiagnosticGraph, Syndrome, as_fraction
from .temporal import Interval, TemporalGraph, TemporalTemplate


def _load_graph_arg(ref: str) -> DiagnosticGraph | TemporalGraph:
    """Resolve a path, falling back to bundled scenario names."""
    path = Path(ref)
    if path.exists():
        return jsonio.load_graph_file(path)
    name = path.name
    if name.endswith(".json"):
        name = name[: -len(".json")]
    if name in sim.scenario_names():
        return sim.scenario(name).graph
    raise FileNotFoundError(f"no such file or bundled scenario: {ref}")


def _flatten(graph: DiagnosticGraph | TemporalGraph) -> DiagnosticGraph:
    return graph.flat_graph if isinstance(graph, TemporalGraph) else graph


def _emit(
    args: argparse.Namespace, document: Callable[[], dict], human: Callable[[], str]
) -> None:
    """Print the JSON document under --json, else the human text; only the
    form printed is built."""
    if getattr(args, "json", False):
        print(jsonio.dump_json(document()), end="")
    else:
        print(human())


def _parse_interval(text: str) -> Interval:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError(f"interval must look like a:b, got {text!r}")
    return Interval(as_fraction(lo.strip()), as_fraction(hi.strip()))


def _parse_chain(text: str) -> list[Interval]:
    return [_parse_interval(part) for part in text.split(",") if part.strip()]


def _parse_ids(text: str) -> frozenset[int]:
    return frozenset(int(part) for part in text.split(",") if part.strip())


def _template_from_args(args: argparse.Namespace) -> TemporalTemplate:
    offsets = frozenset(
        int(part) for part in args.offsets.split(",") if part.strip()
    ) or frozenset({1})
    return TemporalTemplate(
        offsets=offsets,
        bidirectional=args.bidirectional,
        base_identity_only=not getattr(args, "cross_module", False),
    )


def _certificate_lines(cert: dx.DiagnosabilityCertificate) -> str:
    """The verdict at t; a refutation names its failed condition and the two
    fault sets, of at most t members each, that share a syndrome."""
    if cert.diagnosable:
        return f"t = {cert.t}: diagnosable"
    pair = cert.witness
    return (
        f"t = {cert.t}: not diagnosable ({cert.failed_condition}): fault sets "
        f"{sorted(pair.fault_set_a)} and {sorted(pair.fault_set_b)} share a syndrome"
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    graph = _flatten(_load_graph_arg(args.graph))
    if args.t is not None:
        cert = dx.is_t_diagnosable(graph, args.t)
        _emit(args, cert.to_json_dict, lambda: _certificate_lines(cert))
        return 0 if cert.diagnosable else 1
    result = dx.max_diagnosability(graph)
    human = [f"t_max = {result.t_max} (search ceiling {result.ceiling})"]
    human.append("  " + _certificate_lines(result.certificate))
    if result.refutation is not None:
        human.append("  " + _certificate_lines(result.refutation))
    _emit(args, result.to_json_dict, lambda: "\n".join(human))
    return 0


def cmd_identify(args: argparse.Namespace) -> int:
    graph = _flatten(_load_graph_arg(args.graph))
    syndrome = jsonio.load_syndrome_file(args.syndrome, graph)
    report = ident.node_status(graph, syndrome, args.t)
    verdict = report.verdict

    def document() -> dict:
        return {
            "verdict": verdict.to_json_dict(),
            "statuses": report.to_json_dict(),
            "others": report.others.value,
            "exceeds_majority_budget": verdict.exceeds_majority_budget,
        }

    def human() -> str:
        lines = [f"verdict: {verdict.kind.value}"]
        if verdict.kind is ident.VerdictKind.UNIQUE:
            lines[0] += f" {sorted(verdict.fault_set)}"
        elif verdict.kind is ident.VerdictKind.AMBIGUOUS:
            lines.append(f"  {verdict.candidate_count} candidates:")
            for candidate in verdict.candidates:
                lines.append(f"    {sorted(candidate)}")
        for nid, status in report.listed.items():
            lines.append(f"  node {nid}: {status.value}")
        rest = graph.n - len(report.listed)
        if rest:
            other = " other" if report.listed else ""
            plural = "" if rest == 1 else "s"
            lines.append(f"  all {rest:,}{other} node{plural}: {report.others.value}")
        return "\n".join(lines)

    _emit(args, document, human)
    return 0 if verdict.kind is ident.VerdictKind.UNIQUE else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    graph = _flatten(_load_graph_arg(args.graph))
    if args.random is not None:
        rng = random.Random(args.seed)
        if args.random > graph.n:
            raise ValueError(
                f"cannot pick {args.random} faults from {graph.n} nodes"
            )
        faults = frozenset(rng.sample(graph.node_ids, args.random))
    else:
        faults = _parse_ids(args.faults)
    policy = sim.parse_policy(args.policy)
    syndrome = sim.generate_syndrome(graph, faults, policy, seed=args.seed)
    document = jsonio.syndrome_to_dict(syndrome)
    if args.out:
        Path(args.out).write_text(jsonio.dump_json(document))
    status = 0
    identification = None
    if args.identify:
        budget = args.t if args.t is not None else max(len(faults), 1)
        verdict = ident.identify(graph, syndrome, budget)
        identification = verdict.to_json_dict()
        status = 0 if verdict.kind is ident.VerdictKind.UNIQUE else 1
    out_doc = {"faults": sorted(faults), "syndrome": document}
    if identification is not None:
        out_doc["identification"] = identification

    def human() -> str:
        lines = [f"injected faults: {sorted(faults)}"]
        if not args.out:
            lines.append(jsonio.dump_json(document).rstrip("\n"))
        else:
            lines.append(f"syndrome written to {args.out}")
        if identification is not None:
            lines.append(f"identification: {json.dumps(identification)}")
        return "\n".join(lines)

    _emit(args, lambda: out_doc, human)
    return status


def cmd_expand(args: argparse.Namespace) -> int:
    graph = _load_graph_arg(args.graph)
    if isinstance(graph, TemporalGraph):
        raise ValueError("expand expects a plain (non-temporal) graph file")
    interval = Interval(as_fraction(args.interval[0]), as_fraction(args.interval[1]))
    template = _template_from_args(args)
    expansion = tg.expand(graph, as_fraction(args.hz), interval, template)
    document = jsonio.temporal_to_dict(expansion)
    rendered = jsonio.dump_json(document)
    if args.out:
        Path(args.out).write_text(rendered)
    flat = expansion.flat_graph
    edge_count = sum(flat.in_degrees)
    human = (
        f"expanded to {len(expansion.panes)} panes, {flat.n} vertices, "
        f"{edge_count} edges"
    )
    if args.out:
        human += f"; written to {args.out}"
    summary = {
        "panes": list(expansion.panes),
        "vertices": flat.n,
        "edges": edge_count,
        "temporal": document["temporal"],
    }
    if not args.out:
        human += "\n" + rendered.rstrip("\n")
    _emit(args, lambda: summary, lambda: human)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    graph = _load_graph_arg(args.graph)
    if isinstance(graph, TemporalGraph):
        raise ValueError("profile expects a plain (non-temporal) graph file")
    chain = _parse_chain(args.chain)
    template = _template_from_args(args)
    profile = tg.diagnosability_profile(graph, as_fraction(args.hz), template, chain)
    lines = ["interval            t"]
    for entry in profile.entries:
        lines.append(f"{str(entry.interval):<20}{entry.t}")
    _emit(args, profile.to_json_dict, lambda: "\n".join(lines))
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    graph = _load_graph_arg(args.graph)
    if not isinstance(graph, TemporalGraph):
        raise ValueError("audit expects a temporal graph file (see expand --out)")
    syndrome = jsonio.load_syndrome_file(args.syndrome, graph.flat_graph)
    windows = _parse_chain(args.windows)
    report = tg.audit(graph, syndrome, windows, include_vertices=args.vertex_level)

    def human() -> str:
        lines = []
        for window_audit in report.windows:
            lines.append(
                f"window {window_audit.window} (t = {window_audit.t_used})"
                + (" [inconsistent]" if window_audit.inconsistent else "")
            )
            for nid, status in sorted(window_audit.base_statuses.items()):
                lines.append(f"  node {nid}: {status.value}")
            if window_audit.vertex_statuses is not None:
                for (pane, nid), status in sorted(window_audit.vertex_statuses.items()):
                    lines.append(f"  vertex {pane}:{nid}: {status.value}")
        return "\n".join(lines)

    _emit(args, report.to_json_dict, human)
    return 1 if any(w.inconsistent for w in report.windows) else 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    graph = _load_graph_arg(args.graph)
    syndrome = None
    if args.syndrome:
        syndrome = jsonio.load_syndrome_file(args.syndrome, _flatten(graph))
    if isinstance(graph, TemporalGraph):
        rendered = temporal_to_dot(graph, syndrome)
    else:
        rendered = graph_to_dot(graph, syndrome)
    if args.out:
        Path(args.out).write_text(rendered)
        print(f"DOT written to {args.out}")
    else:
        print(rendered, end="")
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    rows = []
    for name in sim.scenario_names():
        scen = sim.scenario(name)
        rows.append(
            {
                "name": name,
                "nodes": scen.graph.n,
                "edges": len(scen.graph.edges),
                "properties": [
                    {"name": p.name, "expected": _jsonable(p.expected), "provenance": p.provenance}
                    for p in scen.documented_properties
                ],
                "notes": scen.notes,
            }
        )
    human = "\n".join(
        f"{row['name']:<14} {row['nodes']:>3} nodes {row['edges']:>3} edges"
        for row in rows
    )
    _emit(args, lambda: {"scenarios": rows}, lambda: human)
    return 0


def _jsonable(value: object) -> object:
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return list(value)
    return value


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagkit",
        description="Diagnosability analysis and fault identification for "
        "diagnostic graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="emit a JSON document")

    p = sub.add_parser("analyze", help="diagnosability of a graph")
    p.add_argument("graph")
    p.add_argument("--t", type=int, default=None, help="check this t only")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("identify", help="identify faults from a syndrome")
    p.add_argument("graph")
    p.add_argument("syndrome")
    p.add_argument("--t", type=int, required=True, help="fault budget")
    common(p)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("simulate", help="generate a syndrome under injected faults")
    p.add_argument("graph")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--faults", default="", help='comma-separated ids, e.g. "1,3"')
    group.add_argument("--random", type=int, default=None, help="pick K random faults")
    p.add_argument(
        "--policy",
        default="always_pass",
        help="always_pass | always_fail | bernoulli:P | adversarial",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write syndrome JSON here")
    p.add_argument("--identify", action="store_true", help="also run identification")
    p.add_argument("--t", type=int, default=None, help="budget for --identify")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("expand", help="build a temporal graph over an interval")
    p.add_argument("graph")
    p.add_argument("--hz", required=True, help="pane frequency (Hz)")
    p.add_argument("--interval", nargs=2, required=True, metavar=("A", "B"))
    p.add_argument("--offsets", default="1", help='pane offsets, e.g. "1,2"')
    p.add_argument("--bidirectional", action="store_true")
    p.add_argument(
        "--cross-module",
        action="store_true",
        help="cross-time edges between all module pairs, not just same-module",
    )
    p.add_argument("--out", default=None, help="write temporal graph JSON here")
    common(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("profile", help="diagnosability over a nested interval chain")
    p.add_argument("graph")
    p.add_argument("--hz", required=True)
    p.add_argument(
        "--chain", required=True, help='nested intervals, e.g. "0:0.02,0:0.01,0:0"'
    )
    p.add_argument("--offsets", default="1")
    p.add_argument("--bidirectional", action="store_true")
    p.add_argument("--cross-module", action="store_true")
    common(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("audit", help="re-run identification over nested windows")
    p.add_argument("graph", help="temporal graph JSON (see expand --out)")
    p.add_argument("syndrome")
    p.add_argument(
        "--windows", required=True, help='nested ascending, e.g. "0:0,0:0.01,0:0.02"'
    )
    p.add_argument("--vertex-level", action="store_true")
    common(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("export-dot", help="render a graph (and syndrome) as DOT")
    p.add_argument("graph")
    p.add_argument("--syndrome", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("scenarios", help="list bundled scenario fixtures")
    common(p)
    p.set_defaults(func=cmd_scenarios)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process."""
    return build_parser()


def _run(args: argparse.Namespace) -> int:
    """Run the chosen subcommand; an input error prints its message and gives 2."""
    try:
        return args.func(args)
    except BrokenPipeError:
        raise
    except (DiagkitError, OSError, ValueError, json.JSONDecodeError) as exc:
        message = f"error: {exc}"
        if getattr(args, "json", False):
            print(jsonio.dump_json({"error": str(exc)}), end="")
        print(message, file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
    except BrokenPipeError:
        # The reader is gone: print nothing more to stdout, and let the
        # flush at exit write what is still buffered to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
