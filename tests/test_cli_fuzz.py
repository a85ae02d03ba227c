"""Fuzzing the command line with small, often malformed, documents.

Graph, syndrome and temporal documents are drawn with ids and values that
mix integers, floats, bools, strings and rationals such as ``"1/0"``
(a syndrome as its failed ``[tester, testee]`` pairs with the graph's
fingerprint, or as rows, ``[tester, testee, value]`` arrays or objects), and
fed through ``cli.main`` for ``analyze``, ``identify``, ``expand``,
``profile``, ``audit`` and ``export-dot``.  Whatever the input, the exit
code is 0, 1 or 2 and no exception escapes: exit 2 comes with an
``error:`` line, and exit 1 only with a well-formed negative analytic
result.  Plain graphs have at most 6 nodes.  Temporal documents and
``expand``/``profile`` span at most 3 panes at 100 Hz over bases of at most
6 nodes, so every flat graph has at most 18 vertices.  A complete 6-node
base over 4 panes is analysed once as a fixed case.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from diagkit.cli import main
from diagkit.diagnosability import is_t_diagnosable, search_ceiling
from diagkit.errors import DiagkitError
from diagkit.jsonio import graph_from_dict, temporal_from_dict

JUNK = [1.5, True, False, None, "1", "x", "1/0", -1, [1], {}]
COMMANDS = ["analyze", "identify", "expand", "profile", "audit", "export-dot"]


def pick(draw, valid, junk=JUNK, chance=8):
    """One of ``valid``, or about once in ``chance`` draws one of ``junk``."""
    pool = junk if draw(st.integers(0, chance - 1)) == 0 else valid
    return draw(st.sampled_from(pool))


def node_id(draw):
    return pick(draw, [0, 1, 2, 3, 4, 5, 1.0, 2.0])


@st.composite
def graph_documents(draw, max_nodes=6):
    """Mostly valid graphs on ids 0..max_nodes-1, now and then spoilt."""
    ids = sorted(draw(st.sets(st.integers(0, max_nodes - 1), min_size=1)))
    every = [(i, j) for i in ids for j in ids if i != j]
    pairs = sorted(draw(st.sets(st.sampled_from(every)))) if every else []
    nodes = [{"id": nid, "label": pick(draw, ["", "m"], [7, None])} for nid in ids]
    edges = [
        {"tester": i, "testee": j, "kind": pick(draw, ["input_consistency"], ["bogus", 3])}
        for i, j in pairs
    ]
    if draw(st.integers(0, 5)) == 0:
        # One spoilt entry: a junk id, a duplicate, a self-loop, a bad rate.
        spoilt = draw(st.integers(0, 4))
        if spoilt == 0:
            nodes.append({"id": node_id(draw)})
        elif spoilt == 1:
            edges.append({"tester": node_id(draw), "testee": node_id(draw)})
        elif spoilt == 2:
            nodes[0]["hz"] = draw(st.sampled_from(JUNK + ["1/0", "0/0", 0, -3]))
        elif spoilt == 3:
            edges.append({"tester": ids[0], "testee": ids[0]})
        else:
            return draw(st.sampled_from([[], {}, {"nodes": []}, {"nodes": 3, "edges": []}]))
    return {"nodes": nodes, "edges": edges}


@st.composite
def temporal_documents(draw):
    """A base of at most 6 nodes spanning at most 3 panes at 100 Hz."""
    offsets = pick(draw, [[1], [1, 2], [2, 3]], [[], [0], [1.5], [True], ["1"], 3])
    template = {"offsets": offsets}
    for key in ("bidirectional", "identity_only"):
        if draw(st.booleans()):
            template[key] = pick(draw, [True, False], ["no", 1, 0, None, "true"])
    recipe = {
        "interval": pick(
            draw,
            [[0, 0.02], [0, "1/50"], [0, 0.01]],
            [[0.02, 0], [0, "1/0"], ["x", 1], 5],
        ),
        "hz": pick(draw, [100, "100", 100.0, 50], ["1/0", 0, -100, "x", True, None]),
        "template": template,
    }
    return {"base": draw(graph_documents()), "temporal": recipe}


def outcome_row(draw, tester, testee, value):
    """A ``[tester, testee, value]`` array or, the earlier shape, an object."""
    if draw(st.booleans()):
        return [tester, testee, value]
    return {"tester": tester, "testee": testee, "value": value}


@st.composite
def sparse_documents(draw, pairs, fingerprint):
    """Failed tests among ``pairs`` over the graph with ``fingerprint``, now
    and then spoilt."""
    failed = [list(pair) for pair in pairs if draw(st.integers(0, 3)) == 0]
    data = {"failed": failed, "graph": fingerprint, "others": "pass"}
    if draw(st.integers(0, 3)) == 0:
        # One spoilt entry: a junk or repeated pair, a non-edge, a bad marker
        # or fingerprint, or rows as well.
        spoilt = draw(st.integers(0, 5))
        if spoilt == 0:
            pair = [node_id(draw), node_id(draw)]
            failed.append(pick(draw, [pair], [[1], [1, 2, 0], 3]))
        elif spoilt == 1 and failed:
            failed.append(list(draw(st.sampled_from(failed))))
        elif spoilt == 2:
            data["others"] = draw(st.sampled_from(["fail", 0, None, "PASS"]))
        elif spoilt == 3:
            data["graph"] = draw(st.sampled_from(["", fingerprint[:-1], 0, None]))
        elif spoilt == 4:
            del data[draw(st.sampled_from(["others", "graph"]))]
        else:
            data["outcomes"] = []
    return data


@st.composite
def syndrome_documents(draw, pairs):
    """Rows for the given (tester, testee) pairs, now and then spoilt."""
    rows = [
        outcome_row(draw, i, j, pick(draw, [0, 1, 1.0], chance=30)) for i, j in pairs
    ]
    if draw(st.integers(0, 7)) == 0:
        spoilt = outcome_row(draw, node_id(draw), node_id(draw), 1)
        if draw(st.integers(0, 2)) == 0:  # an array of another length
            length = draw(st.sampled_from([0, 2, 4]))
            spoilt = [node_id(draw), node_id(draw), 1, 0][:length]
        rows.insert(draw(st.integers(0, len(rows))), spoilt)
    if rows and draw(st.integers(0, 7)) == 0:
        del rows[draw(st.integers(0, len(rows) - 1))]
    return {"outcomes": rows}


def edges_of(document):
    """The (tester, testee) ids a syndrome over the document's graph needs,
    and the graph's fingerprint."""
    try:
        if isinstance(document, dict) and "temporal" in document:
            graph = temporal_from_dict(document).flat_graph
        else:
            graph = graph_from_dict(document)
    except (DiagkitError, ValueError):
        return [], "no graph"
    ids = graph.node_ids
    pairs = [(ids[u], ids[v]) for u, v in graph.position_pairs()]
    return pairs, graph.fingerprint


@st.composite
def invocations(draw, folder):
    """An argv for one subcommand, with its documents written to ``folder``."""
    command = draw(st.sampled_from(COMMANDS))
    temporal = command == "audit" or (
        command in ("analyze", "identify", "export-dot") and draw(st.booleans())
    )
    graph = draw(temporal_documents() if temporal else graph_documents())
    graph_path = folder / "graph.json"
    graph_path.write_text(json.dumps(graph))
    syndrome_path = folder / "syndrome.json"
    pairs, fingerprint = edges_of(graph)
    if draw(st.booleans()):
        syndrome = draw(sparse_documents(pairs, fingerprint))
    else:
        syndrome = draw(syndrome_documents(pairs))
    syndrome_path.write_text(json.dumps(syndrome))
    argv = [command, str(graph_path)]
    budget = pick(draw, ["0", "1", "2", "3"], ["-1", "x", "1.5"])
    if command == "analyze" and draw(st.booleans()):
        argv += ["--t", budget]
    elif command == "identify":
        argv += [str(syndrome_path), "--t", budget]
    elif command in ("expand", "profile"):
        argv[1] = str(folder / "base.json")
        Path(argv[1]).write_text(json.dumps(draw(graph_documents())))
        argv += ["--hz", pick(draw, ["100", "50", "100.0"], ["1/0", "0/0", "-5", "x"])]
        argv += ["--offsets", pick(draw, ["1", "1,2", "2,3", ""], ["0", "1.5", "x"])]
        if command == "expand":
            bounds = pick(
                draw,
                [["0", "0.02"], ["0.01", "0.02"], ["-0.01", "1/100"], ["0", "0"]],
                [["1/0", "1"], ["0.02", "0"], ["x", "1"]],
            )
            argv += ["--interval", *bounds]
        else:
            chain = ["0:0.02,0:0.01,0:0", "0:0.01,0:0"]
            argv += ["--chain", pick(draw, chain, ["0:1/0", "0:0,0:1"])]
        argv += draw(st.sampled_from([[], ["--bidirectional"], ["--cross-module"]]))
    elif command == "audit":
        windows = pick(draw, ["0:0,0:0.01,0:0.02", "0:0,0:0.01"], ["0:x", "0:1,0:0"])
        argv += [str(syndrome_path), "--windows", windows]
    elif command == "export-dot" and draw(st.booleans()):
        argv += ["--syndrome", str(syndrome_path)]
    if command != "export-dot":
        argv.append("--json")
    return argv


def negative_result(command, document):
    """Whether a --json document is a well-formed negative analytic result."""
    if command == "analyze":
        return document.get("verdict") == "not_diagnosable" and "failed" in document
    if command == "identify":
        kind = document["verdict"]["kind"]
        return kind in ("ambiguous", "inconsistent") and "statuses" in document
    if command == "audit":
        return any(window["inconsistent"] for window in document["windows"])
    return False


@pytest.mark.filterwarnings("ignore:unknown edge kind")
@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_document_exits_0_1_or_2_with_no_traceback(data):
    with tempfile.TemporaryDirectory() as folder:
        argv = data.draw(invocations(Path(folder)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own usage errors
                code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    event(f"{argv[0]} exits {code}")
    if code == 2:
        # main's own "error: ..." line, or argparse's "diagkit ...: error: ...".
        lines = err.splitlines()
        assert any(line.startswith("error: ") or ": error: " in line for line in lines)
        return
    if argv[-1] != "--json":
        assert code == 0 and out.startswith("digraph"), (argv, out)
        return
    document = json.loads(out)
    assert "error" not in document
    assert (code == 1) == negative_result(argv[0], document), (argv, document)


@pytest.mark.parametrize("extra", [[], ["--cross-module"]])
def test_complete_base_over_four_panes(tmp_path, extra):
    """24 flat vertices, past the size cap that exact t used to have: a
    complete 6-node base, 4 panes at 100 Hz, offsets {1, 2, 3}, both
    directions.  ``t_max`` equals the first level, from the search ceiling
    down, that ``is_t_diagnosable`` passes."""
    nodes = [{"id": i} for i in range(6)]
    edges = [{"tester": i, "testee": j} for i in range(6) for j in range(6) if i != j]
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"nodes": nodes, "edges": edges}))
    recording = tmp_path / "recording.json"
    argv = ["expand", str(base), "--hz", "100", "--interval", "0", "0.03",
            "--offsets", "1,2,3", "--bidirectional", *extra, "--out", str(recording)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", str(recording), "--json"]) == 0
    document = json.loads(out.getvalue())
    flat = temporal_from_dict(json.loads(recording.read_text())).flat_graph
    assert flat.n == 24
    t = search_ceiling(flat)
    while not is_t_diagnosable(flat, t).diagnosable:
        t -= 1
    assert document["t_max"] == t == (11 if extra else 8)
