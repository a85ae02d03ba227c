"""Command-line interface: subcommands, exit codes, JSON emission."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diagkit import cli
from diagkit import temporal as tg
from diagkit.cli import main
from diagkit.diagnosability import (
    Counterexample,
    DiagnosabilityCertificate,
    Verdict,
    common_syndrome,
    revalidate_certificate,
)
from diagkit.identification import StatusReport
from diagkit.jsonio import dump_json, graph_to_dict, load_graph_file, load_syndrome_file
from diagkit.simulator import scenario


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def localization_recording(capsys, tmp_path, *template):
    """``localization`` expanded at 100 Hz over [0, 1] s (1,111 vertices)
    with the ``expand`` template options given; the file's path."""
    recording = str(tmp_path / "recording.json")
    assert main([
        "expand", "localization", "--hz", "100", "--interval", "0", "1",
        *template, "--out", recording,
    ]) == 0
    capsys.readouterr()
    return recording


class TestAnalyze:
    def test_five_cycle(self, capsys):
        code, doc, _ = run_json(capsys, "analyze", "five_cycle")
        assert code == 0
        assert doc["t_max"] == 1

    def test_bundled_path_spelling(self, capsys):
        code, doc, _ = run_json(capsys, "analyze", "scenarios/five_cycle.json")
        assert code == 0
        assert doc["t_max"] == 1

    def test_localization_at_two(self, capsys):
        code, doc, _ = run_json(capsys, "analyze", "localization", "--t", "2")
        assert code == 1
        assert doc["failed"] == "cond_iii"
        # X = V \ (A ∪ B) has p = 2t − |A ∪ B| = 1 and 8 members.
        union = set(doc["witness"]["A"]) | set(doc["witness"]["B"])
        assert 2 * 2 - len(union) == 1
        assert 11 - len(union) == 8
        # The same refutation as analyze prints without --t.
        assert doc == run_json(capsys, "analyze", "localization")[1]["refutation"]

    def test_localization_prints_its_refutation(self, capsys):
        """t_max 1 is below the ceiling 2, so the JSON carries the
        condition-(iii) refutation at t = 2 (a failing certificate is
        falsy): two fault sets that share a syndrome.  X = V \\ (A ∪ B) is
        {1,2,3,4,5,8,9,10}, and Γ(X) = {11} = A ∩ B."""
        code, doc, _ = run_json(capsys, "analyze", "localization")
        assert code == 0
        assert (doc["t_max"], doc["ceiling"]) == (1, 2)
        assert doc["refutation"] == {
            "failed": "cond_iii",
            "t": 2,
            "verdict": "not_diagnosable",
            "witness": {"A": [6, 11], "B": [7, 11]},
        }
        a, b = (set(doc["refutation"]["witness"][key]) for key in ("A", "B"))
        assert set(range(1, 12)) - (a | b) == {1, 2, 3, 4, 5, 8, 9, 10}
        assert a & b == {11}

    def test_malformed_json_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, err = run(capsys, "analyze", str(bad))
        assert code == 2
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "no_such_graph.json")
        assert code == 2
        assert "no such file or bundled scenario" in err

    def test_large_expansion_is_exact(self, capsys, tmp_path):
        """The 1,111-vertex localization expansion gets its exact t with a
        certificate, and no bounds."""
        recording = localization_recording(
            capsys, tmp_path, "--offsets", "1,2", "--bidirectional"
        )
        code, doc, _ = run_json(capsys, "analyze", recording)
        assert code == 0
        assert doc == {
            "ceiling": 4,
            "certificate": {"t": 4, "verdict": "diagnosable"},
            "refutation": None,
            "t_max": 4,
        }

    @pytest.mark.parametrize("t", [3, 4])
    def test_large_expansion_at_a_given_t(self, capsys, tmp_path, t):
        """--t on the same expansion reads condition (iii) off the graph's
        one least cut; a search over subsets did not finish in 20 s."""
        recording = localization_recording(
            capsys, tmp_path, "--offsets", "1,2", "--bidirectional"
        )
        code, doc, _ = run_json(capsys, "analyze", recording, "--t", str(t))
        assert (code, doc) == (0, {"t": t, "verdict": "diagnosable"})

    def test_forward_expansion_is_refuted_at_two(self, capsys, tmp_path):
        """Offsets {1}, forward only: t(D) = 1, and the condition-(iii)
        refutation at t = 2, with or without --t, holds against the flat
        graph from its JSON alone: two fault sets of at most 2 vertices that
        share a syndrome, printed in under 1 KB."""
        recording = localization_recording(capsys, tmp_path, "--offsets", "1")
        code, out, _ = run(capsys, "analyze", recording, "--t", "2", "--json")
        doc = json.loads(out)
        assert (code, doc["failed"]) == (1, "cond_iii")
        assert len(out) < 1024
        a, b = (frozenset(doc["witness"][key]) for key in ("A", "B"))
        assert (a, b) == ({5, 10}, {6, 10})
        flat = load_graph_file(recording).flat_graph
        assert common_syndrome(flat, a, b) is not None
        certificate = DiagnosabilityCertificate(
            2, Verdict.NOT_DIAGNOSABLE, "cond_iii", Counterexample(a, b, flat)
        )
        assert revalidate_certificate(flat, certificate)
        code, out, _ = run(capsys, "analyze", recording, "--json")
        assert (code, json.loads(out)["refutation"]) == (0, doc)
        assert len(out) < 1024

    def test_env_var_overrides_cap(self, capsys, monkeypatch):
        """DIAGKIT_EXACT_CAP no longer overrides anything: with it set,
        analyze still gives the exact t and no bounds."""
        monkeypatch.setenv("DIAGKIT_EXACT_CAP", "5")
        code, doc, _ = run_json(capsys, "analyze", "localization")
        assert code == 0
        assert doc["t_max"] == 1
        assert "bounds" not in doc

    def test_env_var_that_is_not_an_integer_is_an_input_error(self, capsys, monkeypatch):
        """The variable is not read, so a non-integer value is no error;
        a cap given on the command line is, as --exact-cap is no option."""
        monkeypatch.setenv("DIAGKIT_EXACT_CAP", "abc")
        code, _, err = run(capsys, "scenarios")
        assert (code, err) == (0, "")
        code, doc, _ = run_json(capsys, "analyze", "localization")
        assert (code, doc["t_max"]) == (0, 1)
        with pytest.raises(SystemExit) as exited:
            main(["analyze", "five_cycle", "--exact-cap", "abc", "--json"])
        assert exited.value.code == 2
        assert "--exact-cap" in capsys.readouterr().err

    def test_exact_cap_is_gone(self, capsys):
        """--exact-cap is no option of analyze, profile or audit."""
        for argv in (
            ["analyze", "five_cycle"],
            ["profile", "five_cycle", "--hz", "10", "--chain", "0:0"],
            ["audit", "temporal.json", "syndrome.json", "--windows", "0:0"],
        ):
            with pytest.raises(SystemExit) as exited:
                main([*argv, "--exact-cap", "5"])
            assert exited.value.code == 2
            assert "--exact-cap" in capsys.readouterr().err


class TestIdentify:
    def test_unique(self, capsys, tmp_path):
        syn = tmp_path / "s.json"
        assert main(["simulate", "five_cycle", "--faults", "1", "--out", str(syn)]) == 0
        capsys.readouterr()
        code, doc, _ = run_json(capsys, "identify", "five_cycle", str(syn), "--t", "1")
        assert code == 0
        assert doc["verdict"] == {"kind": "unique", "fault_set": [1]}
        assert doc["statuses"]["1"] == "known_faulty"

    def test_syndrome_file_is_compact_array_rows(self, capsys, tmp_path):
        # The failed tests as [tester, testee] arrays; every other test passed.
        syn = tmp_path / "s.json"
        assert main(["simulate", "five_cycle", "--faults", "1", "--out", str(syn)]) == 0
        fingerprint = scenario("five_cycle").graph.fingerprint
        assert syn.read_text() == (
            '{"failed":[[5,1]],"graph":"' + fingerprint + '","others":"pass"}\n'
        )

    def test_human_output_builds_no_json_document(
        self, capsys, tmp_path, monkeypatch
    ):
        syn = tmp_path / "s.json"
        assert main(["simulate", "five_cycle", "--faults", "1", "--out", str(syn)]) == 0
        capsys.readouterr()

        def refuse(self):
            raise AssertionError("a JSON document was built for human output")

        monkeypatch.setattr(StatusReport, "to_json_dict", refuse)
        code, out, _ = run(capsys, "identify", "five_cycle", str(syn), "--t", "1")
        assert code == 0
        assert out.startswith("verdict: unique [1]\n  node 1: known_faulty\n")

    def test_ambiguous(self, capsys, tmp_path):
        syn = tmp_path / "s.json"
        syn.write_text(
            json.dumps(
                {
                    "outcomes": [
                        {"tester": 1, "testee": 2, "value": 0},
                        {"tester": 2, "testee": 3, "value": 1},
                        {"tester": 3, "testee": 4, "value": 0},
                        {"tester": 4, "testee": 5, "value": 0},
                        {"tester": 5, "testee": 1, "value": 1},
                    ]
                }
            )
        )
        code, doc, _ = run_json(capsys, "identify", "five_cycle", str(syn), "--t", "2")
        assert code == 1
        assert doc["verdict"]["kind"] == "ambiguous"
        assert doc["verdict"]["candidates"] == [[1, 2], [1, 3]]

    def test_human_output_lists_what_differs(self, capsys, tmp_path):
        """The nodes some candidate holds, one per line, then one line for
        all the others; with no candidate, one line for every node."""
        syn = tmp_path / "s.json"
        fingerprint = scenario("five_cycle").graph.fingerprint
        for failed, t, text in (
            (
                [[2, 3], [5, 1]],
                2,
                "verdict: ambiguous\n  2 candidates:\n    [1, 2]\n    [1, 3]\n"
                "  node 1: known_faulty\n  node 2: unknown\n  node 3: unknown\n"
                "  all 2 other nodes: known_fault_free\n",
            ),
            (
                [[1, 2], [2, 3], [3, 4], [4, 5], [5, 1]],
                1,
                "verdict: inconsistent\n  all 5 nodes: unknown\n",
            ),
        ):
            syn.write_text(
                json.dumps({"failed": failed, "graph": fingerprint, "others": "pass"})
            )
            code, out, _ = run(capsys, "identify", "five_cycle", str(syn), "--t", str(t))
            assert (code, out) == (1, text)
            code, doc, _ = run_json(capsys, "identify", "five_cycle", str(syn), "--t", str(t))
            assert code == 1
            assert doc["others"] == text.rsplit(": ", 1)[1].rstrip("\n")

    def test_partial_syndrome_is_input_error(self, capsys, tmp_path):
        syn = tmp_path / "s.json"
        syn.write_text(json.dumps({"outcomes": [{"tester": 1, "testee": 2, "value": 0}]}))
        code, _, err = run(capsys, "identify", "five_cycle", str(syn), "--t", "1")
        assert code == 2
        assert "every edge exactly once" in err


class TestSimulate:
    def test_empty_fault_list(self, capsys):
        code, doc, _ = run_json(capsys, "simulate", "five_cycle", "--faults", "")
        assert code == 0
        assert doc["faults"] == []
        assert doc["syndrome"]["failed"] == []
        assert doc["syndrome"]["others"] == "pass"

    def test_deterministic_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(
                capsys,
                "simulate",
                "five_cycle",
                "--random",
                "2",
                "--policy",
                "bernoulli:0.5",
                "--seed",
                "7",
                "--out",
                str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_fault_id_is_input_error(self, capsys):
        code, _, err = run(capsys, "simulate", "five_cycle", "--faults", "9")
        assert code == 2
        assert "unknown node ids" in err

    def test_immediate_identification(self, capsys):
        code, doc, _ = run_json(
            capsys, "simulate", "five_cycle", "--faults", "1", "--identify", "--t", "1"
        )
        assert code == 0
        assert doc["identification"] == {"kind": "unique", "fault_set": [1]}

    def test_json_stdout_is_the_canonical_rendering(self, capsys):
        code, out, _ = run(capsys, "simulate", "five_cycle", "--faults", "1", "--json")
        assert code == 0
        fingerprint = scenario("five_cycle").graph.fingerprint
        syndrome = '{"failed":[[5,1]],"graph":"' + fingerprint + '","others":"pass"}'
        assert out == '{"faults":[1],"syndrome":' + syndrome + "}\n"
        assert out == dump_json(json.loads(out))
        code, out, _ = run(capsys, "simulate", "five_cycle", "--faults", "9", "--json")
        assert code == 2
        assert out == '{"error":"unknown node ids: [9]"}\n'


class TestExpandProfileAudit:
    def test_expand_writes_temporal_file(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        code, doc, _ = run_json(
            capsys,
            "expand",
            "pane_100hz",
            "--hz",
            "100",
            "--interval",
            "0",
            "0.02",
            "--out",
            str(out),
        )
        assert code == 0
        assert doc["vertices"] == 9
        assert doc["panes"] == [0, 1, 2]
        stored = json.loads(out.read_text())
        assert stored["temporal"]["hz"] == 100.0

    def test_expand_empty_interval_is_error(self, capsys):
        code, _, err = run(
            capsys, "expand", "pane_100hz", "--hz", "100", "--interval", "0.001", "0.009"
        )
        assert code == 2
        assert "empty expansion" in err

    def test_expanded_graph_reaches_t3(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        run(
            capsys,
            "expand",
            "pane_100hz",
            "--hz",
            "100",
            "--interval",
            "0",
            "0.02",
            "--offsets",
            "1,2",
            "--bidirectional",
            "--out",
            str(out),
        )
        code, doc, _ = run_json(capsys, "analyze", str(out))
        assert code == 0
        assert doc["t_max"] == 3

    def test_profile_table_is_non_increasing(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "profile",
            "pane_100hz",
            "--hz",
            "100",
            "--chain",
            "0:0.02,0:0.01,0:0",
            "--offsets",
            "1,2",
            "--bidirectional",
        )
        assert code == 0
        values = [entry["t"] for entry in doc["entries"]]
        assert values == sorted(values, reverse=True)
        assert values[-1] == 1

    def test_audit_flow(self, capsys, tmp_path):
        tgraph = tmp_path / "t.json"
        run(
            capsys,
            "expand",
            "pane_100hz",
            "--hz",
            "100",
            "--interval",
            "0",
            "0.02",
            "--offsets",
            "1,2",
            "--bidirectional",
            "--out",
            str(tgraph),
        )
        syn = tmp_path / "s.json"
        # flat ids 1, 4, 7 are the three pane copies of module 9
        run(capsys, "simulate", str(tgraph), "--faults", "1,4,7", "--out", str(syn))
        code, doc, _ = run_json(
            capsys, "audit", str(tgraph), str(syn), "--windows", "0:0,0:0.01,0:0.02"
        )
        assert code == 0
        final = doc["windows"][-1]["nodes"]
        assert final["9"] == "known_faulty"
        assert final["4"] == "known_fault_free"

    def test_audit_vertex_level_json(self, capsys, tmp_path):
        """--vertex-level adds each window's vertex statuses in the shape of
        identify --json, which expand to the library's ``vertex_statuses``;
        without it the document is the same, less those two keys."""
        recording = localization_recording(
            capsys, tmp_path, "--offsets", "1,2", "--bidirectional"
        )
        syn = str(tmp_path / "s.json")
        run(capsys, "simulate", recording, "--faults", "0,1,2,500,1000",
            "--policy", "bernoulli:0.5", "--seed", "3", "--out", syn)
        windows = "0:0,0:0.5,0:1"
        code, doc, _ = run_json(
            capsys, "audit", recording, syn, "--windows", windows, "--vertex-level"
        )
        assert code == 1  # a window is inconsistent
        graph = load_graph_file(recording)
        report = tg.audit(
            graph,
            load_syndrome_file(syn, graph.flat_graph),
            cli._parse_chain(windows),
            include_vertices=True,
        )
        defaults = []
        for window, audited in zip(doc["windows"], report.windows, strict=True):
            listed = window.pop("vertex_statuses")
            others = window.pop("vertex_others")
            expanded = {f"{pane}:{nid}": others for pane, nid in audited.vertex_statuses}
            expanded.update(listed)
            assert expanded == {
                f"{pane}:{nid}": status.value
                for (pane, nid), status in audited.vertex_statuses.items()
            }
            assert others not in listed.values()
            defaults.append(others)
        assert defaults == ["unknown", "known_fault_free", "unknown"]
        code, plain, _ = run_json(capsys, "audit", recording, syn, "--windows", windows)
        assert (code, plain) == (1, doc)

    def test_audit_requires_temporal_file(self, capsys, tmp_path):
        syn = tmp_path / "s.json"
        syn.write_text("{}")
        code, _, err = run(
            capsys, "audit", "five_cycle", str(syn), "--windows", "0:0"
        )
        assert code == 2
        assert "temporal graph" in err


class TestAnalyzeIdentifyRoundTrip:
    def test_within_budget_simulation_identifies_uniquely(self, capsys, tmp_path):
        import random

        rng = random.Random(3)
        for name in ("five_cycle", "localization", "pane_100hz"):
            _, doc, _ = run_json(capsys, "analyze", name)
            t_max = doc["t_max"]
            graph = scenario(name).graph
            for trial in range(5):
                faults = rng.sample(graph.node_ids, rng.randint(0, t_max))
                syn = tmp_path / f"{name}_{trial}.json"
                code, _, _ = run(
                    capsys,
                    "simulate",
                    name,
                    "--faults",
                    ",".join(map(str, faults)),
                    "--policy",
                    "bernoulli:0.5",
                    "--seed",
                    str(trial),
                    "--out",
                    str(syn),
                )
                assert code == 0
                code, doc, _ = run_json(
                    capsys, "identify", name, str(syn), "--t", str(t_max)
                )
                assert code == 0
                assert doc["verdict"] == {
                    "kind": "unique",
                    "fault_set": sorted(faults),
                }


class TestExportDotAndScenarios:
    def test_export_dot_stdout(self, capsys):
        code, out, _ = run(capsys, "export-dot", "five_cycle")
        assert code == 0
        assert out.startswith("digraph D {")

    def test_export_dot_file_with_syndrome(self, capsys, tmp_path):
        syn = tmp_path / "s.json"
        main(["simulate", "five_cycle", "--faults", "1", "--out", str(syn)])
        capsys.readouterr()
        out = tmp_path / "g.dot"
        code, _, _ = run(
            capsys, "export-dot", "five_cycle", "--syndrome", str(syn), "--out", str(out)
        )
        assert code == 0
        assert "crimson" in out.read_text()

    def test_export_dot_temporal(self, capsys, tmp_path):
        tgraph = tmp_path / "t.json"
        run(
            capsys, "expand", "pane_100hz", "--hz", "100", "--interval", "0", "0.01",
            "--out", str(tgraph),
        )
        code, out, _ = run(capsys, "export-dot", str(tgraph))
        assert code == 0
        assert '"0:4" -> "1:4"' in out

    def test_scenarios_listing(self, capsys):
        code, doc, _ = run_json(capsys, "scenarios")
        assert code == 0
        names = [row["name"] for row in doc["scenarios"]]
        assert names == ["five_cycle", "localization", "pane_100hz"]

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["identify", "five_cycle"])  # missing syndrome and --t
        assert excinfo.value.code == 2

    def test_local_file_beats_scenario_name(self, capsys, tmp_path, monkeypatch):
        # a real file named like a scenario must win over the bundled one
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "five_cycle"
        path.write_text(dump_json(graph_to_dict(scenario("localization").graph)))
        code, doc, _ = run_json(capsys, "analyze", "five_cycle")
        assert code == 0
        assert doc["ceiling"] == 2  # the localization graph, not the cycle


class TestMalformedDocuments:
    """Malformed input files are input errors: exit 2 with a message."""

    @pytest.mark.parametrize(
        "document",
        [
            {"nodes": [{"label": "no id"}], "edges": []},
            {"nodes": [{"id": 1}, {"id": 2}], "edges": [[1, 2]]},
            {"nodes": [{"id": 1}, {"id": 2}], "edges": [{"tester": 1}]},
            {"nodes": [{"id": [1]}], "edges": []},
            {"nodes": [{"id": 1, "hz": [100]}], "edges": []},
            {"nodes": 5, "edges": []},
            {"nodes": [{"id": 1}, {"id": 2}], "edges": [{"tester": 1, "testee": 1}]},
            {
                "nodes": [{"id": 1}, {"id": 2}],
                "edges": [{"tester": 1, "testee": 2}, {"tester": 1, "testee": 2}],
            },
            {"nodes": [{"id": 1}, {"id": 2}], "edges": [{"tester": 1, "testee": 3}]},
        ],
    )
    def test_graph(self, capsys, tmp_path, document):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(document))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(1, 1)], "self-loop: edge (1, 1)"),
            ([(1, 2), (1, 2)], "duplicate edge: (1, 2)"),
            ([(1, 3)], "dangling endpoint: edge (1, 3) references undeclared node 3"),
        ],
    )
    def test_invalid_graph_reports_the_violation(self, capsys, tmp_path, edges, message):
        document = {
            "nodes": [{"id": 1}, {"id": 2}],
            "edges": [{"tester": a, "testee": b} for a, b in edges],
        }
        path = tmp_path / "g.json"
        path.write_text(json.dumps(document))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "recipe",
        [
            {"interval": 5, "hz": 100},
            {"interval": [0, 0.02]},
            {"interval": [0, 0.02], "hz": 100, "template": {"offsets": 3}},
            {"interval": [0, 0.02], "hz": 100, "template": 7},
            [1],
            {"interval": [0, 0.02], "hz": 100, "template": {"offsets": [1.5]}},
            {"interval": [0, 0.02], "hz": 100, "template": {"offsets": [True]}},
        ],
    )
    def test_temporal_recipe(self, capsys, tmp_path, recipe):
        document = {"base": graph_to_dict(scenario("pane_100hz").graph), "temporal": recipe}
        path = tmp_path / "t.json"
        path.write_text(json.dumps(document))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "document",
        [
            {"outcomes": [[5, 1]]},
            {"outcomes": [[5, 1, 1, 0]]},
            {"outcomes": [{"tester": 1, "testee": 2}]},
            {"outcomes": [{"tester": None, "testee": 2, "value": 0}]},
            {"outcomes": 7},
        ],
    )
    def test_syndrome(self, capsys, tmp_path, document):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(document))
        code, _, err = run(capsys, "identify", "five_cycle", str(path), "--t", "1")
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "graph, syndrome, message",
        [
            (
                {"nodes": [{"id": 1.5}], "edges": []},
                None,
                "error: node {'id': 1.5}: 'id' must be an integer\n",
            ),
            (
                {
                    "nodes": [{"id": 1}, {"id": 2}],
                    "edges": [{"tester": 1.9, "testee": 2}],
                },
                None,
                "error: edge {'tester': 1.9, 'testee': 2}: 'tester' must be an integer\n",
            ),
            (
                "five_cycle",
                {(1, 2): 0.7},
                "error: outcome for edge (1, 2) must be 0 or 1, got 0.7\n",
            ),
            (
                "five_cycle",
                {(5, 1): True},
                "error: outcome for edge (5, 1) must be 0 or 1, got True\n",
            ),
        ],
    )
    def test_numbers_that_are_not_integers(
        self, capsys, tmp_path, graph, syndrome, message
    ):
        if isinstance(graph, dict):
            path = tmp_path / "g.json"
            path.write_text(json.dumps(graph))
            graph = str(path)
        if syndrome is None:
            code, _, err = run(capsys, "analyze", graph)
        else:
            values = {pair: 0 for pair in [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]}
            values.update(syndrome)
            rows = [
                {"tester": a, "testee": b, "value": v} for (a, b), v in values.items()
            ]
            path = tmp_path / "s.json"
            path.write_text(json.dumps({"outcomes": rows}))
            code, _, err = run(capsys, "identify", graph, str(path), "--t", "1")
        assert (code, err) == (2, message)

    def test_integral_floats_read_as_integers(self, capsys, tmp_path):
        document = {
            "nodes": [{"id": 1.0}, {"id": 2}],
            "edges": [{"tester": 1, "testee": 2.0}],
        }
        path = tmp_path / "g.json"
        path.write_text(json.dumps(document))
        code, out, _ = run(capsys, "export-dot", str(path))
        assert code == 0
        assert '"1" -> "2";' in out


class TestInputsThatEscapedTheHandler:
    """Inputs that exit 2 with one error line, never with a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["profile", "five_cycle", "--hz", "1/0", "--chain", "0:1"],
            ["profile", "five_cycle", "--hz", "10", "--chain", "0:1/0"],
            ["expand", "five_cycle", "--hz", "10", "--interval", "1/0", "2"],
            ["expand", "five_cycle", "--hz", "0/0", "--interval", "0", "1"],
        ],
    )
    def test_zero_denominators(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("where", ["node hz", "recipe hz", "interval"])
    def test_zero_denominators_in_documents(self, capsys, tmp_path, where):
        base = graph_to_dict(scenario("pane_100hz").graph)
        recipe = {"interval": [0, 0.02], "hz": 100}
        if where == "node hz":
            base["nodes"][0]["hz"] = "1/0"
        elif where == "recipe hz":
            recipe["hz"] = "1/0"
        else:
            recipe["interval"] = [0, "2/0"]
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"base": base, "temporal": recipe}))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("which", ["graph", "syndrome"])
    def test_json_nested_too_deeply(self, capsys, tmp_path, which):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        if which == "graph":
            code, out, err = run(capsys, "analyze", str(path))
        else:
            code, out, err = run(capsys, "identify", "five_cycle", str(path), "--t", "1")
        assert (code, out) == (2, "")
        assert err == f"error: {path}: JSON nested too deeply to read\n"

    @pytest.mark.parametrize(
        "flags",
        [
            {"bidirectional": "no"},
            {"bidirectional": 1},
            {"bidirectional": None},
            {"identity_only": 0},
            {"identity_only": "true"},
            {"identity_only": [True]},
        ],
    )
    def test_recipe_booleans_are_strict(self, capsys, tmp_path, flags):
        template = {"offsets": [1], **flags}
        recipe = {"interval": [0, 0.02], "hz": 100, "template": template}
        base = graph_to_dict(scenario("pane_100hz").graph)
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"base": base, "temporal": recipe}))
        code, _, err = run(capsys, "analyze", str(path))
        key, value = next(iter(flags.items()))
        assert code == 2
        assert err == f"error: {key!r} must be true or false, got {value!r}\n"

    @pytest.mark.parametrize("extra", [[], ["--bidirectional"], ["--cross-module"]])
    def test_expanded_files_still_load(self, capsys, tmp_path, extra):
        path = tmp_path / "t.json"
        argv = ["expand", "pane_100hz", "--hz", "100", "--interval", "0", "0.01"]
        assert main([*argv, *extra, "--out", str(path)]) == 0
        written = json.loads(path.read_text())["temporal"]["template"]
        assert written["bidirectional"] is ("--bidirectional" in extra)
        assert written["identity_only"] is ("--cross-module" not in extra)
        capsys.readouterr()
        code, doc, _ = run_json(capsys, "analyze", str(path))
        assert code == 0 and "t_max" in doc


class TestParserReuse:
    def test_one_parser_serves_every_call_like_a_fresh_one(self, capsys, tmp_path):
        syndrome = tmp_path / "s.json"
        simulate = ["simulate", "five_cycle", "--faults", "1", "--out", str(syndrome)]
        assert main(simulate) == 0
        calls = [
            ["analyze", "five_cycle", "--json"],
            ["identify", "five_cycle", str(syndrome), "--t", "1"],
            ["no-such-command"],
            ["analyze", "localization", "--t", "2", "--json"],
            ["identify", "five_cycle", str(syndrome)],
            ["expand", "five_cycle", "--hz", "1/0", "--interval", "0", "1"],
            ["profile", "five_cycle", "--hz", "10", "--chain", "0:0.1,0:0"],
            ["analyze", "five_cycle", "--t", "x"],
            ["export-dot", "five_cycle", "--syndrome", str(syndrome)],
            ["scenarios", "--json"],
            ["analyze", "five_cycle", "--json"],
        ]

        def outputs(fresh):
            seen = []
            for argv in calls:
                if fresh:
                    cli._parser.cache_clear()
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's own usage errors
                    code = exc.code
                seen.append((code, *capsys.readouterr()))
            return seen

        capsys.readouterr()
        fresh = outputs(fresh=True)
        cli._parser.cache_clear()
        reused = outputs(fresh=False)
        assert reused == fresh
        assert cli._parser.cache_info().misses == 1
        assert {code for code, _, _ in fresh} == {0, 1, 2}


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "five_cycle", "--faults", "1", "--json"],
            ["analyze", "five_cycle", "--t", "1"],
            ["analyze", "no_such_graph.json", "--json"],
        ],
    )
    def test_exit_2_without_a_traceback(self, argv):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "diagkit.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
