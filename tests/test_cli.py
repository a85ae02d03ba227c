"""Command-line interface: subcommands, exit codes, JSON emission."""

import json

import pytest

from diagkit.cli import main
from diagkit.jsonio import dump_json, graph_to_dict
from diagkit.simulator import scenario


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


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
        assert doc["witness"]["p"] == 1
        assert len(doc["witness"]["X"]) == 8

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

    def test_beyond_cap_reports_bounds(self, capsys):
        code, doc, _ = run_json(capsys, "analyze", "localization", "--exact-cap", "5")
        assert code == 0
        assert doc["bounds"] == {"lower": 1, "upper": 2}

    def test_env_var_overrides_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("DIAGKIT_EXACT_CAP", "5")
        code, doc, _ = run_json(capsys, "analyze", "localization")
        assert code == 0
        assert "bounds" in doc


class TestIdentify:
    def test_unique(self, capsys, tmp_path):
        syn = tmp_path / "s.json"
        assert main(["simulate", "five_cycle", "--faults", "1", "--out", str(syn)]) == 0
        capsys.readouterr()
        code, doc, _ = run_json(capsys, "identify", "five_cycle", str(syn), "--t", "1")
        assert code == 0
        assert doc["verdict"] == {"kind": "unique", "fault_set": [1]}
        assert doc["statuses"]["1"] == "known_faulty"

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
        assert all(row["value"] == 0 for row in doc["syndrome"]["outcomes"])

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
            {"outcomes": [[5, 1, 1]]},
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
