"""Smoke check of the benchmark itself, on a handful of operations.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

import run
import tracing
import workloads

RUN = Path(run.__file__).resolve()


def _bench(*args: str) -> tuple[list[str], dict]:
    done = subprocess.run(
        [sys.executable, str(RUN), "--seed", "3", "--seconds", "0", *args],
        capture_output=True, text=True, timeout=170, cwd=RUN.parent.parent,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return lines, json.loads(lines[-1])


def _units(result: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def _share(metrics: dict, *prefixes: str) -> float:
    own = sum(metrics[f"{prefix}.self_s"]["value"] for prefix in prefixes)
    return own / metrics["trace.op_s"]["value"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_timed_run_prints_every_end_to_end_metric(name):
    lines, result = _bench("--workload", name, "--trace", "0", "--rounds", "1")
    assert _units(result) == run.END_TO_END
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert "failed_ratio 0.0," in lines[0]
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_runs_repeat_exactly_and_show_the_dominant_layers():
    results = {}
    for name in workloads.WORKLOADS:
        lines, result = _bench("--workload", name, "--trace", "1", "--rounds", "2")
        # The traced run fails itself when its digest differs from the
        # untraced child's.
        assert result["correct"] and result["failed"] == 0, lines
        assert _units(result) == tracing.metric_units()
        results[name] = result["metrics"]
    assert _share(results["tmax-dense"], "diagnosability.is_t") >= 0.9
    assert _share(
        results["sweep-small"], "diagnosability.oracle", "identification.referee"
    ) >= 0.8
    covered = _share(
        results["recording-cli"], "jsonio.load_graph", "jsonio.load_syndrome",
        "temporal.expand", "temporal.flatten", "identification.node_status",
        "graph.build", "cli.main",
    )
    assert covered >= 0.95

    lines, again = _bench("--workload", "sweep-small", "--trace", "1", "--rounds", "2")
    exact = [key for key, unit in tracing.metric_units().items()
             if unit in ("count", "B") or key.endswith("_ratio")]
    assert {key: again["metrics"][key]["value"] for key in exact} == {
        key: results["sweep-small"][key]["value"] for key in exact
    }


def _traced_objects() -> list[str]:
    found = []
    for key, module in list(sys.modules.items()):
        if key != "diagkit" and not key.startswith("diagkit."):
            continue
        for name, value in vars(module).items():
            if "Tracer._wrap" in getattr(value, "__qualname__", ""):
                found.append(f"{key}.{name}")
    graph = sys.modules["diagkit.graph"].DiagnosticGraph.__dict__["build"]
    flat = sys.modules["diagkit.temporal"].TemporalGraph.__dict__["flat_graph"]
    assert isinstance(graph, classmethod) and isinstance(flat, cached_property)
    for label, member in (("DiagnosticGraph.build", graph.__func__),
                          ("TemporalGraph.flat_graph", flat.func)):
        if "Tracer._wrap" in member.__qualname__:
            found.append(label)
    return found


def test_traced_run_leaves_no_wrapper_installed():
    run.ensure_source()
    tracer = tracing.Tracer()
    workdir = run.OUT / "smoke-work"
    try:
        work = run.set_up("recording-cli", 5, 1, workdir, tracer)
        installed = _traced_objects()
        run.drive(work, 0.0, tracer)
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    for name in ("diagkit.jsonio.expand", "diagkit.temporal.max_diagnosability",
                 "diagkit.max_diagnosability", "diagkit.cli.main",
                 "DiagnosticGraph.build", "TemporalGraph.flat_graph"):
        assert name in installed
    assert tracer.counts["temporal.vertices"] > 0
    assert _traced_objects() == []
