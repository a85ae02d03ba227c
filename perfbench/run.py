"""Benchmark for diagkit: end-to-end metrics per workload, or a traced run.

Run from the repository root::

    python3 perfbench/run.py --workload tmax-dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` is the timed run.  It sets up several times (fresh
``import diagkit``, bundled scenarios, seeded inputs) and reports the median
as ``setup_s``.  It then passes over the seed's operation set again and
again until it has done one full pass and ``--seconds`` have gone, takes
each input's median latency over its repeats, and reports throughput and
latency percentiles over those per-input medians.  A short burst of host
load then moves one repeat of an input, not the figure.  ``--trace 1``
starts that timed run as a child process, then runs one untimed pass of
the same inputs with every public function wrapped, and reports the
per-layer metrics.  Both runs must produce the same output digest.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
# Set up at least SETUP_REPEATS times and until SETUP_SECONDS have been spent,
# so that workloads with a short set-up still report a steady median.
SETUP_REPEATS = 5
SETUP_SECONDS = 3.0
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def ensure_source() -> None:
    """Put the checkout's ``src`` first on the path, or exit if it is absent."""
    src = ROOT / "src"
    if not (src / "diagkit" / "__init__.py").is_file():
        sys.exit(f"error: no diagkit package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def set_up(name, seed, rounds, workdir, tracer=None):
    """Import diagkit afresh, load the scenarios and generate the inputs.

    The inputs are then moved out of the garbage collector's reach, so that
    collections during operations scan what the operations allocate, not
    the benchmark's own input set.
    """
    import workloads

    gc.unfreeze()
    for module in [m for m in sys.modules if m == "diagkit" or m.startswith("diagkit.")]:
        del sys.modules[module]
    dk = workloads.import_library()
    if tracer is not None:
        tracer.install()
    build, _ = workloads.WORKLOADS[name]
    with tracer.root("setup", "setup") if tracer is not None else nullcontext():
        workloads.load_scenarios(dk)
        work = build(dk, seed, rounds, workdir)
    gc.collect()
    gc.freeze()
    return work


def _attempt(work, item, tracer):
    """One operation, timed, then checked outside the timing."""
    scope = tracer.root("op", "op") if tracer is not None else nullcontext()
    start = time.perf_counter()
    try:
        with scope:
            result = work.run(item)
    except Exception:
        elapsed = time.perf_counter() - start
        traceback.print_exc()
        return elapsed, False, "raised"
    elapsed = time.perf_counter() - start
    try:
        ok, summary = work.check(item, result)
    except Exception:
        traceback.print_exc()
        return elapsed, False, "check raised"
    return elapsed, ok, summary


def drive(work, min_seconds, tracer=None):
    """Pass over the operation set until one full pass is done and
    ``min_seconds`` of wall time have gone, then stop, even mid-pass.

    Every later pass repeats the first pass's inputs in the same order, so
    the repeats of one input lie seconds apart; their outputs must repeat
    exactly.  Returns each input's latencies, the number of operations
    attempted and failed, and the digest of the first pass's outputs.
    """
    items = [item for batch in work.rounds for item in batch]
    samples: list[list[float]] = [[] for _ in items]
    summaries: list = []
    attempted = failed = 0
    deadline = time.perf_counter() + min_seconds
    while attempted < len(items) or time.perf_counter() < deadline:
        position = attempted % len(items)
        elapsed, ok, summary = _attempt(work, items[position], tracer)
        samples[position].append(elapsed)
        if attempted < len(items):
            summaries.append(summary)
        elif summary != summaries[position]:
            print(f"error: output changed on repeat of operation {position}",
                  file=sys.stderr)
            ok = False
        attempted += 1
        failed += not ok
    digest = hashlib.sha256(json.dumps(summaries).encode()).hexdigest()[:16]
    return samples, attempted, failed, digest


def timed_run(name, seed, seconds, rounds, workdir):
    setups: list[float] = []
    work = None
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        work = None  # release the previous inputs before making new ones
        start = time.perf_counter()
        work = set_up(name, seed, rounds, workdir)
        setups.append(time.perf_counter() - start)
    samples, attempted, failed, digest = drive(work, seconds)
    typical = [statistics.median(times) for times in samples]
    p90 = statistics.quantiles(typical, n=10)[8]
    metrics = {
        "ops_per_s": len(typical) / sum(typical),
        "latency_p50_ms": statistics.median(typical) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "success_ratio": (attempted - failed) / attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    beyond = [times for x, times in zip(typical, samples) if x > p90]
    print(f"{name} seed {seed}: {attempted} operations, {attempted / len(typical):.1f} "
          f"passes over {len(typical)} inputs, {len(beyond)} inputs "
          f"({sum(map(len, beyond))} samples) beyond p90, "
          f"failed_ratio {failed / attempted}, "
          f"{len(setups)} set-ups, median {metrics['setup_s']:.3f} s")
    return attempted, failed, digest, metrics


def _command(name, seed, seconds, trace, rounds):
    """This script's command line for one workload, to run as a child."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return command if rounds is None else command + ["--rounds", str(rounds)]


def traced_run(name, seed, seconds, rounds, workdir):
    import tracing

    child = subprocess.run(_command(name, seed, seconds, 0, rounds),
                           capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(child.stderr)
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        sys.exit(f"error: the untraced run exited with code {child.returncode}")
    untraced = json.loads(lines[-1])
    untraced_digest = next(
        line.split()[1] for line in lines if line.startswith("digest ")
    )
    tracer = tracing.Tracer()
    try:
        work = set_up(name, seed, rounds, workdir, tracer)
        samples, attempted, failed, digest = drive(work, 0.0, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    traced_rate = len(samples) / sum(times[0] for times in samples)
    untraced_rate = untraced["metrics"]["ops_per_s"]["value"]
    metrics["trace.overhead_pct"] = (untraced_rate / traced_rate - 1) * 100
    spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
    tracer.write(spans_path)
    print(f"{name} seed {seed}: traced {attempted} operations, "
          f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    for prefix, *_ in tracing.TARGETS:
        share = metrics[f"{prefix}.self_s"] / metrics["trace.op_s"]
        if share >= 0.005:
            print(f"  {prefix:<28} {share:7.1%} of operation time (self)")
    if digest != untraced_digest:
        print(f"error: traced digest {digest} differs from untraced "
              f"{untraced_digest}", file=sys.stderr)
        failed += 1
    attempted += untraced["attempted"]
    failed += untraced["failed"]
    return attempted, failed, digest, metrics, tracing.metric_units()


def run_all(args) -> int:
    """Run every workload in turn, each in its own process."""
    import workloads

    metrics = {}
    attempted = failed = 0
    for name in workloads.WORKLOADS:
        command = _command(name, args.seed, args.seconds, args.trace, args.rounds)
        child = subprocess.run(command, capture_output=True, text=True)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            sys.exit(f"error: workload {name} exited with code {child.returncode}")
        result = json.loads(child.stdout.splitlines()[-1])
        print(f"{name}:")
        for key, metric in result["metrics"].items():
            print(f"  {key:<34} {metric['value']:>14.6g} {metric['unit']}")
            metrics[f"{name}.{key}"] = metric
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="size of the operation set in rounds (default: "
                             "the workload's own; small values for smoke checks)")
    args = parser.parse_args(argv)
    ensure_source()
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    rounds = args.rounds or workloads.WORKLOADS[args.workload][1]
    workdir = OUT / f"work-{args.workload}-{args.seed}-{time.time_ns()}"
    try:
        if args.trace:
            attempted, failed, digest, values, units = traced_run(
                args.workload, args.seed, args.seconds, rounds, workdir)
        else:
            attempted, failed, digest, values = timed_run(
                args.workload, args.seed, args.seconds, rounds, workdir)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"digest {digest}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
