"""MOT campaign benchmark: one workload per invocation.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload mot_screen --seed 1 --seconds 20 --trace 0

``--trace 0`` runs passes over the workload's requests for ``--seconds``
seconds with tracing off -- the first pass always completes -- and
reports the end-to-end metrics.  Each pass follows a fresh set-up (the
first ``FIRST_SETUPS`` of them; ``setup_s`` is the median of all).
Every time is corrected for the host's momentary speed
(:mod:`hostspeed`).  ``--trace 1`` runs requests with tracing off for at
most ``--seconds``, then one set-up and one whole pass under
:class:`spans.Tracer` and a recording metrics registry, and reports the
per-layer metrics, including the tracing overhead on the requests both
ran.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The program under test is imported from ``src/`` of the checkout; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import spans  # noqa: E402
from hostspeed import HostSpeed, pin_to_one_cpu  # noqa: E402

Metrics = Dict[str, Dict[str, Any]]


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def faults_per_s(passes: Sequence[bench.Pass], speed: HostSpeed) -> float:
    """Faults over the host-speed-corrected seconds of their requests."""
    seconds = sum(
        speed.scaled(*interval) for p in passes for interval in p.requests
    )
    return sum(sum(p.request_faults) for p in passes) / seconds


def end_to_end(
    spec: Dict[str, Any], seed: int, seconds: float, tmpdir: Path
) -> Tuple[bench.Check, Metrics]:
    keys = bench.plan(spec, seed)
    with HostSpeed() as speed:
        run = bench.run_for(spec, keys, tmpdir, seconds)
    outcome = bench.check(spec, seed, keys, run.passes)
    fault_ms = [
        speed.scaled(*interval) * 1000.0
        for p in run.passes
        for interval, count in zip(p.requests, p.request_faults)
        for _ in range(count)
    ]
    setup_s = [speed.scaled(*interval) for interval in run.setups]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return outcome, {
        "faults_per_s": _metric(faults_per_s(run.passes, speed), "1/s"),
        "fault_ms_p50": _metric(bench.percentile(fault_ms, 50), "ms"),
        "fault_ms_p90": _metric(bench.percentile(fault_ms, 90), "ms"),
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "peak_rss_mb": _metric(rss_kb / 1024.0, "MB"),
        "detected_faults": _metric(
            bench.detected(run.passes[0].rows), "count"),
    }


def traced(
    spec: Dict[str, Any], seed: int, seconds: float, tmpdir: Path
) -> Tuple[bench.Check, Metrics]:
    from repro.obs.metrics import RecordingMetrics, set_metrics

    keys = bench.plan(spec, seed)
    tracer = spans.Tracer()
    registry = RecordingMetrics()
    with HostSpeed() as speed:
        prepared, _ = bench.prepare(spec, keys, tmpdir)
        try:
            off = bench.run_pass(prepared, time.perf_counter() + seconds)
        finally:
            bench.release(prepared)
        previous = set_metrics(registry)
        try:
            with tracer:
                started = time.perf_counter()
                prepared, _ = bench.prepare(spec, keys, tmpdir, tracer)
                try:
                    on = bench.run_pass(prepared)
                finally:
                    wall = time.perf_counter() - started
                    bench.release(prepared)
        finally:
            set_metrics(previous)
    outcome = bench.check(spec, seed, keys, [off, on])
    metrics = layer_metrics(tracer, registry.snapshot(), prepared, on, wall)
    # The same requests with tracing off and on.
    done = len(off.requests)
    on_head = bench.Pass(
        requests=on.requests[:done], request_faults=on.request_faults[:done]
    )
    off_rate, on_rate = faults_per_s([off], speed), faults_per_s([on_head], speed)
    metrics.update({
        "trace.faults_per_s_off": _metric(off_rate, "1/s"),
        "trace.faults_per_s_on": _metric(on_rate, "1/s"),
        "trace.overhead_frac": _metric(off_rate / on_rate - 1.0, "ratio"),
    })
    return outcome, metrics


def layer_metrics(
    tracer: spans.Tracer,
    snapshot: Any,
    prepared: bench.Prepared,
    on: bench.Pass,
    wall: float,
) -> Metrics:
    """Per-layer metrics of one traced set-up and pass (raw host time)."""
    self_s, covered = tracer.self_times()
    counters = snapshot.counters

    def count(*names: str) -> int:
        return sum(counters.get(name, 0) for name in names)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    rows = on.rows
    probes = count("mot.backward.conflict", "mot.backward.detection",
                   "mot.backward.no_info")
    resim_calls = count("mot.resim.detected", "mot.resim.infeasible",
                        "mot.resim.unresolved")
    expansions = count("mot.expansion.runs")
    fallback_runs = count("mot.fallback.runs")
    fault_ms = snapshot.histograms.get("campaign.fault_ms", {})
    fault_s_sum = fault_ms.get("sum", 0.0) / 1000.0
    runner_wall = sum(end - begin for begin, end in on.requests) \
        if prepared.workers else 0.0
    metrics: Metrics = {
        f"{layer}_s": _metric(self_s.get(layer, 0.0), "s")
        for layer, _sites in spans.SPANS
    }
    metrics.update({
        "faults.inject.calls": _metric(tracer.calls("faults.inject"), "count"),
        "sim.frame.evals": _metric(tracer.counts["sim.frame.evals"], "count"),
        "mot.screen_frac": _metric(ratio(
            sum(1 for row in rows if row[2] in bench.SCREEN_STATUSES),
            len(rows)), "ratio"),
        "mot.backward.pairs": _metric(probes // 2, "count"),
        "mot.implication.runs": _metric(
            count("mot.implication.runs"), "count"),
        "mot.expansion.sequences": _metric(snapshot.histograms.get(
            "mot.expansion.sequences", {}).get("sum", 0.0), "count"),
        "mot.expansion.ceiling_frac": _metric(
            ratio(count("mot.expansion.ceiling"), expansions), "ratio"),
        "mot.resim.calls": _metric(resim_calls, "count"),
        "mot.resim.resolved_frac": _metric(ratio(
            resim_calls - count("mot.resim.unresolved"), resim_calls),
            "ratio"),
        "mot.fallback.runs": _metric(fallback_runs, "count"),
        "mot.fallback.useful_frac": _metric(ratio(
            sum(1 for row in rows if row[3] == "fallback"), fallback_runs),
            "ratio"),
        "fsim.batches": _metric(count("fsim.parallel.batches"), "count"),
        "runner.fault_s_sum": _metric(fault_s_sum, "s"),
        "runner.parallel_efficiency": _metric(ratio(
            fault_s_sum, prepared.workers * runner_wall), "ratio"),
        "runner.journal_bytes": _metric(prepared.journal_bytes, "bytes"),
        "unattributed_s": _metric(wall - covered, "s"),
        "trace.wall_s": _metric(wall, "s"),
        "trace.spans": _metric(len(tracer.spans), "count"),
        "trace.sites_missing": _metric(len(tracer.missing), "count"),
    })
    return metrics


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = bench.load_workloads()
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(sorted(workloads))}", file=sys.stderr)
        return 2
    spec = workloads[args.workload]
    if spec["kind"] != "campaign":  # its worker processes need both CPUs
        pin_to_one_cpu()
    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    try:
        if args.trace:
            outcome, metrics = traced(spec, args.seed, args.seconds, tmpdir)
        else:
            outcome, metrics = end_to_end(
                spec, args.seed, args.seconds, tmpdir
            )
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
