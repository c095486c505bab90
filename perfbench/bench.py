"""Workloads of the MOT campaign benchmark.

Every workload is pinned in ``data/workloads.json``: the circuits, the
sequence length and pattern seed of each, and the reference verdict of
every fault it simulates, recorded from the program.  The benchmark's
``--seed`` only orders those faults, so the same seed always gives the
same inputs and the program receives nothing but them.

A workload is run as a list of *requests* -- calls into the program that
each return the verdicts of one or more faults.  A fault's latency is
the duration of the request that returned its verdict:

* ``mot``: one ``ProposedSimulator.simulate_fault`` call per fault;
* ``fsim``: one ``run_parallel_conventional(engine="ir")`` call per
  circuit, over that circuit's whole uncollapsed fault universe;
* ``campaign``: one ``run_campaign`` call with worker processes and a
  checkpoint journal.

Every verdict is compared with the reference.  A verdict that differs,
or that ended ``errored``/``aborted``, counts as failed; the sha256 of
each complete pass's ``(circuit, fault, status, how)`` projection must
equal the digest the reference gives for the same order (and, for the
seeds the data ships, the digest recorded there).
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
DATA = HERE / "data" / "workloads.json"

#: Set-ups before the first pass (later passes set up once each);
#: ``setup_s`` is the median of all set-ups of a run.
FIRST_SETUPS = 5

FAILED_STATUSES = ("errored", "aborted")
#: The verdict statuses that count as a detection (fault coverage).
DETECTED_STATUSES = ("conv", "mot", "detected")
#: Statuses settled by the conventional screen or condition (C).
SCREEN_STATUSES = ("conv", "dropped")

Row = Tuple[str, str, str, str]  # (circuit, fault label, status, how)
Key = Tuple[str, str]  # (circuit, fault label)


def load_workloads(path: Path = DATA) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        workloads: Dict[str, Any] = json.load(handle)
    return workloads


def digest(rows: Sequence[Row]) -> str:
    """sha256 of the per-fault ``(circuit, fault, status, how)`` projection."""
    text = "".join("\t".join(row) + "\n" for row in rows)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_table(spec: Dict[str, Any]) -> Dict[Key, Tuple[str, str]]:
    return {
        (circuit, label): (status, how)
        for circuit, rows in spec["reference"].items()
        for label, status, how in rows
    }


def plan(spec: Dict[str, Any], seed: int) -> List[Key]:
    """The faults one pass simulates, in the order the seed gives.

    The ``campaign`` kind keeps the program's own fault order, which the
    campaign spec defines.
    """
    keys = [
        (circuit, label)
        for circuit, rows in spec["reference"].items()
        for label, _status, _how in rows
    ]
    if spec["kind"] != "campaign":
        random.Random(seed).shuffle(keys)
    return keys


def expected_digest(spec: Dict[str, Any], keys: Sequence[Key]) -> str:
    table = reference_table(spec)
    return digest([key + table[key] for key in keys])


# ---------------------------------------------------------------- set-up
@dataclass
class Prepared:
    """One set-up of a workload: its requests, ready to run."""

    requests: List[Callable[[], List[Row]]]
    #: Bytes of checkpoint journal the last campaign request wrote.
    journal_bytes: int = 0
    #: Worker processes of a campaign request (0 for in-process kinds).
    workers: int = 0
    cleanup: List[Callable[[], None]] = field(default_factory=list)


def _faults_by_label(circuit: Any, faults: Sequence[Any]) -> Dict[str, Any]:
    return {fault.describe(circuit): fault for fault in faults}


def _mot_verdict(simulator: Any, fault: Any) -> Tuple[str, str]:
    try:
        verdict = simulator.simulate_fault(fault)
    except Exception as exc:  # a failed verdict; the run goes on
        traceback.print_exc()
        return "errored", type(exc).__name__
    return verdict.status, verdict.how


def setup_mot(spec: Dict[str, Any]) -> Dict[str, Tuple[Any, Any]]:
    """Build, collapse, generate patterns, construct the simulators."""
    from repro.analysis import collapse
    from repro.circuits import registry
    from repro.mot.simulator import ProposedSimulator
    from repro.patterns.random_gen import random_patterns

    built = {}
    for entry in spec["circuits"]:
        circuit = registry.build_circuit(entry["name"])
        faults = collapse.fault_classes(circuit).representatives()
        patterns = random_patterns(
            circuit.num_inputs, entry["length"], entry["seed"]
        )
        simulator = ProposedSimulator(circuit, patterns)
        built[entry["name"]] = (simulator, faults)
    return built


def requests_mot(
    built: Dict[str, Tuple[Any, Any]], keys: Sequence[Key], tracer: Any
) -> Prepared:
    labels = {
        name: _faults_by_label(simulator.circuit, faults)
        for name, (simulator, faults) in built.items()
    }

    def request(fault_id: int, name: str, label: str) -> Callable[[], List[Row]]:
        simulator = built[name][0]
        fault = labels[name].get(label)

        def run() -> List[Row]:
            if fault is None:
                return [(name, label, "errored", "missing")]
            if tracer is not None:
                tracer.fault = fault_id
            return [(name, label) + _mot_verdict(simulator, fault)]

        return run

    return Prepared(
        [request(i, name, label) for i, (name, label) in enumerate(keys)]
    )


def setup_fsim(spec: Dict[str, Any]) -> Dict[str, Tuple[Any, Any, Any]]:
    """Build, enumerate the uncollapsed universe, compile the IR."""
    from repro.circuits import registry
    from repro.faults.sites import all_faults
    from repro.patterns.random_gen import random_patterns
    from repro.sim import ir

    built = {}
    for entry in spec["circuits"]:
        circuit = registry.build_circuit(entry["name"])
        faults = all_faults(circuit)
        patterns = random_patterns(
            circuit.num_inputs, entry["length"], entry["seed"]
        )
        ir.compile_circuit(circuit)
        built[entry["name"]] = (circuit, faults, patterns)
    return built


def requests_fsim(
    built: Dict[str, Tuple[Any, Any, Any]], keys: Sequence[Key], tracer: Any
) -> Prepared:
    from repro.fsim import parallel

    def request(
        batch_id: int, name: str, labels: List[str]
    ) -> Callable[[], List[Row]]:
        circuit, faults, patterns = built[name]
        by_label = _faults_by_label(circuit, faults)
        chosen = [by_label.get(label) for label in labels]
        present = [fault for fault in chosen if fault is not None]

        def run() -> List[Row]:
            if tracer is not None:
                tracer.fault = batch_id
            campaign = parallel.run_parallel_conventional(
                circuit, present, patterns, engine="ir"
            )
            detected = iter(v.detected for v in campaign.verdicts)
            return [
                (name, label, "errored", "missing") if fault is None
                else (name, label,
                      "detected" if next(detected) else "undetected", "")
                for label, fault in zip(labels, chosen)
            ]

        return run

    grouped: Dict[str, List[str]] = {}
    for name, label in keys:
        grouped.setdefault(name, []).append(label)
    return Prepared(
        [request(i, name, labels)
         for i, (name, labels) in enumerate(grouped.items())]
    )


def setup_campaign(spec: Dict[str, Any]) -> Dict[str, Any]:
    """The set-up ``run_campaign`` does before fanning out: build,
    collapse, generate patterns, good-machine cache, simulator."""
    from repro.analysis import collapse
    from repro.circuits import registry
    from repro.mot.simulator import ProposedSimulator
    from repro.patterns.random_gen import random_patterns
    from repro.sim.goodcache import GoodMachineCache

    built = {}
    for entry in spec["circuits"]:
        circuit = registry.build_circuit(entry["name"])
        collapse.fault_classes(circuit).representatives()
        patterns = random_patterns(
            circuit.num_inputs, entry["length"], entry["seed"]
        )
        cache = GoodMachineCache.compute(circuit, patterns)
        built[entry["name"]] = ProposedSimulator(
            circuit, patterns, good_cache=cache
        )
    return built


def requests_campaign(
    spec: Dict[str, Any], tmpdir: Path, tracer: Any
) -> Prepared:
    from repro.runner import campaign as runner

    prepared = Prepared([], workers=spec["workers"])
    workdir = Path(tempfile.mkdtemp(prefix="campaign-", dir=tmpdir))
    prepared.cleanup.append(lambda: shutil.rmtree(workdir, ignore_errors=True))

    def request(campaign_id: int, entry: Dict[str, Any]) -> Callable[[], List[Row]]:
        def run() -> List[Row]:
            if tracer is not None:
                tracer.fault = campaign_id
            journal = workdir / "journal.jsonl"
            result = runner.run_campaign(
                runner.CampaignSpec(
                    circuit=entry["name"],
                    length=entry["length"],
                    seed=entry["seed"],
                    workers=spec["workers"],
                    checkpoint_path=str(journal),
                )
            )
            prepared.journal_bytes = sum(
                path.stat().st_size for path in workdir.iterdir()
            )
            for path in workdir.iterdir():
                path.unlink()
            return [
                (entry["name"], v.fault.describe(result.circuit),
                 v.status, v.how)
                for v in result.campaign.verdicts
            ]

        return run

    prepared.requests = [
        request(i, entry) for i, entry in enumerate(spec["circuits"])
    ]
    return prepared


def prepare(
    spec: Dict[str, Any],
    keys: Sequence[Key],
    tmpdir: Path,
    tracer: Any = None,
) -> Tuple[Prepared, Tuple[float, float]]:
    """Set the workload up once; returns it with when the set-up ran.

    Only the program's own set-up is timed; turning it into requests
    (naming every fault) is the benchmark's work.
    """
    kind = spec["kind"]
    started = time.perf_counter()
    if kind == "mot":
        built: Any = setup_mot(spec)
    elif kind == "fsim":
        built = setup_fsim(spec)
    elif kind == "campaign":
        built = setup_campaign(spec)
    else:
        raise ValueError(f"unknown workload kind {kind!r}")
    setup = (started, time.perf_counter())
    if kind == "mot":
        return requests_mot(built, keys, tracer), setup
    if kind == "fsim":
        return requests_fsim(built, keys, tracer), setup
    return requests_campaign(spec, tmpdir, tracer), setup


# ------------------------------------------------------------------ runs
Interval = Tuple[float, float]  # (begin, end), perf_counter seconds


@dataclass
class Pass:
    """The verdicts one pass over the requests returned, and its timings."""

    rows: List[Row] = field(default_factory=list)
    #: When each request ran, in request order.
    requests: List[Interval] = field(default_factory=list)
    #: Faults each request returned a verdict for.
    request_faults: List[int] = field(default_factory=list)
    #: False when the run's time ran out before the last request.
    complete: bool = True


def run_pass(prepared: Prepared, deadline: Optional[float] = None) -> Pass:
    """Run the requests of *prepared* in order, stopping at *deadline*."""
    result = Pass()
    for request in prepared.requests:
        begin = time.perf_counter()
        if deadline is not None and begin >= deadline:
            result.complete = False
            break
        rows = request()
        result.requests.append((begin, time.perf_counter()))
        result.request_faults.append(len(rows))
        result.rows.extend(rows)
    return result


@dataclass
class Run:
    """Passes of one run, each after a fresh set-up."""

    passes: List[Pass] = field(default_factory=list)
    setups: List[Interval] = field(default_factory=list)


def run_for(
    spec: Dict[str, Any], keys: Sequence[Key], tmpdir: Path, seconds: float
) -> Run:
    """Passes until *seconds* have passed; the first always completes."""
    run = Run()
    deadline = time.perf_counter() + seconds
    while not run.passes or time.perf_counter() < deadline:
        for left in reversed(range(1 if run.passes else FIRST_SETUPS)):
            prepared, setup = prepare(spec, keys, tmpdir)
            run.setups.append(setup)
            if left:
                release(prepared)
        try:
            run.passes.append(
                run_pass(prepared, deadline if run.passes else None)
            )
        finally:
            release(prepared)
    return run


def release(prepared: Prepared) -> None:
    for cleanup in prepared.cleanup:
        cleanup()


@dataclass
class Check:
    """Outcome of comparing a run's verdicts with the reference."""

    attempted: int
    failed: int
    digest_ok: bool

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.digest_ok


def check(
    spec: Dict[str, Any], seed: int, keys: Sequence[Key], passes: Sequence[Pass]
) -> Check:
    """Compare every verdict with the reference; check the pass digest.

    Every verdict is checked, and the digest of every complete pass.  A
    failed digest with no failed verdict (a fault missing from the pass,
    or faults in another order) fails every fault of that pass.
    """
    table = reference_table(spec)
    want = expected_digest(spec, keys)
    shipped = spec.get("digests", {}).get(str(seed))
    attempted = failed = 0
    digest_ok = True
    for result in passes:
        wrong = sum(
            1
            for row in result.rows
            if row[2] in FAILED_STATUSES or table.get(row[:2]) != row[2:]
        )
        if result.complete and (
            digest(result.rows) != want or shipped not in (None, want)
        ):
            digest_ok = False
            wrong = wrong or len(result.rows) or 1
        attempted += len(result.rows)
        failed += wrong
    return Check(attempted, failed, digest_ok)


def detected(rows: Sequence[Row]) -> int:
    return sum(1 for row in rows if row[2] in DETECTED_STATUSES)


def percentile(values: Sequence[float], q: int) -> float:
    """The *q*-th percentile (``statistics.quantiles``, exclusive)."""
    return statistics.quantiles(values, n=100)[q - 1]
