"""Self-test of the benchmark (not part of the program's test suite).

Run from the root of the checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import hostspeed  # noqa: E402
import make_reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def tiny(kind, **extra):
    """A recorded s27 workload of *kind*, small enough to run in a test."""
    spec = {
        "kind": kind,
        "select": "all",
        "circuits": [{"name": "s27", "length": 16, "seed": 1}],
        **extra,
    }
    return make_reference.record(spec)


def run_once(spec, seed, tmp_path):
    keys = bench.plan(spec, seed)
    prepared, _ = bench.prepare(spec, keys, tmp_path)
    try:
        result = bench.run_pass(prepared)
    finally:
        bench.release(prepared)
    return bench.check(spec, seed, keys, [result])


def test_recorded_verdicts_pass_and_a_flipped_verdict_fails(tmp_path):
    spec = tiny("mot")
    assert run_once(spec, 3, tmp_path).correct

    reference = spec["reference"]["s27"]
    label, status, how = reference[0]
    reference[0] = [label, "undetected" if status == "conv" else "conv", how]
    outcome = run_once(spec, 3, tmp_path)
    assert not outcome.digest_ok
    assert outcome.failed == 1
    assert not outcome.correct


def test_a_stale_shipped_digest_fails_the_run(tmp_path):
    spec = tiny("mot")
    spec["digests"]["3"] = "0" * 64
    outcome = run_once(spec, 3, tmp_path)
    assert not outcome.digest_ok and outcome.failed > 0


@pytest.mark.parametrize(
    "spec", [tiny("mot"), tiny("fsim"), tiny("campaign", workers=2)],
    ids=["mot", "fsim", "campaign"],
)
def test_traced_run_restores_every_wrapped_function(spec, tmp_path):
    sites = [
        site
        for table in (spans.SPANS, spans.COUNTS)
        for _name, names in table
        for site in names
    ]
    before = {}
    for site in sites:
        owner, attr = spans.resolve(site)
        before[site] = vars(owner)[attr]

    outcome, metrics = run.traced(spec, 1, 60.0, tmp_path)

    assert outcome.correct
    assert metrics["trace.sites_missing"]["value"] == 0
    assert metrics["trace.spans"]["value"] > 0
    for site in sites:
        owner, attr = spans.resolve(site)
        assert vars(owner)[attr] is before[site], site
    self_s = sum(
        metrics[f"{name}_s"]["value"] for name, _sites in spans.SPANS
    )
    assert self_s + metrics["unattributed_s"]["value"] == pytest.approx(
        metrics["trace.wall_s"]["value"]
    )


def test_spans_of_one_fault_share_its_id(tmp_path):
    spec = tiny("mot")
    keys = bench.plan(spec, 1)
    with spans.Tracer() as tracer:
        prepared, _ = bench.prepare(spec, keys, tmp_path, tracer)
        bench.run_pass(prepared)
    for name, _start, _end, parent, fault in tracer.spans:
        if parent >= 0:
            assert fault == tracer.spans[parent][4], name
    faults = [span[4] for span in tracer.spans if span[0] == "mot.procedure"]
    assert faults == list(range(len(keys)))


def test_fallback_children_are_charged_to_the_fallback():
    tracer = spans.Tracer()
    tracer.spans = [
        ["mot.procedure", 0.0, 10.0, -1, 0],
        ["mot.fallback", 1.0, 6.0, 0, 0],
        ["faults.inject", 2.0, 3.0, 1, 0],
        ["mot.resim", 3.0, 5.0, 1, 0],
        ["faults.inject", 7.0, 8.0, 0, 0],
        ["circuits.build", 11.0, 12.0, -1, None],
    ]
    self_s, covered = tracer.self_times()
    assert self_s == {
        "mot.procedure": 4.0,
        "mot.fallback": 5.0,
        "faults.inject": 1.0,
        "circuits.build": 1.0,
    }
    assert covered == 11.0


def test_host_speed_rescales_to_the_nominal_loop_time():
    speed = hostspeed.HostSpeed()
    nominal = hostspeed.NOMINAL_LOOP_S
    speed.starts = [0.0, 1.0, 2.0]
    speed.loop_s = [2 * nominal, 2 * nominal, nominal]
    # A second at half speed does half a nominal second of work.
    assert speed.scaled(0.0, 1.0) == pytest.approx(0.5)
    assert speed.scaled(1.9, 2.1) == pytest.approx(0.2)
