"""Tests for the proposed MOT fault simulator (Procedure 1)."""

import pytest

from repro.circuits.library import s27
from repro.faults.collapse import collapse_faults
from repro.faults.model import Fault
from repro.logic.values import ONE
from repro.mot.simulator import MotConfig, ProposedSimulator

from tests.helpers import both_circuit, s27_faults, s27_patterns, toggle_circuit


def test_conventionally_detected_fault_short_circuits():
    circuit = s27()
    simulator = ProposedSimulator(circuit, s27_patterns(seed=0))
    verdict = simulator.simulate_fault(Fault(circuit.line_id("G17"), 0))
    assert verdict.status == "conv"
    assert verdict.detected


def test_toggle_fault_detected_by_mot():
    circuit = toggle_circuit()
    simulator = ProposedSimulator(circuit, [[1]] * 6)
    verdict = simulator.simulate_fault(Fault(circuit.line_id("Z"), ONE))
    assert verdict.status == "mot"
    assert verdict.detected
    # One branch closes by detection during collection; the other
    # resolves in resimulation.
    assert verdict.how in ("resim", "phase1")
    assert verdict.counters.n_det > 0


def test_both_branch_fault_detected_from_info():
    circuit = both_circuit()
    simulator = ProposedSimulator(circuit, [[1]] * 6)
    verdict = simulator.simulate_fault(Fault(circuit.line_id("Z"), ONE))
    assert verdict.status == "mot"
    assert verdict.how == "info"


def test_condition_c_drop():
    """A fault whose faulty response has no resolvable output positions
    is dropped without expansion work."""
    circuit = toggle_circuit()
    # Z stuck 0 is a redundant fault: responses identical, no X outputs.
    simulator = ProposedSimulator(circuit, [[1]] * 4)
    verdict = simulator.simulate_fault(Fault(circuit.line_id("Z"), 0))
    assert verdict.status == "dropped"
    assert not verdict.detected


def test_campaign_counts_consistent():
    circuit = s27()
    faults = s27_faults()
    campaign = ProposedSimulator(circuit, s27_patterns(24, seed=1)).run(
        faults
    )
    assert campaign.total == len(faults)
    assert campaign.total_detected == campaign.conv_detected + campaign.mot_detected
    statuses = {v.status for v in campaign.verdicts}
    assert statuses <= {"conv", "mot", "dropped", "undetected"}


def test_campaign_deterministic():
    circuit = toggle_circuit()
    faults = collapse_faults(circuit)
    a = ProposedSimulator(circuit, [[1], [0], [1], [1]]).run(faults)
    b = ProposedSimulator(circuit, [[1], [0], [1], [1]]).run(faults)
    assert [(v.status, v.how) for v in a.verdicts] == [
        (v.status, v.how) for v in b.verdicts
    ]


def test_average_counters_over_mot_faults_only():
    circuit = toggle_circuit()
    faults = collapse_faults(circuit)
    campaign = ProposedSimulator(circuit, [[1]] * 6).run(faults)
    averages = campaign.average_counters()
    mot = campaign.mot_verdicts()
    assert mot, "expected at least one MOT detection on the toggle circuit"
    assert averages["detect"] == pytest.approx(
        sum(v.counters.n_det for v in mot) / len(mot)
    )


def test_average_counters_empty_campaign():
    circuit = s27()
    campaign = ProposedSimulator(circuit, [[1, 0, 1, 1]]).run([])
    assert campaign.average_counters() == {
        "detect": 0.0,
        "conf": 0.0,
        "extra": 0.0,
    }


def test_n_states_limit_respected():
    circuit = s27()
    config = MotConfig(n_states=4)
    simulator = ProposedSimulator(
        circuit, s27_patterns(seed=2), config
    )
    for fault in s27_faults():
        verdict = simulator.simulate_fault(fault)
        assert verdict.num_sequences <= 4


def test_two_pass_mode_runs():
    circuit = toggle_circuit()
    config = MotConfig(implication_mode="two_pass")
    verdict = ProposedSimulator(circuit, [[1]] * 6, config).simulate_fault(
        Fault(circuit.line_id("Z"), ONE)
    )
    assert verdict.status == "mot"


def test_fallback_disabled_still_sound():
    circuit = toggle_circuit()
    config = MotConfig(forward_fallback=False)
    verdict = ProposedSimulator(circuit, [[1]] * 6, config).simulate_fault(
        Fault(circuit.line_id("Z"), ONE)
    )
    assert verdict.status == "mot"


@pytest.mark.parametrize("fallback", [False, True], ids=["pure", "fallback"])
def test_screen_counters_repeat_and_count_survivors(monkeypatch, fallback):
    """The mot.screen.* work counters are deterministic, every simulated
    fault lands in exactly one of conv / dropped / survived, and each
    survivor -- of the proposed screen or of the [4] fallback's
    re-screen -- is one backward collection or one fallback run."""
    from repro.circuits.registry import build_circuit
    from repro.mot.backward import BackwardCollector
    from repro.obs.metrics import scoped_metrics
    from repro.patterns.random_gen import random_patterns

    collects = []
    original = BackwardCollector.collect

    def counting(self):
        collects.append(1)
        return original(self)

    monkeypatch.setattr(BackwardCollector, "collect", counting)
    circuit = build_circuit("s344_like")
    faults = collapse_faults(circuit)[:120]
    patterns = random_patterns(circuit.num_inputs, 24, seed=3)
    config = MotConfig(forward_fallback=fallback)
    runs = []
    for _ in range(2):
        collects.clear()
        with scoped_metrics() as metrics:
            campaign = ProposedSimulator(circuit, patterns, config).run(faults)
        counters = metrics.snapshot().counters
        runs.append(counters)
        fallback_runs = counters.get("mot.fallback.runs", 0)
        assert counters["mot.screen.survived"] == len(collects) + fallback_runs
        assert counters["mot.screen.conv"] == campaign.count("conv")
        assert counters["mot.screen.dropped"] == campaign.count("dropped")
        assert (
            counters["mot.screen.conv"]
            + counters["mot.screen.dropped"]
            + counters["mot.screen.survived"]
            == len(faults) + fallback_runs
        )
        assert counters["mot.screen.gate_evals"] > 0
        assert len(collects) > 0
        assert (fallback_runs > 0) == fallback
    screen = {k: v for k, v in runs[0].items() if k.startswith("mot.screen.")}
    assert screen == {
        k: v for k, v in runs[1].items() if k.startswith("mot.screen.")
    }


def test_resim_gate_evals_repeat_exactly():
    """mot.resim.gate_evals (cone evaluations of resimulation and of the
    [4] fallback's trial gain) is a deterministic work counter."""
    from repro.circuits.registry import build_circuit
    from repro.obs.metrics import scoped_metrics
    from repro.patterns.random_gen import random_patterns

    circuit = build_circuit("s344_like")
    faults = collapse_faults(circuit)[:120]
    patterns = random_patterns(circuit.num_inputs, 24, seed=3)
    runs = []
    for _ in range(2):
        with scoped_metrics() as metrics:
            campaign = ProposedSimulator(circuit, patterns).run(faults)
        counters = metrics.snapshot().counters
        runs.append((
            counters["mot.resim.gate_evals"],
            counters.get("mot.fallback.runs", 0),
            [(v.status, v.how) for v in campaign.verdicts],
        ))
    assert runs[0][0] > 0 and runs[0][1] > 0
    assert runs[0] == runs[1]
