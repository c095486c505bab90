"""Differential suite: the divergence screen vs netlist injection.

:class:`repro.sim.divergence.DivergenceScreen` settles a fault from the
good-machine trajectory plus pin overrides, re-evaluating only the
fault's divergence cone.  Its one obligation is **value identity** with
the reference path it replaces -- :func:`repro.faults.injection.inject_fault`
followed by interpreted :func:`repro.sim.sequential.simulate_injected`:

* the same first conflicting ``(time, output)`` against the reference
  response, or no conflict;
* for an unconflicted fault, the same faulty ``states`` and ``outputs``;
* hence the same screen status (``conv`` / ``dropped`` / survivor).

Every structural fault is checked: stems (including present-state stems
that pin ``forced_ps``) and a branch on every consumer pin -- gate
inputs, flip-flop data pins and primary-output taps -- on seeded random
Moore machines, s27 and the Figure 4 circuit, against the default
reference, non-default references (the unrestricted simulator's path)
and a :class:`~repro.sim.goodcache.GoodMachineCache` trajectory.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.circuits.generators import random_moore
from repro.circuits.library import fig4, s27
from repro.faults.injection import inject_fault
from repro.faults.model import Fault
from repro.logic.values import ONE, UNKNOWN, ZERO
from repro.mot.conditions import mot_profile
from repro.mot.simulator import screen_fault
from repro.patterns.random_gen import random_patterns
from repro.sim.divergence import DivergenceScreen
from repro.sim.goodcache import GoodMachineCache
from repro.sim.sequential import (
    outputs_conflict,
    simulate_injected,
    simulate_sequence,
)


def structural_faults(circuit):
    """Stem faults on every line plus a branch fault on every pin."""
    faults = []
    for line in range(circuit.num_lines):
        for value in (ZERO, ONE):
            faults.append(Fault(line, value))
            faults.extend(
                Fault(line, value, pin) for pin in circuit.fanout_pins[line]
            )
    return faults


def _xrows(rows, width, rng):
    return [[rng.choice((ZERO, ONE, UNKNOWN)) for _ in range(width)]
            for _ in range(rows)]


def _expected(circuit, patterns, fault, reference_outputs):
    """Status, conflict and trajectory of the injection reference path."""
    faulty = simulate_injected(inject_fault(circuit, fault), patterns)
    conflict = outputs_conflict(reference_outputs, faulty.outputs)
    if conflict is not None:
        return "conv", conflict, faulty
    profile = mot_profile(faulty.states, reference_outputs, faulty.outputs)
    return ("" if profile.condition_c() else "dropped"), None, faulty


def _assert_screen_matches(circuit, patterns, good, reference_outputs=None):
    reference = good.outputs if reference_outputs is None else reference_outputs
    screen = DivergenceScreen(circuit, good, reference)
    statuses = set()
    for fault in structural_faults(circuit):
        label = fault.describe(circuit)
        status, conflict, faulty = _expected(
            circuit, patterns, fault, reference
        )
        got = screen.run(fault)
        assert got.conflict == conflict, label
        if conflict is None:
            assert got.states == faulty.states, label
            assert got.outputs == faulty.outputs, label
        else:
            assert got.states is None and got.outputs is None, label
        assert screen_fault(screen, fault)[0] == status, label
        statuses.add(status)
    return statuses


def test_structural_faults_cover_every_pin_kind():
    circuit = s27()
    faults = structural_faults(circuit)
    kinds = {fault.pin.kind for fault in faults if fault.pin is not None}
    assert kinds == {"gate", "flop", "output"}
    assert any(inject_fault(circuit, f).forced_ps for f in faults)


@pytest.mark.parametrize("build", [s27, fig4], ids=["s27", "fig4"])
@pytest.mark.parametrize("seed", range(4))
def test_library_circuits_match_injection(build, seed):
    circuit = build()
    patterns = random_patterns(circuit.num_inputs, 12, seed=seed)
    good = simulate_sequence(circuit, patterns, keep_frames=True)
    _assert_screen_matches(circuit, patterns, good)


def test_s27_reaches_every_screen_status():
    circuit = s27()
    statuses = set()
    for seed in range(4):
        patterns = random_patterns(circuit.num_inputs, 12, seed=seed)
        good = simulate_sequence(circuit, patterns, keep_frames=True)
        statuses |= _assert_screen_matches(circuit, patterns, good)
    assert statuses == {"conv", "dropped", ""}


@pytest.mark.parametrize("seed", range(3))
def test_unrestricted_references_match_injection(seed):
    """Non-default references: an expanded fault-free response (what
    the unrestricted simulator passes) and arbitrary three-valued rows,
    whose own conflicts with the good response the screen must report."""
    circuit = s27()
    rng = random.Random(seed)
    patterns = random_patterns(circuit.num_inputs, 12, seed=seed)
    good = simulate_sequence(circuit, patterns, keep_frames=True)
    initial = [rng.choice((ZERO, ONE)) for _ in range(circuit.num_flops)]
    expanded = simulate_sequence(circuit, patterns, initial_state=initial)
    _assert_screen_matches(circuit, patterns, good, expanded.outputs)
    arbitrary = _xrows(len(patterns), circuit.num_outputs, rng)
    _assert_screen_matches(circuit, patterns, good, arbitrary)


def test_good_machine_cache_trajectory_matches_injection():
    circuit = fig4()
    patterns = random_patterns(circuit.num_inputs, 10, seed=7)
    cache = GoodMachineCache.compute(circuit, patterns)
    _assert_screen_matches(circuit, patterns, cache.result)


def test_screen_requires_good_frames():
    circuit = s27()
    patterns = random_patterns(circuit.num_inputs, 4, seed=1)
    good = simulate_sequence(circuit, patterns)
    with pytest.raises(ValueError):
        DivergenceScreen(circuit, good, good.outputs)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 50_000),
    pattern_seed=st.integers(0, 500),
    length=st.integers(1, 10),
    x_patterns=st.booleans(),
    engine=st.sampled_from(["ir", "interp"]),
)
def test_property_random_machines_match_injection(
    seed, pattern_seed, length, x_patterns, engine
):
    """Hypothesis sweep: random Moore machine, binary or three-valued
    stimulus, good trajectory from either engine or the cache."""
    circuit = random_moore(seed, num_inputs=3, num_flops=3, num_gates=16)
    rng = random.Random(pattern_seed)
    if x_patterns:
        patterns = _xrows(length, circuit.num_inputs, rng)
    else:
        patterns = random_patterns(circuit.num_inputs, length, pattern_seed)
    if engine == "ir" and pattern_seed % 2:
        good = GoodMachineCache.compute(circuit, patterns).result
    else:
        good = simulate_sequence(
            circuit, patterns, keep_frames=True, engine=engine
        )
    _assert_screen_matches(circuit, patterns, good)
