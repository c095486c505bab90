"""Cross-engine differential suite: the compiled IR kernel vs the interpreters.

The compiled two-plane kernel (:mod:`repro.sim.ir` /
:mod:`repro.sim.kernel`) replaces the per-gate object-graph interpreter
on every hot path, so its one non-negotiable property is **bit
identity**: for any circuit and any three-valued stimulus, every engine
must agree line-for-line and verdict-for-verdict.  This suite drives
seeded random Moore machines and random 3-valued patterns through

* :func:`repro.sim.frame.eval_frame` vs the width-1 kernel and every
  slot of a packed PPSFP evaluation (int and numpy backends),
* :func:`repro.sim.sequential.simulate_sequence` vs the IR sequential
  path, including X initial states, ``forced_ps`` pinning, per-frame
  value capture and flop state carry-over across frames,
* :mod:`repro.fsim.conventional` vs :mod:`repro.fsim.parallel` on both
  of its engines (object-graph and IR plane masks), in explicit batches
  and in the default one-word run, with every campaign's ``reference``
  (slot 0 of the IR pass) equal to the fault-free trajectory,

and asserts exact equality everywhere.  X-propagation is exercised by
construction: patterns and states draw from {0, 1, X} uniformly.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.circuits.generators import random_moore
from repro.circuits.library import s27
from repro.circuits.registry import build_circuit
from repro.faults.injection import inject_fault
from repro.faults.sites import all_faults
from repro.fsim.conventional import run_conventional
from repro.fsim.parallel import ParallelFaultSimulator, run_parallel_conventional
from repro.logic.values import ONE, UNKNOWN, ZERO
from repro.patterns.random_gen import random_patterns
from repro.sim.frame import eval_frame
from repro.sim.ir import compile_circuit
from repro.sim.kernel import (
    broadcast_planes,
    compile_fault_batch,
    eval_frame_patterns,
    eval_frame_planes,
    eval_frame_values,
    numpy_available,
    run_slots,
    simulate_fault_batch,
    simulate_sequence_ir,
    simulate_sequences_packed,
)
from repro.sim.sequential import (
    SequentialResult,
    simulate_injected,
    simulate_sequence,
)


def _xpat(num, rng):
    """One row of uniformly random three-valued stimulus."""
    return [rng.choice((ZERO, ONE, UNKNOWN)) for _ in range(num)]


# ----------------------------------------------------------------------
# IR structure sanity
# ----------------------------------------------------------------------
def test_ir_schedule_is_levelized_and_complete():
    circuit = build_circuit("s27")
    ir = compile_circuit(circuit)
    assert ir.num_gates == len(circuit.gates)
    assert sorted(ir.slot_of_gate) == list(range(ir.num_gates))
    # Every fanin of a slot is produced at a strictly earlier slot (or
    # is a frame source), which is what makes one sequential pass and
    # per-level lane parallelism both correct.
    producer = {ir.outs[s]: s for s in range(ir.num_gates)}
    sources = set(ir.inputs) | set(ir.ps_lines)
    for s in range(ir.num_gates):
        for i in range(ir.fanin_offsets[s], ir.fanin_offsets[s + 1]):
            line = ir.fanin_lines[i]
            assert line in sources or producer[line] < s
    # Group runs tile the schedule exactly, one opcode per run.
    covered = []
    for op, start, end in ir.groups:
        covered.extend(range(start, end))
        assert all(ir.ops[s] == op for s in range(start, end))
    assert covered == list(range(ir.num_gates))
    # Levels tile the schedule too.
    assert ir.level_starts[0] == 0
    assert ir.level_starts[-1] == ir.num_gates
    assert list(ir.level_starts) == sorted(ir.level_starts)


def test_ir_is_compiled_once_per_circuit():
    circuit = build_circuit("s27")
    assert compile_circuit(circuit) is compile_circuit(circuit)


# ----------------------------------------------------------------------
# Frame evaluation: interpreter == width-1 kernel == packed slots
# ----------------------------------------------------------------------
def test_frame_values_match_on_seeded_random_circuits():
    rng = random.Random(2026)
    for seed in range(60):
        circuit = random_moore(
            seed, num_inputs=3, num_flops=3, num_gates=18
        )
        for _ in range(4):
            pi = _xpat(circuit.num_inputs, rng)
            ps = _xpat(circuit.num_flops, rng)
            interp = eval_frame(circuit, pi, ps)
            assert eval_frame_values(circuit, pi, ps) == interp
            assert eval_frame(circuit, pi, ps, engine="ir") == interp


def test_ppsfp_slots_decode_to_exact_interpreter_frames():
    rng = random.Random(7)
    circuit = build_circuit("s27")
    patterns = [_xpat(circuit.num_inputs, rng) for _ in range(70)]
    states = [_xpat(circuit.num_flops, rng) for _ in range(70)]
    reference = [
        eval_frame(circuit, p, s) for p, s in zip(patterns, states)
    ]
    planes = eval_frame_planes(circuit, patterns, states)
    assert [
        planes.line_values(slot) for slot in range(len(patterns))
    ] == reference
    assert eval_frame_patterns(circuit, patterns, states) == reference
    # Output / next-state extraction agrees with the full decode.
    for slot in range(len(patterns)):
        row = reference[slot]
        assert planes.output_values(slot) == [
            row[line] for line in circuit.outputs
        ]
        assert planes.next_state_values(slot) == [
            row[f.ns] for f in circuit.flops
        ]


def test_ppsfp_default_states_are_all_x():
    circuit = build_circuit("s27")
    patterns = random_patterns(circuit.num_inputs, 8, seed=1)
    explicit = eval_frame_patterns(
        circuit, patterns, [[UNKNOWN] * circuit.num_flops] * len(patterns)
    )
    assert eval_frame_patterns(circuit, patterns) == explicit


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_numpy_lane_backend_matches_int_backend_across_lane_boundary():
    rng = random.Random(11)
    circuit = build_circuit("s27")
    # 130 slots span three uint64 lanes, covering the lane-edge bits.
    patterns = [_xpat(circuit.num_inputs, rng) for _ in range(130)]
    states = [_xpat(circuit.num_flops, rng) for _ in range(130)]
    assert eval_frame_patterns(
        circuit, patterns, states, backend="numpy"
    ) == eval_frame_patterns(circuit, patterns, states)


def test_simulator_imports_leave_numpy_unloaded():
    """numpy is imported only by the numpy lane backend, so the
    simulators and the campaign runner do not pay its memory."""
    code = (
        "import sys\n"
        "import repro.fsim.parallel, repro.mot.simulator, "
        "repro.runner.campaign\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


def test_unknown_backend_is_rejected():
    circuit = build_circuit("s27")
    patterns = random_patterns(circuit.num_inputs, 2, seed=0)
    with pytest.raises(ValueError):
        eval_frame_patterns(circuit, patterns, backend="simd")
    with pytest.raises(ValueError):
        eval_frame(circuit, patterns[0], [UNKNOWN] * 3, engine="jit")


def test_x_propagation_is_identical_not_just_pessimistic():
    """An all-X stimulus must produce the same X set on both engines
    (constant gates still force values; everything reconvergent is X)."""
    for seed in (0, 5, 9):
        circuit = random_moore(seed, num_inputs=4, num_flops=4, num_gates=24)
        pi = [UNKNOWN] * circuit.num_inputs
        ps = [UNKNOWN] * circuit.num_flops
        assert eval_frame_values(circuit, pi, ps) == eval_frame(
            circuit, pi, ps
        )


# ----------------------------------------------------------------------
# Sequential simulation: state carry-over across frames
# ----------------------------------------------------------------------
def test_sequential_trajectories_match_including_frames():
    rng = random.Random(3)
    for seed in range(25):
        circuit = random_moore(seed, num_inputs=3, num_flops=4, num_gates=20)
        patterns = [_xpat(circuit.num_inputs, rng) for _ in range(10)]
        interp = simulate_sequence(circuit, patterns, keep_frames=True)
        ir = simulate_sequence_ir(circuit, patterns, keep_frames=True)
        assert ir.states == interp.states
        assert ir.outputs == interp.outputs
        assert ir.frames == interp.frames


def test_sequential_with_initial_state_and_forced_ps():
    rng = random.Random(17)
    circuit = build_circuit("s27")
    patterns = [_xpat(circuit.num_inputs, rng) for _ in range(12)]
    initial = [ONE, UNKNOWN, ZERO]
    forced = {1: ZERO}
    interp = simulate_sequence(
        circuit, patterns, initial_state=initial, forced_ps=forced,
        keep_frames=True,
    )
    ir = simulate_sequence(
        circuit, patterns, initial_state=initial, forced_ps=forced,
        keep_frames=True, engine="ir",
    )
    assert ir.states == interp.states
    assert ir.outputs == interp.outputs
    assert ir.frames == interp.frames
    # The forced flop is pinned at every time unit on both engines.
    assert all(row[1] == ZERO for row in ir.states)


def test_flop_carry_over_feeds_next_frame_exactly():
    """Frame u+1 of the sequential path must consume frame u's computed
    next state -- re-evaluating each frame standalone from the recorded
    states reproduces the trajectory on both engines."""
    circuit = build_circuit("s27")
    patterns = random_patterns(circuit.num_inputs, 8, seed=5)
    for engine in ("interp", "ir"):
        result = simulate_sequence(
            circuit, patterns, keep_frames=True, engine=engine
        )
        for u, pattern in enumerate(patterns):
            standalone = eval_frame(
                circuit, pattern, result.states[u], engine=engine
            )
            assert standalone == result.frames[u]
            assert result.states[u + 1] == [
                standalone[f.ns] for f in circuit.flops
            ]


def test_packed_sequences_match_per_slot_sequential():
    rng = random.Random(23)
    circuit = build_circuit("s27")
    sequences = [
        [_xpat(circuit.num_inputs, rng) for _ in range(6)] for _ in range(12)
    ]
    initial_states = [_xpat(circuit.num_flops, rng) for _ in range(12)]
    packed = simulate_sequences_packed(circuit, sequences, initial_states)
    for slot, (sequence, initial) in enumerate(
        zip(sequences, initial_states)
    ):
        reference = simulate_sequence(
            circuit, sequence, initial_state=initial
        )
        for u in range(len(sequence)):
            assert packed.output_values(u, slot) == reference.outputs[u]
            assert packed.state_values(u + 1, slot) == reference.states[u + 1]


def test_sequential_rejects_unknown_engine_and_bad_shapes():
    circuit = build_circuit("s27")
    patterns = random_patterns(circuit.num_inputs, 2, seed=0)
    with pytest.raises(ValueError):
        simulate_sequence(circuit, patterns, engine="fast")
    with pytest.raises(ValueError):
        simulate_sequence_ir(circuit, [[ONE]])
    with pytest.raises(ValueError):
        simulate_sequence_ir(circuit, patterns, initial_state=[ONE])


# ----------------------------------------------------------------------
# Fault simulation: serial == parallel(interp) == parallel(ir)
# ----------------------------------------------------------------------
def _assert_verdicts_agree(circuit, faults, patterns, batch=62):
    """Serial == both parallel engines, at *batch* faults per word and
    in the default one-word run; every campaign's ``reference`` is the
    fault-free trajectory."""
    serial = run_conventional(circuit, faults, patterns)
    good = simulate_sequence(circuit, patterns)
    campaigns = [
        run_parallel_conventional(circuit, faults, patterns, size, engine)
        for engine in ("interp", "ir")
        for size in (batch, None)
    ]
    for campaign in campaigns:
        assert campaign.reference.states == good.states
        assert campaign.reference.outputs == good.outputs
        assert len(campaign.verdicts) == len(serial.verdicts)
        for expected, got in zip(serial.verdicts, campaign.verdicts):
            assert expected.fault == got.fault
            assert expected.detected == got.detected, expected.fault.describe(
                circuit
            )


def _ps_stem_faults(circuit):
    """Stuck present-state stems: the faults compiled to ``forced_state``."""
    ps_lines = {flop.ps for flop in circuit.flops}
    return [
        fault for fault in all_faults(circuit)
        if fault.pin is None and fault.line in ps_lines
    ]


def test_fault_verdicts_agree_on_s27_full_universe():
    circuit = s27()
    _assert_verdicts_agree(
        circuit, all_faults(circuit), random_patterns(4, 24, seed=0)
    )


def test_fault_verdicts_agree_on_seeded_random_circuits():
    for seed in range(12):
        circuit = random_moore(seed, num_inputs=3, num_flops=3, num_gates=16)
        faults = all_faults(circuit)
        patterns = random_patterns(circuit.num_inputs, 12, seed=seed)
        _assert_verdicts_agree(circuit, faults, patterns, batch=11)


def test_fault_batch_masks_match_serial_detection_bits():
    circuit = s27()
    faults = all_faults(circuit)
    patterns = random_patterns(4, 16, seed=4)
    serial = run_conventional(circuit, faults, patterns)
    batch = compile_fault_batch(circuit, faults)
    detected = simulate_fault_batch(circuit, batch, patterns)
    for j, verdict in enumerate(serial.verdicts):
        assert bool((detected >> j) & 1) == verdict.detected


def _slot_values(ones, zeros, slot):
    bit = 1 << slot
    return [
        ONE if one & bit else (ZERO if zero & bit else UNKNOWN)
        for one, zero in zip(ones, zeros)
    ]


def test_slot_runner_replays_every_injected_machine():
    """One fault batch through :func:`run_slots`: slot 0 replays the
    fault-free trajectory and every fault slot its injected netlist,
    line for line in every frame, output for output, state for state."""
    rng = random.Random(31)
    cases = [(s27(), [_xpat(4, rng) for _ in range(10)])] + [
        (
            random_moore(seed, num_inputs=3, num_flops=3, num_gates=16),
            [_xpat(3, rng) for _ in range(8)],
        )
        for seed in range(5)
    ]
    for circuit, patterns in cases:
        faults = all_faults(circuit)
        batch = compile_fault_batch(circuit, faults)
        captured = []

        def tap(ones, zeros, out_one, out_zero, state_one, state_zero):
            captured.append(
                (list(ones), list(zeros), out_one, out_zero,
                 state_one, state_zero)
            )

        unset = [0] * circuit.num_flops
        run_slots(
            compile_circuit(circuit), batch.mask, unset, unset,
            [broadcast_planes(p, batch.mask) for p in patterns], tap, batch,
        )
        machines = [simulate_sequence(circuit, patterns, keep_frames=True)]
        machines += [
            simulate_injected(
                inject_fault(circuit, fault), patterns, keep_frames=True
            )
            for fault in faults
        ]
        for slot, expected in enumerate(machines):
            for u, (ones, zeros, o1, o0, s1, s0) in enumerate(captured):
                frame = expected.frames[u][:circuit.num_lines]
                assert _slot_values(ones, zeros, slot) == frame
                assert _slot_values(o1, o0, slot) == expected.outputs[u]
                assert _slot_values(s1, s0, slot) == expected.states[u + 1]


def test_fault_batch_reference_is_slot_zero():
    """The optional *reference* collects slot 0's trajectory, which
    stuck present-state stems in the other slots must not disturb."""
    circuit = s27()
    patterns = random_patterns(4, 16, seed=5)
    good = simulate_sequence(circuit, patterns)
    for faults in ([], _ps_stem_faults(circuit), all_faults(circuit)):
        reference = SequentialResult(states=[], outputs=[])
        batch = compile_fault_batch(circuit, faults)
        simulate_fault_batch(circuit, batch, patterns, reference)
        assert reference.states == good.states
        assert reference.outputs == good.outputs
    assert _ps_stem_faults(circuit)


@pytest.mark.parametrize("batch", [None, 1, 2, 5])
def test_reference_from_slot_zero_matches_simulate_sequence(batch):
    """Empty lists, PS-stem faults and small explicit batches: the IR
    engine's ``reference`` equals ``simulate_sequence``."""
    circuits = [s27()] + [
        random_moore(seed, num_inputs=3, num_flops=3, num_gates=16)
        for seed in range(6)
    ]
    for circuit in circuits:
        patterns = random_patterns(circuit.num_inputs, 12, seed=3)
        good = simulate_sequence(circuit, patterns)
        for faults in ([], _ps_stem_faults(circuit)):
            campaign = run_parallel_conventional(
                circuit, faults, patterns, batch
            )
            assert campaign.reference.states == good.states
            assert campaign.reference.outputs == good.outputs
            assert campaign.reference.frames is None
            assert campaign.total == len(faults)


def test_parallel_rejects_unknown_engine():
    with pytest.raises(ValueError):
        ParallelFaultSimulator(s27(), engine="cuda")


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 50_000),
    pattern_seed=st.integers(0, 500),
    batch=st.integers(1, 70),
)
def test_property_all_engines_agree(seed, pattern_seed, batch):
    """Hypothesis sweep: random machine, random workload, random batch
    width -- serial, object-graph parallel and IR parallel must agree,
    and the frame/sequential engines must match on the same machine."""
    circuit = random_moore(seed, num_inputs=2, num_flops=3, num_gates=14)
    patterns = random_patterns(circuit.num_inputs, 8, seed=pattern_seed)
    faults = all_faults(circuit)[:20]
    _assert_verdicts_agree(circuit, faults, patterns, batch=batch)
    interp = simulate_sequence(circuit, patterns, keep_frames=True)
    ir = simulate_sequence(circuit, patterns, keep_frames=True, engine="ir")
    assert ir.states == interp.states
    assert ir.outputs == interp.outputs
    assert ir.frames == interp.frames
