#!/usr/bin/env python
"""CI gate for the compiled IR kernel: bit identity, then speed.

The kernel (:mod:`repro.sim.ir` / :mod:`repro.sim.kernel`) replaces the
per-gate interpreter on every simulation hot path, so this script
enforces the two halves of its acceptance criterion in order:

1. **Verdict and value identity** on a seeded differential workload --
   random Moore machines plus the s27 library circuit, driven through
   frame evaluation (interpreter vs width-1 kernel vs packed PPSFP
   slots), sequential simulation (with X initial states and per-frame
   capture) and conventional fault simulation (serial vs object-graph
   parallel vs IR plane-mask parallel).  Any mismatch fails before a
   single timer starts: a fast wrong kernel is worthless.

2. **Throughput**: packed PPSFP frame evaluation on ``s5378_like``
   (the largest stand-in, the circuit named by the acceptance
   criterion) must be at least ``MIN_SPEEDUP``x faster *per pattern*
   than the interpreted ``eval_frame``, at width ``PPSFP_WIDTH``.
   Measured as best-of-``ROUNDS`` on both sides to shrug off CI noise.

3. **Fault batch**: on the whole ``s5378_like`` fault universe at
   ``FAULT_BATCH_LENGTH`` patterns, the default one-word IR run must
   give the serial simulator's verdicts and run at least
   ``MIN_ONE_WORD_SPEEDUP``x faster than ``LEGACY_BATCH``-fault words
   (best-of-``ROUNDS`` each).

4. **Packed resolution**: on ``s5378_like`` condition-(C) survivors,
   resolving each fault's expanded sequences in one packed call
   (:func:`~repro.mot.resimulate.resimulate_sequences`) must give the
   statuses of one width-1 call per sequence and run at least
   ``MIN_PACKED_RESIM_SPEEDUP``x faster (best-of-``ROUNDS`` each).

Exit code 0 when every gate holds, 1 otherwise.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"),
)

from repro.circuits.generators import random_moore
from repro.circuits.library import s27
from repro.circuits.registry import build_circuit
from repro.faults.collapse import collapse_faults
from repro.faults.injection import inject_fault
from repro.faults.sites import all_faults
from repro.fsim.conventional import run_conventional
from repro.fsim.parallel import run_parallel_conventional
from repro.logic.values import UNKNOWN
from repro.mot.backward import BackwardCollector
from repro.mot.expansion import expand
from repro.mot.resimulate import (
    FrameBase,
    resimulate_sequence,
    resimulate_sequences,
)
from repro.mot.simulator import ProposedSimulator, screen_fault
from repro.patterns.random_gen import random_patterns
from repro.sim.frame import eval_frame
from repro.sim.ir import compile_circuit
from repro.sim.kernel import (
    eval_frame_planes,
    eval_frame_values,
    simulate_sequence_ir,
)
from repro.sim.sequential import simulate_injected, simulate_sequence

#: Random differential workload: (circuit seed, pattern seed) pairs.
RANDOM_SEEDS = tuple((seed, seed * 7 + 1) for seed in range(10))
#: Throughput gate: packed width, measurement rounds, required ratio.
PPSFP_WIDTH = 256
ROUNDS = 5
MIN_SPEEDUP = 10.0
#: Fault-batch gate: sequence length, old word size, required ratio.
FAULT_BATCH_LENGTH = 24
LEGACY_BATCH = 62
MIN_ONE_WORD_SPEEDUP = 3.0
#: Packed-resolution gate: survivors, sequence length, required ratio.
RESIM_SURVIVORS = 8
RESIM_LENGTH = 48
MIN_PACKED_RESIM_SPEEDUP = 3.0


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    raise SystemExit(1)


# ----------------------------------------------------------------------
# Gate 1: identity
# ----------------------------------------------------------------------
def check_identity_on(circuit, patterns, faults) -> None:
    # Frame values, every frame of the sequential trajectory.
    interp_seq = simulate_sequence(circuit, patterns, keep_frames=True)
    ir_seq = simulate_sequence_ir(circuit, patterns, keep_frames=True)
    if (
        interp_seq.states != ir_seq.states
        or interp_seq.outputs != ir_seq.outputs
        or interp_seq.frames != ir_seq.frames
    ):
        fail(f"sequential trajectory mismatch on {circuit.name}")
    # Packed PPSFP slots vs per-pattern interpretation (all-X state).
    state = [UNKNOWN] * circuit.num_flops
    planes = eval_frame_planes(circuit, patterns)
    for slot, pattern in enumerate(patterns):
        expected = eval_frame(circuit, pattern, state)
        if planes.line_values(slot) != expected:
            fail(f"PPSFP slot {slot} mismatch on {circuit.name}")
        if eval_frame_values(circuit, pattern, state) != expected:
            fail(f"width-1 kernel mismatch on {circuit.name}")
    # Fault verdicts: serial vs both parallel engines.
    serial = run_conventional(circuit, faults, patterns)
    for engine in ("interp", "ir"):
        campaign = run_parallel_conventional(
            circuit, faults, patterns, engine=engine
        )
        for expected_v, got in zip(serial.verdicts, campaign.verdicts):
            if expected_v.detected != got.detected:
                fail(
                    f"{engine} parallel verdict mismatch on "
                    f"{circuit.name}: {expected_v.fault.describe(circuit)}"
                )


def check_identity() -> None:
    library = s27()
    check_identity_on(
        library, random_patterns(4, 24, seed=0), all_faults(library)
    )
    for circuit_seed, pattern_seed in RANDOM_SEEDS:
        circuit = random_moore(
            circuit_seed, num_inputs=3, num_flops=3, num_gates=18
        )
        patterns = random_patterns(
            circuit.num_inputs, 10, seed=pattern_seed
        )
        check_identity_on(circuit, patterns, all_faults(circuit))
    workload = len(RANDOM_SEEDS) + 1
    print(f"identity: OK ({workload} circuits, 3 engines each)")


# ----------------------------------------------------------------------
# Gate 2: throughput
# ----------------------------------------------------------------------
def best_of(rounds, thunk) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        thunk()
        best = min(best, time.perf_counter() - start)
    return best


def check_throughput() -> None:
    circuit = build_circuit("s5378_like")
    compile_circuit(circuit)  # compile once, outside both timers
    patterns = random_patterns(circuit.num_inputs, PPSFP_WIDTH, seed=0)
    state = [UNKNOWN] * circuit.num_flops
    eval_frame(circuit, patterns[0], state)  # warm the frame plan too

    def interp_all():
        for pattern in patterns:
            eval_frame(circuit, pattern, state)

    interp_s = best_of(ROUNDS, interp_all)
    packed_s = best_of(ROUNDS, lambda: eval_frame_planes(circuit, patterns))
    speedup = interp_s / packed_s
    per_pattern_us = packed_s / PPSFP_WIDTH * 1e6
    print(
        f"throughput: {PPSFP_WIDTH} frames on {circuit.name}: interpreter "
        f"{interp_s * 1e3:.1f} ms, packed kernel {packed_s * 1e3:.2f} ms "
        f"({per_pattern_us:.1f} us/pattern) -> {speedup:.1f}x"
    )
    if speedup < MIN_SPEEDUP:
        fail(
            f"packed frame evaluation is only {speedup:.1f}x the "
            f"interpreter (gate: >= {MIN_SPEEDUP:.0f}x)"
        )


def check_fault_batch() -> None:
    circuit = build_circuit("s5378_like")
    compile_circuit(circuit)
    faults = all_faults(circuit)
    patterns = random_patterns(
        circuit.num_inputs, FAULT_BATCH_LENGTH, seed=0
    )
    serial = run_conventional(circuit, faults, patterns)
    one_word = run_parallel_conventional(circuit, faults, patterns)
    if [v.detected for v in one_word.verdicts] != [
        v.detected for v in serial.verdicts
    ]:
        fail(f"one-word verdicts differ from serial on {circuit.name}")
    word_s = best_of(
        ROUNDS, lambda: run_parallel_conventional(circuit, faults, patterns)
    )
    legacy_s = best_of(
        ROUNDS,
        lambda: run_parallel_conventional(
            circuit, faults, patterns, LEGACY_BATCH
        ),
    )
    speedup = legacy_s / word_s
    print(
        f"fault batch: {len(faults)} faults x {FAULT_BATCH_LENGTH} frames "
        f"on {circuit.name}: {LEGACY_BATCH}-fault words "
        f"{legacy_s * 1e3:.1f} ms, one word {word_s * 1e3:.1f} ms "
        f"-> {speedup:.1f}x (verdicts identical to serial)"
    )
    if speedup < MIN_ONE_WORD_SPEEDUP:
        fail(
            f"one-word fault simulation is only {speedup:.1f}x the "
            f"{LEGACY_BATCH}-fault batches (gate: >= "
            f"{MIN_ONE_WORD_SPEEDUP:.0f}x)"
        )


# ----------------------------------------------------------------------
# Gate 4: packed resolution of expanded sequences
# ----------------------------------------------------------------------
def _survivor_workloads():
    """Per s5378_like survivor: resolver arguments and its sequences."""
    circuit = build_circuit("s5378_like")
    patterns = random_patterns(circuit.num_inputs, RESIM_LENGTH, seed=9)
    simulator = ProposedSimulator(circuit, patterns)
    reference = simulator.reference_outputs
    workloads = []
    for fault in collapse_faults(circuit):
        status, _, profile = screen_fault(simulator.screen, fault)
        if status:
            continue
        injected = inject_fault(circuit, fault)
        faulty = simulate_injected(injected, patterns, keep_frames=True)
        info = BackwardCollector(
            injected, faulty, reference, profile
        ).collect()
        outcome = expand(faulty.states, info, profile)
        if not outcome.sequences:
            continue
        base = FrameBase(
            injected.circuit, patterns, faulty.states, faulty.frames
        )
        args = (injected.circuit, patterns, reference)
        workloads.append(
            (args, injected.forced_ps, base, outcome.sequences)
        )
        if len(workloads) == RESIM_SURVIVORS:
            break
    return workloads


def check_packed_resim() -> None:
    workloads = _survivor_workloads()
    if not workloads:
        fail("no s5378_like survivor reached resimulation")

    def fresh():
        return [
            [seq.copy() for seq in sequences]
            for _, _, _, sequences in workloads
        ]

    def packed(batches):
        return [
            resimulate_sequences(*args, batch, forced, base)
            for (args, forced, base, _), batch in zip(workloads, batches)
        ]

    def one_at_a_time(batches):
        return [
            [
                resimulate_sequence(*args, seq, forced, base=base)
                for seq in batch
            ]
            for (args, forced, base, _), batch in zip(workloads, batches)
        ]

    if packed(fresh()) != one_at_a_time(fresh()):
        fail(f"packed statuses differ from width-1 calls on {RESIM_SURVIVORS} "
             "s5378_like survivors")

    def timed(resolve):
        best = float("inf")
        for _ in range(ROUNDS):
            batches = fresh()  # resolution mutates; copy outside the timer
            start = time.perf_counter()
            resolve(batches)
            best = min(best, time.perf_counter() - start)
        return best

    packed_s = timed(packed)
    single_s = timed(one_at_a_time)
    sequences = sum(len(w[3]) for w in workloads)
    speedup = single_s / packed_s
    print(
        f"packed resolution: {sequences} sequences of {len(workloads)} "
        f"s5378_like survivors: width-1 calls {single_s * 1e3:.1f} ms, "
        f"packed {packed_s * 1e3:.1f} ms -> {speedup:.1f}x "
        "(statuses identical)"
    )
    if speedup < MIN_PACKED_RESIM_SPEEDUP:
        fail(
            f"packed resolution is only {speedup:.1f}x the width-1 calls "
            f"(gate: >= {MIN_PACKED_RESIM_SPEEDUP:.0f}x)"
        )


def main() -> int:
    check_identity()
    check_throughput()
    check_fault_batch()
    check_packed_resim()
    print("kernel gate: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
