"""Bit-parallel conventional fault simulation (parallel-fault, dual rail).

The serial simulator in :mod:`repro.fsim.conventional` evaluates one
faulty circuit at a time.  This module implements the classic
parallel-fault technique: machine words carry one bit *slot* per circuit
(slot 0 = fault-free, slots 1..W = faulty machines), and three-valued
values are dual-rail encoded as two planes per line::

    one[line]  -- bit k set when line is 1 in machine k
    zero[line] -- bit k set when line is 0 in machine k
    (neither)  -- X

Gate evaluation is then pure bitwise logic (AND: ones intersect, zeros
union; XOR by plane recurrence), so W faulty machines simulate in one
pass over the netlist per time frame.  Faults are injected as per-pin
plane overrides compiled per batch: the slot of a stuck pin has its
plane bits forced, which models stems (all consumer pins forced) and
branches (a single pin) exactly like the netlist-transformation injector.

The results are bit-identical to the serial simulator (asserted in
``tests/fsim/test_parallel.py``, including property tests); only the
detection *site* is not tracked.

By default one call is one batch: every fault of the list shares one
plane word (Python integers have no 64-bit limit), so the circuit is
walked once per frame however long the list is.  An explicit ``batch``
still slices the list into words of that many faults.

Two evaluation engines implement the same batch semantics:

* ``"ir"`` (default) -- the batch's pin overrides are compiled once into
  plane masks over the levelized :class:`~repro.sim.ir.CircuitIR` and
  evaluated by :func:`repro.sim.kernel.simulate_fault_batch`; the
  fault-free ``reference`` is decoded from slot 0 of that same pass;
* ``"interp"`` -- the original object-graph walk, kept as the reference
  implementation the differential suite compares against; its
  ``reference`` comes from :func:`repro.sim.sequential.simulate_sequence`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.faults.model import Fault
from repro.fsim.conventional import ConventionalCampaign, ConventionalVerdict
from repro.logic.gates import GateType
from repro.logic.values import ONE, ZERO
from repro.obs.metrics import get_metrics
from repro.sim.sequential import SequentialResult, simulate_sequence

_SWAP = {
    GateType.AND: False,
    GateType.NAND: True,
    GateType.OR: False,
    GateType.NOR: True,
}

Overrides = Dict[Tuple[str, int, int], Tuple[int, int]]


@dataclass
class _Batch:
    """One compiled batch: faults in slots 1..len(faults)."""

    faults: List[Fault]
    #: ("gate", gate index, pos) / ("flop", flop index, 0) /
    #: ("output", output index, 0) -> (force-one mask, force-zero mask)
    overrides: Overrides
    #: flop index -> (force-one, force-zero) for stuck present-state
    #: tracking (PS stem faults: every consumer is overridden via pins,
    #: and the tracked state is pinned like InjectedFault.forced_ps).
    forced_state: Dict[int, Tuple[int, int]]


def _compile_batch(circuit: Circuit, faults: Sequence[Fault]) -> _Batch:
    overrides: Overrides = {}
    forced_state: Dict[int, Tuple[int, int]] = {}
    for slot, fault in enumerate(faults, start=1):
        bit = 1 << slot
        force_one = bit if fault.stuck_at == ONE else 0
        force_zero = bit if fault.stuck_at == ZERO else 0
        pins = (
            circuit.fanout_pins[fault.line]
            if fault.pin is None
            else [fault.pin]
        )
        for pin in pins:
            key = (pin.kind, pin.index, pin.pos)
            old_one, old_zero = overrides.get(key, (0, 0))
            overrides[key] = (old_one | force_one, old_zero | force_zero)
        if fault.pin is None:
            for flop_index, flop in enumerate(circuit.flops):
                if flop.ps == fault.line:
                    old_one, old_zero = forced_state.get(flop_index, (0, 0))
                    forced_state[flop_index] = (
                        old_one | force_one,
                        old_zero | force_zero,
                    )
    return _Batch(list(faults), overrides, forced_state)


def _batches(
    faults: Sequence[Fault], batch: Optional[int]
) -> List[List[Fault]]:
    size = batch if batch is not None else max(len(faults), 1)
    return [
        list(faults[start:start + size])
        for start in range(0, len(faults), size)
    ]


class ParallelFaultSimulator:
    """Parallel-fault three-valued sequential simulator.

    *batch* is the number of faults per plane word; ``None`` (the
    default) simulates the whole fault list in one word.
    """

    def __init__(
        self,
        circuit: Circuit,
        batch: Optional[int] = None,
        engine: str = "ir",
    ) -> None:
        if batch is not None and batch < 1:
            raise ValueError("batch must be positive")
        if engine not in ("ir", "interp"):
            raise ValueError(f"unknown parallel-fault engine {engine!r}")
        self.circuit = circuit
        self.batch = batch
        self.engine = engine
        if engine == "interp":
            # Pre-resolve gate structure for the interpreted hot loop.
            self._plan = [
                (g.gate_type, gate_index, g.output, g.inputs)
                for gate_index, g in (
                    (i, circuit.gates[i]) for i in circuit.topo_gates
                )
            ]

    # ------------------------------------------------------------------
    def _simulate_batch(
        self,
        faults: List[Fault],
        patterns: Sequence[Sequence[int]],
    ) -> int:
        """Return a bitmask of detected slots (bit k = fault k-1)."""
        circuit = self.circuit
        width = len(faults) + 1  # slot 0 is fault-free
        mask = (1 << width) - 1
        compiled = _compile_batch(circuit, faults)
        overrides = compiled.overrides
        num_lines = circuit.num_lines
        ones = [0] * num_lines
        zeros = [0] * num_lines
        state_one = [0] * circuit.num_flops
        state_zero = [0] * circuit.num_flops
        for flop_index, (f1, f0) in compiled.forced_state.items():
            state_one[flop_index] = f1
            state_zero[flop_index] = f0
        detected = 0

        def read(kind: str, index: int, pos: int, line: int) -> Tuple[int, int]:
            v1, v0 = ones[line], zeros[line]
            forced = overrides.get((kind, index, pos))
            if forced is not None:
                f1, f0 = forced
                keep = ~(f1 | f0)
                v1 = (v1 & keep) | f1
                v0 = (v0 & keep) | f0
            return v1, v0

        for pattern in patterns:
            # Frame sources.
            for line, bit in zip(circuit.inputs, pattern):
                if bit == ONE:
                    ones[line], zeros[line] = mask, 0
                elif bit == ZERO:
                    ones[line], zeros[line] = 0, mask
                else:
                    ones[line], zeros[line] = 0, 0
            for flop_index, flop in enumerate(circuit.flops):
                ones[flop.ps] = state_one[flop_index]
                zeros[flop.ps] = state_zero[flop_index]
            # Combinational core.
            for gate_type, gate_index, out, ins in self._plan:
                if gate_type in _SWAP:
                    conjunctive = gate_type in (GateType.AND, GateType.NAND)
                    acc_one, acc_zero = mask, mask
                    if conjunctive:
                        acc_one, acc_zero = mask, 0
                        for pos, line in enumerate(ins):
                            v1, v0 = read("gate", gate_index, pos, line)
                            acc_one &= v1
                            acc_zero |= v0
                    else:
                        acc_one, acc_zero = 0, mask
                        for pos, line in enumerate(ins):
                            v1, v0 = read("gate", gate_index, pos, line)
                            acc_one |= v1
                            acc_zero &= v0
                    if _SWAP[gate_type]:
                        acc_one, acc_zero = acc_zero, acc_one
                elif gate_type in (GateType.XOR, GateType.XNOR):
                    acc_one, acc_zero = read("gate", gate_index, 0, ins[0])
                    for pos in range(1, len(ins)):
                        v1, v0 = read("gate", gate_index, pos, ins[pos])
                        acc_one, acc_zero = (
                            (acc_one & v0) | (acc_zero & v1),
                            (acc_one & v1) | (acc_zero & v0),
                        )
                    if gate_type is GateType.XNOR:
                        acc_one, acc_zero = acc_zero, acc_one
                elif gate_type is GateType.NOT:
                    v1, v0 = read("gate", gate_index, 0, ins[0])
                    acc_one, acc_zero = v0, v1
                elif gate_type is GateType.BUF:
                    acc_one, acc_zero = read("gate", gate_index, 0, ins[0])
                elif gate_type is GateType.CONST0:
                    acc_one, acc_zero = 0, mask
                else:  # CONST1
                    acc_one, acc_zero = mask, 0
                ones[out], zeros[out] = acc_one, acc_zero
            # Observation: good slot 0 vs every fault slot.
            for out_index, line in enumerate(circuit.outputs):
                v1, v0 = read("output", out_index, 0, line)
                good_one = mask if (v1 & 1) else 0
                good_zero = mask if (v0 & 1) else 0
                detected |= (good_one & v0) | (good_zero & v1)
            # Next state.
            for flop_index, flop in enumerate(circuit.flops):
                v1, v0 = read("flop", flop_index, 0, flop.ns)
                forced = compiled.forced_state.get(flop_index)
                if forced is not None:
                    f1, f0 = forced
                    keep = ~(f1 | f0)
                    v1 = (v1 & keep) | f1
                    v0 = (v0 & keep) | f0
                state_one[flop_index] = v1
                state_zero[flop_index] = v0
        return detected >> 1  # drop the fault-free slot

    # ------------------------------------------------------------------
    def run(
        self,
        faults: Sequence[Fault],
        patterns: Sequence[Sequence[int]],
    ) -> ConventionalCampaign:
        """Simulate *faults* and return per-fault verdicts.

        Detection semantics are identical to
        :func:`repro.fsim.conventional.run_conventional`; detection sites
        are not tracked (``site is None``).
        """
        metrics = get_metrics()
        verdicts: List[ConventionalVerdict] = []
        ir_engine = self.engine == "ir"
        if ir_engine:
            from repro.sim.kernel import (
                compile_fault_batch,
                simulate_fault_batch,
            )
        with metrics.phase("fsim"):
            chunks = _batches(faults, self.batch)
            if ir_engine:
                # Slot 0 of the first batch is the fault-free machine,
                # so an empty list still runs one (width-1) pass for it.
                reference = SequentialResult(states=[], outputs=[])
                chunks = chunks or [[]]
            else:
                reference = simulate_sequence(self.circuit, patterns)
            for index, chunk in enumerate(chunks):
                if ir_engine:
                    compiled_ir = compile_fault_batch(self.circuit, chunk)
                    detected_mask = simulate_fault_batch(
                        self.circuit, compiled_ir, patterns,
                        reference if index == 0 else None,
                    )
                else:
                    detected_mask = self._simulate_batch(chunk, patterns)
                if metrics.enabled:
                    metrics.counter("fsim.parallel.batches")
                for position, fault in enumerate(chunk):
                    verdicts.append(
                        ConventionalVerdict(
                            fault=fault,
                            detected=bool((detected_mask >> position) & 1),
                            site=None,
                        )
                    )
        if metrics.enabled:
            metrics.counter("fsim.parallel.faults", len(verdicts))
        return ConventionalCampaign(
            circuit_name=self.circuit.name,
            reference=reference,
            verdicts=verdicts,
        )


def run_parallel_conventional(
    circuit: Circuit,
    faults: Sequence[Fault],
    patterns: Sequence[Sequence[int]],
    batch: Optional[int] = None,
    engine: str = "ir",
) -> ConventionalCampaign:
    """Convenience wrapper around :class:`ParallelFaultSimulator`."""
    return ParallelFaultSimulator(circuit, batch, engine).run(faults, patterns)
