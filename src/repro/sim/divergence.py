"""Event-driven single-fault divergence screen.

Procedure 1 starts every fault with conventional three-valued simulation
of the faulty circuit: a conflicting output settles the fault as ``conv``
and a trajectory that fails condition (C) settles it as ``dropped``.
Almost every fault ends there, so this screen is the hot path of a MOT
campaign.

A single faulty machine differs from the good machine only inside the
fault's *divergence cone*.  :class:`DivergenceScreen` therefore never
copies the netlist and never re-evaluates a whole frame:

* the fault becomes pin overrides on the compiled IR
  (:meth:`~repro.sim.ir.CircuitIR.pin_slot`, exactly as
  :func:`~repro.sim.kernel.compile_fault_batch` addresses them), plus
  primary-output tap, flip-flop data pin and stuck present-state
  (``forced_ps``) overrides;
* per frame it starts from the stored fault-free line values and
  re-evaluates, in schedule-slot (topological) order, only the gates that
  read a diverged line or a forced pin, keeping a sparse
  ``{line: value}`` diff against the good frame;
* outputs and next states are read through the diff and the overrides.

Both machines start from the same all-unspecified state except the
``forced_ps`` entries, and they differ structurally only at the fault's
pins, so by induction over frames and over the topological schedule
every line outside the diff holds its good value.  The result is
value-identical to :func:`~repro.faults.injection.inject_fault` followed
by :func:`~repro.sim.sequential.simulate_injected`
(``tests/sim/test_divergence_screen.py`` checks it differentially).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.faults.model import Fault
from repro.logic.values import UNKNOWN
from repro.sim.ir import OP_BUF, OP_NAND, OP_NOR, OP_NOT, OP_XNOR, compile_circuit
from repro.sim.sequential import SequentialResult

__all__ = ["Divergence", "DivergenceScreen"]

_TABLES_ATTR = "_repro_divergence_tables"


@dataclass
class Divergence:
    """Outcome of screening one fault.

    ``conflict`` is the first ``(time, output)`` where the faulty response
    and the reference hold opposite specified values (the fault is
    conventionally detected); ``states`` / ``outputs`` are then ``None``.
    Otherwise ``conflict`` is ``None`` and ``states`` (``L + 1`` rows) /
    ``outputs`` (``L`` rows) are the faulty trajectory, exactly as
    :func:`~repro.sim.sequential.simulate_injected` returns it.
    ``gate_evals`` counts the gate evaluations the screen performed.
    """

    conflict: Optional[Tuple[int, int]]
    states: Optional[List[List[int]]]
    outputs: Optional[List[List[int]]]
    gate_evals: int


@dataclass(frozen=True)
class _Tables:
    """Static read indexes of one circuit (built once, cached on it)."""

    #: schedule slots reading each line (each slot once, ascending)
    readers: Tuple[Tuple[int, ...], ...]
    #: fanin lines of each schedule slot
    fanins: Tuple[Tuple[int, ...], ...]
    #: primary-output positions tapping each line
    taps: Dict[int, Tuple[int, ...]]
    #: flip-flops whose data pin reads each line
    loads: Dict[int, Tuple[int, ...]]


def _tables(circuit: Circuit) -> _Tables:
    cached = getattr(circuit, _TABLES_ATTR, None)
    if cached is not None:
        return cached  # type: ignore[no-any-return]
    ir = compile_circuit(circuit)
    offsets, lines = ir.fanin_offsets, ir.fanin_lines
    fanins = tuple(
        lines[offsets[s]:offsets[s + 1]] for s in range(ir.num_gates)
    )
    readers: List[List[int]] = [[] for _ in range(ir.num_lines)]
    for slot, fanin in enumerate(fanins):
        for line in fanin:
            consumers = readers[line]
            if not consumers or consumers[-1] != slot:
                consumers.append(slot)
    taps: Dict[int, List[int]] = {}
    for position, line in enumerate(ir.outputs):
        taps.setdefault(line, []).append(position)
    loads: Dict[int, List[int]] = {}
    for flop_index, line in enumerate(ir.ns_lines):
        loads.setdefault(line, []).append(flop_index)
    tables = _Tables(
        readers=tuple(tuple(r) for r in readers),
        fanins=fanins,
        taps={line: tuple(p) for line, p in taps.items()},
        loads={line: tuple(f) for line, f in loads.items()},
    )
    setattr(circuit, _TABLES_ATTR, tables)
    return tables


class DivergenceScreen:
    """Conventional single-fault simulation as a diff on the good machine.

    *good* is the fault-free trajectory of *circuit* under the test
    sequence, with per-frame line values (``keep_frames=True`` or
    :attr:`GoodMachineCache.result <repro.sim.goodcache.GoodMachineCache.result>`);
    *reference_outputs* is the response faulty outputs are compared
    against -- the good outputs in the restricted setting, an expanded
    fault-free response in the unrestricted one.
    """

    def __init__(
        self,
        circuit: Circuit,
        good: SequentialResult,
        reference_outputs: Sequence[Sequence[int]],
    ) -> None:
        if good.frames is None:
            raise ValueError("the good trajectory must keep its frames")
        if len(reference_outputs) != good.length:
            raise ValueError("reference response length mismatch")
        self.circuit = circuit
        self.ir = compile_circuit(circuit)
        self.tables = _tables(circuit)
        self.good = good
        self.frames: List[List[int]] = good.frames
        self.reference_outputs = reference_outputs
        # Output positions where the good response itself conflicts with
        # the reference (none in the restricted setting): a fault that
        # leaves such a position untouched conflicts there too.
        self._base_conflicts = [
            [
                position
                for position, (ref, val) in enumerate(zip(ref_row, good_row))
                if ref != val and ref != UNKNOWN and val != UNKNOWN
            ]
            for ref_row, good_row in zip(reference_outputs, good.outputs)
        ]

    def run(self, fault: Fault) -> Divergence:
        """Screen *fault*: first output conflict, or the faulty trajectory."""
        ir = self.ir
        tables = self.tables
        readers, fanins = tables.readers, tables.fanins
        taps, loads = tables.taps, tables.loads
        ops, outs = ir.ops, ir.outs
        ps_lines, ns_lines = ir.ps_lines, ir.ns_lines
        stuck = fault.stuck_at

        # Compile the fault to overrides.
        pin_force: Dict[int, int] = {}  # CSR fanin index -> stuck value
        forced_slots: List[int] = []
        tap_force: Dict[int, int] = {}  # PO position -> stuck value
        load_force: Dict[int, int] = {}  # flop index -> stuck value
        forced_ps: Dict[int, int] = {}
        pins = (
            self.circuit.fanout_pins[fault.line]
            if fault.pin is None
            else (fault.pin,)
        )
        for pin in pins:
            if pin.kind == "gate":
                pin_force[ir.pin_slot(pin.index, pin.pos)] = stuck
                forced_slots.append(ir.slot_of_gate[pin.index])
            elif pin.kind == "flop":
                load_force[pin.index] = stuck
            else:  # "output"
                tap_force[pin.index] = stuck
        if fault.pin is None:
            for flop_index, line in enumerate(ps_lines):
                if line == fault.line:
                    forced_ps[flop_index] = stuck
        forced_set = frozenset(forced_slots)
        offsets = ir.fanin_offsets

        good_states = self.good.states
        good_outputs = self.good.outputs
        reference = self.reference_outputs
        base_conflicts = self._base_conflicts
        state_diff = {
            i: v for i, v in forced_ps.items() if good_states[0][i] != v
        }
        state_diffs = [state_diff]
        output_diffs: List[Dict[int, int]] = []
        evals = 0
        for u, values in enumerate(self.frames):
            diff: Dict[int, int] = {}
            heap = list(forced_set)
            heapify(heap)
            queued = set(forced_set)
            for flop_index, value in state_diff.items():
                line = ps_lines[flop_index]
                diff[line] = value
                for slot in readers[line]:
                    if slot not in queued:
                        queued.add(slot)
                        heappush(heap, slot)
            get = diff.get
            while heap:
                slot = heappop(heap)
                evals += 1
                op = ops[slot]
                if slot in forced_set:
                    base = offsets[slot]
                    ins = [
                        pin_force[base + pos] if base + pos in pin_force
                        else get(line, values[line])
                        for pos, line in enumerate(fanins[slot])
                    ]
                else:
                    ins = [get(line, values[line]) for line in fanins[slot]]
                if op <= OP_NOR:  # AND/NAND/OR/NOR
                    ctrl = 0 if op <= OP_NAND else 1
                    result = 1 - ctrl
                    for v in ins:
                        if v == ctrl:
                            result = ctrl
                            break
                        if v == UNKNOWN:
                            result = UNKNOWN
                    if (op == OP_NAND or op == OP_NOR) and result != UNKNOWN:
                        result = 1 - result
                elif op <= OP_XNOR:  # XOR/XNOR
                    result = 1 if op == OP_XNOR else 0
                    for v in ins:
                        if v == UNKNOWN:
                            result = UNKNOWN
                            break
                        result ^= v
                elif op == OP_NOT:
                    v = ins[0]
                    result = v if v == UNKNOWN else 1 - v
                elif op == OP_BUF:
                    result = ins[0]
                else:  # constants never diverge
                    continue
                out = outs[slot]
                if result != values[out]:
                    diff[out] = result
                    for consumer in readers[out]:
                        if consumer not in queued:
                            queued.add(consumer)
                            heappush(heap, consumer)

            # Outputs: only tapped diverged lines and forced taps can move.
            touched = dict(tap_force)
            for line in diff:
                for position in taps.get(line, ()):
                    if position not in tap_force:
                        touched[position] = diff[line]
            good_row, ref_row = good_outputs[u], reference[u]
            conflicts = [
                position
                for position in base_conflicts[u]
                if position not in touched
            ]
            output_diff: Dict[int, int] = {}
            for position, value in touched.items():
                ref = ref_row[position]
                if ref != value and ref != UNKNOWN and value != UNKNOWN:
                    conflicts.append(position)
                if value != good_row[position]:
                    output_diff[position] = value
            if conflicts:
                return Divergence((u, min(conflicts)), None, None, evals)
            output_diffs.append(output_diff)

            # Next state: diverged data lines, forced data pins, forced PS.
            next_good = good_states[u + 1]
            candidates = set(load_force)
            candidates.update(forced_ps)
            for line in diff:
                candidates.update(loads.get(line, ()))
            state_diff = {}
            for flop_index in candidates:
                if flop_index in forced_ps:
                    value = forced_ps[flop_index]
                elif flop_index in load_force:
                    value = load_force[flop_index]
                else:
                    line = ns_lines[flop_index]
                    value = get(line, values[line])
                if value != next_good[flop_index]:
                    state_diff[flop_index] = value
            state_diffs.append(state_diff)

        return Divergence(
            None,
            _patch(good_states, state_diffs),
            _patch(good_outputs, output_diffs),
            evals,
        )


def _patch(
    rows: Sequence[Sequence[int]], diffs: Sequence[Dict[int, int]]
) -> List[List[int]]:
    """Copies of *rows* with each row's sparse *diffs* applied."""
    patched = []
    for row, diff in zip(rows, diffs):
        row = list(row)
        for index, value in diff.items():
            row[index] = value
        patched.append(row)
    return patched
