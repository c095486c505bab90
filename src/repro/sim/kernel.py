"""Two-plane bit-parallel evaluation kernel over the compiled IR.

Values are dual-rail encoded, one machine word pair per line::

    one[line]  -- bit k set when the line is 1 in machine slot k
    zero[line] -- bit k set when the line is 0 in machine slot k
    (neither)  -- the line is X in slot k

A *slot* is one independent simulation: a pattern (PPSFP -- parallel
pattern single fault), a candidate initial state, or a faulty machine
(parallel-fault, slot 0 reserved for the fault-free circuit).  Gate
evaluation is pure bitwise logic over the planes (AND: ones intersect,
zeros union; XOR by plane recurrence), so one levelized pass over the
:class:`~repro.sim.ir.CircuitIR` schedule simulates every slot at once.
Python integers are arbitrary precision, so the *int backend* packs any
number of slots into one "word" with no windowing; the optional *numpy
backend* (imported only when asked for) spreads slots over ``uint64``
lanes instead.

Every sequential simulation -- one machine (:func:`simulate_sequence_ir`),
W test sequences (:func:`simulate_sequences_packed`) or a fault list
(:func:`simulate_fault_batch`) -- is one call of the slot runner
:func:`run_slots`: packed initial-state planes, per-frame PI planes, an
optional :class:`CompiledFaultBatch` of overrides and a per-frame tap
that reads what the caller keeps.

Fault injection is compiled, not simulated: a stuck pin becomes a
``(force_one, force_zero, keep)`` mask triple attached to its CSR fanin
index (or primary-output tap / flip-flop data pin / pinned present
state), applied when the consumer reads the line.  This models stems
(every consumer pin forced) and branches (a single pin) exactly like
the netlist-transformation injector; gates with no forced pin take the
override-free path.

Everything here is verdict- and value-identical to the interpreted
engines (:func:`repro.sim.frame.eval_frame`,
:func:`repro.sim.sequential.simulate_sequence`,
:mod:`repro.fsim.conventional`); the cross-engine differential suite in
``tests/sim/test_ir_differential.py`` and the CI gate
``benchmarks/check_kernel_gate.py`` enforce exactly that.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.circuit.netlist import Circuit
from repro.faults.model import Fault
from repro.logic.values import ONE, UNKNOWN, ZERO
from repro.sim.ir import (
    OP_BUF,
    OP_CONST0,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_XNOR,
    CircuitIR,
    compile_circuit,
)

if TYPE_CHECKING:  # circular at runtime: sequential imports this module
    from repro.sim.sequential import SequentialResult

__all__ = [
    "numpy_available",
    "pack_columns",
    "unpack_column",
    "broadcast_planes",
    "eval_pass",
    "eval_frame_values",
    "eval_frame_planes",
    "eval_frame_patterns",
    "FramePlanes",
    "run_slots",
    "simulate_sequence_ir",
    "simulate_sequences_packed",
    "PackedSequences",
    "CompiledFaultBatch",
    "compile_fault_batch",
    "simulate_fault_batch",
]

#: One compiled override: ``(force_one, force_zero, keep)`` with
#: ``keep == ~(force_one | force_zero)``, applied to a plane pair as
#: ``(one & keep) | force_one, (zero & keep) | force_zero``.
Override = Tuple[int, int, int]
PinOverrides = Dict[int, Override]


def numpy_available() -> bool:
    """True when the optional numpy lane backend can be used."""
    return importlib.util.find_spec("numpy") is not None


# ----------------------------------------------------------------------
# Packing helpers (int backend)
# ----------------------------------------------------------------------
def pack_columns(
    rows: Sequence[Sequence[int]],
) -> Tuple[List[int], List[int]]:
    """Pack W rows of three-valued values into per-column plane masks.

    ``rows[k][j]`` is the value of position *j* in slot *k*; the result
    is ``(one_masks, zero_masks)`` with bit *k* of ``one_masks[j]`` set
    when ``rows[k][j] == 1`` (and likewise for 0; X sets neither).
    """
    if not rows:
        return [], []
    num_columns = len(rows[0])
    ones = [0] * num_columns
    zeros = [0] * num_columns
    for slot, row in enumerate(rows):
        if len(row) != num_columns:
            raise ValueError("ragged rows cannot be packed")
        bit = 1 << slot
        for j, value in enumerate(row):
            if value == ONE:
                ones[j] |= bit
            elif value == ZERO:
                zeros[j] |= bit
    return ones, zeros


def unpack_column(one: int, zero: int, width: int) -> List[int]:
    """Decode one (one, zero) plane pair into *width* per-slot values."""
    values = []
    for slot in range(width):
        bit = 1 << slot
        if one & bit:
            values.append(ONE)
        elif zero & bit:
            values.append(ZERO)
        else:
            values.append(UNKNOWN)
    return values


def broadcast_planes(
    values: Sequence[int], mask: int
) -> Tuple[List[int], List[int]]:
    """Broadcast one scalar row to every slot of a *mask*-wide batch."""
    ones = []
    zeros = []
    for value in values:
        if value == ONE:
            ones.append(mask)
            zeros.append(0)
        elif value == ZERO:
            ones.append(0)
            zeros.append(mask)
        else:
            ones.append(0)
            zeros.append(0)
    return ones, zeros


# ----------------------------------------------------------------------
# The levelized evaluation pass (int backend)
# ----------------------------------------------------------------------
def eval_pass(
    ir: CircuitIR,
    ones: List[int],
    zeros: List[int],
    mask: int,
    pin_overrides: Optional[PinOverrides] = None,
    dirty_slots: Optional[FrozenSet[int]] = None,
) -> None:
    """Evaluate the combinational core over the planes, in place.

    Frame sources (primary inputs and present-state lines) must already
    be set in *ones* / *zeros*; every other line is recomputed.  *mask*
    has one bit per live slot.  *pin_overrides* maps CSR fanin indices
    (see :meth:`CircuitIR.pin_slot`) to :data:`Override` triples;
    *dirty_slots* is the set of schedule slots with at least one
    overridden pin (gates outside it take the override-free fast path).
    """
    off = ir.fanin_offsets
    fl = ir.fanin_lines
    outs = ir.outs
    pin = pin_overrides if pin_overrides else {}
    dirty = dirty_slots if dirty_slots else frozenset()
    for op, start, end in ir.groups:
        if op <= OP_NOR:  # AND / NAND / OR / NOR
            conjunctive = op <= OP_NAND
            negated = op == OP_NAND or op == OP_NOR
            for s in range(start, end):
                lo, hi = off[s], off[s + 1]
                if dirty and s in dirty:
                    if conjunctive:
                        acc1, acc0 = mask, 0
                        for i in range(lo, hi):
                            line = fl[i]
                            v1, v0 = ones[line], zeros[line]
                            forced = pin.get(i)
                            if forced is not None:
                                f1, f0, keep = forced
                                v1 = (v1 & keep) | f1
                                v0 = (v0 & keep) | f0
                            acc1 &= v1
                            acc0 |= v0
                    else:
                        acc1, acc0 = 0, mask
                        for i in range(lo, hi):
                            line = fl[i]
                            v1, v0 = ones[line], zeros[line]
                            forced = pin.get(i)
                            if forced is not None:
                                f1, f0, keep = forced
                                v1 = (v1 & keep) | f1
                                v0 = (v0 & keep) | f0
                            acc1 |= v1
                            acc0 &= v0
                elif conjunctive:
                    acc1, acc0 = mask, 0
                    for i in range(lo, hi):
                        line = fl[i]
                        acc1 &= ones[line]
                        acc0 |= zeros[line]
                else:
                    acc1, acc0 = 0, mask
                    for i in range(lo, hi):
                        line = fl[i]
                        acc1 |= ones[line]
                        acc0 &= zeros[line]
                out = outs[s]
                if negated:
                    ones[out], zeros[out] = acc0, acc1
                else:
                    ones[out], zeros[out] = acc1, acc0
        elif op <= OP_XNOR:  # XOR / XNOR by plane recurrence
            for s in range(start, end):
                lo, hi = off[s], off[s + 1]
                check = dirty and s in dirty
                line = fl[lo]
                r1, r0 = ones[line], zeros[line]
                if check:
                    forced = pin.get(lo)
                    if forced is not None:
                        f1, f0, keep = forced
                        r1 = (r1 & keep) | f1
                        r0 = (r0 & keep) | f0
                for i in range(lo + 1, hi):
                    line = fl[i]
                    v1, v0 = ones[line], zeros[line]
                    if check:
                        forced = pin.get(i)
                        if forced is not None:
                            f1, f0, keep = forced
                            v1 = (v1 & keep) | f1
                            v0 = (v0 & keep) | f0
                    r1, r0 = (r1 & v0) | (r0 & v1), (r1 & v1) | (r0 & v0)
                out = outs[s]
                if op == OP_XNOR:
                    ones[out], zeros[out] = r0, r1
                else:
                    ones[out], zeros[out] = r1, r0
        elif op == OP_NOT or op == OP_BUF:
            for s in range(start, end):
                lo = off[s]
                line = fl[lo]
                v1, v0 = ones[line], zeros[line]
                if dirty and s in dirty:
                    forced = pin.get(lo)
                    if forced is not None:
                        f1, f0, keep = forced
                        v1 = (v1 & keep) | f1
                        v0 = (v0 & keep) | f0
                out = outs[s]
                if op == OP_NOT:
                    ones[out], zeros[out] = v0, v1
                else:
                    ones[out], zeros[out] = v1, v0
        else:  # CONST0 / CONST1
            for s in range(start, end):
                out = outs[s]
                if op == OP_CONST0:
                    ones[out], zeros[out] = 0, mask
                else:
                    ones[out], zeros[out] = mask, 0


# ----------------------------------------------------------------------
# Frame-level entry points
# ----------------------------------------------------------------------
def _set_sources(
    ir: CircuitIR,
    ones: List[int],
    zeros: List[int],
    pi_ones: Sequence[int],
    pi_zeros: Sequence[int],
    ps_ones: Sequence[int],
    ps_zeros: Sequence[int],
) -> None:
    for line, v1, v0 in zip(ir.inputs, pi_ones, pi_zeros):
        ones[line], zeros[line] = v1, v0
    for line, v1, v0 in zip(ir.ps_lines, ps_ones, ps_zeros):
        ones[line], zeros[line] = v1, v0


def eval_frame_values(
    circuit: Circuit,
    pi_values: Sequence[int],
    ps_values: Sequence[int],
) -> List[int]:
    """Single-slot IR evaluation of one frame.

    Drop-in equivalent of :func:`repro.sim.frame.eval_frame` (same
    argument validation, same return shape), routed through the packed
    kernel at width 1.
    """
    ir = compile_circuit(circuit)
    if len(pi_values) != len(ir.inputs):
        raise ValueError(
            f"expected {len(ir.inputs)} input values, got {len(pi_values)}"
        )
    if len(ps_values) != len(ir.ps_lines):
        raise ValueError(
            f"expected {len(ir.ps_lines)} state values, got {len(ps_values)}"
        )
    ones = [0] * ir.num_lines
    zeros = [0] * ir.num_lines
    pi_ones, pi_zeros = broadcast_planes(pi_values, 1)
    ps_ones, ps_zeros = broadcast_planes(ps_values, 1)
    _set_sources(ir, ones, zeros, pi_ones, pi_zeros, ps_ones, ps_zeros)
    eval_pass(ir, ones, zeros, 1)
    return [
        ONE if ones[line] else (ZERO if zeros[line] else UNKNOWN)
        for line in range(ir.num_lines)
    ]


@dataclass
class FramePlanes:
    """Packed result of one PPSFP frame evaluation.

    The planes stay packed -- decoding every line of every slot costs
    more than the evaluation itself, so consumers extract only what
    they need (:meth:`output_values`, :meth:`next_state_values`) or
    decode whole slots on demand (:meth:`line_values`, the differential
    suite's path).
    """

    ir: CircuitIR
    width: int
    mask: int
    ones: List[int]
    zeros: List[int]

    def _decode(self, lines: Sequence[int], slot: int) -> List[int]:
        bit = 1 << slot
        ones = self.ones
        zeros = self.zeros
        return [
            ONE if ones[line] & bit
            else (ZERO if zeros[line] & bit else UNKNOWN)
            for line in lines
        ]

    def line_values(self, slot: int) -> List[int]:
        """All line values of one slot (``eval_frame`` shape)."""
        return self._decode(range(self.ir.num_lines), slot)

    def output_values(self, slot: int) -> List[int]:
        return self._decode(self.ir.outputs, slot)

    def next_state_values(self, slot: int) -> List[int]:
        return self._decode(self.ir.ns_lines, slot)


def eval_frame_planes(
    circuit: Circuit,
    patterns: Sequence[Sequence[int]],
    states: Optional[Sequence[Sequence[int]]] = None,
) -> FramePlanes:
    """PPSFP frame evaluation: W patterns through one levelized pass.

    ``patterns[k]`` (and optionally ``states[k]``; all-X by default) is
    simulated in slot *k*.  The planes are returned packed; slot *k*
    decodes to exactly ``eval_frame(circuit, patterns[k], states[k])``.
    """
    ir = compile_circuit(circuit)
    width = len(patterns)
    if states is not None and len(states) != width:
        raise ValueError("states must have one row per pattern")
    for row in patterns:
        if len(row) != len(ir.inputs):
            raise ValueError(
                f"expected {len(ir.inputs)} input values, got {len(row)}"
            )
    mask = (1 << width) - 1
    pi_ones, pi_zeros = pack_columns(patterns)
    if states is None:
        ps_ones = [0] * len(ir.ps_lines)
        ps_zeros = [0] * len(ir.ps_lines)
    else:
        ps_ones, ps_zeros = pack_columns(states)
    ones = [0] * ir.num_lines
    zeros = [0] * ir.num_lines
    _set_sources(ir, ones, zeros, pi_ones, pi_zeros, ps_ones, ps_zeros)
    eval_pass(ir, ones, zeros, mask)
    return FramePlanes(ir=ir, width=width, mask=mask, ones=ones, zeros=zeros)


def eval_frame_patterns(
    circuit: Circuit,
    patterns: Sequence[Sequence[int]],
    states: Optional[Sequence[Sequence[int]]] = None,
    backend: str = "int",
) -> List[List[int]]:
    """PPSFP frame evaluation, fully decoded per slot.

    Like :func:`eval_frame_planes` but decoding every slot back into a
    full line-value list (the shape the differential suite compares
    against the interpreter).  *backend* selects the plane
    representation: ``"int"`` (wide Python integers) or ``"numpy"``
    (uint64 lanes; requires numpy).
    """
    width = len(patterns)
    if width == 0:
        return []
    if backend == "numpy":
        ir = compile_circuit(circuit)
        if states is not None and len(states) != width:
            raise ValueError("states must have one row per pattern")
        for row in patterns:
            if len(row) != len(ir.inputs):
                raise ValueError(
                    f"expected {len(ir.inputs)} input values, got {len(row)}"
                )
        return _eval_frame_patterns_np(ir, patterns, states)
    if backend != "int":
        raise ValueError(f"unknown kernel backend {backend!r}")
    planes = eval_frame_planes(circuit, patterns, states)
    return [planes.line_values(slot) for slot in range(width)]


# ----------------------------------------------------------------------
# The slot runner: every sequential simulation
# ----------------------------------------------------------------------
#: Per-frame tap of :func:`run_slots`: ``(ones, zeros, out_one,
#: out_zero, state_one, state_zero)``.
FrameTap = Callable[
    [List[int], List[int], List[int], List[int], List[int], List[int]],
    None,
]


def _apply_overrides(
    table: Dict[int, Override], one: List[int], zero: List[int]
) -> None:
    for index, (f1, f0, keep) in table.items():
        one[index] = (one[index] & keep) | f1
        zero[index] = (zero[index] & keep) | f0


def _decode_slot(
    ones: Iterable[int], zeros: Iterable[int], bit: int
) -> List[int]:
    """The values of the slot *bit* selects, one per plane pair."""
    return [
        ONE if one & bit else (ZERO if zero & bit else UNKNOWN)
        for one, zero in zip(ones, zeros)
    ]


def _decode_width1(ones: Iterable[int], zeros: Iterable[int]) -> List[int]:
    """:func:`_decode_slot` of slot 0 when the planes are one slot wide."""
    return [
        ONE if one else (ZERO if zero else UNKNOWN)
        for one, zero in zip(ones, zeros)
    ]


def _broadcast_frames(
    ir: CircuitIR, patterns: Sequence[Sequence[int]], mask: int
) -> Iterable[Tuple[List[int], List[int]]]:
    for pattern in patterns:
        if len(pattern) != len(ir.inputs):
            raise ValueError(
                f"expected {len(ir.inputs)} input values, got {len(pattern)}"
            )
        yield broadcast_planes(pattern, mask)


def run_slots(
    ir: CircuitIR,
    mask: int,
    state_one: Sequence[int],
    state_zero: Sequence[int],
    pi_planes: Iterable[Tuple[Sequence[int], Sequence[int]]],
    tap: FrameTap,
    batch: Optional[CompiledFaultBatch] = None,
) -> None:
    """Simulate *mask*-wide slots frame by frame: the one sequential loop.

    *state_one* / *state_zero* are the packed initial present-state
    planes; *pi_planes* yields one ``(pi_ones, pi_zeros)`` pair per
    frame.  *batch* overrides pins, output taps, flip-flop data pins and
    pinned states (its ``forced_state`` also pins the initial state).
    After each frame *tap* receives the line planes ``(ones, zeros)``
    (overwritten by the next frame) and fresh lists of the primary-output
    and next-state planes, overrides applied.
    """
    pin: Optional[PinOverrides] = None
    dirty: Optional[FrozenSet[int]] = None
    forced: Dict[int, Override] = {}
    if batch is not None:
        pin, dirty = batch.pin_overrides, batch.dirty_slots
        forced = batch.forced_state
    output_lines = ir.outputs
    ns_lines = ir.ns_lines
    ones = [0] * ir.num_lines
    zeros = [0] * ir.num_lines
    state_one = list(state_one)
    state_zero = list(state_zero)
    _apply_overrides(forced, state_one, state_zero)
    for pi_ones, pi_zeros in pi_planes:
        _set_sources(ir, ones, zeros, pi_ones, pi_zeros, state_one, state_zero)
        eval_pass(ir, ones, zeros, mask, pin, dirty)
        out_one = [ones[line] for line in output_lines]
        out_zero = [zeros[line] for line in output_lines]
        state_one = [ones[line] for line in ns_lines]
        state_zero = [zeros[line] for line in ns_lines]
        if batch is not None:
            _apply_overrides(batch.output_overrides, out_one, out_zero)
            _apply_overrides(batch.flop_overrides, state_one, state_zero)
            _apply_overrides(forced, state_one, state_zero)
        tap(ones, zeros, out_one, out_zero, state_one, state_zero)


def simulate_sequence_ir(
    circuit: Circuit,
    patterns: Sequence[Sequence[int]],
    initial_state: Optional[Sequence[int]] = None,
    forced_ps: Optional[Dict[int, int]] = None,
    keep_frames: bool = False,
) -> "SequentialResult":
    """IR-backed equivalent of :func:`repro.sim.sequential.simulate_sequence`.

    Returns the same :class:`~repro.sim.sequential.SequentialResult`
    shape (states / outputs / optional frames as plain value lists);
    the differential suite asserts bit identity with the interpreter.
    *forced_ps* runs as width-1 ``forced_state`` overrides.
    """
    from repro.sim.sequential import SequentialResult

    ir = compile_circuit(circuit)
    num_flops = len(ir.ps_lines)
    if initial_state is None:
        state = [UNKNOWN] * num_flops
    else:
        if len(initial_state) != num_flops:
            raise ValueError(
                f"expected {num_flops} state values, got {len(initial_state)}"
            )
        state = list(initial_state)
    pinned = None
    if forced_ps:
        forced: Dict[int, Override] = {}
        for flop_index, value in forced_ps.items():
            state[flop_index] = value
            forced[flop_index] = (
                int(value == ONE), int(value == ZERO), ~1
            )
        pinned = CompiledFaultBatch([], 1, 1, forced_state=forced)
    result = SequentialResult(
        states=[state], outputs=[], frames=[] if keep_frames else None
    )
    frames = result.frames

    def tap(
        ones: List[int], zeros: List[int],
        out_one: List[int], out_zero: List[int],
        state_one: List[int], state_zero: List[int],
    ) -> None:
        result.outputs.append(_decode_width1(out_one, out_zero))
        result.states.append(_decode_width1(state_one, state_zero))
        if frames is not None:
            frames.append(_decode_width1(ones, zeros))

    state_one, state_zero = broadcast_planes(state, 1)
    run_slots(
        ir, 1, state_one, state_zero,
        _broadcast_frames(ir, patterns, 1), tap, pinned,
    )
    return result


@dataclass
class PackedSequences:
    """Per-slot trajectories of a packed sequential simulation.

    ``outputs[u]`` / ``states[u]`` hold plane pairs per primary output /
    flip-flop; :meth:`output_values` and :meth:`state_values` decode one
    slot back into plain value lists.
    """

    width: int
    outputs_one: List[List[int]]
    outputs_zero: List[List[int]]
    states_one: List[List[int]]
    states_zero: List[List[int]]

    def output_values(self, frame: int, slot: int) -> List[int]:
        return _decode_slot(
            self.outputs_one[frame], self.outputs_zero[frame], 1 << slot
        )

    def state_values(self, frame: int, slot: int) -> List[int]:
        return _decode_slot(
            self.states_one[frame], self.states_zero[frame], 1 << slot
        )


def simulate_sequences_packed(
    circuit: Circuit,
    sequences: Sequence[Sequence[Sequence[int]]],
    initial_states: Optional[Sequence[Sequence[int]]] = None,
) -> PackedSequences:
    """Simulate W independent test sequences in one packed pass each.

    ``sequences[k]`` is the pattern sequence of slot *k*; all slots must
    have the same length.  ``initial_states[k]`` defaults to all-X.
    Slot *k* of the result is value-identical to
    ``simulate_sequence(circuit, sequences[k], initial_states[k])``.
    """
    ir = compile_circuit(circuit)
    width = len(sequences)
    if width == 0:
        return PackedSequences(0, [], [], [], [])
    length = len(sequences[0])
    for sequence in sequences:
        if len(sequence) != length:
            raise ValueError("all packed sequences must have equal length")
    if initial_states is not None and len(initial_states) != width:
        raise ValueError("initial_states must have one row per sequence")
    if initial_states is None:
        state_one = [0] * len(ir.ps_lines)
        state_zero = [0] * len(ir.ps_lines)
    else:
        state_one, state_zero = pack_columns(initial_states)
    result = PackedSequences(width, [], [], [state_one], [state_zero])

    def tap(
        ones: List[int], zeros: List[int],
        out_one: List[int], out_zero: List[int],
        state_one: List[int], state_zero: List[int],
    ) -> None:
        result.outputs_one.append(out_one)
        result.outputs_zero.append(out_zero)
        result.states_one.append(state_one)
        result.states_zero.append(state_zero)

    pi_planes = (
        pack_columns([sequence[frame] for sequence in sequences])
        for frame in range(length)
    )
    run_slots(ir, (1 << width) - 1, state_one, state_zero, pi_planes, tap)
    return result


# ----------------------------------------------------------------------
# Parallel-fault batches (plane-mask fault injection)
# ----------------------------------------------------------------------
@dataclass
class CompiledFaultBatch:
    """Plane-mask overrides of one fault batch (or pinned states).

    Slot 0 is the fault-free machine; fault *j* (0-based in
    :attr:`faults`) occupies slot ``j + 1``.  Every table maps an index
    to an :data:`Override`: ``pin_overrides`` forces gate-input reads by
    CSR fanin index, ``output_overrides`` primary-output taps and
    ``flop_overrides`` flip-flop data pins; ``forced_state`` pins stuck
    present-state variables exactly like ``InjectedFault.forced_ps``
    (the initial state and every next state).
    """

    faults: List[Fault]
    width: int
    mask: int
    pin_overrides: PinOverrides = field(default_factory=dict)
    dirty_slots: FrozenSet[int] = frozenset()
    output_overrides: Dict[int, Override] = field(default_factory=dict)
    flop_overrides: Dict[int, Override] = field(default_factory=dict)
    forced_state: Dict[int, Override] = field(default_factory=dict)


def _with_keep(table: Dict[int, Tuple[int, int]]) -> Dict[int, Override]:
    return {key: (f1, f0, ~(f1 | f0)) for key, (f1, f0) in table.items()}


def compile_fault_batch(
    circuit: Circuit, faults: Sequence[Fault]
) -> CompiledFaultBatch:
    """Compile *faults* (slots 1..N) into plane-mask overrides."""
    ir = compile_circuit(circuit)
    pin_overrides: Dict[int, Tuple[int, int]] = {}
    output_overrides: Dict[int, Tuple[int, int]] = {}
    flop_overrides: Dict[int, Tuple[int, int]] = {}
    forced_state: Dict[int, Tuple[int, int]] = {}
    dirty: set = set()

    def merge(
        table: Dict[int, Tuple[int, int]], key: int, f1: int, f0: int
    ) -> None:
        old_one, old_zero = table.get(key, (0, 0))
        table[key] = (old_one | f1, old_zero | f0)

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
            if pin.kind == "gate":
                index = ir.pin_slot(pin.index, pin.pos)
                merge(pin_overrides, index, force_one, force_zero)
                dirty.add(ir.slot_of_gate[pin.index])
            elif pin.kind == "flop":
                merge(flop_overrides, pin.index, force_one, force_zero)
            else:  # "output"
                merge(output_overrides, pin.index, force_one, force_zero)
        if fault.pin is None:
            for flop_index, ps_line in enumerate(ir.ps_lines):
                if ps_line == fault.line:
                    merge(forced_state, flop_index, force_one, force_zero)
    return CompiledFaultBatch(
        faults=list(faults),
        width=len(faults) + 1,
        mask=(1 << (len(faults) + 1)) - 1,
        pin_overrides=_with_keep(pin_overrides),
        dirty_slots=frozenset(dirty),
        output_overrides=_with_keep(output_overrides),
        flop_overrides=_with_keep(flop_overrides),
        forced_state=_with_keep(forced_state),
    )


def simulate_fault_batch(
    circuit: Circuit,
    batch: CompiledFaultBatch,
    patterns: Sequence[Sequence[int]],
    reference: Optional["SequentialResult"] = None,
) -> int:
    """Sequentially simulate one compiled batch; return the detection mask.

    Bit *j* of the result is set when fault *j* (slot ``j + 1``) is
    conventionally detected: its response and the fault-free slot-0
    response hold opposite specified values at some (time, output)
    position.  Detection semantics match
    :func:`repro.fsim.conventional.run_conventional` exactly.  When
    *reference* is given (empty), slot 0's trajectory is appended to its
    ``states`` and ``outputs``: the values
    ``simulate_sequence(circuit, patterns)`` returns.
    """
    ir = compile_circuit(circuit)
    num_flops = len(ir.ps_lines)
    if reference is not None:
        reference.states.append([UNKNOWN] * num_flops)
    detected = 0

    def tap(
        ones: List[int], zeros: List[int],
        out_one: List[int], out_zero: List[int],
        state_one: List[int], state_zero: List[int],
    ) -> None:
        nonlocal detected
        for v1, v0 in zip(out_one, out_zero):
            if v1 & 1:
                detected |= v0
            elif v0 & 1:
                detected |= v1
        if reference is not None:
            reference.outputs.append(_decode_slot(out_one, out_zero, 1))
            reference.states.append(_decode_slot(state_one, state_zero, 1))

    run_slots(
        ir, batch.mask, [0] * num_flops, [0] * num_flops,
        _broadcast_frames(ir, patterns, batch.mask), tap, batch,
    )
    return detected >> 1  # drop the fault-free slot


# ----------------------------------------------------------------------
# numpy lane backend (optional)
# ----------------------------------------------------------------------
def _eval_frame_patterns_np(
    ir: CircuitIR,
    patterns: Sequence[Sequence[int]],
    states: Optional[Sequence[Sequence[int]]],
) -> List[List[int]]:
    """PPSFP frame evaluation over uint64 lanes (numpy backend).

    Slot *k* lives in lane ``k // 64``, bit ``k % 64``.  Per-gate work
    is one vectorized bitwise op per fanin over all lanes, so very wide
    batches pay the Python interpreter once per gate regardless of
    width.  Fault overrides are not supported on this backend (fault
    batches use the int planes).
    """
    try:
        import numpy as _np
    except ImportError:
        raise RuntimeError(
            "numpy backend requested but numpy is not installed"
        ) from None
    width = len(patterns)
    lanes = (width + 63) // 64
    ones = _np.zeros((ir.num_lines, lanes), dtype=_np.uint64)
    zeros = _np.zeros((ir.num_lines, lanes), dtype=_np.uint64)
    mask = _np.zeros(lanes, dtype=_np.uint64)
    for slot in range(width):
        mask[slot // 64] |= _np.uint64(1 << (slot % 64))

    def pack_np(rows: Sequence[Sequence[int]], lines: Tuple[int, ...]) -> None:
        for slot, row in enumerate(rows):
            lane, bit = slot // 64, _np.uint64(1 << (slot % 64))
            for line, value in zip(lines, row):
                if value == ONE:
                    ones[line, lane] |= bit
                elif value == ZERO:
                    zeros[line, lane] |= bit

    pack_np(patterns, ir.inputs)
    if states is not None:
        pack_np(states, ir.ps_lines)
    off = ir.fanin_offsets
    fl = ir.fanin_lines
    outs = ir.outs
    for op, start, end in ir.groups:
        for s in range(start, end):
            lo, hi = off[s], off[s + 1]
            if op <= OP_NOR:
                conjunctive = op <= OP_NAND
                if conjunctive:
                    acc1, acc0 = mask.copy(), _np.zeros_like(mask)
                    for i in range(lo, hi):
                        line = fl[i]
                        acc1 &= ones[line]
                        acc0 |= zeros[line]
                else:
                    acc1, acc0 = _np.zeros_like(mask), mask.copy()
                    for i in range(lo, hi):
                        line = fl[i]
                        acc1 |= ones[line]
                        acc0 &= zeros[line]
                if op == OP_NAND or op == OP_NOR:
                    acc1, acc0 = acc0, acc1
            elif op <= OP_XNOR:
                line = fl[lo]
                acc1, acc0 = ones[line].copy(), zeros[line].copy()
                for i in range(lo + 1, hi):
                    line = fl[i]
                    v1, v0 = ones[line], zeros[line]
                    acc1, acc0 = (
                        (acc1 & v0) | (acc0 & v1),
                        (acc1 & v1) | (acc0 & v0),
                    )
                if op == OP_XNOR:
                    acc1, acc0 = acc0, acc1
            elif op == OP_NOT:
                line = fl[lo]
                acc1, acc0 = zeros[line].copy(), ones[line].copy()
            elif op == OP_BUF:
                line = fl[lo]
                acc1, acc0 = ones[line].copy(), zeros[line].copy()
            elif op == OP_CONST0:
                acc1, acc0 = _np.zeros_like(mask), mask.copy()
            else:
                acc1, acc0 = mask.copy(), _np.zeros_like(mask)
            ones[outs[s]] = acc1
            zeros[outs[s]] = acc0
    result: List[List[int]] = [[] for _ in range(width)]
    for line in range(ir.num_lines):
        for slot in range(width):
            lane, bit = slot // 64, _np.uint64(1 << (slot % 64))
            if ones[line, lane] & bit:
                result[slot].append(ONE)
            elif zeros[line, lane] & bit:
                result[slot].append(ZERO)
            else:
                result[slot].append(UNKNOWN)
    return result
