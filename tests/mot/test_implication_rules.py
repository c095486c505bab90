"""Differential suite: the opcode implication rules vs the generic loop.

:class:`repro.mot.implication.FrameEngine` evaluates every gate with a
closed-form rule per opcode (:data:`repro.logic.implication.RULES`).
The oracle kept here is the generic formulation the rules replaced: a
loop that alternates forward evaluation (:func:`repro.logic.gates.eval_gate`)
and per-family backward rules until nothing changes, applied per gate by
comparing every pin against a snapshot of its inputs.  The rules must
agree with it exactly:

* the same new values, and the same ``record`` order -- the output
  first, then one entry per changed pin in pin order, so a line read by
  two pins is recorded twice;
* :class:`~repro.logic.implication.Conflict` on exactly the same inputs,
  with the frame left in the same partial state;
* the same interleaving of learned checks, hence the same early
  conflicts.

Every gate state is enumerated exhaustively for every opcode, arities 1
to 4, with and without a duplicated fanin pin; whole-frame propagation
(both schedules, with and without learned checks) is compared on random
Moore machines, s27 and the Figure 4 circuit.
"""

import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.netlist import CircuitBuilder
from repro.circuits.generators import random_moore
from repro.circuits.library import fig4, s27
from repro.logic.gates import GateType, eval_gate
from repro.logic.implication import Conflict, propagate_gate
from repro.logic.values import ONE, UNKNOWN, ZERO, inv
from repro.mot.implication import FrameEngine
from repro.sim.frame import eval_frame

# ---------------------------------------------------------------- oracle
_AND_OR_FAMILY = {
    GateType.AND: (ZERO, False),
    GateType.NAND: (ZERO, True),
    GateType.OR: (ONE, False),
    GateType.NOR: (ONE, True),
}
_XOR_FAMILY = {GateType.XOR: False, GateType.XNOR: True}


def _backward_and_or(gate_type, out, ins):
    ctrl, inverted = _AND_OR_FAMILY[gate_type]
    nonctrl = inv(ctrl)
    underlying = inv(out) if inverted else out
    changed = False
    if underlying == nonctrl:
        for i, v in enumerate(ins):
            if v == ctrl:
                raise Conflict("output forces input")
            if v == UNKNOWN:
                ins[i] = nonctrl
                changed = True
    elif underlying == ctrl:
        if any(v == ctrl for v in ins):
            return changed
        unknown = [i for i, v in enumerate(ins) if v == UNKNOWN]
        if not unknown:
            raise Conflict("output unjustifiable")
        if len(unknown) == 1:
            ins[unknown[0]] = ctrl
            changed = True
    return changed


def _backward_xor(gate_type, out, ins):
    unknown = [i for i, v in enumerate(ins) if v == UNKNOWN]
    if len(unknown) != 1:
        return False
    parity = ZERO
    for v in ins:
        if v != UNKNOWN:
            parity ^= v
    target = inv(out) if _XOR_FAMILY[gate_type] else out
    ins[unknown[0]] = parity ^ target
    return True


def oracle_propagate(gate_type, out, ins):
    """The generic fixpoint loop over forward and backward rules."""
    new_ins = list(ins)
    new_out = out
    while True:
        changed = False
        forward = eval_gate(gate_type, new_ins)
        if forward != UNKNOWN:
            if new_out == UNKNOWN:
                new_out = forward
                changed = True
            elif new_out != forward:
                raise Conflict("output contradiction")
        if new_out != UNKNOWN:
            if gate_type in _AND_OR_FAMILY:
                changed |= _backward_and_or(gate_type, new_out, new_ins)
            elif gate_type in _XOR_FAMILY:
                changed |= _backward_xor(gate_type, new_out, new_ins)
            elif gate_type is GateType.NOT and new_ins[0] == UNKNOWN:
                new_ins[0] = inv(new_out)
                changed = True
            elif gate_type is GateType.BUF and new_ins[0] == UNKNOWN:
                new_ins[0] = new_out
                changed = True
        if not changed:
            return new_out, new_ins


class OracleEngine(FrameEngine):
    """The frame engine driven by :func:`oracle_propagate` per gate."""

    def __init__(self, circuit, learned=None):
        super().__init__(circuit, learned)
        self._oracle_touched = [[] for _ in range(circuit.num_lines)]
        for index, gate in enumerate(circuit.gates):
            self._oracle_touched[gate.output].append(index)
            for line in gate.inputs:
                self._oracle_touched[line].append(index)

    def _process(self, gate_index, values, queue, record):
        gate = self.circuit.gates[gate_index]
        out_value = values[gate.output]
        in_values = [values[line] for line in gate.inputs]
        new_out, new_ins = oracle_propagate(
            gate.gate_type, out_value, in_values
        )
        changes = [(gate.output, out_value, new_out)]
        changes += zip(gate.inputs, in_values, new_ins)
        for line, old, new in changes:
            if new != old:
                values[line] = new
                if record is not None:
                    record.append((line, new))
                if queue is not None:
                    queue.append(line)
                if self.learned is not None:
                    self._check_learned(line, new, values)

    def imply(self, values, assignments, record=None):
        queue = deque(self._seed(values, assignments, record))
        while queue:
            for gate_index in self._oracle_touched[queue.popleft()]:
                self._process(gate_index, values, queue, record)

    def imply_two_pass(self, values, assignments, record=None):
        self._seed(values, assignments, record)
        order = list(reversed(self.circuit.topo_gates))
        for gate_index in order + self.circuit.topo_gates:
            self._process(gate_index, values, None, record)


def _outcome(engine, method, values, assignments):
    """(values, record, conflicted) after one propagation run."""
    values = list(values)
    record = []
    try:
        getattr(engine, method)(values, assignments, record)
    except Conflict:
        return values, record, True
    return values, record, False


# ------------------------------------------------------ exhaustive gates
_GATE_SHAPES = [
    (gate_type, arity, duplicate)
    for gate_type in GateType
    for arity in (
        (0,) if gate_type in (GateType.CONST0, GateType.CONST1)
        else (1,) if gate_type in (GateType.NOT, GateType.BUF)
        else (1, 2, 3, 4)
    )
    for duplicate in ((False, True) if arity >= 2 else (False,))
]


def _one_gate(gate_type, arity, duplicate):
    """A single gate; with *duplicate* its last pin repeats pin 0."""
    builder = CircuitBuilder("one_gate")
    names = [f"a{k}" for k in range(arity - 1 if duplicate else arity)]
    for name in names:
        builder.add_input(name)
    pins = names + (["a0"] if duplicate else [])
    builder.add_gate(gate_type, "y", pins)
    builder.add_output("y")
    return builder.build()


@pytest.mark.parametrize("gate_type,arity,duplicate", _GATE_SHAPES)
def test_every_gate_state_matches_oracle(gate_type, arity, duplicate):
    circuit = _one_gate(gate_type, arity, duplicate)
    engine = FrameEngine(circuit)
    oracle = OracleEngine(circuit)
    for state in itertools.product(
        (ZERO, ONE, UNKNOWN), repeat=circuit.num_lines
    ):
        # The two-pass schedule applies the gate's rule to the state as
        # given, without seeding anything first.
        got = _outcome(engine, "imply_two_pass", state, [])
        want = _outcome(oracle, "imply_two_pass", state, [])
        assert got == want, state


@pytest.mark.parametrize("gate_type,arity,duplicate", _GATE_SHAPES)
def test_gate_step_from_each_line_matches_oracle(gate_type, arity, duplicate):
    """Seed one line of the gate and propagate through the worklist."""
    circuit = _one_gate(gate_type, arity, duplicate)
    engine = FrameEngine(circuit)
    oracle = OracleEngine(circuit)
    for state in itertools.product(
        (ZERO, ONE, UNKNOWN), repeat=circuit.num_lines
    ):
        for line, value in itertools.product(
            range(circuit.num_lines), (ZERO, ONE)
        ):
            if state[line] != UNKNOWN:
                continue
            got = _outcome(engine, "imply", state, [(line, value)])
            want = _outcome(oracle, "imply", state, [(line, value)])
            assert got == want, (state, line, value)


@pytest.mark.parametrize(
    "gate_type,arity",
    sorted(
        {(g, a) for g, a, _d in _GATE_SHAPES}, key=lambda p: (p[0].value, p[1])
    ),
)
def test_propagate_gate_matches_oracle(gate_type, arity):
    for out, *ins in itertools.product(
        (ZERO, ONE, UNKNOWN), repeat=arity + 1
    ):
        try:
            want = oracle_propagate(gate_type, out, ins)
        except Conflict:
            with pytest.raises(Conflict):
                propagate_gate(gate_type, out, ins)
            continue
        assert propagate_gate(gate_type, out, ins) == want


# --------------------------------------------------------- whole frames
def _random_learned(circuit, rng):
    """Arbitrary learned checks: both engines must consult them alike."""
    lines = range(circuit.num_lines)
    return {
        (rng.choice(lines), rng.choice((ZERO, ONE))): tuple(
            (rng.choice(lines), rng.choice((ZERO, ONE)))
            for _ in range(rng.randint(1, 2))
        )
        for _ in range(rng.randint(1, 6))
    }


def _check_frames(circuit, rng, learned):
    engine = FrameEngine(circuit, learned=learned)
    oracle = OracleEngine(circuit, learned=learned)
    xs = (ZERO, ONE, UNKNOWN)
    for _ in range(12):
        if rng.random() < 0.3:
            start = [UNKNOWN] * circuit.num_lines
        else:
            start = eval_frame(
                circuit,
                [rng.choice(xs) for _ in range(circuit.num_inputs)],
                [rng.choice(xs) for _ in range(circuit.num_flops)],
            )
        assignments = [
            (rng.randrange(circuit.num_lines), rng.choice((ZERO, ONE)))
            for _ in range(rng.randint(1, 3))
        ]
        for method in ("imply", "imply_two_pass"):
            got = _outcome(engine, method, start, assignments)
            want = _outcome(oracle, method, start, assignments)
            assert got == want, (start, assignments, method)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), learning=st.booleans())
def test_random_frames_match_oracle(seed, learning):
    circuit = random_moore(seed, num_gates=24, max_fanin=4)
    rng = random.Random(seed)
    _check_frames(
        circuit, rng, _random_learned(circuit, rng) if learning else None
    )


@pytest.mark.parametrize("build", [s27, fig4])
@pytest.mark.parametrize("learning", [False, True])
def test_library_frames_match_oracle(build, learning):
    circuit = build()
    rng = random.Random(7)
    _check_frames(
        circuit, rng, _random_learned(circuit, rng) if learning else None
    )
