"""Per-gate forward and backward implication rules.

These rules are the local building block of the frame implication engine
(:mod:`repro.mot.implication`).  Given the currently known three-valued
output and input values of a single gate, :func:`propagate_gate` computes
every value that is *forced* by three-valued reasoning:

* **forward**: if the inputs determine the output, the output is implied
  (e.g. any 0 input of an AND forces output 0);
* **backward**: if the output (plus some inputs) determines inputs, those
  inputs are implied.  For an AND gate with output 1 all inputs must be 1;
  for an AND gate with output 0 whose inputs are all 1 except a single
  ``X``, that ``X`` input must be 0.

Each gate family has a closed-form rule in :data:`RULES`, indexed by the
dense opcodes of :mod:`repro.logic.gates` and working directly on a
frame's value list (no per-gate allocation): it returns what one gate
forces in a single step, which is already the gate's local fixpoint.
The AND family, for instance, has four cases -- a controlling input
forces the output; all inputs non-controlling force the output; all
specified inputs non-controlling with some ``X`` force every ``X`` input
non-controlling under a non-controlled output; and under a controlled
output a single remaining ``X`` input is forced controlling.  The frame
engine calls the rules per gate; :func:`propagate_gate` is a thin wrapper
for one gate's values.

A contradiction (a line that would need to be both 0 and 1) raises
:class:`Conflict`.  Conflicts are how backward implications prune
infeasible state-variable values in the paper (Figure 4): a conflict when
``Y_i`` is set to ``a`` at time ``u-1`` proves present-state variable
``y_i`` cannot be ``a`` at time ``u``.

The rules are *sound*: an implied value holds in every complete binary
assignment consistent with the given partial values, and a conflict is
raised only when no consistent complete assignment exists **locally** for
this gate.  Soundness is property-tested against brute-force enumeration
in ``tests/logic/test_implication_properties.py``.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from repro.logic.gates import GateType, OPCODES
from repro.logic.values import ONE, UNKNOWN, ZERO


class Conflict(Exception):
    """Raised when implications force a line to both 0 and 1.

    The optional message describes the site of the contradiction; the MOT
    procedures only care *that* a conflict occurred (paper Section 3.1
    outcome (1)).
    """


# Outcomes of a gate rule.  One propagation step of a single gate never
# forces both its output and an input, and every input it forces takes
# the same value, so one small int says everything:
#: nothing is forced;
KEEP = 0
#: ``FORCE_OUT + v``: the output (currently ``X``) is forced to ``v``;
FORCE_OUT = 1
#: ``FORCE_PINS + v``: every input pin holding ``X`` is forced to ``v``.
FORCE_PINS = 3

#: ``rule(values, out, ins) -> outcome`` for a gate with output line
#: *out* and input lines *ins* over the frame's *values*.
Rule = Callable[[Sequence[int], int, Sequence[int]], int]


def _and_family(ctrl: int, inverted: int) -> Rule:
    """AND/NAND (``ctrl = 0``) and OR/NOR (``ctrl = 1``)."""
    nonctrl = 1 - ctrl
    controlled = ctrl ^ inverted  # output when some input is controlling
    free = nonctrl ^ inverted  # output when every input is non-controlling

    def rule(values: Sequence[int], out: int, ins: Sequence[int]) -> int:
        unknown = 0
        for line in ins:
            value = values[line]
            if value == ctrl:
                forced = controlled
                break
            if value == UNKNOWN:
                unknown += 1
        else:
            if unknown:
                # No controlling input, some X: only a specified output
                # implies anything.
                current = values[out]
                if current == free:
                    return FORCE_PINS + nonctrl
                if current != UNKNOWN and unknown == 1:
                    return FORCE_PINS + ctrl  # the last candidate
                return KEEP
            forced = free
        current = values[out]
        if current == UNKNOWN:
            return FORCE_OUT + forced
        if current != forced:
            raise Conflict("gate output contradicts its inputs")
        return KEEP

    return rule


def _xor_family(inverted: int) -> Rule:
    def rule(values: Sequence[int], out: int, ins: Sequence[int]) -> int:
        parity = inverted
        unknown = False
        for line in ins:
            value = values[line]
            if value == UNKNOWN:
                if unknown:
                    return KEEP  # two X inputs: nothing is implied
                unknown = True
            else:
                parity ^= value
        current = values[out]
        if unknown:
            if current == UNKNOWN:
                return KEEP
            return FORCE_PINS + (parity ^ current)
        if current == UNKNOWN:
            return FORCE_OUT + parity
        if current != parity:
            raise Conflict("XOR output contradicts its inputs")
        return KEEP

    return rule


def _unary(inverted: int) -> Rule:
    def rule(values: Sequence[int], out: int, ins: Sequence[int]) -> int:
        value = values[ins[0]]
        current = values[out]
        if value == UNKNOWN:
            if current == UNKNOWN:
                return KEEP
            return FORCE_PINS + (current ^ inverted)
        forced = value ^ inverted
        if current == UNKNOWN:
            return FORCE_OUT + forced
        if current != forced:
            raise Conflict("NOT/BUF output contradicts its input")
        return KEEP

    return rule


def _constant(forced: int) -> Rule:
    def rule(values: Sequence[int], out: int, ins: Sequence[int]) -> int:
        current = values[out]
        if current == UNKNOWN:
            return FORCE_OUT + forced
        if current != forced:
            raise Conflict("constant line contradiction")
        return KEEP

    return rule


#: Gate rule of each opcode (indexed by :data:`repro.logic.gates.OPCODES`).
RULES: Tuple[Rule, ...] = (
    _and_family(ZERO, 0),  # OP_AND
    _and_family(ZERO, 1),  # OP_NAND
    _and_family(ONE, 0),  # OP_OR
    _and_family(ONE, 1),  # OP_NOR
    _xor_family(0),  # OP_XOR
    _xor_family(1),  # OP_XNOR
    _unary(1),  # OP_NOT
    _unary(0),  # OP_BUF
    _constant(ZERO),  # OP_CONST0
    _constant(ONE),  # OP_CONST1
)


def propagate_gate(
    gate_type: GateType, out: int, ins: Sequence[int]
) -> Tuple[int, List[int]]:
    """Compute all locally forced values for one gate.

    Parameters
    ----------
    gate_type:
        The gate's primitive type.
    out:
        Currently known output value (possibly ``X``).
    ins:
        Currently known input values (possibly ``X``).

    Returns
    -------
    (new_out, new_ins):
        Values with every local implication applied.  Each returned value
        is either the original value or a newly specified one; specified
        values are never changed.

    Raises
    ------
    Conflict
        If the given values are locally inconsistent (no complete binary
        assignment of the ``X`` positions satisfies the gate function).
    """
    width = len(ins)
    values = [*ins, out]
    outcome = RULES[OPCODES[gate_type]](values, width, range(width))
    if outcome >= FORCE_PINS:
        forced = outcome - FORCE_PINS
        return out, [forced if v == UNKNOWN else v for v in ins]
    if outcome:
        return outcome - FORCE_OUT, list(ins)
    return out, list(ins)
