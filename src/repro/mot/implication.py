"""Frame implication engine: constraint propagation inside one time frame.

This engine powers backward implications (paper Section 2): after a
next-state line is assigned at time unit ``u-1``, values are propagated
through the frame in both directions -- "from outputs to inputs and then
from inputs to outputs" -- until either a :class:`~repro.logic.Conflict`
is found or no further values are forced.

Two propagation modes are provided:

* :meth:`FrameEngine.imply` -- event-driven worklist to fixpoint.  Finds a
  superset of the paper's two-pass implications (the paper itself notes
  "several passes over the circuit ... may be required to determine all
  the implications" and stops at two only to bound CPU time).
* :meth:`FrameEngine.imply_two_pass` -- exactly the paper's two sweeps
  (reverse-topological backward pass, then forward pass), for the
  fidelity ablation bench.

Both modes are sound: every value they assign holds in every complete
binary assignment consistent with the starting values, and a conflict is
raised only when no consistent completion exists.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, List, Mapping, Optional, Tuple

from repro.circuit.netlist import Circuit
from repro.logic.gates import OPCODES
from repro.logic.implication import (
    FORCE_OUT,
    FORCE_PINS,
    RULES,
    Conflict,
    Rule,
)
from repro.logic.values import UNKNOWN
from repro.obs.metrics import get_metrics

Assignment = Tuple[int, int]

#: Learned-implication trigger map (see :mod:`repro.analysis.learning`):
#: a ``(line, value)`` just specified maps to the ``(line, value)`` pairs
#: whose *presence* in the frame contradicts a learned implication.
LearnedChecks = Mapping[Assignment, Tuple[Assignment, ...]]

#: One gate as the engine sees it: its rule, output line and input lines.
_Gate = Tuple[Rule, int, Tuple[int, ...]]


class FrameEngine:
    """Reusable implication engine for one circuit.

    The engine precomputes, for every line, the driving gate and the
    consuming gates -- each as its closed-form opcode rule
    (:data:`repro.logic.implication.RULES`) plus its output and input
    lines -- so each :meth:`imply` call touches only the affected cone and
    evaluates a gate with one call on the frame's value list.

    When *learned* checks are installed (:meth:`set_learned`), every
    newly specified value is additionally tested against the statically
    learned indirect implications: a contradiction raises
    :class:`~repro.logic.Conflict` immediately, before (or instead of)
    the direct propagation discovering it.  Learned values are checked,
    never assigned, so the recorded implication sets are identical with
    and without learning.
    """

    def __init__(
        self, circuit: Circuit, learned: Optional[LearnedChecks] = None
    ) -> None:
        self.circuit = circuit
        self.learned = learned if learned else None
        self._gates: List[_Gate] = [
            (RULES[OPCODES[g.gate_type]], g.output, g.inputs)
            for g in circuit.gates
        ]
        # Gates to revisit when a line's value changes: its driver (if the
        # line is gate-driven) plus every gate reading it.
        touched: List[List[_Gate]] = [[] for _ in range(circuit.num_lines)]
        for gate_index, gate in enumerate(circuit.gates):
            touched[gate.output].append(self._gates[gate_index])
            for line in gate.inputs:
                touched[line].append(self._gates[gate_index])
        self._touched_gates = touched
        self._reverse_topo = list(reversed(circuit.topo_gates))

    # ------------------------------------------------------------------
    def set_learned(self, learned: Optional[LearnedChecks]) -> None:
        """Install (or clear, with ``None``/empty) learned checks."""
        self.learned = learned if learned else None

    def _check_learned(
        self, line: int, value: int, values: List[int]
    ) -> None:
        """Test the learned implications triggered by ``line = value``.

        Only called when ``self.learned`` is installed.  Raises
        :class:`Conflict` when the current frame values contradict a
        learned implication -- which is sound because every installed
        implication holds in the circuit being implied (fault masking is
        the caller's responsibility, see
        :meth:`repro.analysis.learning.ImplicationDB.for_fault`).
        """
        assert self.learned is not None
        checks = self.learned.get((line, value))
        if not checks:
            return
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("learning.hits")
        for other_line, other_value in checks:
            if values[other_line] == other_value:
                if metrics.enabled:
                    metrics.counter("learning.conflicts_early")
                names = self.circuit.line_names
                raise Conflict(
                    f"learned implication violated: {names[line]}={value} "
                    f"with {names[other_line]}={other_value}"
                )

    def _apply(
        self,
        outcome: int,
        gate: _Gate,
        values: List[int],
        queue: Optional[deque],
        record: Optional[List[Assignment]],
    ) -> None:
        """Write the values a gate rule forced (*outcome* is non-zero).

        The output comes first, then the input pins in order -- one entry
        per ``X`` pin, so a line read by two pins of the gate is recorded
        twice.  Raises Conflict when a learned check fails.
        """
        _rule, out, ins = gate
        if outcome >= FORCE_PINS:
            value = outcome - FORCE_PINS
            lines = [line for line in ins if values[line] == UNKNOWN]
        else:
            value = outcome - FORCE_OUT
            lines = [out]
        for line in lines:
            values[line] = value
            if record is not None:
                record.append((line, value))
            if queue is not None:
                queue.append(line)
            if self.learned is not None:
                self._check_learned(line, value, values)

    def _seed(
        self,
        values: List[int],
        assignments: Iterable[Assignment],
        record: Optional[List[Assignment]],
    ) -> List[int]:
        seeded: List[int] = []
        for line, value in assignments:
            current = values[line]
            if current == UNKNOWN:
                values[line] = value
                seeded.append(line)
                if record is not None:
                    record.append((line, value))
                if self.learned is not None:
                    self._check_learned(line, value, values)
            elif current != value:
                raise Conflict(
                    f"assignment {self.circuit.line_names[line]}={value} "
                    f"contradicts existing value {current}"
                )
        return seeded

    # ------------------------------------------------------------------
    def imply(
        self,
        values: List[int],
        assignments: Iterable[Assignment],
        record: Optional[List[Assignment]] = None,
    ) -> None:
        """Apply *assignments* to *values* and propagate to fixpoint.

        *values* is mutated in place (pass a copy if the original matters
        -- it may be partially mutated even when a Conflict is raised).
        Newly forced ``(line, value)`` pairs are appended to *record*.

        Raises
        ------
        Conflict
            When the assignments are inconsistent with *values* under the
            circuit's logic.
        """
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("mot.implication.runs")
        queue: deque = deque(self._seed(values, assignments, record))
        touched = self._touched_gates
        apply = self._apply
        while queue:
            for gate in touched[queue.popleft()]:
                outcome = gate[0](values, gate[1], gate[2])
                if outcome:
                    apply(outcome, gate, values, queue, record)

    def imply_two_pass(
        self,
        values: List[int],
        assignments: Iterable[Assignment],
        record: Optional[List[Assignment]] = None,
    ) -> None:
        """The paper's exact two-sweep implication schedule.

        One sweep from outputs to inputs (gates in reverse topological
        order), then one sweep from inputs to outputs.
        """
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("mot.implication.runs")
        self._seed(values, assignments, record)
        gates = self._gates
        for gate_index in self._reverse_topo + self.circuit.topo_gates:
            gate = gates[gate_index]
            outcome = gate[0](values, gate[1], gate[2])
            if outcome:
                self._apply(outcome, gate, values, None, record)
