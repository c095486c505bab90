"""Fault simulation after expansion (paper Section 3.4).

Every expanded state sequence is resimulated at its *marked* time units.
Simulating frame ``u`` of a sequence uses the test pattern ``T[u]`` and
the (partially specified) state row ``S'[u]``; the computed outputs and
next state are then checked:

* outputs conflicting with the fault-free response => the fault is
  **detected** for this sequence;
* computed next-state values conflicting with already-assigned values in
  ``S'[u+1]`` => the sequence is **infeasible** (no initial state follows
  this trajectory);
* newly specified next-state values are written into ``S'[u+1]`` and time
  unit ``u+1`` is marked for simulation.

A sequence whose marked units are exhausted without either outcome stays
**unresolved**.  The fault is declared detected only when *every*
sequence resolves (detected or infeasible).

Only conventional frames are evaluated in full, each at most once.
:class:`FrameBase` holds the faulty circuit's conventional frames, and
frame ``u`` of a sequence is that conventional frame refined by
:func:`~repro.sim.divergence.refine_frame`: only the gates in the cone of
the present-state lines where ``S'[u]`` differs from the conventional
row are re-evaluated.  A frame is a deterministic function of its
primary-input and present-state values, so every other line keeps its
conventional value and the refined frame equals a full evaluation.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.logic.values import UNKNOWN
from repro.mot.expansion import StateSequence
from repro.obs.metrics import get_metrics
from repro.sim.divergence import cone_tables, refine_frame
from repro.sim.frame import eval_frame
from repro.sim.goodcache import GoodMachineCache


class FrameBase:
    """Conventional frames of one faulty circuit, refined per state row.

    *states* are the ``L + 1`` conventional state rows and *frames* (when
    already simulated, e.g. ``keep_frames=True`` results) their frames;
    a missing frame is evaluated once, on first use.  *states* must not
    alias the rows of any sequence being resimulated: those rows change,
    the base must not.
    """

    def __init__(
        self,
        circuit: Circuit,
        patterns: Sequence[Sequence[int]],
        states: Sequence[Sequence[int]],
        frames: Optional[List[List[int]]] = None,
    ) -> None:
        self.circuit = circuit
        self.patterns = patterns
        self.states = states
        self.frames: List[Optional[List[int]]] = (
            list(frames) if frames is not None else [None] * len(patterns)
        )
        self.tables = cone_tables(circuit)
        self.ps_lines = [flop.ps for flop in circuit.flops]
        # The last row refined at each time unit and its frame: sibling
        # sequences often share a row, so this saves many refinements.
        self._last: List[Optional[Tuple[List[int], List[int]]]] = [
            None
        ] * len(patterns)

    def frame(self, u: int) -> List[int]:
        """All line values of conventional frame *u*."""
        values = self.frames[u]
        if values is None:
            values = eval_frame(self.circuit, self.patterns[u], self.states[u])
            self.frames[u] = values
        return values

    def refine(self, u: int, row: Sequence[int]) -> List[int]:
        """All line values of frame *u* under present-state *row*.

        The returned list is shared: callers must not mutate it.
        """
        last = self._last[u]
        if last is not None and last[0] == row:
            return last[1]
        values = self.frame(u)
        ps_lines = self.ps_lines
        diff = {
            ps_lines[flop_index]: value
            for flop_index, (value, old) in enumerate(zip(row, self.states[u]))
            if value != old
        }
        if diff:
            evals = refine_frame(self.tables, values, diff)
            get_metrics().counter("mot.resim.gate_evals", evals)
            values = list(values)
            for line, value in diff.items():
                values[line] = value
        self._last[u] = (list(row), values)
        return values


class SequenceStatus(enum.Enum):
    """Resolution of one expanded state sequence."""

    DETECTED = "detected"
    INFEASIBLE = "infeasible"
    UNRESOLVED = "unresolved"


def resimulate_sequence(
    circuit: Circuit,
    patterns: Sequence[Sequence[int]],
    reference_outputs: Optional[Sequence[Sequence[int]]],
    sequence: StateSequence,
    forced_ps: Optional[Dict[int, int]] = None,
    detail: Optional[dict] = None,
    good: Optional[GoodMachineCache] = None,
    base: Optional[FrameBase] = None,
) -> SequenceStatus:
    """Resimulate the marked time units of *sequence* (mutated in place).

    *circuit* is the faulty netlist, *reference_outputs* the fault-free
    response.  Flops listed in *forced_ps* have a stuck output: their
    computed next-state values are masked by the stuck value, so they are
    neither checked for conflicts nor propagated.

    When *detail* (a dict) is supplied, a DETECTED outcome stores the
    witnessing ``(time unit, output position)`` under ``detail["site"]``
    -- used to build auditable detection certificates
    (:mod:`repro.mot.witness`).

    *good* supplies the fault-free response from a shared
    :class:`~repro.sim.goodcache.GoodMachineCache` instead; pass
    ``reference_outputs=None`` then (an explicit ``reference_outputs``
    wins -- the proposed simulator compares against *per-reference*
    expanded responses that are not the plain good-machine outputs).

    *base* supplies the fault's conventional frames (:class:`FrameBase`
    over *circuit* and *patterns*), shared by every sequence of the
    fault; without it the sequence's own rows at the call are the base.
    """
    if reference_outputs is None:
        if good is None:
            raise ValueError(
                "resimulate_sequence needs reference_outputs or a "
                "good-machine cache"
            )
        reference_outputs = good.outputs
        get_metrics().counter("goodcache.hit")
    length = len(patterns)
    marked = sequence.marked
    if base is None:
        base = FrameBase(
            circuit, patterns, [list(row) for row in sequence.states]
        )
    output_lines = circuit.outputs
    ns_lines = [flop.ns for flop in circuit.flops]
    forced = forced_ps or {}
    u = min(marked) if marked else length
    while u < length:
        if u not in marked:
            u += 1
            continue
        marked.discard(u)
        values = base.refine(u, sequence.states[u])
        reference = reference_outputs[u]
        for position, line in enumerate(output_lines):
            value = values[line]
            ref = reference[position]
            if value != UNKNOWN and ref != UNKNOWN and value != ref:
                if detail is not None:
                    detail["site"] = (u, position)
                return SequenceStatus.DETECTED
        next_row = sequence.states[u + 1]
        advanced = False
        for flop_index, line in enumerate(ns_lines):
            if flop_index in forced:
                continue
            computed = values[line]
            if computed == UNKNOWN:
                continue
            stored = next_row[flop_index]
            if stored == UNKNOWN:
                next_row[flop_index] = computed
                advanced = True
            elif stored != computed:
                return SequenceStatus.INFEASIBLE
        if advanced:
            marked.add(u + 1)
        u += 1
    marked.clear()
    return SequenceStatus.UNRESOLVED
