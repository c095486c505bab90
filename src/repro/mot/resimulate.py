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

All sequences of a fault are resolved in one pass
(:func:`resimulate_sequences`), one slot per sequence of a plane word.
The pass walks the time units once; at each unit only the slots marked
there are *active*, and only active slots are checked, written back or
retired, so every slot follows exactly the event-driven loop above.
Only conventional frames are evaluated in full, each at most once.
:class:`FrameBase` holds the faulty circuit's conventional frames, and
a packed frame is the conventional frame refined by
:func:`~repro.sim.divergence.refine_planes`: only the gates in the cone
of the present-state lines where some active slot's row differs from
the conventional row are re-evaluated, once for every slot.  A frame is
a deterministic function of its primary-input and present-state values,
so a line outside that cone holds its conventional value in every slot.
An output or next-state line outside it therefore behaves as in the
conventional frame, which (for a consistent base and rows that refine
it) neither detects nor conflicts nor specifies anything new; only the
base's own conflicts are checked there.  :func:`resimulate_sequence` is
the width-1 call.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.logic.values import ONE, UNKNOWN, ZERO
from repro.mot.expansion import StateSequence
from repro.obs.metrics import get_metrics
from repro.sim.divergence import (
    Planes,
    cone_tables,
    refine_frame,
    refine_planes,
)
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
        # The last row refined at each time unit and its frame: the [4]
        # pair selection refines the same row for every candidate pair.
        self._last: List[Optional[Tuple[List[int], List[int]]]] = [
            None
        ] * len(patterns)
        self._unknowns: List[Optional[Tuple[int, ...]]] = [None] * len(states)

    def frame(self, u: int) -> List[int]:
        """All line values of conventional frame *u*."""
        values = self.frames[u]
        if values is None:
            values = eval_frame(self.circuit, self.patterns[u], self.states[u])
            self.frames[u] = values
        return values

    def unknowns(self, u: int) -> Tuple[int, ...]:
        """The flops left ``X`` in conventional row *u*: the only ones
        where a row agreeing with the base wherever the base is
        specified can differ from it."""
        positions = self._unknowns[u]
        if positions is None:
            positions = tuple(
                i for i, value in enumerate(self.states[u]) if value == UNKNOWN
            )
            self._unknowns[u] = positions
        return positions

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


Site = Tuple[int, int]


def _slots(mask: int) -> Iterator[int]:
    """The slot indexes of the set bits of *mask*, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def resimulate_sequences(
    circuit: Circuit,
    patterns: Sequence[Sequence[int]],
    reference_outputs: Sequence[Sequence[int]],
    sequences: Sequence[StateSequence],
    forced_ps: Optional[Dict[int, int]],
    base: FrameBase,
    sites: Optional[List[Optional[Site]]] = None,
) -> List[SequenceStatus]:
    """Resolve every sequence of one fault in one packed pass.

    *circuit* is the faulty netlist, *reference_outputs* the response
    to compare against and *base* the fault's conventional frames
    (:class:`FrameBase` over *circuit* and *patterns*).  Every row of
    every sequence must agree with ``base.states`` wherever the latter
    is specified (expansion and resimulation only ever specify ``X``
    positions).  Flops listed in *forced_ps* have a stuck output: their
    computed next-state values are masked by the stuck value, so they
    are neither checked for conflicts nor propagated.

    Sequence ``k`` is slot ``k``.  Each slot gets the per-sequence
    semantics of Section 3.4: its frame counts only at its marked units
    (each is unmarked when reached), it retires on its first detection
    or conflict, and only its newly specified next-state values are
    written back (up to its first conflicting flop), marking the next
    unit.  Rows and ``marked`` sets are mutated in place; an unresolved
    sequence ends with ``marked`` empty.  Returns one status per
    sequence.  When *sites* (a list) is given it is filled with one
    entry per sequence: the ``(time unit, output position)`` of a
    detection -- the first detecting unit and its lowest conflicting
    output -- or ``None``.
    """
    width = len(sequences)
    statuses = [SequenceStatus.UNRESOLVED] * width
    if sites is not None:
        sites[:] = [None] * width
    length = len(patterns)
    full = (1 << width) - 1
    bcast = ((0, full), (full, 0), (0, 0))  # ZERO, ONE, UNKNOWN
    forced = forced_ps or {}
    output_lines = circuit.outputs
    ns_lines = [flop.ns for flop in circuit.flops]
    ps_lines = base.ps_lines
    tables = base.tables
    taps, loads = tables.taps, tables.loads
    rows_of = [sequence.states for sequence in sequences]
    # pending[u]: the slots marked at unit u.
    pending = [0] * length
    for k, sequence in enumerate(sequences):
        for u in sequence.marked:
            if u < length:
                pending[u] |= 1 << k
    marks = [u for u in range(length) if pending[u]]
    # The pass runs from the earliest mark to the last unit any slot can
    # still reach (write-backs extend it one unit at a time).
    start, horizon = (marks[0], marks[-1]) if marks else (0, -1)
    live = full
    retired_at = [length] * width
    passes = evals = 0
    for u in range(start, length):
        if u > horizon or not live:
            break
        active = pending[u] & live
        if not active:
            continue
        passes += 1
        # Slots sharing their row at u (and at u + 1) compute the same
        # frame (and the same outcome): one group (subgroup) each.
        # Siblings share most rows, so a few list comparisons find them.
        groups: List[List] = []  # [row, slot mask, subgroups]
        for k in _slots(active):
            rows = rows_of[k]
            row, next_row = rows[u], rows[u + 1]
            for group in groups:
                if group[0] == row:
                    group[1] |= 1 << k
                    break
            else:
                group = [row, 1 << k, []]
                groups.append(group)
            subgroups = group[2]
            for stored_row, members in subgroups:
                if stored_row == next_row:
                    members.append(k)
                    break
            else:
                subgroups.append((next_row, [k]))
        # Present state: each group's values at the base's X positions
        # (rows agree with the base wherever it is specified).
        unknowns = base.unknowns(u)
        diff: Dict[int, Planes] = {}
        for row, mask, _ in groups:
            for flop_index in unknowns:
                value = row[flop_index]
                if value != UNKNOWN:
                    line = ps_lines[flop_index]
                    ones, zeros = diff.get(line, (0, 0))
                    if value == ONE:
                        diff[line] = (ones | mask, zeros)
                    else:
                        diff[line] = (ones, zeros | mask)
        values = base.frame(u)
        evals += refine_planes(tables, values, diff, full)
        get = diff.get

        # Outputs: tapped changed lines, plus the base's own conflicts.
        reference = reference_outputs[u]
        positions = {
            position
            for position, line in enumerate(output_lines)
            if values[line] != UNKNOWN
            and reference[position] != UNKNOWN
            and values[line] != reference[position]
        }
        for line in diff:
            positions.update(taps.get(line, ()))
        detected = 0
        for position in sorted(positions):
            ref = reference[position]
            if ref == UNKNOWN:
                continue
            line = output_lines[position]
            ones, zeros = get(line) or bcast[values[line]]
            hit = (zeros if ref == ONE else ones) & active & ~detected
            if hit:
                detected |= hit
                for k in _slots(hit):
                    statuses[k] = SequenceStatus.DETECTED
                    retired_at[k] = u
                    if sites is not None:
                        sites[k] = (u, position)

        # Next state: loads of changed lines, plus flops where the base
        # frame's next state differs from the base row.
        next_base = base.states[u + 1]
        flops = {
            flop_index
            for flop_index, line in enumerate(ns_lines)
            if values[line] != UNKNOWN and values[line] != next_base[flop_index]
        }
        for line in diff:
            flops.update(loads.get(line, ()))
        checks = []
        for flop_index in sorted(flops):
            if flop_index not in forced:
                line = ns_lines[flop_index]
                checks.append((flop_index, *(get(line) or bcast[values[line]])))
        conflicted = advanced = 0
        for _, mask, subgroups in groups if checks else ():
            if mask & detected:
                continue  # the whole group detected
            for stored_row, members in subgroups:
                k = members[0]
                written = None
                for flop_index, ones, zeros in checks:
                    if (ones >> k) & 1:
                        computed = ONE
                    elif (zeros >> k) & 1:
                        computed = ZERO
                    else:
                        continue
                    stored = stored_row[flop_index]
                    if stored == UNKNOWN:
                        if written is None:
                            written = list(stored_row)
                        written[flop_index] = computed
                    elif stored != computed:
                        for member in members:
                            conflicted |= 1 << member
                        break
                if written is not None:
                    for member in members:
                        rows_of[member][u + 1][:] = written
                        advanced |= 1 << member
        for k in _slots(conflicted):
            statuses[k] = SequenceStatus.INFEASIBLE
            retired_at[k] = u
        live &= ~(detected | conflicted)
        advanced &= ~conflicted
        if advanced and u + 1 < length:
            pending[u + 1] |= advanced
            horizon = max(horizon, u + 1)
    # Every unit a slot reached left its marks, and its write-backs only
    # ever marked the unit it reached next: a retired slot keeps the
    # marks beyond its last unit, an unresolved one none.
    for k, sequence in enumerate(sequences):
        last = retired_at[k]
        sequence.marked.difference_update(
            [m for m in sequence.marked if m <= last]
        )
    metrics = get_metrics()
    if metrics.enabled:
        metrics.counter("mot.resim.passes", passes)
        metrics.counter("mot.resim.gate_evals", evals)
    return statuses


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

    The width-1 :func:`resimulate_sequences`.  When *detail* (a dict) is
    supplied, a DETECTED outcome stores the witnessing ``(time unit,
    output position)`` under ``detail["site"]``.

    *good* supplies the fault-free response from a shared
    :class:`~repro.sim.goodcache.GoodMachineCache` instead; pass
    ``reference_outputs=None`` then (an explicit ``reference_outputs``
    wins -- the proposed simulator compares against *per-reference*
    expanded responses that are not the plain good-machine outputs).

    Without *base* the sequence's own rows at the call are the base.
    """
    if reference_outputs is None:
        if good is None:
            raise ValueError(
                "resimulate_sequence needs reference_outputs or a "
                "good-machine cache"
            )
        reference_outputs = good.outputs
        get_metrics().counter("goodcache.hit")
    if base is None:
        base = FrameBase(
            circuit, patterns, [list(row) for row in sequence.states]
        )
    sites: List[Optional[Site]] = []
    (status,) = resimulate_sequences(
        circuit, patterns, reference_outputs, [sequence], forced_ps, base,
        sites,
    )
    if detail is not None and status is SequenceStatus.DETECTED:
        detail["site"] = sites[0]
    return status
