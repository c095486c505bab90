"""Auditable detection certificates for MOT-detected faults.

A MOT detection is a non-trivial claim: *every* initial state of the
faulty circuit produces a response conflicting with the fault-free one.
This module makes the claim checkable.  :func:`build_witness` re-derives
the detection and returns a :class:`DetectionWitness` -- a list of cases,
each binding a partial state-trajectory constraint to a single
``(time unit, output)`` conflict site:

    "for every faulty trajectory satisfying these state values, the
     response at this site is specified opposite to the reference."

:func:`check_witness` then *verifies* the certificate independently of
the MOT machinery, by brute-force enumeration of all faulty initial
states: every concrete trajectory must match at least one case whose
site genuinely conflicts.  The pair (build, check) turns every detection
into a machine-checked proof on oracle-sized circuits, and the check is
itself property-tested in ``tests/mot/test_witness.py``.

Case construction mirrors the soundness argument of the procedure:

* a *detect branch* of backward implications (``detect(u, i, a)``)
  covers all trajectories with ``y_i = a`` at time ``u``;
* a sequence resolved as DETECTED in resimulation covers all
  trajectories consistent with the values the expansion assigned to it;
* *conflict branches* and INFEASIBLE sequences need no case: no
  trajectory satisfies them.

Every trajectory falls into one of those buckets, so the cases cover the
full initial-state space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.faults.injection import inject_fault
from repro.faults.model import Fault
from repro.logic.values import UNKNOWN
from repro.mot.backward import BackwardCollector
from repro.mot.conditions import mot_profile
from repro.mot.expansion import expand
from repro.mot.resimulate import (
    FrameBase,
    SequenceStatus,
    Site,
    resimulate_sequences,
)
from repro.mot.simulator import MotConfig
from repro.sim.sequential import (
    outputs_conflict,
    simulate_injected,
    simulate_sequence,
)


@dataclass
class WitnessCase:
    """One certificate case.

    ``constraints`` maps ``(time unit, flop index)`` to a binary value;
    ``site`` is the ``(time unit, output position)`` where every covered
    trajectory's response conflicts with the reference.
    """

    constraints: Dict[Tuple[int, int], int]
    site: Site


@dataclass
class DetectionWitness:
    """A detection certificate: cases covering every initial state."""

    fault: Fault
    cases: List[WitnessCase] = field(default_factory=list)

    def describe(self, circuit: Circuit) -> str:
        """Human-readable rendering."""
        lines = [f"detection witness for {self.fault.describe(circuit)}:"]
        for case in self.cases:
            if case.constraints:
                cond = ", ".join(
                    f"y{flop}(t={u})={value}"
                    for (u, flop), value in sorted(case.constraints.items())
                )
            else:
                cond = "always"
            lines.append(
                f"  if {cond} -> conflict at output {case.site[1]}, "
                f"time {case.site[0]}"
            )
        return "\n".join(lines)


def build_witness(
    circuit: Circuit,
    fault: Fault,
    patterns: Sequence[Sequence[int]],
    config: Optional[MotConfig] = None,
    reference_outputs: Optional[Sequence[Sequence[int]]] = None,
) -> Optional[DetectionWitness]:
    """Re-derive the detection of *fault* and return its certificate.

    Returns ``None`` when the procedure does not detect the fault (the
    certificate would not exist).  The forward-selection fallback is not
    consulted: witnesses certify the backward-implication procedure
    proper.
    """
    config = config or MotConfig()
    patterns = [list(p) for p in patterns]
    if reference_outputs is None:
        reference_outputs = simulate_sequence(circuit, patterns).outputs
    injected = inject_fault(circuit, fault)
    faulty = simulate_injected(injected, patterns, keep_frames=True)

    witness = DetectionWitness(fault)
    conv_site = outputs_conflict(reference_outputs, faulty.outputs)
    if conv_site is not None:
        # Conventional detection: one unconditional case.
        witness.cases.append(WitnessCase({}, conv_site))
        return witness

    profile = mot_profile(faulty.states, reference_outputs, faulty.outputs)
    if not profile.condition_c():
        return None

    collector = BackwardCollector(
        injected,
        faulty,
        reference_outputs,
        profile,
        mode=config.implication_mode,
        depth=config.backward_depth,
    )
    info = collector.collect()

    # Cases from every detect branch found during collection.
    for key in sorted(info):
        pair = info[key]
        for alpha in (0, 1):
            if pair.detect[alpha] and pair.detect_site[alpha] is not None:
                witness.cases.append(
                    WitnessCase(
                        {(pair.u, pair.i): alpha}, pair.detect_site[alpha]
                    )
                )

    outcome = expand(faulty.states, info, profile, n_states=config.n_states)
    if outcome.detected_in_phase1:
        # Mutually conflicting restrictions: the detect-branch cases
        # above already cover every feasible trajectory.
        return witness if witness.cases else None

    # Constraints are the values the expansion assigned, read before
    # resimulation writes its own into the rows.
    constraints = [
        {
            (u, flop_index): value
            for u, row in enumerate(sequence.states)
            for flop_index, value in enumerate(row)
            if value != UNKNOWN and faulty.states[u][flop_index] == UNKNOWN
        }
        for sequence in outcome.sequences
    ]
    base = FrameBase(injected.circuit, patterns, faulty.states, faulty.frames)
    sites: List[Optional[Site]] = []
    statuses = resimulate_sequences(
        injected.circuit,
        patterns,
        reference_outputs,
        outcome.sequences,
        injected.forced_ps,
        base,
        sites,
    )
    for constraint, status, site in zip(constraints, statuses, sites):
        if status is SequenceStatus.UNRESOLVED:
            return None  # procedure (without fallback) does not detect
        if status is SequenceStatus.DETECTED:
            assert site is not None
            witness.cases.append(WitnessCase(constraint, site))
    return witness


def check_witness(
    circuit: Circuit,
    fault: Fault,
    patterns: Sequence[Sequence[int]],
    witness: DetectionWitness,
    reference_outputs: Optional[Sequence[Sequence[int]]] = None,
    max_flops: int = 16,
) -> bool:
    """Verify a certificate by brute-force enumeration.

    Every binary initial state of the faulty circuit must produce a
    trajectory matching at least one case whose site conflicts with the
    reference.  Independent of the MOT machinery (uses only plain binary
    simulation), so it double-checks the procedure end to end.
    """
    patterns = [list(p) for p in patterns]
    if reference_outputs is None:
        reference_outputs = simulate_sequence(circuit, patterns).outputs
    injected = inject_fault(circuit, fault)
    forced = injected.forced_ps
    free_flops = [
        i for i in range(injected.circuit.num_flops) if i not in forced
    ]
    if len(free_flops) > max_flops:
        raise ValueError(
            f"{len(free_flops)} free flip-flops exceed max_flops={max_flops}"
        )
    base_state = [0] * injected.circuit.num_flops
    for flop_index, value in forced.items():
        base_state[flop_index] = value
    for bits in itertools.product((0, 1), repeat=len(free_flops)):
        state = list(base_state)
        for flop_index, bit in zip(free_flops, bits):
            state[flop_index] = bit
        run = simulate_injected(injected, patterns, initial_state=state)
        satisfied = False
        for case in witness.cases:
            if any(
                run.states[u][flop_index] != value
                for (u, flop_index), value in case.constraints.items()
            ):
                continue
            time, position = case.site
            response = run.outputs[time][position]
            reference = reference_outputs[time][position]
            if (
                response != UNKNOWN
                and reference != UNKNOWN
                and response != reference
            ):
                satisfied = True
                break
        if not satisfied:
            return False
    return True
