"""Differential suite: packed Section-3.4 resolution vs one sequence at a time.

:func:`repro.mot.resimulate.resimulate_sequences` resolves every
expanded sequence of a fault in one pass, one slot per sequence.  The
obligation is slot-by-slot identity with the per-sequence loop it
replaced, kept here as :func:`oracle_resimulate`: the same status, the
same detection site, and the same rows and ``marked`` set left behind,
for detected, infeasible and unresolved sequences alike.

Inputs go beyond what expansion produces: widths that straddle a 64-bit
word, marks at unit ``L``, siblings sharing rows, and rows specified at
unmarked units with values a frame would contradict (a slot must only
see them once its own marks reach them).  Faults include present-state
stems, whose flops are ``forced_ps``.  Circuits are hypothesis-drawn
random Moore machines, s27, the Figure 4 circuit and condition-(C)
survivors of three registry stand-ins.
"""

import copy
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.circuits.generators import random_moore
from repro.circuits.library import fig4, s27
from repro.circuits.registry import build_circuit
from repro.errors import BudgetExceeded
from repro.faults.collapse import collapse_faults
from repro.faults.injection import inject_fault
from repro.logic.values import ONE, UNKNOWN, ZERO
from repro.mot.backward import BackwardCollector
from repro.mot.expansion import StateSequence, expand
from repro.mot.resimulate import (
    FrameBase,
    SequenceStatus,
    resimulate_sequences,
)
from repro.mot.simulator import ProposedSimulator, screen_fault
from repro.patterns.random_gen import random_patterns
from repro.runner.budget import BudgetMeter, FaultBudget
from repro.sim.sequential import simulate_injected, simulate_sequence

from tests.sim.test_divergence_screen import structural_faults

WIDTHS = (1, 2, 63, 64, 65, 130)

_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------- oracle
def oracle_resimulate(circuit, patterns, reference_outputs, sequence,
                      forced_ps, base):
    """The per-sequence Section 3.4 loop; returns ``(status, site)``."""
    length = len(patterns)
    marked = sequence.marked
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
                return SequenceStatus.DETECTED, (u, position)
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
                return SequenceStatus.INFEASIBLE, None
        if advanced:
            marked.add(u + 1)
        u += 1
    marked.clear()
    return SequenceStatus.UNRESOLVED, None


def check_packed(circuit, patterns, reference, sequences, forced, base):
    """Packed vs oracle, slot by slot; returns the statuses."""
    want_seqs = copy.deepcopy(sequences)
    want = [
        oracle_resimulate(circuit, patterns, reference, seq, forced, base)
        for seq in want_seqs
    ]
    got_seqs = copy.deepcopy(sequences)
    sites = []
    statuses = resimulate_sequences(
        circuit, patterns, reference, got_seqs, forced, base, sites
    )
    assert len(statuses) == len(sites) == len(sequences)
    for k, (status, site) in enumerate(want):
        assert statuses[k] is status, k
        assert sites[k] == site, k
        assert got_seqs[k].states == want_seqs[k].states, k
        assert got_seqs[k].marked == want_seqs[k].marked, k
    return statuses


# ------------------------------------------------------------ sequences
def _free(rows, forced, length):
    """``(u, flop)`` positions left X by the conventional trajectory."""
    return [
        (u, i)
        for u in range(length + 1)
        for i, value in enumerate(rows[u])
        if value == UNKNOWN and i not in forced
    ]


def make_sequences(rng, states, forced, width):
    """*width* sequences over the conventional *states*.

    Each is a copy of the conventional rows or a sibling (a copy of an
    earlier sequence), with a few marked assignments -- unit ``L``
    included -- and, for some, X positions specified at random units
    without marking them.  Every row agrees with *states* wherever the
    latter is specified.
    """
    length = len(states) - 1
    free = _free(states, forced, length)
    sequences = []
    for k in range(width):
        if k and rng.random() < 0.5:
            seq = sequences[rng.randrange(k)].copy()
        else:
            seq = StateSequence([list(row) for row in states])
        if free:
            for _ in range(rng.randint(1, 3)):
                u, i = rng.choice(free)
                seq.assign(u, i, rng.choice((ZERO, ONE)))
            if rng.random() < 0.4:
                for _ in range(rng.randint(1, 4)):
                    u, i = rng.choice(free)
                    if seq.states[u][i] == UNKNOWN:
                        seq.states[u][i] = rng.choice((ZERO, ONE))
        if rng.random() < 0.1:
            seq.marked.add(length)
        sequences.append(seq)
    return sequences


def _check_fault(circuit, patterns, reference, fault, rng, width):
    injected = inject_fault(circuit, fault)
    faulty = simulate_injected(injected, patterns, keep_frames=True)
    base = FrameBase(injected.circuit, patterns, faulty.states, faulty.frames)
    sequences = make_sequences(
        rng, faulty.states, injected.forced_ps, width
    )
    return check_packed(
        injected.circuit, patterns, reference, sequences,
        injected.forced_ps, base,
    )


# ----------------------------------------------------------------- tests
@_SETTINGS
@given(seed=st.integers(0, 20_000), rng_seed=st.integers(0, 10_000),
       length=st.integers(1, 8), width=st.sampled_from(WIDTHS),
       unrestricted=st.booleans())
def test_packed_matches_oracle_on_random_machines(
    seed, rng_seed, length, width, unrestricted
):
    circuit = random_moore(seed, num_inputs=3, num_flops=4, num_gates=18)
    rng = random.Random(rng_seed)
    patterns = random_patterns(circuit.num_inputs, length, rng_seed)
    reference = simulate_sequence(circuit, patterns).outputs
    if unrestricted:
        # Conflicts the conventional frame already has must count too.
        reference = [
            [rng.choice((ZERO, ONE, UNKNOWN)) for _ in row]
            for row in reference
        ]
    faults = structural_faults(circuit)
    for fault in rng.sample(faults, min(6, len(faults))):
        _check_fault(circuit, patterns, reference, fault, rng, width)


@pytest.mark.parametrize("build", [s27, fig4], ids=["s27", "fig4"])
def test_packed_matches_oracle_on_library_circuits(build):
    circuit = build()
    faults = structural_faults(circuit)
    # Present-state stems (forced_ps) first, then a sample of the rest.
    ps_lines = {flop.ps for flop in circuit.flops}
    stems = [f for f in faults if f.pin is None and f.line in ps_lines]
    assert stems
    seen = set()
    for width in WIDTHS:
        rng = random.Random(width)
        patterns = random_patterns(circuit.num_inputs, 10, seed=width)
        reference = simulate_sequence(circuit, patterns).outputs
        for fault in stems + rng.sample(faults, 12):
            seen.update(
                _check_fault(circuit, patterns, reference, fault, rng, width)
            )
    assert seen == set(SequenceStatus)


def _expanded(circuit, patterns, fault):
    """A survivor's expanded sequences, as Procedure 1 builds them."""
    injected = inject_fault(circuit, fault)
    faulty = simulate_injected(injected, patterns, keep_frames=True)
    reference = simulate_sequence(circuit, patterns).outputs
    simulator = ProposedSimulator(circuit, patterns)
    _, _, profile = screen_fault(simulator.screen, fault)
    info = BackwardCollector(injected, faulty, reference, profile).collect()
    outcome = expand(faulty.states, info, profile)
    base = FrameBase(injected.circuit, patterns, faulty.states, faulty.frames)
    return injected, reference, base, outcome.sequences


def _survivors(circuit, patterns, count):
    simulator = ProposedSimulator(circuit, patterns)
    found = []
    for fault in collapse_faults(circuit):
        if not screen_fault(simulator.screen, fault)[0]:
            found.append(fault)
            if len(found) == count:
                break
    return found


@pytest.mark.parametrize(
    "name,seed", [("s1423_like", 8), ("s5378_like", 9), ("am2910_like", 12)]
)
def test_packed_matches_oracle_on_survivors(name, seed):
    circuit = build_circuit(name)
    patterns = random_patterns(circuit.num_inputs, 24, seed)
    survivors = _survivors(circuit, patterns, 2)
    assert survivors
    for fault in survivors:
        injected, reference, base, sequences = _expanded(
            circuit, patterns, fault
        )
        assert sequences
        check_packed(
            injected.circuit, patterns, reference, sequences,
            injected.forced_ps, base,
        )


# ----------------------------------------------------------- side effects
class OracleProposed(ProposedSimulator):
    """Procedure 1 resolving one sequence at a time: charge, resimulate,
    stop at the first unresolved sequence."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.resim_events = []  # meter events on entering Section 3.4

    def _resolve(self, injected, base, sequences, meter):
        self.resim_events.append(meter.events if meter is not None else 0)
        for sequence in sequences:
            if meter is not None:
                meter.charge()
            status, _ = oracle_resimulate(
                injected.circuit, self.patterns, self.reference_outputs,
                sequence, injected.forced_ps, base,
            )
            if status is SequenceStatus.UNRESOLVED:
                return False
        return True


def _budget_outcome(simulator, fault, max_events):
    """The ``BudgetExceeded`` message of a run that must trip."""
    meter = BudgetMeter(FaultBudget(max_events=max_events), clock=lambda: 0.0)
    with pytest.raises(BudgetExceeded) as caught:
        simulator.simulate_fault(fault, meter)
    return str(caught.value), meter.events


def test_budget_trips_partway_through_resimulation_like_the_oracle():
    circuit = build_circuit("s344_like")
    patterns = random_patterns(circuit.num_inputs, 24, seed=3)
    oracle = OracleProposed(circuit, patterns)
    packed = ProposedSimulator(circuit, patterns)
    tried = 0
    for fault in collapse_faults(circuit):
        oracle.resim_events.clear()
        meter = BudgetMeter(FaultBudget())
        want = oracle.simulate_fault(fault, meter)
        if not oracle.resim_events:
            continue
        resim_charges = meter.events - oracle.resim_events[0]
        if want.how != "resim" or resim_charges < 3:
            continue
        # Unlimited: identical verdicts.
        got = packed.simulate_fault(fault, BudgetMeter(FaultBudget()))
        assert (got.status, got.how) == (want.status, want.how)
        # Trip on the second resimulation charge of the proposed path.
        limit = oracle.resim_events[0] + 1
        assert _budget_outcome(packed, fault, limit) == _budget_outcome(
            oracle, fault, limit
        )
        # The owned-meter path turns it into the same aborted verdict.
        budget = FaultBudget(max_events=limit)
        for simulator in (oracle, packed):
            simulator.config = type(simulator.config)(budget=budget)
        got = packed.simulate_fault(fault)
        want = oracle.simulate_fault(fault)
        assert (got.status, got.how) == (want.status, want.how) == (
            "aborted", "budget"
        )
        assert got.detail.split(",")[0] == want.detail.split(",")[0]
        for simulator in (oracle, packed):
            simulator.config = type(simulator.config)()
        tried += 1
        if tried == 3:
            break
    assert tried
