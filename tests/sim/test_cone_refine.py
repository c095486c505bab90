"""Differential suite: cone-only frame refinement vs full evaluation.

:func:`repro.sim.divergence.refine_frame` re-evaluates only the cone of
the changed lines of an evaluated frame.  The [4] trial gain
(:meth:`repro.mot.baseline.BaselineSimulator._trial_gain`) refines the
fault's conventional faulty frames with it, and resimulation
(:func:`repro.mot.resimulate.resimulate_sequence`) with its plane
version :func:`~repro.sim.divergence.refine_planes`, instead of
evaluating frames from scratch.  The obligation is value identity with the
full-evaluation formulation they replace, kept here as oracles:

* a refined frame equals :func:`~repro.sim.frame.eval_frame` under the
  changed present state, whatever changed (``X`` to a value, a value to
  ``X``, a flipped value), and the base frame is left untouched;
* resimulation returns the same status and detection site and leaves
  the same ``states`` and ``marked`` behind;
* the trial gain, the pairs the [4] baseline selects and its verdicts
  (one-shot and iterative) are unchanged.

Faults cover stems (including present-state stems that pin
``forced_ps``) and branches on gate-input, flip-flop data and
primary-output pins, on hypothesis-drawn random Moore machines, s27 and
the Figure 4 circuit.
"""

import copy
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.circuits.generators import random_moore
from repro.circuits.library import fig4, s27
from repro.faults.injection import inject_fault
from repro.logic.values import ONE, UNKNOWN, ZERO
from repro.mot.baseline import BaselineConfig, BaselineSimulator
from repro.mot.conditions import mot_profile
from repro.mot.expansion import StateSequence
from repro.mot.resimulate import (
    FrameBase,
    SequenceStatus,
    resimulate_sequence,
)
from repro.patterns.random_gen import random_patterns
from repro.sim.divergence import cone_tables, refine_frame
from repro.sim.frame import eval_frame
from repro.sim.sequential import simulate_injected, simulate_sequence

from tests.sim.test_divergence_screen import structural_faults

XS = (ZERO, ONE, UNKNOWN)

_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# --------------------------------------------------------------- oracles
def oracle_resimulate(circuit, patterns, reference_outputs, sequence,
                      forced_ps, detail):
    """Section 3.4 with every marked frame evaluated from scratch."""
    length = len(patterns)
    marked = sequence.marked
    ns_lines = [flop.ns for flop in circuit.flops]
    u = min(marked) if marked else length
    while u < length:
        if u not in marked:
            u += 1
            continue
        marked.discard(u)
        values = eval_frame(circuit, patterns[u], sequence.states[u])
        for position, line in enumerate(circuit.outputs):
            value, ref = values[line], reference_outputs[u][position]
            if value != UNKNOWN and ref != UNKNOWN and value != ref:
                detail["site"] = (u, position)
                return SequenceStatus.DETECTED
        next_row = sequence.states[u + 1]
        advanced = False
        for flop_index, line in enumerate(ns_lines):
            if flop_index in forced_ps or values[line] == UNKNOWN:
                continue
            if next_row[flop_index] == UNKNOWN:
                next_row[flop_index] = values[line]
                advanced = True
            elif next_row[flop_index] != values[line]:
                return SequenceStatus.INFEASIBLE
        if advanced:
            marked.add(u + 1)
        u += 1
    marked.clear()
    return SequenceStatus.UNRESOLVED


def oracle_trial_gain(circuit, pattern, row, flop_index):
    """Newly specified PO/NS values over two full trial evaluations."""
    interesting = list(circuit.outputs) + [f.ns for f in circuit.flops]
    base = eval_frame(circuit, pattern, row)
    gain = 0
    for alpha in (0, 1):
        trial_row = list(row)
        trial_row[flop_index] = alpha
        trial = eval_frame(circuit, pattern, trial_row)
        gain += sum(
            1 for line in interesting
            if base[line] == UNKNOWN and trial[line] != UNKNOWN
        )
    return gain


class OracleBaseline(BaselineSimulator):
    """The [4] baseline with the all-sequences scan and full trials."""

    def _choose_pair(self, injected, base, sequences, profile, taken):
        circuit = injected.circuit
        candidates = [
            (u, flop_index)
            for u in range(len(self.patterns))
            if profile.n_out[u] > 0 and profile.n_sv[u] > 0
            for flop_index in range(circuit.num_flops)
            if flop_index not in injected.forced_ps
            and all(s.states[u][flop_index] == UNKNOWN for s in sequences)
        ]
        if not candidates:
            return None
        best = max(profile.n_out[u] for u, _ in candidates)
        candidates = [p for p in candidates if profile.n_out[p[0]] == best]
        best = min(profile.n_sv[u] for u, _ in candidates)
        candidates = [p for p in candidates if profile.n_sv[p[0]] == best]
        return max(
            candidates,
            key=lambda p: (
                oracle_trial_gain(
                    circuit, self.patterns[p[0]], sequences[0].states[p[0]],
                    p[1],
                ),
                -p[0],
                -p[1],
            ),
        )

    def _resolve(self, injected, base, sequences, meter=None):
        return [
            seq for seq in sequences
            if oracle_resimulate(
                injected.circuit, self.patterns, self.reference_outputs,
                seq, injected.forced_ps, {},
            ) is SequenceStatus.UNRESOLVED
        ]


# ---------------------------------------------------------------- setup
def _circuit(seed):
    if seed == -1:
        return s27()
    if seed == -2:
        return fig4()
    return random_moore(seed, num_inputs=3, num_flops=4, num_gates=18)


def _specify(rng, row, forced, share):
    """A copy of *row* with about *share* of its free X positions set."""
    row = list(row)
    for flop_index, value in enumerate(row):
        if value == UNKNOWN and flop_index not in forced:
            if rng.random() < share:
                row[flop_index] = rng.choice((ZERO, ONE))
    return row


def _faulty(circuit, patterns, fault):
    injected = inject_fault(circuit, fault)
    return injected, simulate_injected(injected, patterns, keep_frames=True)


# ---------------------------------------------------------------- frames
@_SETTINGS
@given(seed=st.one_of(st.just(-1), st.just(-2), st.integers(0, 20_000)),
       rng_seed=st.integers(0, 10_000))
def test_refined_frame_equals_full_evaluation(seed, rng_seed):
    circuit = _circuit(seed)
    rng = random.Random(rng_seed)
    faults = structural_faults(circuit)
    circuits = [circuit] + [
        inject_fault(circuit, f).circuit for f in rng.sample(faults, 4)
    ]
    for target in circuits:
        tables = cone_tables(target)
        ps_lines = [flop.ps for flop in target.flops]
        for _ in range(6):
            pattern = [rng.choice(XS) for _ in range(target.num_inputs)]
            row = [rng.choice(XS) for _ in range(target.num_flops)]
            changed = [rng.choice(XS) for _ in range(target.num_flops)]
            base = eval_frame(target, pattern, row)
            kept = list(base)
            diff = {
                ps_lines[i]: value
                for i, value in enumerate(changed) if value != row[i]
            }
            refine_frame(tables, base, diff)
            assert base == kept
            assert all(base[line] != value for line, value in diff.items())
            refined = list(base)
            for line, value in diff.items():
                refined[line] = value
            assert refined == eval_frame(target, pattern, changed)


def test_frame_base_refine_tracks_mutated_rows():
    """The per-unit memo of the last row must notice in-place edits."""
    circuit = s27()
    patterns = random_patterns(circuit.num_inputs, 6, seed=3)
    good = simulate_sequence(circuit, patterns, keep_frames=True)
    base = FrameBase(circuit, patterns, good.states, good.frames)
    rng = random.Random(5)
    row = list(good.states[2])
    for _ in range(20):
        flop_index = rng.randrange(circuit.num_flops)
        row[flop_index] = rng.choice(XS)
        assert base.refine(2, row) == eval_frame(circuit, patterns[2], row)
        assert base.refine(2, row) == eval_frame(circuit, patterns[2], row)
    assert base.frames[2] == good.frames[2]


# -------------------------------------------------------- resimulation
def _check_resimulation(circuit, patterns, reference, rng):
    for fault in structural_faults(circuit):
        injected, faulty = _faulty(circuit, patterns, fault)
        forced = injected.forced_ps
        shared = FrameBase(
            injected.circuit, patterns, faulty.states, faulty.frames
        )
        for _ in range(3):
            units = rng.sample(
                range(len(patterns)), min(2, len(patterns))
            )
            sequence = StateSequence(
                [list(row) for row in faulty.states]
            )
            for u in units:
                sequence.states[u] = _specify(
                    rng, sequence.states[u], forced, 0.6
                )
                sequence.marked.add(u)
            want_seq = copy.deepcopy(sequence)
            want_detail = {}
            want = oracle_resimulate(
                injected.circuit, patterns, reference, want_seq, forced,
                want_detail,
            )
            for base in (shared, None):
                got_seq = copy.deepcopy(sequence)
                detail = {}
                got = resimulate_sequence(
                    injected.circuit, patterns, reference, got_seq, forced,
                    detail=detail, base=base,
                )
                label = fault.describe(circuit)
                assert got is want, label
                assert detail == want_detail, label
                assert got_seq.states == want_seq.states, label
                assert got_seq.marked == want_seq.marked, label


@_SETTINGS
@given(seed=st.integers(0, 20_000), rng_seed=st.integers(0, 10_000),
       length=st.integers(1, 8), unrestricted=st.booleans())
def test_resimulation_matches_full_evaluation(
    seed, rng_seed, length, unrestricted
):
    circuit = _circuit(seed)
    rng = random.Random(rng_seed)
    patterns = random_patterns(circuit.num_inputs, length, rng_seed)
    reference = simulate_sequence(circuit, patterns).outputs
    if unrestricted:
        reference = [
            [rng.choice(XS) for _ in row] for row in reference
        ]
    _check_resimulation(circuit, patterns, reference, rng)


@pytest.mark.parametrize("build", [s27, fig4], ids=["s27", "fig4"])
def test_library_resimulation_matches_full_evaluation(build):
    circuit = build()
    rng = random.Random(11)
    for seed in range(3):
        patterns = random_patterns(circuit.num_inputs, 10, seed=seed)
        reference = simulate_sequence(circuit, patterns).outputs
        _check_resimulation(circuit, patterns, reference, rng)


# ------------------------------------------------------------ trial gain
def _check_trial_gain(circuit, patterns, rng):
    simulator = BaselineSimulator(circuit, patterns)
    for fault in structural_faults(circuit):
        injected, faulty = _faulty(circuit, patterns, fault)
        forced = injected.forced_ps
        base = FrameBase(injected.circuit, patterns, faulty.states)
        for u in range(len(patterns)):
            row = _specify(rng, faulty.states[u], forced, 0.3)
            frame = base.refine(u, row)
            for flop_index, value in enumerate(row):
                if value != UNKNOWN or flop_index in forced:
                    continue
                assert simulator._trial_gain(
                    base, frame, flop_index
                ) == oracle_trial_gain(
                    injected.circuit, patterns[u], row, flop_index
                ), fault.describe(circuit)


@_SETTINGS
@given(seed=st.integers(0, 20_000), rng_seed=st.integers(0, 10_000))
def test_trial_gain_matches_full_evaluation(seed, rng_seed):
    circuit = _circuit(seed)
    patterns = random_patterns(circuit.num_inputs, 6, rng_seed)
    _check_trial_gain(circuit, patterns, random.Random(rng_seed))


@pytest.mark.parametrize("build", [s27, fig4], ids=["s27", "fig4"])
def test_library_trial_gain_matches_full_evaluation(build):
    circuit = build()
    patterns = random_patterns(circuit.num_inputs, 8, seed=4)
    _check_trial_gain(circuit, patterns, random.Random(4))


# ------------------------------------------------------------- baseline
def _traced(simulator):
    """Record every pair *simulator* selects."""
    pairs = []
    choose = simulator._choose_pair

    def recording(*args):
        pair = choose(*args)
        pairs.append(pair)
        return pair

    simulator._choose_pair = recording
    return pairs


def _check_baseline(circuit, patterns, n_states):
    for schedule in ("oneshot", "iterative"):
        config = BaselineConfig(n_states=n_states, schedule=schedule)
        simulator = BaselineSimulator(circuit, patterns, config)
        oracle = OracleBaseline(circuit, patterns, config)
        got_pairs, want_pairs = _traced(simulator), _traced(oracle)
        for fault in structural_faults(circuit):
            got = simulator.simulate_fault(fault)
            want = oracle.simulate_fault(fault)
            label = (schedule, fault.describe(circuit))
            assert (got.status, got.how, got.num_sequences,
                    got.num_expansions) == (
                want.status, want.how, want.num_sequences,
                want.num_expansions), label
            assert got_pairs == want_pairs, label


@_SETTINGS
@given(seed=st.integers(0, 20_000), pattern_seed=st.integers(0, 500),
       n_states=st.sampled_from([4, 8, 16]))
def test_baseline_matches_full_evaluation(seed, pattern_seed, n_states):
    circuit = _circuit(seed)
    patterns = random_patterns(circuit.num_inputs, 8, pattern_seed)
    _check_baseline(circuit, patterns, n_states)


@pytest.mark.parametrize("build", [s27, fig4], ids=["s27", "fig4"])
def test_library_baseline_matches_full_evaluation(build):
    circuit = build()
    for seed in range(3):
        patterns = random_patterns(circuit.num_inputs, 12, seed=seed)
        _check_baseline(circuit, patterns, 16)


def test_baseline_cases_reach_expansion():
    """The oracle comparison above must see faults that expand."""
    circuit = s27()
    patterns = random_patterns(circuit.num_inputs, 12, seed=0)
    simulator = BaselineSimulator(circuit, patterns)
    screen_survivors = [
        f for f in structural_faults(circuit)
        if simulator.simulate_fault(f).num_expansions > 0
    ]
    assert screen_survivors
    faulty = simulate_injected(
        inject_fault(circuit, screen_survivors[0]), patterns
    )
    assert mot_profile(
        faulty.states, simulator.reference_outputs, faulty.outputs
    ).condition_c()
