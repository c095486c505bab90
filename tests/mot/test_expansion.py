"""Tests for Procedure 2 (state expansion)."""

from repro.logic.values import ONE, UNKNOWN, ZERO
from repro.mot.backward import PairInfo
from repro.mot.conditions import MotProfile
from repro.mot.expansion import StateSequence, expand


def _pair(u, i, extra0, extra1, conf=(False, False), detect=(False, False)):
    pair = PairInfo(u, i)
    pair.extra[0] = extra0
    pair.extra[1] = extra1
    pair.conf = list(conf)
    pair.detect = list(detect)
    return pair


def _states(length, flops):
    return [[UNKNOWN] * flops for _ in range(length + 1)]


def test_state_sequence_assign_and_mark():
    seq = StateSequence(states=_states(3, 2))
    assert seq.assign(1, 0, ONE)
    assert seq.states[1][0] == ONE
    assert seq.marked == {1}
    # Re-assigning the same value is fine and does not re-mark.
    seq.marked.clear()
    assert seq.assign(1, 0, ONE)
    assert seq.marked == set()
    # Opposite value is reported as a clash.
    assert not seq.assign(1, 0, ZERO)


def test_state_sequence_copy_is_deep():
    seq = StateSequence(states=_states(2, 1))
    twin = seq.copy()
    seq.assign(0, 0, ONE)
    assert twin.states[0][0] == UNKNOWN
    assert twin.marked == set()


def test_phase1_applies_closed_branches_without_duplication():
    # conf on alpha=1 -> survivor is 0, extras applied to the base seq.
    info = {
        (1, 0): _pair(1, 0, [(0, 0), (1, 1)], [], conf=(False, True)),
    }
    profile = MotProfile(n_sv=[2, 2, 2], n_out=[2, 1, 0])
    outcome = expand(_states(2, 2), info, profile, n_states=8)
    assert len(outcome.sequences) == 1
    base = outcome.sequences[0]
    assert base.states[1][0] == ZERO
    assert base.states[1][1] == ONE
    assert outcome.phase1_pairs == [((1, 0), 1)]
    assert not outcome.detected_in_phase1


def test_phase1_mutual_conflict_is_detection():
    info = {
        (1, 0): _pair(1, 0, [(1, ONE)], [], detect=(False, True)),
        (1, 1): _pair(1, 1, [], [(1, ZERO)], conf=(True, False)),
    }
    profile = MotProfile(n_sv=[2, 2, 2], n_out=[2, 1, 0])
    outcome = expand(_states(2, 2), info, profile, n_states=8)
    assert outcome.detected_in_phase1
    assert outcome.sequences == []


def test_phase2_doubles_until_limit():
    info = {
        (0, 0): _pair(0, 0, [(0, 0)], [(0, 1)]),
        (0, 1): _pair(0, 1, [(1, 0)], [(1, 1)]),
        (1, 0): _pair(1, 0, [(0, 0)], [(0, 1)]),
    }
    profile = MotProfile(n_sv=[2, 2, 2], n_out=[3, 1, 0])
    outcome = expand(_states(2, 2), info, profile, n_states=4)
    assert len(outcome.sequences) == 4
    assert len(outcome.phase2_pairs) == 2
    # Each selected pair splits the set: both values appear among the
    # sequences at the expanded position.
    for (u, i) in outcome.phase2_pairs:
        values = {seq.states[u][i] for seq in outcome.sequences}
        assert values == {ZERO, ONE}


def test_phase2_selection_prefers_max_n_out():
    info = {
        (0, 0): _pair(0, 0, [(0, 0)], [(0, 1)]),
        (1, 1): _pair(1, 1, [(1, 0)], [(1, 1)]),
    }
    # Time 0 has more resolvable outputs.
    profile = MotProfile(n_sv=[2, 2, 2], n_out=[5, 1, 0])
    outcome = expand(_states(2, 2), info, profile, n_states=2)
    assert outcome.phase2_pairs == [(0, 0)]


def test_phase2_selection_prefers_min_n_sv_on_tie():
    info = {
        (0, 0): _pair(0, 0, [(0, 0)], [(0, 1)]),
        (1, 1): _pair(1, 1, [(1, 0)], [(1, 1)]),
    }
    profile = MotProfile(n_sv=[4, 2, 2], n_out=[3, 3, 0])
    outcome = expand(_states(2, 2), info, profile, n_states=2)
    assert outcome.phase2_pairs == [(1, 1)]


def test_phase2_selection_prefers_larger_extra_sets():
    rich = _pair(0, 0, [(0, 0), (1, 0)], [(0, 1), (1, 1)])
    poor = _pair(0, 1, [(1, 0)], [(1, 1)])
    info = {(0, 0): rich, (0, 1): poor}
    profile = MotProfile(n_sv=[2, 2], n_out=[3, 0])
    outcome = expand(_states(1, 2), info, profile, n_states=2)
    assert outcome.phase2_pairs == [(0, 0)]


def test_sv_constraint_blocks_overlapping_pairs():
    # Both pairs assign flop 1; after the first expansion the second no
    # longer satisfies the all-unspecified constraint.
    first = _pair(0, 0, [(0, 0), (1, 0)], [(0, 1), (1, 1)])
    second = _pair(0, 1, [(1, 0)], [(1, 1)])
    info = {(0, 0): first, (0, 1): second}
    profile = MotProfile(n_sv=[2, 2], n_out=[3, 0])
    outcome = expand(_states(1, 2), info, profile, n_states=8)
    assert outcome.phase2_pairs == [(0, 0)]
    assert len(outcome.sequences) == 2


def test_no_candidates_stops_early():
    info = {}
    profile = MotProfile(n_sv=[1, 1], n_out=[1, 0])
    outcome = expand(_states(1, 1), info, profile, n_states=16)
    assert len(outcome.sequences) == 1
    assert outcome.phase2_pairs == []


def test_expansion_marks_time_units():
    info = {(1, 0): _pair(1, 0, [(0, 0)], [(0, 1)])}
    profile = MotProfile(n_sv=[1, 1, 1], n_out=[2, 1, 0])
    outcome = expand(_states(2, 1), info, profile, n_states=2)
    for seq in outcome.sequences:
        assert seq.marked == {1}


def _oracle_phase2(base, info, profile, n_states):
    """Phase 2 scanning every sequence for every candidate, every branch."""
    from repro.mot.expansion import _select_pair, _sv_set

    sequences = [base.copy()]
    pairs = []
    while len(sequences) < n_states:
        candidates = []
        for key in sorted(info):
            u, pair = key[0], info[key]
            if pair.resolved_alpha is not None or pair.both_branches_closed:
                continue
            if profile.n_out[u] <= 0 or profile.n_sv[u] <= 0:
                continue
            sv = _sv_set(pair)
            if sv and all(
                seq.states[u][j] == UNKNOWN for seq in sequences for j in sv
            ):
                candidates.append(key)
        chosen = _select_pair(candidates, info, profile)
        if chosen is None:
            break
        pairs.append(chosen)
        pair, u = info[chosen], chosen[0]
        twins = []
        for seq in sequences:
            twin = seq.copy()
            for flop_index, value in pair.extra[0]:
                seq.assign(u, flop_index, value)
            for flop_index, value in pair.extra[1]:
                twin.assign(u, flop_index, value)
            twins.append(twin)
        sequences.extend(twins)
    return pairs, sequences


def test_phase2_matches_full_sequence_scan():
    """The open-pair bookkeeping selects exactly the pairs, in exactly the
    order, of a scan over every sequence (real backward information of
    random machines and s27)."""
    import random

    from repro.circuits.generators import random_moore
    from repro.circuits.library import s27
    from repro.faults.injection import inject_fault
    from repro.mot.backward import BackwardCollector
    from repro.mot.conditions import mot_profile
    from repro.patterns.random_gen import random_patterns
    from repro.sim.sequential import simulate_injected, simulate_sequence

    from tests.sim.test_divergence_screen import structural_faults

    circuits = [s27()] + [
        random_moore(seed, num_inputs=2, num_flops=4, num_gates=16)
        for seed in range(6)
    ]
    rng = random.Random(3)
    branched = 0
    for circuit in circuits:
        patterns = random_patterns(circuit.num_inputs, 10, seed=2)
        reference = simulate_sequence(circuit, patterns).outputs
        for fault in structural_faults(circuit):
            injected = inject_fault(circuit, fault)
            faulty = simulate_injected(injected, patterns, keep_frames=True)
            profile = mot_profile(faulty.states, reference, faulty.outputs)
            if not profile.condition_c():
                continue
            info = BackwardCollector(
                injected, faulty, reference, profile
            ).collect()
            n_states = rng.choice([2, 8, 64])
            phase1 = expand(faulty.states, info, profile, n_states=1)
            outcome = expand(faulty.states, info, profile, n_states=n_states)
            if phase1.detected_in_phase1:
                assert outcome.detected_in_phase1
                continue
            pairs, sequences = _oracle_phase2(
                phase1.sequences[0], info, profile, n_states
            )
            assert outcome.phase2_pairs == pairs
            assert [s.states for s in outcome.sequences] == [
                s.states for s in sequences
            ]
            assert [s.marked for s in outcome.sequences] == [
                s.marked for s in sequences
            ]
            branched += len(pairs) > 1
    assert branched > 0
