"""Baseline: state expansion without backward implications (reference [4]).

This reimplements the procedure of Pomeranz & Reddy, *"On Fault Simulation
for Synchronous Sequential Circuits"* (IEEE ToC, Feb. 1995), which the
paper compares against.  Like the proposed procedure it expands
unspecified state variables until ``N_STATES`` sequences exist and then
resimulates; unlike it, there is no backward-implication information:

* no conflict/detection pre-analysis (no free phase-1 restrictions, no
  Section 3.2 early detection),
* every expansion specifies exactly the two values of the selected
  variable (the ``N_extra <= 12`` ceiling discussed around Table 3),
* pair selection uses the time-unit criteria the paper attributes to [4]
  (max ``N_out``, then min ``N_sv``) plus a forward trial simulation to
  pick the state variable (the most newly specified PO/NS values).

Two scheduling modes are provided:

* ``"oneshot"`` (default) -- expand to the sequence limit, then
  resimulate once: structurally identical to Procedure 2, so the *only*
  difference from the proposed procedure is the backward-implication
  information.  This is the mode used for the Table 2 reproduction.
* ``"iterative"`` -- expand one variable, resimulate, drop resolved
  sequences, repeat until the live-sequence count would exceed the limit
  (then abort, as [4] did for the extra s5378 faults in the paper's
  discussion).  This adaptive variant is compared against one-shot in
  ``benchmarks/bench_ablation_schedule.py``.

Frames are refined, not re-evaluated: a per-fault
:class:`~repro.mot.resimulate.FrameBase` evaluates each conventional
faulty frame once, the trial simulation refines the first sequence's
frame by the one state variable being tried, and resimulation refines
the conventional frame by every state variable a sequence specified
(:func:`~repro.sim.divergence.refine_frame` re-evaluates only their
cone).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.circuit.netlist import Circuit
from repro.errors import BudgetExceeded
from repro.faults.injection import InjectedFault, inject_fault
from repro.faults.model import Fault
from repro.logic.values import UNKNOWN
from repro.mot.conditions import MotProfile, mot_profile
from repro.mot.expansion import DEFAULT_N_STATES, StateSequence
from repro.mot.resimulate import (
    FrameBase,
    SequenceStatus,
    resimulate_sequence,
)
from repro.mot.simulator import Campaign, FaultVerdict, screen_fault
from repro.obs.metrics import get_metrics
from repro.runner.budget import BudgetMeter, FaultBudget
from repro.sim.divergence import DivergenceScreen, refine_frame
from repro.sim.goodcache import GoodMachineCache
from repro.sim.sequential import simulate_injected, simulate_sequence

# ``mot_profile`` and ``simulate_injected`` are not called in this module
# (``screen_fault`` runs those steps); they are exported because the
# per-layer tracer of ``perfbench/spans.py`` wraps this import site.
__all__ = [
    "BaselineConfig",
    "BaselineSimulator",
    "mot_profile",
    "simulate_injected",
]


@dataclass(frozen=True)
class BaselineConfig:
    """Tuning knobs of the [4] baseline."""

    n_states: int = DEFAULT_N_STATES
    schedule: str = "oneshot"  # or "iterative"
    #: Optional per-fault work / wall-clock budget (see
    #: :class:`repro.mot.simulator.MotConfig`).
    budget: Optional[FaultBudget] = None
    #: Good-machine simulation engine (see
    #: :class:`repro.mot.simulator.MotConfig.sim_engine`).
    sim_engine: str = "ir"


class BaselineSimulator:
    """State-expansion fault simulator without backward implications."""

    def __init__(
        self,
        circuit: Circuit,
        patterns: Sequence[Sequence[int]],
        config: Optional[BaselineConfig] = None,
        reference_outputs: Optional[Sequence[Sequence[int]]] = None,
        good_cache: Optional[GoodMachineCache] = None,
    ) -> None:
        """*reference_outputs* overrides the fault-free response and
        *good_cache* supplies a precomputed fault-free trajectory (see
        :class:`repro.mot.simulator.ProposedSimulator` for both)."""
        self.circuit = circuit
        self.patterns = [list(p) for p in patterns]
        self.config = config or BaselineConfig()
        if self.config.schedule not in ("oneshot", "iterative"):
            raise ValueError(f"unknown schedule {self.config.schedule!r}")
        self.good_cache = (
            good_cache.require_match(circuit, self.patterns)
            if good_cache is not None
            else None
        )
        if self.good_cache is not None:
            self.reference = self.good_cache.result
        else:
            self.reference = simulate_sequence(
                circuit,
                self.patterns,
                keep_frames=True,
                engine=self.config.sim_engine,
            )
        if reference_outputs is not None:
            if len(reference_outputs) != len(self.patterns):
                raise ValueError("reference response length mismatch")
            self.reference_outputs = [list(r) for r in reference_outputs]
        else:
            self.reference_outputs = self.reference.outputs
        self.screen = DivergenceScreen(
            circuit, self.reference, self.reference_outputs
        )

    # ------------------------------------------------------------------
    def _trial_gain(
        self, base: FrameBase, frame: List[int], flop_index: int
    ) -> int:
        """Newly specified PO/NS values when ``y_i`` is set in *frame*.

        *frame* holds every line value of the trial's base frame, in
        which ``y_i`` is ``X``.  Sums the gains of both trial values --
        the forward-only analogue of the paper's ``N_extra`` criteria.
        Each trial re-evaluates only the cone of ``y_i``
        (:func:`~repro.sim.divergence.refine_frame`), and only the lines
        in that cone can gain a value.
        """
        tables = base.tables
        taps, loads = tables.taps, tables.loads
        line = base.ps_lines[flop_index]
        gain = 0
        evals = 0
        for alpha in (0, 1):
            diff = {line: alpha}
            evals += refine_frame(tables, frame, diff)
            for changed, value in diff.items():
                if value != UNKNOWN and frame[changed] == UNKNOWN:
                    # One per primary output and next-state use.
                    gain += len(taps.get(changed, ())) + len(
                        loads.get(changed, ())
                    )
        get_metrics().counter("mot.resim.gate_evals", evals)
        return gain

    def _choose_pair(
        self,
        injected: InjectedFault,
        base: FrameBase,
        sequences: List[StateSequence],
        profile: MotProfile,
        taken: Set[Tuple[int, int]],
    ) -> Optional[Tuple[int, int]]:
        """Pick the next (time unit, state variable) to expand.

        A pair is a candidate while its variable is ``X`` in every
        sequence: ``X`` in the conventional row of *base* and not among
        the *taken* positions some sequence has specified since
        (sequences only ever move a position from ``X`` to a value).
        """
        length = len(self.patterns)
        num_flops = injected.circuit.num_flops
        forced = injected.forced_ps
        candidate_pairs: List[Tuple[int, int]] = []
        for u in range(length):
            if profile.n_out[u] <= 0 or profile.n_sv[u] <= 0:
                continue
            row = base.states[u]
            for flop_index in range(num_flops):
                if (
                    row[flop_index] == UNKNOWN
                    and flop_index not in forced
                    and (u, flop_index) not in taken
                ):
                    candidate_pairs.append((u, flop_index))
        if not candidate_pairs:
            return None
        best_n_out = max(profile.n_out[u] for u, _ in candidate_pairs)
        candidate_pairs = [
            p for p in candidate_pairs if profile.n_out[p[0]] == best_n_out
        ]
        best_n_sv = min(profile.n_sv[u] for u, _ in candidate_pairs)
        candidate_pairs = [
            p for p in candidate_pairs if profile.n_sv[p[0]] == best_n_sv
        ]
        # Trials refine frame u of the first sequence, which FrameBase
        # refines from the conventional frame once per time unit here (it
        # remembers the last row per unit).
        first = sequences[0].states
        best_pair = None
        best_key: Tuple[int, int, int] = (-1, 0, 0)
        for u, flop_index in candidate_pairs:
            frame = base.refine(u, first[u])
            key = (self._trial_gain(base, frame, flop_index), -u, -flop_index)
            if key > best_key:
                best_key = key
                best_pair = (u, flop_index)
        return best_pair

    @staticmethod
    def _expand_all(
        sequences: List[StateSequence], u: int, flop_index: int
    ) -> None:
        """Duplicate every sequence, assigning ``y_i = 0`` / ``1``."""
        doubled: List[StateSequence] = []
        for seq in sequences:
            twin = seq.copy()
            seq.assign(u, flop_index, 0)
            twin.assign(u, flop_index, 1)
            doubled.append(twin)
        sequences.extend(doubled)

    def _resolve(
        self,
        injected: InjectedFault,
        base: FrameBase,
        sequences: List[StateSequence],
        meter: Optional[BudgetMeter] = None,
    ) -> List[StateSequence]:
        """Resimulate and keep only unresolved sequences."""
        unresolved: List[StateSequence] = []
        for seq in sequences:
            if meter is not None:
                meter.charge()
            status = resimulate_sequence(
                injected.circuit,
                self.patterns,
                self.reference_outputs,
                seq,
                injected.forced_ps,
                base=base,
            )
            if status is SequenceStatus.UNRESOLVED:
                unresolved.append(seq)
        return unresolved

    # ------------------------------------------------------------------
    def simulate_fault(
        self, fault: Fault, meter: Optional[BudgetMeter] = None
    ) -> FaultVerdict:
        """Run the baseline procedure for one fault.

        Budget semantics match
        :meth:`repro.mot.simulator.ProposedSimulator.simulate_fault`:
        an exhausted own-config budget becomes an ``"aborted"``
        verdict; an externally supplied *meter* propagates
        :class:`BudgetExceeded` to its owner.
        """
        owned = meter is None
        if owned and self.config.budget is not None and self.config.budget.bounded:
            meter = BudgetMeter(self.config.budget)
        if not owned:
            return self._procedure(fault, meter)
        try:
            return self._procedure(fault, meter)
        except BudgetExceeded as exc:
            return FaultVerdict(fault, "aborted", how="budget",
                                detail=str(exc))

    def _procedure(
        self, fault: Fault, meter: Optional[BudgetMeter]
    ) -> FaultVerdict:
        status, faulty, profile = screen_fault(self.screen, fault, meter)
        if status:
            return FaultVerdict(fault, status)
        injected = inject_fault(self.circuit, fault)
        # The sequence gets its own rows: the base must keep the
        # conventional ones.
        base = FrameBase(injected.circuit, self.patterns, faulty.states)
        sequences = [StateSequence(states=[list(r) for r in faulty.states])]
        if self.config.schedule == "oneshot":
            return self._simulate_oneshot(
                fault, injected, base, profile, sequences, meter
            )
        return self._simulate_iterative(
            fault, injected, base, profile, sequences, meter
        )

    def _simulate_oneshot(
        self,
        fault: Fault,
        injected: InjectedFault,
        base: FrameBase,
        profile: MotProfile,
        sequences: List[StateSequence],
        meter: Optional[BudgetMeter] = None,
    ) -> FaultVerdict:
        expansions = 0
        taken: Set[Tuple[int, int]] = set()
        while len(sequences) < self.config.n_states:
            pair = self._choose_pair(
                injected, base, sequences, profile, taken
            )
            if pair is None:
                break
            expansions += 1
            if meter is not None:
                meter.charge(len(sequences))  # sequences about to be created
            self._expand_all(sequences, *pair)
            taken.add(pair)
        total = len(sequences)
        unresolved = self._resolve(injected, base, sequences, meter)
        if not unresolved:
            return FaultVerdict(
                fault, "mot", how="expansion", num_expansions=expansions,
                num_sequences=total,
            )
        return FaultVerdict(
            fault,
            "undetected",
            how="aborted" if total >= self.config.n_states else "",
            num_sequences=total,
            num_expansions=expansions,
        )

    def _simulate_iterative(
        self,
        fault: Fault,
        injected: InjectedFault,
        base: FrameBase,
        profile: MotProfile,
        sequences: List[StateSequence],
        meter: Optional[BudgetMeter] = None,
    ) -> FaultVerdict:
        expansions = 0
        aborted = False
        while sequences:
            if 2 * len(sequences) > self.config.n_states:
                aborted = True
                break
            # Resimulation fills in values and drops sequences, so the
            # positions some surviving sequence specified are recounted.
            taken = {
                (u, flop_index)
                for seq in sequences
                for u, (row, conventional) in enumerate(
                    zip(seq.states, base.states)
                )
                for flop_index, (value, old) in enumerate(
                    zip(row, conventional)
                )
                if value != old
            }
            pair = self._choose_pair(
                injected, base, sequences, profile, taken
            )
            if pair is None:
                break
            expansions += 1
            if meter is not None:
                meter.charge(len(sequences))
            self._expand_all(sequences, *pair)
            sequences = self._resolve(injected, base, sequences, meter)
        if not sequences:
            return FaultVerdict(
                fault, "mot", how="expansion", num_expansions=expansions
            )
        return FaultVerdict(
            fault,
            "undetected",
            how="aborted" if aborted else "",
            num_sequences=len(sequences),
            num_expansions=expansions,
        )

    def run(self, faults: Iterable[Fault]) -> Campaign:
        """Simulate every fault and aggregate the verdicts."""
        verdicts = [self.simulate_fault(fault) for fault in faults]
        return Campaign(circuit_name=self.circuit.name, verdicts=verdicts)
