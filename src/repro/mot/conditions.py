"""The paper's necessary condition for MOT detectability (Section 3).

For a fault to be detectable by state expansion plus backward
implications there must be a time unit with unspecified faulty state
variables *and* output positions that are specified in the fault-free
circuit but unspecified in the faulty circuit at that time or later:

    (C)  N_sv(u) > 0  and  N_out(u) > 0   for some 0 <= u < L.

Faults failing (C) are dropped before any expansion work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.logic.values import UNKNOWN


@dataclass(frozen=True)
class MotProfile:
    """Per-time-unit quantities used by condition (C) and pair selection.

    ``n_sv[u]`` counts unspecified state variables of the faulty circuit
    at time unit ``u`` (``0..L``); ``n_out[u]`` counts pairs ``(u' >= u,
    o)`` where output ``o`` is specified fault-free and unspecified faulty
    (``0..L``, with ``n_out[L] = 0``).
    """

    n_sv: List[int]
    n_out: List[int]

    @property
    def length(self) -> int:
        return len(self.n_out) - 1

    def condition_c(self) -> bool:
        """True when the necessary condition (C) holds at some time unit."""
        return any(
            self.n_sv[u] > 0 and self.n_out[u] > 0 for u in range(self.length)
        )


def mot_profile(
    faulty_states: Sequence[Sequence[int]],
    reference_outputs: Sequence[Sequence[int]],
    faulty_outputs: Sequence[Sequence[int]],
) -> MotProfile:
    """Compute ``N_sv`` and ``N_out`` from conventional simulation results.

    Parameters
    ----------
    faulty_states:
        ``L + 1`` state rows of the faulty circuit (conventional sim).
    reference_outputs, faulty_outputs:
        ``L`` output rows of the fault-free and faulty circuits.
    """
    length = len(reference_outputs)
    if len(faulty_outputs) != length:
        raise ValueError("output sequences must have equal length")
    if len(faulty_states) != length + 1:
        raise ValueError("state sequence must have L + 1 entries")
    n_sv = [row.count(UNKNOWN) for row in faulty_states]
    # Suffix-sum the per-time-unit counts of resolvable output positions.
    n_out = [0] * (length + 1)
    for u in range(length - 1, -1, -1):
        here = sum(
            1
            for ref, faulty in zip(reference_outputs[u], faulty_outputs[u])
            if ref != UNKNOWN and faulty == UNKNOWN
        )
        n_out[u] = n_out[u + 1] + here
    return MotProfile(n_sv=n_sv, n_out=n_out)
