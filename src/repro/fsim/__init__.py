"""Conventional (single observation time) fault simulation."""

from repro.fsim.conventional import (
    ConventionalCampaign,
    ConventionalVerdict,
    run_conventional,
    simulate_fault,
)
from repro.fsim.deductive import DeductiveFaultSimulator
from repro.fsim.parallel import (
    ParallelFaultSimulator,
    run_parallel_conventional,
)

__all__ = [
    "ConventionalCampaign",
    "ConventionalVerdict",
    "run_conventional",
    "simulate_fault",
    "ParallelFaultSimulator",
    "run_parallel_conventional",
    "DeductiveFaultSimulator",
]
