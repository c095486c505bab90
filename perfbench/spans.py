"""Span tracing of the program's layers, installed from outside its source.

A :class:`Tracer` replaces each public function listed in :data:`SPANS`
at the module (or class) attribute where the program looks it up, runs
the workload, and puts every original object back on exit.  Each wrapped
call records one span ``[name, start, end, parent, fault]``: ``parent``
is the index of the enclosing span (``-1`` for a root) and ``fault`` is
the id the benchmark set for the request in flight, so all spans of one
fault share it.  :data:`COUNTS` are wrapped with a call counter only,
because they are too hot for a span each.

Self time is a span's duration minus the time its child spans cover.
Everything the [4] fallback (``mot.fallback``) runs below itself --
re-injection, conventional simulation, resimulation -- is charged to
``mot.fallback`` instead of the child's own layer, so no second is
counted twice.  Root spans never overlap, so the self times of all
layers plus the uncovered remainder (``unattributed_s``) add up to the
traced wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer name -> the import sites wrapped for it (``module:attribute`` or
#: ``module:Class.method``).  A function the program imports by name is
#: wrapped where each consumer imported it.
SPANS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("circuits.build", (
        "repro.circuits.registry:build_circuit",
        "repro.runner.campaign:build_circuit",
    )),
    ("analysis.collapse", ("repro.analysis.collapse:fault_classes",)),
    ("sim.ir.compile", (
        "repro.sim.kernel:compile_circuit",
        "repro.analysis.collapse:compile_circuit",
    )),
    ("sim.good", (
        "repro.mot.simulator:simulate_sequence",
        "repro.fsim.parallel:simulate_sequence",
        "repro.sim.goodcache:GoodMachineCache.compute",
    )),
    ("faults.inject", (
        "repro.mot.simulator:inject_fault",
        "repro.mot.baseline:inject_fault",
    )),
    ("sim.conv", (
        "repro.mot.simulator:simulate_injected",
        "repro.mot.baseline:simulate_injected",
    )),
    ("mot.procedure", ("repro.mot.simulator:ProposedSimulator.simulate_fault",)),
    ("mot.condition", (
        "repro.mot.simulator:mot_profile",
        "repro.mot.baseline:mot_profile",
        "repro.mot.conditions:MotProfile.condition_c",
    )),
    ("mot.backward", ("repro.mot.backward:BackwardCollector.collect",)),
    ("mot.expansion", ("repro.mot.simulator:expand",)),
    ("mot.resim", (
        "repro.mot.simulator:resimulate_sequence",
        "repro.mot.baseline:resimulate_sequence",
    )),
    ("mot.fallback", ("repro.mot.baseline:BaselineSimulator.simulate_fault",)),
    ("fsim.batch", ("repro.fsim.parallel:run_parallel_conventional",)),
    ("sim.kernel.fault_batch", ("repro.sim.kernel:simulate_fault_batch",)),
    ("runner.campaign", ("repro.runner.campaign:run_campaign",)),
)

#: Counter name -> import sites wrapped with a bare call counter.
COUNTS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("sim.frame.evals", ("repro.sim.frame:evaluate_plan",)),
)

FALLBACK = "mot.fallback"

Span = List[Any]  # [name, start, end, parent, fault]


def resolve(site: str) -> Tuple[Any, str]:
    """The object owning *site*'s attribute, and the attribute name."""
    module_name, _, path = site.partition(":")
    owner: Any = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans around the program's layer entry points.

    Use as a context manager: entering installs every wrapper, leaving
    restores the original objects, even when the workload raised.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        #: Id of the request in flight; the benchmark sets it per fault.
        self.fault: Optional[int] = None
        #: Import sites that do not exist in the program under test.
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._originals: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ wrapping
    def _span(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.fault]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        plan = [(self._span, SPANS), (self._count, COUNTS)]
        for make, table in plan:
            for name, sites in table:
                for site in sites:
                    try:
                        owner, attr = resolve(site)
                        original = vars(owner)[attr]
                    except (ImportError, AttributeError, KeyError):
                        self.missing.append(site)
                        continue
                    if isinstance(original, classmethod):
                        replacement: Any = classmethod(
                            make(name, original.__func__)
                        )
                    else:
                        replacement = make(name, original)
                    self._originals.append((owner, attr, original))
                    setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *_exc: object) -> None:
        self.restore()

    # ----------------------------------------------------------- analysis
    def self_times(self) -> Tuple[Dict[str, float], float]:
        """Per-layer self seconds, and the seconds root spans cover."""
        spans = self.spans
        child = [0.0] * len(spans)
        charge: List[str] = []
        covered = 0.0
        for name, start, end, parent, _fault in spans:
            # Parents are appended before their children, so the parent's
            # charge is already known here.
            if parent >= 0:
                child[parent] += end - start
                if charge[parent] == FALLBACK:
                    name = FALLBACK
            else:
                covered += end - start
            charge.append(name)
        totals: Dict[str, float] = {}
        for layer, span, child_s in zip(charge, spans, child):
            totals[layer] = totals.get(layer, 0.0) + span[2] - span[1] - child_s
        return totals, covered

    def calls(self, name: str) -> int:
        """Number of spans recorded under *name*."""
        return sum(1 for span in self.spans if span[0] == name)
