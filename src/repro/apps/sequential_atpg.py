"""Sequential-circuit test generation by time-frame expansion.

The paper's ATPG discussion (Section 3) and the GRASP line of work
extend naturally from combinational to *sequential* test generation:
a stuck-at fault in a non-scan sequential circuit needs an input
**sequence** that first drives the faulty machine into a state
distinguishing it from the good machine, then propagates the
difference to an observable output.

That is exactly bounded sequential equivalence of the circuit and its
faulty copy (:func:`repro.circuits.faults.inject_fault`, which wires the
fault site to a constant in *every* frame -- the single-stuck-line
assumption), so a test generator here is one
:class:`~repro.apps.seq_equivalence.SequentialEquivalenceChecker` on
that pair: bounded model checking of the product machine's
``miter_out`` (shared inputs per frame, both machines from the same
reset state), one depth at a time.  Frames are added lazily on BMC's
one persistent incremental solver, so recorded clauses carry across
depths -- the Section 6 incremental-SAT advantage -- and the first
satisfiable depth is the shortest detecting sequence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.apps.seq_equivalence import (
    SequentialEquivalenceChecker,
    SequentialEquivalenceReport,
    verify_divergence,
)
from repro.circuits.faults import StuckAtFault, full_fault_list, inject_fault
from repro.circuits.netlist import Circuit
from repro.solvers.result import SolverStats


class SequenceOutcome(enum.Enum):
    """Classification of one sequential fault."""

    DETECTED = "DETECTED"
    UNDETECTABLE_WITHIN_BOUND = "UNDETECTABLE_WITHIN_BOUND"
    ABORTED = "ABORTED"


@dataclass
class SequentialFaultResult:
    """Per-fault outcome: the detecting input sequence when found."""

    fault: StuckAtFault
    outcome: SequenceOutcome
    sequence: List[Dict[str, bool]] = field(default_factory=list)
    detect_frame: Optional[int] = None
    stats: SolverStats = field(default_factory=SolverStats)


class SequentialATPG:
    """Time-frame-expansion test generator for one target fault.

    A fresh engine per fault (the faulty machine is fault-specific);
    within a fault, depths share one incremental solver, each capped
    at ``max_conflicts_per_depth`` conflicts (a depth that hits the cap
    makes the fault ABORTED).
    """

    def __init__(self, circuit: Circuit, fault: StuckAtFault,
                 initial_state: Optional[Dict[str, bool]] = None,
                 max_conflicts_per_depth: Optional[int] = 50000):
        self.circuit = circuit
        self.fault = fault
        self.checker = SequentialEquivalenceChecker(
            circuit, inject_fault(circuit, fault),
            initial_state, initial_state,
            max_conflicts_per_depth=max_conflicts_per_depth)

    def solve(self, max_depth: int = 10) -> SequentialFaultResult:
        """Search for a detecting sequence of length <= max_depth+1."""
        report = self.checker.check(max_depth)
        result = SequentialFaultResult(
            self.fault, SequenceOutcome.UNDETECTABLE_WITHIN_BOUND,
            stats=report.stats)
        if report.aborted:
            result.outcome = SequenceOutcome.ABORTED
        elif report.failure_depth is not None:
            result.outcome = SequenceOutcome.DETECTED
            result.detect_frame = report.failure_depth
            result.sequence = report.trace
        return result


def generate_sequential_tests(circuit: Circuit,
                              faults: Optional[Sequence[StuckAtFault]]
                              = None,
                              max_depth: int = 10
                              ) -> List[SequentialFaultResult]:
    """Run time-frame-expansion ATPG over a fault list."""
    results = []
    for fault in (faults if faults is not None
                  else full_fault_list(circuit)):
        engine = SequentialATPG(circuit, fault)
        results.append(engine.solve(max_depth))
    return results


def validate_sequence(circuit: Circuit, result: SequentialFaultResult,
                      initial_state: Optional[Dict[str, bool]] = None
                      ) -> bool:
    """Replay a detecting sequence on good and faulty machines.

    Confirms the primary outputs differ at the reported frame
    (:func:`~repro.apps.seq_equivalence.verify_divergence` from
    *initial_state*).
    """
    if result.outcome is not SequenceOutcome.DETECTED:
        return False
    report = SequentialEquivalenceReport(
        failure_depth=result.detect_frame, trace=result.sequence,
        initial_a=initial_state or {}, initial_b=initial_state or {})
    return verify_divergence(circuit, inject_fault(circuit, result.fault),
                             report)
