"""Bounded sequential equivalence checking.

Extends the combinational CEC of Section 3 to sequential circuits with
the BMC machinery of [5]: the two designs' *product machine* is their
miter (:func:`repro.circuits.tseitin.build_miter`), and a divergence
within k steps is its ``miter_out`` raised within k frames from the
reset states -- one :class:`~repro.apps.bmc.BoundedModelChecker`
sweep.  UNSAT through depth k proves k-step equivalence (full
sequential equivalence needs an inductive or fixpoint argument, which
bounded checking deliberately trades away -- exactly the trade
bounded model checking made famous).  Sequential ATPG is this check
run against the faulty copy of a circuit
(:mod:`repro.apps.sequential_atpg`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apps.bmc import check_safety
from repro.circuits.netlist import Circuit
from repro.circuits.tseitin import build_miter
from repro.runtime.budget import Budget
from repro.solvers.result import SolverStats


@dataclass
class SequentialEquivalenceReport:
    """Outcome of a bounded product-machine check.

    ``equivalent_through`` is the deepest frame proved equal;
    ``failure_depth``/``trace`` report the first divergence if any.
    ``aborted`` marks a depth the solver could not decide within its
    conflict cap: the sweep stopped there, and that depth is not
    proved.  ``initial_a``/``initial_b`` are the reset states the
    machines started from (DFFs missing from them start at 0).
    """

    equivalent_through: int = -1
    failure_depth: Optional[int] = None
    trace: List[Dict[str, bool]] = field(default_factory=list)
    stats: SolverStats = field(default_factory=SolverStats)
    aborted: bool = False
    initial_a: Dict[str, bool] = field(default_factory=dict)
    initial_b: Dict[str, bool] = field(default_factory=dict)

    @property
    def bounded_equivalent(self) -> bool:
        """True when every depth within the bound was proved equal."""
        return self.failure_depth is None and not self.aborted


def _reset_state(circuit: Circuit,
                 initial: Optional[Dict[str, bool]]) -> Dict[str, bool]:
    """Every DFF of *circuit* at 0, overridden by *initial*."""
    state = {dff: False for dff in circuit.dffs}
    state.update(initial or {})
    return state


class SequentialEquivalenceChecker:
    """Bounded model checking of the product machine's ``miter_out``
    from the prefixed reset states.

    ``max_conflicts_per_depth`` caps each depth's solve (``None``:
    unbounded); a depth that hits the cap ends the check ``aborted``.
    """

    def __init__(self, circuit_a: Circuit, circuit_b: Circuit,
                 initial_a: Optional[Dict[str, bool]] = None,
                 initial_b: Optional[Dict[str, bool]] = None,
                 max_conflicts_per_depth: Optional[int] = None):
        self.circuit_a = circuit_a
        self.circuit_b = circuit_b
        self.product, _ = build_miter(circuit_a, circuit_b, "product")
        self.initial_a = _reset_state(circuit_a, initial_a)
        self.initial_b = _reset_state(circuit_b, initial_b)
        self.budget = (None if max_conflicts_per_depth is None
                       else Budget(max_conflicts=max_conflicts_per_depth))

    def check(self, max_depth: int = 10
              ) -> SequentialEquivalenceReport:
        """Search for a divergence within ``max_depth + 1`` frames.

        A depth the solver could not decide stops the sweep with
        ``aborted`` set; it is never counted as proved.
        """
        reset = {f"a_{dff}": value
                 for dff, value in self.initial_a.items()}
        reset.update({f"b_{dff}": value
                      for dff, value in self.initial_b.items()})
        result = check_safety(self.product, "miter_out",
                              max_depth=max_depth, initial_state=reset,
                              budget=self.budget)
        return SequentialEquivalenceReport(
            equivalent_through=result.depths_proved - 1,
            failure_depth=result.failure_depth, trace=result.trace,
            stats=result.stats, aborted=result.budget_exhausted,
            initial_a=self.initial_a, initial_b=self.initial_b)


def check_sequential_equivalence(circuit_a: Circuit,
                                 circuit_b: Circuit,
                                 max_depth: int = 10
                                 ) -> SequentialEquivalenceReport:
    """One-shot bounded sequential equivalence check."""
    checker = SequentialEquivalenceChecker(circuit_a, circuit_b)
    return checker.check(max_depth)


def verify_divergence(circuit_a: Circuit, circuit_b: Circuit,
                      report: SequentialEquivalenceReport) -> bool:
    """Replay a divergence trace through both simulators, each machine
    from the reset state the check started it in."""
    from repro.circuits.simulate import simulate_sequence

    if report.failure_depth is None:
        return False
    frames_a = simulate_sequence(
        circuit_a, report.trace, _reset_state(circuit_a, report.initial_a))
    frames_b = simulate_sequence(
        circuit_b, report.trace, _reset_state(circuit_b, report.initial_b))
    frame = report.failure_depth
    return any(frames_a[frame][out_a] != frames_b[frame][out_b]
               for out_a, out_b in zip(circuit_a.outputs,
                                       circuit_b.outputs))
