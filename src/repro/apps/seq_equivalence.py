"""Bounded sequential equivalence checking.

Extends the combinational CEC of Section 3 to sequential circuits with
the BMC machinery of [5]: unroll the *product machine* of the two
designs k time frames from their reset states, sharing input variables
per frame, and ask SAT whether any frame can produce differing
outputs.  UNSAT through depth k proves k-step equivalence (full
sequential equivalence needs an inductive or fixpoint argument, which
bounded checking deliberately trades away -- exactly the trade
bounded model checking made famous).

Each frame of each machine is one :func:`repro.circuits.tseitin.
encode_nodes` call (the shared input variables *given*, DFFs copied
from the previous frame or fixed to the reset state), and the frame's
divergence literal is :func:`~repro.circuits.tseitin.add_difference`
over the output pairs.  Sequential ATPG is this check run against the
faulty copy of a circuit (:mod:`repro.apps.sequential_atpg`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.circuits.netlist import Circuit
from repro.circuits.tseitin import add_difference, encode_nodes, input_trace
from repro.solvers.cdcl import CDCLSolver
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
    """Product-machine unrolling on one persistent solver.

    ``max_conflicts_per_depth`` caps each depth's solve (``None``:
    unbounded); a depth that hits the cap ends the check ``aborted``.
    """

    def __init__(self, circuit_a: Circuit, circuit_b: Circuit,
                 initial_a: Optional[Dict[str, bool]] = None,
                 initial_b: Optional[Dict[str, bool]] = None,
                 max_conflicts_per_depth: Optional[int] = None):
        circuit_a.validate()
        circuit_b.validate()
        if list(circuit_a.inputs) != list(circuit_b.inputs):
            raise ValueError("circuits must share input names")
        if len(circuit_a.outputs) != len(circuit_b.outputs):
            raise ValueError("circuits must have equally many outputs")
        self.circuit_a = circuit_a
        self.circuit_b = circuit_b
        self.initial_a = _reset_state(circuit_a, initial_a)
        self.initial_b = _reset_state(circuit_b, initial_b)
        self.solver = CDCLSolver(max_conflicts=max_conflicts_per_depth)
        #: per frame: (vars_a, vars_b, diff); vars_a holds the shared
        #: input variables too
        self.frames: List[Tuple[Dict[str, int], Dict[str, int], int]] = []

    def _add_frame(self) -> None:
        def new_var(name: str) -> int:
            return self.solver.new_var()

        add_clause = self.solver.add_clause
        inputs = {name: self.solver.new_var()
                  for name in self.circuit_a.inputs}
        prev_a, prev_b, _ = self.frames[-1] if self.frames \
            else (None, None, None)
        vars_a = encode_nodes(self.circuit_a, new_var, add_clause,
                              given=inputs, previous=prev_a,
                              initial=self.initial_a)
        vars_b = encode_nodes(self.circuit_b, new_var, add_clause,
                              given=inputs, previous=prev_b,
                              initial=self.initial_b)
        diff = add_difference(
            [(vars_a[out_a], vars_b[out_b])
             for out_a, out_b in zip(self.circuit_a.outputs,
                                     self.circuit_b.outputs)],
            new_var, add_clause)
        self.frames.append((vars_a, vars_b, diff))

    def check(self, max_depth: int = 10
              ) -> SequentialEquivalenceReport:
        """Search for a divergence within ``max_depth + 1`` frames.

        A depth the solver could not decide stops the sweep with
        ``aborted`` set; it is never counted as proved.
        """
        report = SequentialEquivalenceReport(initial_a=self.initial_a,
                                             initial_b=self.initial_b)
        for depth in range(max_depth + 1):
            while len(self.frames) <= depth:
                self._add_frame()
            call = self.solver.solve(
                assumptions=[self.frames[depth][2]])
            report.stats.merge(call.stats)
            if call.is_sat:
                report.failure_depth = depth
                report.trace = input_trace(
                    call.assignment,
                    [frame[0] for frame in self.frames[:depth + 1]],
                    self.circuit_a.inputs)
                return report
            if not call.is_unsat:
                report.aborted = True
                return report
            report.equivalent_through = depth
        return report


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
