"""Path delay fault test generation (paper Section 3, [7] and [18]).

A *path delay fault* says a specific input-to-output path is too slow;
a test is a **vector pair** (v1, v2): v1 settles the circuit, v2
launches a transition at the path input that must propagate along the
path.  Following Chen-Gupta [7], the CNF model uses two time frames
(two independent copies of the circuit over the same variables space):

* transition: the path's input differs between frames (rising or
  falling at the path head);
* **non-robust** sensitization: under v2 every side input of every
  on-path gate takes its non-controlling value;
* **robust** sensitization (stricter, glitch-immune sufficient
  condition): side inputs hold non-controlling values in *both*
  frames.

Kim-Whittemore-Marques-Silva-Sakallah [18] observe that the per-path
constraints are tiny against the shared two-frame circuit, making this
the poster child for incremental SAT: :class:`DelayFaultATPG` encodes
the two frames once and issues each path query as an assumption set,
so conflict clauses about the frames are reused across the whole path
list (the speedup measured in benchmark X2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuits.gates import controlling_value
from repro.circuits.netlist import Circuit
from repro.circuits.simulate import simulate
from repro.circuits.tseitin import encode_circuit
from repro.cnf.formula import CNFFormula
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.result import SolverStats


class PathTestability(enum.Enum):
    """Outcome of one path delay fault query."""

    __test__ = False

    TESTABLE = "TESTABLE"
    UNTESTABLE = "UNTESTABLE"        # a false path for this condition
    ABORTED = "ABORTED"


@dataclass(frozen=True)
class PathDelayFault:
    """A structural path plus the transition direction at its head.

    ``rising=True`` means the path input goes 0 -> 1 between the two
    vectors of the test.
    """

    path: Tuple[str, ...]
    rising: bool = True

    def __str__(self) -> str:
        arrow = "R" if self.rising else "F"
        return f"{arrow}:{'->'.join(self.path)}"


@dataclass
class PathTestResult:
    """Per-fault outcome: the vector pair when testable."""

    fault: PathDelayFault
    status: PathTestability
    vector_pair: Optional[Tuple[Dict[str, bool], Dict[str, bool]]] = None
    stats: SolverStats = field(default_factory=SolverStats)


class DelayFaultATPG:
    """Two-frame path delay fault test generator.

    Parameters
    ----------
    circuit:
        combinational circuit under test.
    robust:
        require side inputs non-controlling in both frames (robust
        condition) instead of frame 2 only (non-robust).
    """

    def __init__(self, circuit: Circuit, robust: bool = False,
                 max_conflicts_per_path: Optional[int] = 20000):
        circuit.validate()
        if circuit.is_sequential():
            raise ValueError("path delay fault ATPG is combinational")
        self.circuit = circuit
        self.robust = robust
        formula = CNFFormula()
        self.frame1 = encode_circuit(circuit, formula, var_prefix="t1_")
        self.frame2 = encode_circuit(circuit, formula, var_prefix="t2_")
        self.solver = CDCLSolver(formula,
                                 max_conflicts=max_conflicts_per_path)

    # ------------------------------------------------------------------

    def _path_assumptions(self, fault: PathDelayFault) -> List[int]:
        """The per-path constraint set, as assumption literals."""
        path = list(fault.path)
        if len(path) < 2:
            raise ValueError("a path needs at least two nodes")
        head = path[0]
        assumptions = [
            self.frame1.literal(head, not fault.rising),
            self.frame2.literal(head, fault.rising),
        ]
        for position in range(1, len(path)):
            gate_name = path[position]
            node = self.circuit.node(gate_name)
            if not node.is_gate:
                raise ValueError(f"path node {gate_name!r} is not a gate")
            if path[position - 1] not in node.fanins:
                raise ValueError(
                    f"{path[position - 1]!r} does not drive "
                    f"{gate_name!r}")
            control = controlling_value(node.gate_type)
            if control is None:
                continue             # XOR/unary gates have no side value
            for fanin in node.fanins:
                if fanin == path[position - 1]:
                    continue
                assumptions.append(
                    self.frame2.literal(fanin, not control))
                if self.robust:
                    assumptions.append(
                        self.frame1.literal(fanin, not control))
        return assumptions

    def test_path(self, fault: PathDelayFault) -> PathTestResult:
        """Generate a vector pair for *fault* or prove it untestable."""
        assumptions = self._path_assumptions(fault)
        result = self.solver.solve(assumptions=assumptions)
        if result.is_unsat:
            return PathTestResult(fault, PathTestability.UNTESTABLE,
                                  stats=result.stats)
        if result.is_unknown:
            return PathTestResult(fault, PathTestability.ABORTED,
                                  stats=result.stats)
        vector1 = {
            name: bool(value) if value is not None else False
            for name, value in
            self.frame1.input_vector(result.assignment).items()}
        vector2 = {
            name: bool(value) if value is not None else False
            for name, value in
            self.frame2.input_vector(result.assignment).items()}
        return PathTestResult(fault, PathTestability.TESTABLE,
                              (vector1, vector2), result.stats)

    def run(self, faults: Sequence[PathDelayFault]
            ) -> List[PathTestResult]:
        """Process a whole path fault list on the shared solver."""
        return [self.test_path(fault) for fault in faults]


def enumerate_path_faults(circuit: Circuit, max_paths: int = 50,
                          min_length: int = 0) -> List[PathDelayFault]:
    """Both-transition faults for the longest structural paths."""
    from repro.apps.delay import enumerate_paths

    faults: List[PathDelayFault] = []
    for index, (_, path) in enumerate(
            enumerate_paths(circuit, min_length=min_length)):
        if index >= max_paths:
            break
        faults.append(PathDelayFault(tuple(path), rising=True))
        faults.append(PathDelayFault(tuple(path), rising=False))
    return faults


def validate_test(circuit: Circuit, fault: PathDelayFault,
                  vector_pair: Tuple[Dict[str, bool], Dict[str, bool]]
                  ) -> bool:
    """Simulation check of a generated test.

    Confirms the transition at the path head and, under the final
    vector, non-controlling side inputs along the whole path.
    """
    vector1, vector2 = vector_pair
    values1 = simulate(circuit, vector1)
    values2 = simulate(circuit, vector2)
    head = fault.path[0]
    if values1[head] != (not fault.rising):
        return False
    if values2[head] != fault.rising:
        return False
    for position in range(1, len(fault.path)):
        node = circuit.node(fault.path[position])
        control = controlling_value(node.gate_type)
        if control is None:
            continue
        for fanin in node.fanins:
            if fanin == fault.path[position - 1]:
                continue
            if values2[fanin] != (not control):
                return False
    return True
