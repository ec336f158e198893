"""repro: Boolean Satisfiability in Electronic Design Automation.

A faithful, self-contained reproduction of Marques-Silva & Sakallah's
DAC 2000 tutorial: the CNF substrate (Section 2), the backtrack-search
and conflict-driven SAT algorithms it surveys (Section 4), recursive
learning on CNF formulas (Section 4.2), the circuit-structure layer
with justification frontiers (Section 5), equivalency reasoning,
randomized restarts and incremental SAT (Section 6), and the EDA
applications of Section 3 (ATPG, redundancy removal, equivalence
checking, delay computation, bounded model checking, functional vector
generation, covering/prime implicants, FPGA routing).

Quick start::

    from repro import CNFFormula, solve_cdcl
    formula = CNFFormula()
    a, b = formula.new_vars(2)
    formula.add_clause([a, b])
    formula.add_clause([-a, b])
    result = solve_cdcl(formula)
    assert result.is_sat and result.assignment.value_of(b) is True

See README.md for the architecture overview and EXPERIMENTS.md for the
paper-reproduction index.
"""

from repro.cnf import Assignment, Clause, CNFFormula
from repro.cnf.dimacs import load_dimacs, parse_dimacs, save_dimacs
from repro.circuits import Circuit, GateType, encode_circuit
from repro.circuits.tseitin import build_miter, encode_with_objective
from repro.solvers import (
    CDCLSolver,
    DPLLSolver,
    SolverResult,
    Status,
    solve_cdcl,
    solve_dpll,
    solve_gsat,
    solve_walksat,
)
from repro.solvers.circuit_sat import CircuitSATSolver, solve_circuit
from repro.apps.atpg import ATPGEngine
from repro.apps.bmc import BoundedModelChecker, check_safety
from repro.apps.equivalence import check_equivalence

__version__ = "1.0.0"

__all__ = [
    "ATPGEngine",
    "Assignment",
    "BoundedModelChecker",
    "CDCLSolver",
    "CNFFormula",
    "Circuit",
    "CircuitSATSolver",
    "Clause",
    "DPLLSolver",
    "GateType",
    "SolverResult",
    "Status",
    "build_miter",
    "check_equivalence",
    "check_safety",
    "encode_circuit",
    "encode_with_objective",
    "load_dimacs",
    "parse_dimacs",
    "save_dimacs",
    "solve_cdcl",
    "solve_circuit",
    "solve_dpll",
    "solve_gsat",
    "solve_walksat",
    "__version__",
]
