"""Shared test helpers: reference (brute-force) solvers and builders.

Every solver test cross-checks against :func:`brute_force_status`,
an exhaustive enumeration that is slow but obviously correct.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

import pytest

from repro.cnf.clause import evaluate_clause
from repro.cnf.formula import CNFFormula


def brute_force_status(formula: CNFFormula,
                       max_vars: int = 20) -> str:
    """Exhaustively decide satisfiability ('SAT'/'UNSAT')."""
    n = formula.num_vars
    if n > max_vars:
        raise ValueError(f"{n} variables exceed brute-force limit")
    for bits in itertools.product([False, True], repeat=n):
        assignment = {var: bits[var - 1] for var in range(1, n + 1)}
        if formula.evaluate(assignment) is True:
            return "SAT"
    return "UNSAT"


def brute_force_models(formula: CNFFormula,
                       max_vars: int = 16):
    """Yield every total model as a variable->bool dict."""
    n = formula.num_vars
    if n > max_vars:
        raise ValueError(f"{n} variables exceed brute-force limit")
    for bits in itertools.product([False, True], repeat=n):
        assignment = {var: bits[var - 1] for var in range(1, n + 1)}
        if formula.evaluate(assignment) is True:
            yield assignment


def assert_model_satisfies(formula: CNFFormula, assignment) -> None:
    """Fail unless *assignment* (possibly partial) satisfies the
    formula under any extension -- i.e. every clause has a satisfied
    literal or only unassigned ones that can still be chosen freely."""
    mapping: Dict[int, Optional[bool]] = (
        assignment.as_dict() if hasattr(assignment, "as_dict")
        else dict(assignment))
    for clause in formula:
        value = evaluate_clause(clause, mapping)
        assert value is not False, \
            f"clause {clause} falsified by model"


def half_adder_sum():
    """half_adder()'s inputs with its sum output alone: the same input
    names, one output fewer."""
    from repro.circuits.gates import GateType
    from repro.circuits.netlist import Circuit
    circuit = Circuit("half_adder_sum")
    circuit.add_input("a")
    circuit.add_input("b")
    circuit.add_gate("sum", GateType.XOR, ["a", "b"])
    circuit.set_output("sum")
    return circuit


@pytest.fixture
def tiny_sat_formula():
    """(a + b)(a' + b)(b' + c): satisfiable, forces b."""
    formula = CNFFormula(3)
    formula.add_clause([1, 2])
    formula.add_clause([-1, 2])
    formula.add_clause([-2, 3])
    return formula


@pytest.fixture
def tiny_unsat_formula():
    """All four clauses over two variables: unsatisfiable."""
    formula = CNFFormula(2)
    formula.add_clause([1, 2])
    formula.add_clause([1, -2])
    formula.add_clause([-1, 2])
    formula.add_clause([-1, -2])
    return formula
