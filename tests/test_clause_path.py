"""The one clause path: input -> ``CNFFormula.add_clause`` -> arena.

Every clause -- parsed from DIMACS, sent to the service, emitted by a
circuit encoder or added to a persistent solver -- is put in normal
form once, by ``CNFFormula.add_clause``, and stored as a literal
tuple; the engine copies that tuple into its arena as is.  These
tests pin the normal form, show that the solve path builds no
``Clause`` object, and check what the arena holds after construction.
"""

import pytest

from repro.apps.atpg import TestOutcome, solve_fault
from repro.apps.bmc import check_safety
from repro.circuits.faults import StuckAtFault
from repro.circuits.generators import binary_counter
from repro.circuits.library import c17
from repro.cnf.clause import Clause, is_tautology, normal_clause
from repro.cnf.dimacs import parse_dimacs
from repro.cnf.formula import CNFFormula
from repro.service.protocol import parse_submit
from repro.solvers.cdcl import CDCLSolver

#: Duplicates, tautologies, units, unsorted literals and a clause
#: repeated verbatim.
EDGE_DIMACS = """p cnf 5 9
3 -1 3 0
-2 2 4 0
5 0
4 -3 1 -3 0
-1 3 0
2 -5 0
1 -1 0
-4 -2 0
-4 0
"""

EDGE_CLAUSES = [(-1, 3), (2, -2, 4), (5,), (1, -3, 4), (-1, 3),
                (2, -5), (1, -1), (-2, -4), (-4,)]


class TestNormalForm:
    def test_parse_stores_normal_form_tuples(self):
        formula = parse_dimacs(EDGE_DIMACS)
        assert formula.clauses == EDGE_CLAUSES
        assert all(type(c) is tuple for c in formula.clauses)

    @pytest.mark.parametrize("literals,expected", [
        ([3, -1, 2], (-1, 2, 3)),
        ([-2, 2], (2, -2)),
        ([2, -2, -2, 2], (2, -2)),
        ([-3, 1, 3, -1], (1, -1, 3, -3)),
        ([], ()),
    ])
    def test_order_is_by_variable_positive_first(self, literals,
                                                 expected):
        assert normal_clause(literals) == expected
        assert Clause(literals).literals == expected
        assert CNFFormula().add_clause(literals) == expected

    @pytest.mark.parametrize("bad,error", [
        ([1, 0], ValueError),
        ([1, True], TypeError),
        ([2, 1.0], TypeError),
        ([0, "x"], ValueError),
    ])
    def test_invalid_literals_rejected(self, bad, error):
        with pytest.raises(error):
            CNFFormula().add_clause(bad)

    def test_tautology_is_a_complementary_neighbour(self):
        assert [is_tautology(c) for c in EDGE_CLAUSES] == \
            [False, True, False, False, False, False, True, False, False]
        assert Clause([-3, 1, 3]).is_tautology()
        assert not Clause([1, -3]).is_tautology()


class TestNoClauseOnTheSolvePath:
    """With ``Clause.__init__`` patched to raise, the solve paths of
    the parser, the engine, ATPG, the service and BMC still run."""

    @pytest.fixture(autouse=True)
    def no_clause_objects(self, monkeypatch):
        def refuse(self, literals=()):
            raise AssertionError("a Clause was built on the solve path")
        monkeypatch.setattr(Clause, "__init__", refuse)

    def test_parse_and_solve(self):
        assert CDCLSolver(parse_dimacs(EDGE_DIMACS)).solve().is_sat

    def test_atpg_fault(self):
        result = solve_fault(c17(), StuckAtFault("G22", False))
        assert result.outcome is TestOutcome.DETECTED

    def test_service_admission(self):
        request = parse_submit({"op": "submit", "id": "j",
                                "num_vars": 3,
                                "clauses": [[3, -1, 3], [2, -2], [-3]]})
        assert request.formula.clauses == [(-1, 3), (2, -2), (-3,)]

    def test_bmc(self):
        result = check_safety(binary_counter(3), "rollover")
        assert result.failure_depth == 7


class TestArenaTakesTheStoredTuples:
    def test_arena_after_construction(self):
        formula = parse_dimacs(EDGE_DIMACS)
        solver = CDCLSolver(formula)
        arena = solver.arena
        assert [tuple(arena.lits_of(cid)) for cid in arena.iter_ids()] \
            == [c for c in formula.clauses
                if len(c) > 1 and not is_tautology(c)]

    def test_empty_clause_stays_out_of_the_arena(self):
        formula = parse_dimacs(EDGE_DIMACS + "0\n")
        assert formula.clauses[-1] == ()
        solver = CDCLSolver(formula)
        assert len(solver.arena) == 5
        assert solver.solve().is_unsat

    def test_added_clause_joins_formula_and_arena(self):
        solver = CDCLSolver(parse_dimacs(EDGE_DIMACS))
        solver.add_clause([7, -6, 7])
        assert solver.formula.clauses[-1] == (-6, 7)
        assert solver.arena.lits_of(len(solver.arena) - 1) == [-6, 7]
        assert solver.formula.num_vars == 7
        assert solver.value_of(7) is None
