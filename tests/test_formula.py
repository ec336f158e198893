"""Unit tests for repro.cnf.formula."""

import pytest

from repro.cnf.assignment import Assignment
from repro.cnf.clause import Clause, is_tautology
from repro.cnf.formula import CNFFormula


class TestVariables:
    def test_new_var_sequence(self):
        formula = CNFFormula()
        assert formula.new_var() == 1
        assert formula.new_var() == 2
        assert formula.num_vars == 2

    def test_new_vars_bulk(self):
        formula = CNFFormula()
        assert formula.new_vars(3) == [1, 2, 3]

    def test_universe_grows_with_clauses(self):
        formula = CNFFormula()
        formula.add_clause([7, -3])
        assert formula.num_vars == 7

    def test_negative_num_vars_rejected(self):
        with pytest.raises(ValueError):
            CNFFormula(-1)

    def test_names(self):
        formula = CNFFormula()
        var = formula.new_var("clk")
        assert formula.name_of(var) == "clk"
        formula.set_name(var, "clock")
        assert formula.name_of(var) == "clock"

    def test_set_name_outside_universe(self):
        with pytest.raises(ValueError):
            CNFFormula(2).set_name(5, "x")

    def test_variables_range(self):
        assert list(CNFFormula(3).variables()) == [1, 2, 3]


class TestClauses:
    def test_add_clause_from_list(self):
        formula = CNFFormula()
        stored = formula.add_clause([-2, 1, -2])
        assert type(stored) is tuple and stored == (1, -2)
        assert formula.clauses == [stored]
        assert formula.num_clauses == 1

    def test_add_clause_object(self):
        formula = CNFFormula()
        clause = Clause([3, -1])
        assert formula.add_clause(clause) == clause.literals == (-1, 3)
        assert formula.clauses == [clause.literals]

    def test_duplicates_preserved(self):
        formula = CNFFormula()
        formula.add_clause([1, 2])
        formula.add_clause([1, 2])
        assert formula.num_clauses == 2
        assert len(formula.clause_set()) == 1

    def test_add_clauses(self):
        formula = CNFFormula()
        formula.add_clauses([[1], [2], [-1, -2]])
        assert formula.num_clauses == 3

    def test_iteration_order(self):
        formula = CNFFormula()
        formula.add_clause([1])
        formula.add_clause([2])
        assert [list(c) for c in formula] == [[1], [2]]


class TestEvaluation:
    def test_satisfied(self, tiny_sat_formula):
        model = {1: False, 2: True, 3: True}
        assert tiny_sat_formula.evaluate(model) is True
        assert tiny_sat_formula.is_satisfied_by(model)

    def test_falsified(self, tiny_sat_formula):
        assert tiny_sat_formula.evaluate(
            {1: True, 2: False, 3: True}) is False

    def test_undetermined(self, tiny_sat_formula):
        assert tiny_sat_formula.evaluate({2: True}) is None

    def test_accepts_assignment_object(self, tiny_sat_formula):
        model = Assignment({1: False, 2: True, 3: True})
        assert tiny_sat_formula.evaluate(model) is True

    def test_empty_formula_is_true(self):
        assert CNFFormula(2).evaluate({}) is True


class TestUtilities:
    def test_literal_occurrences(self):
        formula = CNFFormula()
        formula.add_clause([1, 2])
        formula.add_clause([1, -2])
        counts = formula.literal_occurrences()
        assert counts[1] == 2
        assert counts[2] == 1
        assert counts[-2] == 1

    def test_copy_independent(self, tiny_sat_formula):
        duplicate = tiny_sat_formula.copy()
        duplicate.add_clause([3])
        assert duplicate.num_clauses == tiny_sat_formula.num_clauses + 1

    def test_copy_preserves_names(self):
        formula = CNFFormula()
        formula.new_var("a")
        assert formula.copy().name_of(1) == "a"

    def test_map_variables(self):
        formula = CNFFormula()
        formula.add_clause([1, -2])
        mapped = formula.map_variables({2: 1})
        assert mapped.clauses[0] == (1, -1)
        assert is_tautology(mapped.clauses[0])

    def test_equality(self):
        left = CNFFormula(2)
        left.add_clause([1, 2])
        right = CNFFormula(2)
        right.add_clause([2, 1])
        assert left == right

    def test_to_str(self):
        formula = CNFFormula()
        formula.add_clause([1, -2])
        formula.add_clause([2])
        assert formula.to_str() == "(x1 + x2') . (x2)"
