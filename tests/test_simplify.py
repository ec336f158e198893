"""Unit tests for repro.cnf.simplify."""

from conftest import brute_force_status

from repro.cnf.formula import CNFFormula
from repro.cnf.simplify import (
    eliminate_pure_literals,
    propagate_units,
    remove_duplicates,
    remove_subsumed,
    remove_tautologies,
    simplify,
    subsumption_pairs,
)


def build(clauses, num_vars=0):
    formula = CNFFormula(num_vars)
    formula.add_clauses(clauses)
    return formula


class TestPropagateUnits:
    def test_single_unit(self):
        result = propagate_units(build([[1], [1, 2], [-1, 3]]))
        assert result.forced == {1: True, 3: True}
        assert result.formula.num_clauses == 0

    def test_cascade(self):
        result = propagate_units(build([[1], [-1, 2], [-2, 3]]))
        assert result.forced == {1: True, 2: True, 3: True}

    def test_conflict_detected(self):
        result = propagate_units(build([[1], [-1]]))
        assert result.unsat

    def test_derived_conflict(self):
        result = propagate_units(build([[1], [-1, 2], [-1, -2]]))
        assert result.unsat

    def test_no_units_is_identity(self):
        formula = build([[1, 2], [-1, -2]])
        result = propagate_units(formula)
        assert result.formula.num_clauses == 2
        assert not result.forced

    def test_preserves_satisfiability(self):
        formula = build([[1], [1, 2], [-2, 3], [-1, -3, 2]])
        result = propagate_units(formula)
        assert not result.unsat
        assert brute_force_status(formula) == "SAT"


class TestPureLiterals:
    def test_pure_positive(self):
        result = eliminate_pure_literals(build([[1, 2], [1, -2]]))
        assert result.forced[1] is True
        assert result.formula.num_clauses == 0

    def test_pure_negative(self):
        result = eliminate_pure_literals(build([[-1, 2], [-1, -2]]))
        assert result.forced[1] is False

    def test_mixed_not_pure(self):
        result = eliminate_pure_literals(build([[1, 2], [-1, -2]]))
        assert 1 not in result.forced
        assert 2 not in result.forced


class TestTautologiesAndDuplicates:
    def test_remove_tautology(self):
        result = remove_tautologies(build([[1, -1], [2]]))
        assert result.removed_clauses == 1
        assert result.formula.num_clauses == 1

    def test_remove_duplicates_keeps_first(self):
        result = remove_duplicates(build([[1, 2], [2, 1], [3]]))
        assert result.formula.num_clauses == 2
        assert result.removed_clauses == 1


class TestSubsumption:
    def test_shorter_subsumes_longer(self):
        result = remove_subsumed(build([[1], [1, 2], [1, 2, 3]]))
        assert result.formula.num_clauses == 1
        assert list(result.formula.clauses[0]) == [1]

    def test_unrelated_kept(self):
        result = remove_subsumed(build([[1, 2], [3, 4]]))
        assert result.formula.num_clauses == 2

    def test_polarity_blocks_subsumption(self):
        result = remove_subsumed(build([[1], [-1, 2]]))
        assert result.formula.num_clauses == 2

    def test_subsumption_pairs_strict_subset(self):
        # A strictly shorter clause subsumes its superset (the
        # signature filter's direction).
        assert subsumption_pairs([[1, 2, 3], [1, 2]]) == [(0, 1)]

    def test_subsumption_pairs_duplicates(self):
        assert subsumption_pairs([[4, 5], [5, 4]]) == [(1, 0)]

    def test_subsumption_pairs_none(self):
        assert subsumption_pairs([[1, 2], [-1, 3], [2, -3]]) == []


class TestFullSimplify:
    def test_detects_unsat(self):
        assert simplify(build([[1], [-1]])).unsat

    def test_fixpoint_chains(self):
        # Unit 1 satisfies first clause, then 2 becomes pure, etc.
        formula = build([[1], [-1, 2], [2, 3]])
        result = simplify(formula)
        assert result.forced[1] is True
        assert result.forced[2] is True
        assert result.formula.num_clauses == 0

    def test_equisatisfiable_sat(self):
        formula = build([[1, 2], [-1, 3], [2, -3], [1, -2, 3]])
        result = simplify(formula)
        assert not result.unsat
        assert brute_force_status(formula) == "SAT"

    def test_equisatisfiable_unsat(self):
        formula = build([[1, 2], [1, -2], [-1, 2], [-1, -2]])
        result = simplify(formula)
        survived = "UNSAT" if result.unsat else \
            brute_force_status(result.formula)
        assert survived == "UNSAT"

    def test_subsumption_flag(self):
        formula = build([[1, 2], [1, 2, 3], [-1, -2], [-3, 1]])
        with_sub = simplify(formula, subsumption=True)
        assert with_sub.formula.num_clauses <= 3

    def test_preserves_names(self):
        formula = CNFFormula()
        formula.new_var("a")
        formula.add_clause([1, 1])
        result = simplify(formula, units=False, pure=False)
        assert result.formula.name_of(1) == "a"
