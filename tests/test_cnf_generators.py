"""Unit tests for repro.cnf.generators."""

import pytest

from conftest import brute_force_status

from repro.cnf.generators import (
    equivalence_ladder,
    graph_coloring,
    parity_chain,
    pigeonhole,
    random_ksat,
    random_ksat_at_ratio,
    xor_clauses,
)
from repro.cnf.literals import variable


class TestRandomKSat:
    def test_shape(self):
        formula = random_ksat(10, 42, k=3, seed=1)
        assert formula.num_vars == 10
        assert formula.num_clauses == 42
        assert all(len(c) == 3 for c in formula)

    def test_deterministic_given_seed(self):
        left = random_ksat(10, 20, seed=7)
        right = random_ksat(10, 20, seed=7)
        assert left == right

    def test_different_seeds_differ(self):
        assert random_ksat(10, 20, seed=1) != random_ksat(10, 20, seed=2)

    def test_distinct_variables_per_clause(self):
        formula = random_ksat(5, 50, k=3, seed=3)
        for clause in formula:
            assert len({variable(lit) for lit in clause}) == 3

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            random_ksat(2, 5, k=3)

    def test_ratio_helper(self):
        formula = random_ksat_at_ratio(20, ratio=4.0, seed=0)
        assert formula.num_clauses == 80


class TestPigeonhole:
    @pytest.mark.parametrize("holes", [1, 2, 3])
    def test_unsat(self, holes):
        assert brute_force_status(pigeonhole(holes), max_vars=12) == "UNSAT"

    def test_structure(self):
        formula = pigeonhole(3)
        assert formula.num_vars == 4 * 3
        # 4 at-least-one clauses + 3 * C(4,2) exclusion clauses
        assert formula.num_clauses == 4 + 3 * 6

    def test_rejects_zero_holes(self):
        with pytest.raises(ValueError):
            pigeonhole(0)


class TestXorClauses:
    def test_two_var_equality(self):
        clauses = xor_clauses([1, 2], False)   # x1 == x2
        assert sorted(tuple(sorted(c)) for c in clauses) == \
            [(-2, 1), (-1, 2)]

    def test_two_var_difference(self):
        clauses = xor_clauses([1, 2], True)    # x1 != x2
        assert sorted(tuple(sorted(c)) for c in clauses) == \
            [(-2, -1), (1, 2)]

    def test_semantics_three_vars(self):
        from repro.cnf.formula import CNFFormula
        formula = CNFFormula(3)
        formula.add_clauses(xor_clauses([1, 2, 3], True))
        import itertools
        for bits in itertools.product([False, True], repeat=3):
            model = {i + 1: bits[i] for i in range(3)}
            expected = (sum(bits) % 2) == 1
            assert formula.evaluate(model) is expected


class TestParityChain:
    def test_unsat_chain(self):
        assert brute_force_status(parity_chain(6), max_vars=10) == "UNSAT"

    def test_sat_chain(self):
        formula = parity_chain(6, satisfiable=True)
        assert brute_force_status(formula, max_vars=10) == "SAT"

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            parity_chain(2)


class TestEquivalenceLadder:
    def test_contains_equivalence_pairs(self):
        formula = equivalence_ladder(3, seed=0)
        clause_set = {tuple(sorted(c)) for c in formula}
        for pair in range(1, 4):
            a, b = 2 * pair - 1, 2 * pair
            assert (-b, a) in clause_set
            assert (-a, b) in clause_set

    def test_deterministic(self):
        assert equivalence_ladder(4, seed=5) == \
            equivalence_ladder(4, seed=5)


class TestGraphColoring:
    def test_triangle_needs_three_colors(self):
        triangle = [(0, 1), (1, 2), (0, 2)]
        assert brute_force_status(
            graph_coloring(triangle, 2), max_vars=8) == "UNSAT"
        assert brute_force_status(
            graph_coloring(triangle, 3), max_vars=9) == "SAT"

    def test_edgeless_graph(self):
        formula = graph_coloring([], 2, num_nodes=2)
        assert brute_force_status(formula, max_vars=4) == "SAT"
