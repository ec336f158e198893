"""Experiment A5 -- SAT-based covering and prime implicants (§3).

Minimum unate covering by binary search on a cardinality bound, with
the classical greedy heuristic as the baseline, plus minimum-size
prime implicant computation [22].  Expected shape: SAT matches or
beats greedy on every instance (strictly beats it on the constructed
greedy-trap), and recovers known implicant optima.
"""

import random

from repro.apps.covering import (
    greedy_covering,
    is_implicant_of,
    minimum_size_implicant,
    solve_covering,
)
from repro.cnf.formula import CNFFormula
from repro.experiments.tables import format_table

#: The whole table; a change that moves the search re-pins it and
#: reports the rows it moved.
EXPECTED = [
    ["greedy-trap", 6, 2, 3, 3],
    ["random0", 18, 4, 4, 4],
    ["random1", 18, 6, 6, 4],
    ["random2", 18, 7, 8, 2],
]
#: A5b's implicant: (size, cube, SAT calls).
EXPECTED_IMPLICANT = (2, (-1, 3), 3)


def greedy_trap():
    """Classic ln(n)-gap instance: greedy picks the big column first
    and needs 3 columns; the optimum is the 2 disjoint ones."""
    # Rows 0..5; columns: 0 = {0,1,2}, 1 = {3,4,5} (optimal pair),
    # 2 = {0,1,3,4} (greedy bait), 3 = {2}, 4 = {5}.
    rows = [[0, 2], [0, 2], [0, 3], [1, 2], [1, 2], [1, 4]]
    return 5, rows


def random_instance(seed, columns=12, rows=18):
    rng = random.Random(seed)
    table = []
    for _ in range(rows):
        size = rng.randint(1, 4)
        table.append(sorted(rng.sample(range(columns), size)))
    return columns, table


def test_app_covering(benchmark, show):
    table_rows = []

    num_cols, rows = greedy_trap()
    sat = solve_covering(num_cols, rows)
    greedy = greedy_covering(num_cols, rows)
    table_rows.append(["greedy-trap", len(rows), sat.cost, len(greedy),
                       sat.sat_calls])
    assert sat.cost == 2 and len(greedy) == 3

    for seed in range(3):
        num_cols, rows = random_instance(seed)
        sat = solve_covering(num_cols, rows)
        greedy = greedy_covering(num_cols, rows)
        assert sat.cost <= len(greedy)
        table_rows.append([f"random{seed}", len(rows), sat.cost,
                           len(greedy), sat.sat_calls])

    show(format_table(
        ["instance", "rows", "SAT optimum", "greedy cost",
         "SAT calls"], table_rows,
        title="A5a -- minimum unate covering (binary search on "
              "cardinality)"))
    assert table_rows == EXPECTED

    # Prime implicants: f = ab + a'c as CNF (a' + b)(a + c).
    formula = CNFFormula(3)
    formula.add_clause([-1, 2])
    formula.add_clause([1, 3])
    solution = minimum_size_implicant(formula)
    assert solution.size == 2
    assert is_implicant_of(formula, solution.literals)
    assert (solution.size, solution.literals,
            solution.sat_calls) == EXPECTED_IMPLICANT
    show(f"A5b -- minimum-size prime implicant of f = ab + a'c: "
         f"size {solution.size}, cube {solution.literals} "
         f"(SAT calls: {solution.sat_calls})")

    num_cols, rows = random_instance(7)
    result = benchmark(solve_covering, num_cols, rows)
    assert result.proven_optimal
