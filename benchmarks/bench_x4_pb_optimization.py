"""Experiment X4 (extension) -- linear pseudo-Boolean optimization
(Barth's Davis-Putnam-based enumeration, [3]).

Weighted covering and knapsack instances solved by the two bound
schedules.  Expected shape: both schedules reach the same proven
optimum; binary search issues fewer SAT calls on wide cost ranges;
the optimum matches exhaustive enumeration.
"""

import itertools
import random

from repro.apps.optimization import (
    PBProblem,
    knapsack_problem,
    minimize,
)
from repro.cnf.pseudo_boolean import evaluate_terms
from repro.experiments.tables import format_table

#: The whole table; a change that moves the search re-pins it and
#: reports the rows it moved.
EXPECTED = [
    ["cover0", 21, 7, 7],
    ["cover1", 22, 9, 4],
    ["cover2", 15, 8, 5],
    ["knapsack5", 12, 6, 6],
]


def weighted_cover_instance(seed: int, nodes: int = 8):
    """Weighted vertex cover on a random graph."""
    rng = random.Random(seed)
    problem = PBProblem()
    variables = [problem.new_var() for _ in range(nodes)]
    weights = [rng.randint(1, 9) for _ in range(nodes)]
    for left in range(nodes):
        for right in range(left + 1, nodes):
            if rng.random() < 0.35:
                problem.add_clause([variables[left], variables[right]])
    problem.set_objective(list(zip(weights, variables)))
    return problem, nodes


def brute_optimum(problem: PBProblem, num_vars: int):
    best = None
    for bits in itertools.product([False, True], repeat=num_vars):
        model = {v: bits[v - 1] for v in range(1, num_vars + 1)}
        if problem.formula.evaluate(model) is True:
            cost = evaluate_terms(problem.objective, model)
            best = cost if best is None else min(best, cost)
    return best


def test_x4_pb_optimization(benchmark, show):
    rows = []
    for seed in range(3):
        problem, nodes = weighted_cover_instance(seed)
        base_vars = nodes
        expected = brute_optimum(problem, base_vars)
        linear = minimize(problem, strategy="linear")
        binary = minimize(problem, strategy="binary")
        assert linear.cost == binary.cost == expected
        assert linear.proven_optimal and binary.proven_optimal
        rows.append([f"cover{seed}", expected, linear.sat_calls,
                     binary.sat_calls])

    problem, selections = knapsack_problem(
        weights=[3, 4, 5, 2, 6], values=[4, 5, 6, 3, 7], capacity=10)
    linear = minimize(problem, strategy="linear")
    binary = minimize(problem, strategy="binary")
    assert linear.cost == binary.cost
    rows.append(["knapsack5", linear.cost, linear.sat_calls,
                 binary.sat_calls])

    show(format_table(
        ["instance", "optimal cost", "SAT calls (linear descent)",
         "SAT calls (binary search)"], rows,
        title="X4 -- pseudo-Boolean optimization: Davis-Putnam "
              "enumeration schedules ([3])"))
    assert rows == EXPECTED

    problem, _ = weighted_cover_instance(7)
    solution = benchmark(minimize, problem)
    assert solution.proven_optimal
