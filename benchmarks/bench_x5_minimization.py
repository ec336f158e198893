"""Experiment X5 (extension) -- learned-clause minimization ablation.

Self-subsumption minimization shortens recorded clauses before they
enter the database (shorter implicates prune more).  Expected shape:
average learned-clause length drops with minimization on, search
effort does not degrade, and solutions stay sound.
"""

from repro.cnf.generators import pigeonhole, random_ksat_at_ratio
from repro.experiments.tables import format_table
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.heuristics import FixedOrderHeuristic

#: The whole table; a change that moves the search re-pins it and
#: reports the rows it moved.
EXPECTED = [
    ["php5", "UNSATISFIABLE", 139, 7.53, 139, 6.42],
    ["php6", "UNSATISFIABLE", 578, 11.46, 582, 8.93],
    ["rand40@4.3", "UNSATISFIABLE", 68, 4.82, 73, 3.71],
]


def profile(formula_factory, minimize):
    solver = CDCLSolver(formula_factory(),
                        heuristic=FixedOrderHeuristic(),
                        minimize_learned=minimize)
    result = solver.solve()
    lengths = [len(c) for c in solver.learned_clauses()]
    average = sum(lengths) / len(lengths) if lengths else 0.0
    return result, len(lengths), round(average, 2)


def test_x5_minimization(benchmark, show):
    rows = []
    for name, factory in (
            ("php5", lambda: pigeonhole(5)),
            ("php6", lambda: pigeonhole(6)),
            ("rand40@4.3",
             lambda: random_ksat_at_ratio(40, ratio=4.3, seed=2))):
        plain_result, plain_count, plain_avg = profile(factory, False)
        mini_result, mini_count, mini_avg = profile(factory, True)
        assert plain_result.status == mini_result.status
        rows.append([name, plain_result.status.value,
                     plain_count, plain_avg, mini_count, mini_avg])
    show(format_table(
        ["instance", "status", "clauses (plain)", "avg len (plain)",
         "clauses (minimized)", "avg len (minimized)"], rows,
        title="X5 -- learned-clause self-subsumption minimization"))

    # Average length must not grow on any instance, and must strictly
    # shrink somewhere.
    assert all(row[5] <= row[3] for row in rows)
    assert any(row[5] < row[3] for row in rows)
    assert rows == EXPECTED

    result = benchmark(
        lambda: CDCLSolver(pigeonhole(5),
                           minimize_learned=True).solve())
    assert result.is_unsat
