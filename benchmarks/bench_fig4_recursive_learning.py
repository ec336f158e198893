"""Experiment F4 -- regenerate paper Figure 4 (recursive learning).

On the Figure 4 formula with assignments {z = 1, u = 0}, recursive
learning must find the necessary assignment x = 1 and record the
implicate (z' + u + x).  Also validates the paper's point that the
recorded implicate prevents re-derivation: with it added, plain unit
propagation recovers x = 1 directly.
"""

from repro.cnf.clause import Clause
from repro.cnf.simplify import propagate_units
from repro.experiments.workloads import (
    FIGURE4_VARS,
    figure4_condition,
    figure4_formula,
)
from repro.solvers.recursive_learning import recursive_learn

#: The printed lines, byte for byte.  The recorded implicate prints in
#: variable order, ``(u + x + z')``: the paper's ``(z' + u + x)``.
EXPECTED = [
    "Paper Figure 4 -- recursive learning on clauses",
    "formula: (u + w' + x) . (x + y') . (w + y + z')",
    "assignments: z = 1, u = 0",
    "necessary assignment: x = 1",
    "recorded implicate: (u + x + z')",
    "paper's implicate:  (z' + u + x)",
]


def test_fig4_recursive_learning(benchmark, show):
    formula = figure4_formula()
    condition = figure4_condition()

    result = benchmark(recursive_learn, formula, condition)

    names = formula.names
    lines = ["Paper Figure 4 -- recursive learning on clauses",
             f"formula: {formula.to_str()}",
             "assignments: z = 1, u = 0"]
    for var, value in sorted(result.necessary.items()):
        lines.append(f"necessary assignment: {names[var]} = "
                     f"{int(value)}")
    for clause in result.implicates:
        lines.append(f"recorded implicate: {clause.to_str(names)}")
    lines.append("paper's implicate:  (z' + u + x)")
    show("\n".join(lines))
    assert lines == EXPECTED

    u, x, z = (FIGURE4_VARS[k] for k in "uxz")
    assert result.necessary[x] is True
    assert Clause([-z, u, x]) in result.implicates

    # The implicate makes the derivation a single BCP step afterwards.
    strengthened = formula.copy()
    for clause in result.implicates:
        strengthened.add_clause(clause)
    strengthened.add_clause([z])
    strengthened.add_clause([-u])
    assert propagate_units(strengthened).forced.get(x) is True
