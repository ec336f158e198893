"""Experiment C4 -- Section 4.2: recursive learning derives necessary
assignments and its recorded implicates prune subsequent search.

On formulas with hidden forced assignments, depth-1 recursive learning
preprocessing must find backbone literals that plain unit propagation
misses, and the strengthened formula must solve with less search.
"""

import random

from repro.cnf.formula import CNFFormula
from repro.cnf.simplify import propagate_units
from repro.experiments.tables import format_table
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.heuristics import FixedOrderHeuristic
from repro.solvers.recursive_learning import (
    preprocess_recursive_learning,
    recursive_learn,
)


#: The deterministic columns of the table; a change that moves the
#: search re-pins them and reports the rows it moved.
EXPECTED = [
    ["unit propagation", 0, "-", "-"],
    ["recursive learning (depth 1)", 6, 6, "-"],
    ["CDCL on original", "-", "-", 12],
    ["CDCL on strengthened", "-", "-", 12],
]


def hidden_backbone_formula(chains: int = 6,
                            seed: int = 0) -> CNFFormula:
    """Each chain c: (a_c + b_c), (a_c' + t_c), (b_c' + t_c) forces
    t_c without containing a unit clause, then a payload couples the
    t_c variables -- invisible to BCP, visible to recursive learning.
    """
    rng = random.Random(seed)
    formula = CNFFormula(3 * chains)
    targets = []
    for index in range(chains):
        a, b, t = 3 * index + 1, 3 * index + 2, 3 * index + 3
        formula.add_clause([a, b])
        formula.add_clause([-a, t])
        formula.add_clause([-b, t])
        targets.append(t)
    for _ in range(2 * chains):
        picked = rng.sample(targets, 2)
        formula.add_clause([picked[0], -picked[1],
                            rng.choice([-1, 1]) * rng.choice(targets)])
    return formula


def test_claim_recursive_learning(benchmark, show):
    formula = hidden_backbone_formula()

    bcp_forced = propagate_units(formula).forced
    rl_result = benchmark(recursive_learn, formula, {})
    assert not rl_result.conflict

    strengthened, forced = preprocess_recursive_learning(formula)
    baseline = CDCLSolver(formula.copy(),
                          heuristic=FixedOrderHeuristic()).solve()
    primed = CDCLSolver(strengthened,
                        heuristic=FixedOrderHeuristic()).solve()
    assert baseline.is_sat and primed.is_sat

    rows = [
        ["unit propagation", len(bcp_forced), "-", "-"],
        ["recursive learning (depth 1)", len(rl_result.necessary),
         len(rl_result.implicates), "-"],
        ["CDCL on original", "-", "-", baseline.stats.decisions],
        ["CDCL on strengthened", "-", "-", primed.stats.decisions],
    ]
    show(format_table(
        ["stage", "forced assignments", "implicates recorded",
         "decisions"], rows,
        title="C4 -- recursive learning on CNF (Section 4.2)"))

    # Shape: RL finds assignments BCP cannot; search gets no harder.
    assert len(bcp_forced) == 0
    assert len(rl_result.necessary) >= 6        # every chain's t_c
    assert primed.stats.decisions <= baseline.stats.decisions
    assert rows == EXPECTED
