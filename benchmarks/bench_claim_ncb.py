"""Experiment C2 -- Section 4.1 property 1: non-chronological
backtracking "skips over assignment selections deemed irrelevant".

Instances are pigeonhole formulas padded with irrelevant satisfiable
clutter variables that a fixed-order heuristic decides *first*; after
the clutter, conflicts in the pigeonhole core must jump straight back
over the irrelevant levels.  Expected shape: the non-chronological
engine skips many levels and needs far fewer backtracks than the
chronological ablation; the decision-cut analysis is also compared.
"""

from repro.cnf.formula import CNFFormula
from repro.cnf.generators import pigeonhole
from repro.experiments.tables import format_table
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.heuristics import FixedOrderHeuristic


#: The deterministic columns of the table; a change that moves the
#: search re-pins them and reports the rows it moved.
EXPECTED = [
    ["chronological (1-UIP)", 96, 36, 0, 0],
    ["non-chronological (1-UIP)", 96, 36, 5, 60],
    ["non-chronological (decision cut)", 123, 51, 6, 72],
]


def padded_pigeonhole(holes: int, clutter: int = 12) -> CNFFormula:
    """Clutter variables 1..clutter (decided first under fixed order),
    pigeonhole shifted above them."""
    base = pigeonhole(holes)
    formula = CNFFormula(clutter)
    for index in range(1, clutter + 1):
        formula.add_clause([index, (index % clutter) + 1])
    for clause in base:
        formula.add_clause([lit + clutter if lit > 0 else lit - clutter
                            for lit in clause])
    return formula


def run(mode: str, cut: str = "1uip"):
    solver = CDCLSolver(padded_pigeonhole(4),
                        heuristic=FixedOrderHeuristic(),
                        backtrack_mode=mode, conflict_cut=cut)
    result = solver.solve()
    assert result.is_unsat
    return result.stats


def test_claim_ncb(benchmark, show):
    chrono = run("chronological")
    nonchrono = run("nonchronological")
    decision_cut = run("nonchronological", cut="decision")

    rows = [
        ["chronological (1-UIP)", chrono.decisions, chrono.backtracks,
         chrono.nonchronological_backtracks, chrono.levels_skipped],
        ["non-chronological (1-UIP)", nonchrono.decisions,
         nonchrono.backtracks, nonchrono.nonchronological_backtracks,
         nonchrono.levels_skipped],
        ["non-chronological (decision cut)", decision_cut.decisions,
         decision_cut.backtracks,
         decision_cut.nonchronological_backtracks,
         decision_cut.levels_skipped],
    ]
    show(format_table(
        ["engine", "decisions", "backtracks", "ncb jumps",
         "levels skipped"], rows,
        title="C2 -- non-chronological backtracking skips irrelevant "
              "decisions (padded pigeonhole, fixed decision order)"))

    # Shape: NCB actually jumps, and saves decisions over chronological.
    assert nonchrono.nonchronological_backtracks > 0
    assert nonchrono.levels_skipped > 0
    assert nonchrono.decisions <= chrono.decisions
    assert rows == EXPECTED

    result = benchmark(lambda: run("nonchronological"))
    assert result.conflicts > 0
