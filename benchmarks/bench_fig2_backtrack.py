"""Experiment F2 -- the generic backtrack search algorithm (Figure 2).

The paper's Figure 2 skeleton (Decide/Deduce/Diagnose/Erase) is
implemented twice: chronologically in :class:`DPLLSolver` and
conflict-driven in :class:`CDCLSolver`.  This experiment runs both on
the same instance suite, prints the per-engine search profiles, and
benchmarks each engine on a pigeonhole refutation.
"""

import pytest

from repro.cnf.generators import pigeonhole, random_ksat_at_ratio
from repro.experiments.runner import RUN_HEADERS, run_matrix
from repro.experiments.tables import format_table
from repro.solvers.cdcl import solve_cdcl
from repro.solvers.dpll import solve_dpll

#: The deterministic columns of the table (every column but
#: ``seconds``); a change that moves the search re-pins them and
#: reports the rows it moved.
EXPECTED = [
    ["dpll", "php4", "UNSATISFIABLE", 51, 52, 51, 0, 0, 0, 0],
    ["dpll", "rand3sat30", "SATISFIABLE", 15, 1, 1, 0, 0, 0, 0],
    ["cdcl", "php4", "UNSATISFIABLE", 32, 29, 28, 3, 28, 0, 0],
    ["cdcl", "rand3sat30", "SATISFIABLE", 11, 0, 0, 0, 0, 0, 0],
]


def instances():
    return [
        ("php4", pigeonhole(4)),
        ("rand3sat30", random_ksat_at_ratio(30, ratio=4.0, seed=0)),
    ]


@pytest.mark.parametrize("engine,solve", [("dpll", solve_dpll),
                                          ("cdcl", solve_cdcl)])
def test_fig2_backtrack(benchmark, show, engine, solve):
    if engine == "dpll":     # print the comparison table once
        records = run_matrix(["dpll", "cdcl"], instances())
        show(format_table(RUN_HEADERS, [r.row() for r in records],
                          title="Paper Figure 2 -- generic backtrack "
                                "search, two instantiations"))
        by_key = {(r.config, r.instance): r for r in records}
        for name, _ in instances():
            assert by_key[("dpll", name)].status == \
                by_key[("cdcl", name)].status
        assert [list(r.row()[:-1]) for r in records] == EXPECTED
    result = benchmark(lambda: solve(pigeonhole(4)))
    assert result.is_unsat
