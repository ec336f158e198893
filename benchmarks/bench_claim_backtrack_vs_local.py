"""Experiment C1 -- Section 4's claim: "only backtrack search has
proven useful ... in particular for applications where the objective
is to prove unsatisfiability".

Runs DPLL, CDCL, GSAT and WalkSAT on a mixed suite.  Expected shape:
on UNSAT instances local search returns UNKNOWN (it cannot refute)
while backtrack search proves UNSATISFIABLE; on satisfiable instances
both families succeed.
"""

from repro.cnf.generators import (
    parity_chain,
    pigeonhole,
    random_ksat_at_ratio,
)
from repro.experiments.runner import RUN_HEADERS, run_matrix
from repro.experiments.tables import format_table


def suite():
    return [
        ("php4 (UNSAT)", pigeonhole(4)),
        ("parity10 (UNSAT)", parity_chain(10)),
        ("rand30@3.5 (SAT)",
         random_ksat_at_ratio(30, ratio=3.5, seed=1)),
        ("rand40@3.5 (SAT)",
         random_ksat_at_ratio(40, ratio=3.5, seed=2)),
    ]


CONFIGS = ["dpll", "cdcl", "gsat", "walksat"]

#: The deterministic columns of the table (every column but
#: ``seconds``, local-search ``flips`` included); a change that moves
#: the search re-pins them and reports the rows it moved.
EXPECTED = [
    ["dpll", "php4 (UNSAT)", "UNSATISFIABLE", 51, 52, 51, 0, 0, 0, 0],
    ["dpll", "parity10 (UNSAT)", "UNSATISFIABLE", 1, 2, 1, 0, 0, 0, 0],
    ["dpll", "rand30@3.5 (SAT)", "SATISFIABLE", 11, 1, 1, 0, 0, 0, 0],
    ["dpll", "rand40@3.5 (SAT)", "SATISFIABLE", 103, 94, 94, 0, 0, 0, 0],
    ["cdcl", "php4 (UNSAT)", "UNSATISFIABLE", 32, 29, 28, 3, 28, 0, 0],
    ["cdcl", "parity10 (UNSAT)", "UNSATISFIABLE", 1, 2, 1, 0, 1, 0, 0],
    ["cdcl", "rand30@3.5 (SAT)", "SATISFIABLE", 16, 1, 1, 1, 1, 0, 0],
    ["cdcl", "rand40@3.5 (SAT)", "SATISFIABLE", 16, 7, 7, 0, 7, 0, 0],
    ["gsat", "php4 (UNSAT)", "UNKNOWN", 0, 0, 0, 0, 0, 0, 40000],
    ["gsat", "parity10 (UNSAT)", "UNKNOWN", 0, 0, 0, 0, 0, 0, 40000],
    ["gsat", "rand30@3.5 (SAT)", "SATISFIABLE", 0, 0, 0, 0, 0, 0, 32],
    ["gsat", "rand40@3.5 (SAT)", "SATISFIABLE", 0, 0, 0, 0, 0, 0, 12017],
    ["walksat", "php4 (UNSAT)", "UNKNOWN", 0, 0, 0, 0, 0, 0, 400000],
    ["walksat", "parity10 (UNSAT)", "UNKNOWN", 0, 0, 0, 0, 0, 0, 400000],
    ["walksat", "rand30@3.5 (SAT)", "SATISFIABLE", 0, 0, 0, 0, 0, 0, 43],
    ["walksat", "rand40@3.5 (SAT)", "SATISFIABLE", 0, 0, 0, 0, 0, 0, 144],
]


def test_claim_backtrack_vs_local(benchmark, show):
    records = run_matrix(CONFIGS, suite(), max_conflicts=20000)
    show(format_table(RUN_HEADERS, [r.row() for r in records],
                      title="C1 -- backtrack search vs local search "
                            "(Section 4)"))

    status = {(r.config, r.instance): r.status for r in records}
    for name, _ in suite():
        if "UNSAT" in name:
            # Backtrack search refutes; local search cannot.
            assert status[("dpll", name)] == "UNSATISFIABLE"
            assert status[("cdcl", name)] == "UNSATISFIABLE"
            assert status[("gsat", name)] == "UNKNOWN"
            assert status[("walksat", name)] == "UNKNOWN"
        else:
            assert status[("cdcl", name)] == "SATISFIABLE"
            assert status[("walksat", name)] == "SATISFIABLE"
    assert [list(r.row()[:-1]) for r in records] == EXPECTED

    from repro.solvers.local_search import solve_walksat
    from repro.solvers.cdcl import solve_cdcl

    def head_to_head():
        formula = pigeonhole(4)
        refuted = solve_cdcl(formula)
        attempted = solve_walksat(formula, max_tries=2, max_flips=500)
        return refuted, attempted

    refuted, attempted = benchmark(head_to_head)
    assert refuted.is_unsat and attempted.is_unknown
