"""Ablation -- decision heuristics (the pluggable ``Decide()``).

The generic algorithm of Figure 2 leaves the decision policy open;
this ablation runs every implemented policy over a mixed suite.
Expected shape: all policies agree on every status (soundness is
policy-independent); the dynamic, conflict-driven policy (VSIDS) is
never far from the best on UNSAT refutations, while static policies
can degenerate badly on structured instances.
"""

from repro.cnf.generators import (
    parity_chain,
    pigeonhole,
    random_ksat_at_ratio,
)
from repro.experiments.runner import run_matrix
from repro.experiments.tables import format_table
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.heuristics import make_heuristic

CONFIGS = ["cdcl-h:fixed", "cdcl-h:random", "cdcl-h:jw",
           "cdcl-h:dlis", "cdcl-h:vsids"]

#: The whole table; a change that moves the search re-pins it and
#: reports the rows it moved.
EXPECTED = [
    ["fixed", "php5", "UNSATISFIABLE", 148, 149],
    ["fixed", "parity12", "UNSATISFIABLE", 1, 2],
    ["fixed", "rand30@4.26", "SATISFIABLE", 41, 30],
    ["fixed", "rand40@3.8", "SATISFIABLE", 68, 48],
    ["random", "php5", "UNSATISFIABLE", 240, 201],
    ["random", "parity12", "UNSATISFIABLE", 1, 2],
    ["random", "rand30@4.26", "SATISFIABLE", 31, 22],
    ["random", "rand40@3.8", "SATISFIABLE", 74, 54],
    ["jw", "php5", "UNSATISFIABLE", 133, 89],
    ["jw", "parity12", "UNSATISFIABLE", 1, 2],
    ["jw", "rand30@4.26", "SATISFIABLE", 16, 6],
    ["jw", "rand40@3.8", "SATISFIABLE", 15, 2],
    ["dlis", "php5", "UNSATISFIABLE", 133, 89],
    ["dlis", "parity12", "UNSATISFIABLE", 1, 2],
    ["dlis", "rand30@4.26", "SATISFIABLE", 16, 6],
    ["dlis", "rand40@3.8", "SATISFIABLE", 15, 2],
    ["vsids", "php5", "UNSATISFIABLE", 106, 98],
    ["vsids", "parity12", "UNSATISFIABLE", 1, 2],
    ["vsids", "rand30@4.26", "SATISFIABLE", 18, 10],
    ["vsids", "rand40@3.8", "SATISFIABLE", 15, 2],
]


def instances():
    return [
        ("php5", pigeonhole(5)),
        ("parity12", parity_chain(12)),
        ("rand30@4.26", random_ksat_at_ratio(30, ratio=4.26, seed=1)),
        ("rand40@3.8", random_ksat_at_ratio(40, ratio=3.8, seed=2)),
    ]


def test_ablation_heuristics(benchmark, show):
    records = run_matrix(CONFIGS, instances(), max_conflicts=100000,
                         seed=0)
    rows = [[r.config.split(":")[1], r.instance, r.status,
             r.decisions, r.conflicts] for r in records]
    show(format_table(
        ["heuristic", "instance", "status", "decisions", "conflicts"],
        rows, title="Ablation -- decision heuristics on the Figure 2 "
                    "engine"))

    # Soundness is policy-independent: all verdicts agree per instance.
    by_instance = {}
    for record in records:
        by_instance.setdefault(record.instance, set()).add(
            record.status)
    for statuses in by_instance.values():
        assert len(statuses) == 1

    # VSIDS is within 3x of the best policy on the UNSAT refutations.
    for name in ("php5", "parity12"):
        counts = {r.config: r.decisions for r in records
                  if r.instance == name}
        best = min(counts.values())
        assert counts["cdcl-h:vsids"] <= max(3 * best, best + 50)
    assert rows == EXPECTED

    result = benchmark(
        lambda: CDCLSolver(pigeonhole(5),
                           heuristic=make_heuristic("vsids")).solve())
    assert result.is_unsat
