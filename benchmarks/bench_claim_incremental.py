"""Experiment C8 -- Section 6: iterative/incremental SAT pays off when
"SAT solvers tend to be used iteratively and/or incrementally".

Bounded model checking [5] asks one query per depth of a growing
unrolling, each instance the previous one plus a frame.  Compares
``check_safety(binary_counter(w), "rollover")`` on its one persistent
solver (frames added lazily, each depth asked under one assumption
literal, clauses learned at depth t kept for depth t+1) with a fresh
``CDCLSolver`` per depth over the same unrolling: the same frames,
encoded by ``tseitin.encode_nodes`` onto one growing ``CNFFormula``
in the same variable order, and the same assumption per depth.
Expected shape: both find the first failure at depth 2^w - 1, and
the persistent solver takes fewer conflicts.  Process CPU is
reported for both, not asserted.

BMC, not ATPG: one persistent solver across an ATPG fault list saves
conflicts too, but takes 3-9x the CPU of a fresh solver per fault,
because every earlier fault's cone stays in the solver and each model
must assign its variables (EXPERIMENTS.md keeps that measurement
under C8).
"""

import time

from repro.apps.bmc import check_safety
from repro.circuits.generators import binary_counter
from repro.circuits.tseitin import encode_nodes
from repro.cnf.formula import CNFFormula
from repro.experiments.tables import format_table
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.result import SolverStats

#: The deterministic columns of the table (counter, solver, first
#: failure depth, conflicts, decisions, propagations); a change that
#: moves the search re-pins them and reports the rows it moved.
EXPECTED = [
    ["cnt4", "persistent", 15, 81, 215, 5735],
    ["cnt4", "fresh per depth", 15, 251, 466, 12391],
    ["cnt5", "persistent", 31, 378, 2178, 40697],
    ["cnt5", "fresh per depth", 31, 3373, 8198, 185968],
]


def fresh_per_depth(circuit, output, max_depth):
    """The first depth at which *output* can be raised, asking a new
    solver at every depth; returns it (``None`` within the bound) and
    the summed stats."""
    formula = CNFFormula()
    initial = {dff: False for dff in circuit.dffs}
    frames = []
    total = SolverStats()
    for depth in range(max_depth + 1):
        frames.append(encode_nodes(
            circuit, formula.new_var, formula.add_clause,
            previous=frames[-1] if frames else None, initial=initial))
        result = CDCLSolver(formula).solve(
            assumptions=[frames[depth][output]])
        total.merge(result.stats)
        if result.is_sat:
            return depth, total
    return None, total


def row(width, solver, depth, stats, seconds):
    return [f"cnt{width}", solver, depth, stats.conflicts,
            stats.decisions, stats.propagations, round(seconds, 3)]


def test_claim_incremental(benchmark, show):
    rows = []
    for width in (4, 5):
        circuit = binary_counter(width)
        bound = 1 << width
        started = time.process_time()
        persistent = check_safety(circuit, "rollover", max_depth=bound)
        persistent_time = time.process_time() - started
        started = time.process_time()
        depth, fresh = fresh_per_depth(circuit, "rollover", bound)
        fresh_time = time.process_time() - started
        rows.append(row(width, "persistent", persistent.failure_depth,
                        persistent.stats, persistent_time))
        rows.append(row(width, "fresh per depth", depth, fresh,
                        fresh_time))

        # Both find the counter's rollover exactly; the clauses kept
        # across depths save search.
        assert persistent.failure_depth == depth == bound - 1
        assert persistent.stats.conflicts < fresh.conflicts
    show(format_table(
        ["counter", "solver", "first failure", "conflicts",
         "decisions", "propagations", "CPU s"], rows,
        title="C8 -- BMC on one persistent solver vs a fresh solver "
              "per depth (Section 6)"))
    assert [line[:-1] for line in rows] == EXPECTED

    result = benchmark(lambda: check_safety(binary_counter(4),
                                            "rollover", max_depth=16))
    assert result.failure_depth == 15
