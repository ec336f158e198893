"""Experiment C3 -- Section 4.1 properties 2-3: clause recording,
bounded deletion, relevance-based learning.

Ablation sweep on UNSAT refutations: learning off / keep-all /
size-bounded deletion / relevance-bounded deletion.  Expected shape:
learning cuts decisions dramatically versus no learning; the bounded
policies delete clauses ("large recorded clauses are eventually
deleted"), paying some extra search for what they forget.

The instance is pigeonhole-6: on pigeonhole-5 the engine's default
learned-clause minimization ends the refutation after 98 conflicts,
and the one collection at conflict 50 finds no clause the relevance
bound may delete, so that row would measure nothing.
"""

from repro.cnf.generators import pigeonhole
from repro.experiments.tables import format_table
from repro.solvers.cdcl import CDCLSolver


#: The deterministic columns of the table; a change that moves the
#: search re-pins them and reports the rows it moved.
EXPECTED = [
    ["no learning", 2883, 2058, 15, 0],
    ["keep all", 402, 371, 370, 0],
    ["size-bounded (k=8)", 1331, 1078, 1077, 839],
    ["relevance-bounded (r=1)", 671, 579, 578, 445],
]


def run(label, **kwargs):
    solver = CDCLSolver(pigeonhole(6), **kwargs)
    result = solver.solve()
    assert result.is_unsat
    stats = result.stats
    return [label, stats.decisions, stats.conflicts,
            stats.learned_clauses, stats.deleted_clauses]


def test_claim_learning(benchmark, show):
    rows = [
        run("no learning", learning=False, max_decisions=500000),
        run("keep all"),
        run("size-bounded (k=8)", deletion="size", deletion_bound=8,
            deletion_interval=50),
        run("relevance-bounded (r=1)", deletion="relevance",
            deletion_bound=1, deletion_interval=50),
    ]
    show(format_table(
        ["policy", "decisions", "conflicts", "recorded", "deleted"],
        rows,
        title="C3 -- clause recording and deletion policies "
              "(pigeonhole 6)"))

    by_label = {row[0]: row for row in rows}
    # Learning beats no-learning on decisions.
    assert by_label["keep all"][1] <= by_label["no learning"][1]
    # Bounded policies actually delete.
    assert by_label["size-bounded (k=8)"][4] > 0
    assert by_label["relevance-bounded (r=1)"][4] > 0
    assert rows == EXPECTED

    result = benchmark(lambda: CDCLSolver(pigeonhole(6)).solve())
    assert result.is_unsat
