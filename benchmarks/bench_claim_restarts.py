"""Experiment C7 -- Section 6: "restarts with randomization ... have
been shown to yield dramatic improvements on satisfiable instances".

The phenomenon restarts exploit is the heavy-tailed run-time
distribution of randomized backtrack search (Gomes-Selman-Kautz [14],
a 1998 result obtained on solvers *without* clause learning).  The
experiment recreates that setting: random branching, learning off, on
one satisfiable near-threshold instance, across many random seeds --
once with no restarts and once with a Luby schedule.  Expected shape:
the restarted distribution is substantially better in the median (the
typical run), with every seed still solved.

(With modern VSIDS + clause learning the baseline is already robust
and restarts show little effect at this scale -- itself a faithful
observation about why learning superseded plain restarts.)
"""

import statistics

from repro.cnf.generators import random_ksat_at_ratio
from repro.experiments.tables import format_table
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.heuristics import RandomHeuristic
from repro.solvers.restarts import LubyRestarts, NoRestarts

NUM_SEEDS = 10
NUM_VARS = 100
RATIO = 4.2
INSTANCE_SEED = 18          # satisfiable, moderately hard

#: The deterministic columns of the table (decision counts over the
#: seeds); a change that moves the search re-pins them and reports the
#: rows it moved.
EXPECTED = [
    ["random branching, no restarts", 344, 7199, 8363.2, 20485],
    ["random branching + Luby restarts", 1698, 3644, 6324.8, 21901],
]


def instance():
    return random_ksat_at_ratio(NUM_VARS, ratio=RATIO,
                                seed=INSTANCE_SEED)


def decision_counts(policy_factory):
    counts = []
    for seed in range(NUM_SEEDS):
        solver = CDCLSolver(instance(), learning=False,
                            heuristic=RandomHeuristic(seed=seed),
                            restart_policy=policy_factory(),
                            max_decisions=300000)
        result = solver.solve()
        assert result.is_sat
        counts.append(result.stats.decisions)
    return counts


def test_claim_restarts(benchmark, show):
    plain = decision_counts(NoRestarts)
    restarted = decision_counts(lambda: LubyRestarts(64))

    def profile(label, counts):
        return [label, min(counts), round(statistics.median(counts)),
                round(statistics.mean(counts), 1), max(counts)]

    rows = [profile("random branching, no restarts", plain),
            profile("random branching + Luby restarts", restarted)]
    show(format_table(
        ["policy", "min", "median", "mean", "max decisions"], rows,
        title=f"C7 -- randomized restarts, {NUM_SEEDS} seeds on one "
              f"satisfiable {NUM_VARS}-var instance (Section 6)"))

    # Shape: restarts improve the typical run markedly.
    assert statistics.median(restarted) < statistics.median(plain)
    assert rows == EXPECTED

    result = benchmark(lambda: CDCLSolver(
        instance(), learning=False,
        heuristic=RandomHeuristic(seed=0),
        restart_policy=LubyRestarts(64)).solve())
    assert result.is_sat
