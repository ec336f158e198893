"""Experiment X9 (extension) -- reconfigurable-hardware SAT ([2, 43]).

Section 6's closing observation: hardware SAT machines are "less
sophisticated than software algorithms" yet win on specific classes
through per-clock parallelism.  The cycle model quantifies both halves
of that sentence:

* per step, one hardware clock evaluates *every* clause, while
  software BCP pays per-clause visit work -- the estimated per-step
  parallelism is large;
* per search, the hardware's chronological, non-learning control needs
  more decisions than CDCL -- learning is the software advantage the
  formula-shaped circuit cannot copy.
"""

from repro.cnf.generators import pigeonhole, random_ksat_at_ratio
from repro.experiments.tables import format_table
from repro.hw.accelerator import HardwareSATAccelerator, estimate_speedup
from repro.solvers.cdcl import CDCLSolver

#: The whole table (HW clocks and decisions, CDCL decisions, and
#: the step-count ratio derived from them); a change that moves
#: either search re-pins it and reports the rows it moved.
EXPECTED = [
    ["php4", "UNSATISFIABLE", 405, 51, 32, 2.3],
    ["php5", "UNSATISFIABLE", 2952, 374, 106, 1.3],
    ["rand25@4.0", "SATISFIABLE", 68, 12, 7, 0.8],
]


def instances():
    return [
        ("php4", lambda: pigeonhole(4)),
        ("php5", lambda: pigeonhole(5)),
        ("rand25@4.0", lambda: random_ksat_at_ratio(25, ratio=4.0,
                                                    seed=3)),
    ]


def test_x9_hw_accelerator(benchmark, show):
    rows = []
    for name, factory in instances():
        machine = HardwareSATAccelerator(factory())
        hw_result = machine.run()
        sw_result = CDCLSolver(factory()).solve()
        assert hw_result.status == sw_result.status
        parallelism = estimate_speedup(factory(),
                                       sw_result.stats.propagations,
                                       machine.hw)
        rows.append([name, hw_result.status.value,
                     machine.hw.clocks, machine.hw.decisions,
                     sw_result.stats.decisions,
                     round(parallelism, 1)])
    show(format_table(
        ["instance", "status", "HW clocks", "HW decisions",
         "CDCL decisions", "est. speedup (SW steps / HW clocks)"],
        rows,
        title="X9 -- clause-parallel hardware model vs software CDCL "
              "([43])"))

    # Shape: the naive hardware search spends more decisions than the
    # learning software on hard UNSAT refutations...
    by_name = {row[0]: row for row in rows}
    assert by_name["php5"][3] >= by_name["php5"][4]
    # ...yet clause-parallel deduction still wins end-to-end on the
    # deduction-heavy pigeonhole class ("significant speedups for
    # specific classes of instances") -- while CDCL's stronger search
    # can win elsewhere (the random instance may go either way).
    assert by_name["php4"][5] > 1
    assert by_name["php5"][5] > 1
    assert rows == EXPECTED

    result = benchmark(
        lambda: HardwareSATAccelerator(pigeonhole(4)).run())
    assert result.is_unsat
