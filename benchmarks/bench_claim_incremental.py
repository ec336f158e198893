"""Experiment C8 -- Section 6: iterative/incremental SAT pays off when
"SAT solvers tend to be used iteratively and/or incrementally".

ATPG is the paper's canonical iterative consumer [25]: one SAT
instance per fault, all sharing the good-circuit logic.  Compares a
fresh solver per fault (``ATPGEngine``'s ``"cdcl"`` method) against
the persistent solver of its ``"incremental"`` method (clauses
learned on earlier faults prune later ones), both without fault
dropping and both totalled from the per-fault stats.  Both encode
each fault on its cones with the same step (``encode_fault_cone``).
Expected shape: identical outcomes and fewer total conflicts for the
incremental engine.  It does *not* save time: every fault's cone
stays in the one solver and each SAT answer assigns all of their
variables, so a call's propagations grow with the faults already
processed (alu4: 108 at fault 0, 1,299 at fault 135, with 8
decisions), and the incremental engine takes 3-9x the CPU of a fresh
solver per fault (every fault, no dropping, process CPU, best of 3,
on a 2-vCPU VM with CPython 3.11.7: rca4 0.10 s vs 0.34 s, alu4
0.25 s vs 2.13 s).  Both engines' times are reported; only the
conflict claim is asserted.
"""

import time

from repro.apps.atpg import ATPGEngine, TestOutcome
from repro.circuits.faults import full_fault_list
from repro.circuits.generators import ripple_carry_adder
from repro.experiments.tables import format_table


def run(circuit, faults, method):
    engine = ATPGEngine(circuit, method=method, fault_dropping=False)
    started = time.perf_counter()
    report = engine.run(faults)
    elapsed = time.perf_counter() - started
    conflicts = sum(r.stats.conflicts for r in report.results)
    decisions = sum(r.stats.decisions for r in report.results)
    return report, conflicts, decisions, elapsed


def test_claim_incremental(benchmark, show):
    circuit = ripple_carry_adder(4)
    faults = full_fault_list(circuit)

    one_report, one_conf, one_dec, one_time = run(circuit, faults,
                                                  "cdcl")
    inc_report, inc_conf, inc_dec, inc_time = run(circuit, faults,
                                                  "incremental")

    rows = [
        ["fresh solver per fault", len(faults),
         one_report.count(TestOutcome.DETECTED), one_conf, one_dec,
         round(one_time, 3)],
        ["incremental (shared solver)", len(faults),
         inc_report.count(TestOutcome.DETECTED), inc_conf, inc_dec,
         round(inc_time, 3)],
    ]
    show(format_table(
        ["mode", "faults", "detected", "total conflicts",
         "total decisions", "seconds"], rows,
        title="C8 -- iterative ATPG, fresh vs incremental solver "
              "(Section 6, [25]) on rca4"))

    # Identical verdict per fault.
    for left, right in zip(one_report.results, inc_report.results):
        assert left.outcome == right.outcome, left.fault
    # Shape: clauses learned on earlier faults save search (the
    # EXPERIMENTS.md row's 2.3x fewer conflicts on rca4).
    assert inc_conf < one_conf

    small = ripple_carry_adder(2)
    small_faults = full_fault_list(small)
    report = benchmark(lambda: ATPGEngine(
        small, method="incremental",
        fault_dropping=False).run(small_faults))
    assert report.fault_coverage == 1.0
