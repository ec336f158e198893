"""Experiment X2 (extension) -- path delay fault ATPG, incremental
([7] for the two-frame model, [18] for the incremental formulation).

Per-path constraints are assumption sets against a shared two-frame
encoding, so one persistent solver serves the whole path list.
Expected shape: robust tests are a subset of non-robust ones; false
paths come back UNTESTABLE; incremental total effort stays below
per-path re-encoding.
"""

import time

from repro.apps.delay_fault import (
    DelayFaultATPG,
    PathTestability,
    enumerate_path_faults,
    validate_test,
)
from repro.circuits.generators import ripple_carry_adder
from repro.circuits.library import c17
from repro.experiments.tables import format_table

#: The whole table; a change that moves the search re-pins it and
#: reports the rows it moved.
EXPECTED = [
    ["c17", 22, 22, 22, 0, 0, 441],
    ["rca3", 30, 30, 30, 0, 0, 954],
]


def test_x2_delay_fault(benchmark, show):
    rows = []
    for circuit in (c17(), ripple_carry_adder(3)):
        faults = enumerate_path_faults(circuit, max_paths=15)
        nonrobust_engine = DelayFaultATPG(circuit, robust=False)
        robust_engine = DelayFaultATPG(circuit, robust=True)

        nonrobust = robust = untestable = decisions = 0
        for fault in faults:
            result = nonrobust_engine.test_path(fault)
            decisions += result.stats.decisions
            if result.status is PathTestability.TESTABLE:
                nonrobust += 1
                assert validate_test(circuit, fault,
                                     result.vector_pair)
            elif result.status is PathTestability.UNTESTABLE:
                untestable += 1
            robust_result = robust_engine.test_path(fault)
            decisions += robust_result.stats.decisions
            if robust_result.status is PathTestability.TESTABLE:
                robust += 1
                # robust tests satisfy the non-robust condition too
                assert result.status is PathTestability.TESTABLE
        rows.append([circuit.name, len(faults), nonrobust, robust,
                     untestable,
                     len(nonrobust_engine.solver.learned_clauses()),
                     decisions])
    show(format_table(
        ["circuit", "path faults", "non-robust testable",
         "robust testable", "untestable", "clauses retained",
         "decisions"], rows,
        title="X2 -- path delay fault ATPG (two-frame incremental "
              "encoding)"))

    for row in rows:
        assert row[3] <= row[2]        # robust subset of non-robust
    assert rows == EXPECTED

    circuit = c17()
    faults = enumerate_path_faults(circuit, max_paths=10)

    def incremental_run():
        engine = DelayFaultATPG(circuit)
        return engine.run(faults)

    results = benchmark(incremental_run)
    assert all(r.status is not PathTestability.ABORTED
               for r in results)
