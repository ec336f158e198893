"""Experiment A1 -- SAT-based ATPG over a circuit suite (Section 3).

Regenerates the classic ATPG result table: per circuit, the fault
count, SAT-detected / simulation-dropped / redundant splits, vector
count and coverage.  Expected shape: full fault efficiency (every
fault classified, no aborts) on every suite member, with fault
dropping discharging a large share of faults without SAT calls.
"""

from repro.apps.atpg import ATPGEngine, TestOutcome
from repro.circuits.generators import (
    parity_tree,
    random_circuit,
    ripple_carry_adder,
)
from repro.circuits.library import c17, redundant_or_chain
from repro.experiments.tables import format_table

#: The whole table; a change that moves the search re-pins it and
#: reports the rows it moved.
EXPECTED = [
    ["c17", 22, 6, 16, 0, 0, 6, "100.0%"],
    ["rca3", 52, 6, 46, 0, 0, 6, "100.0%"],
    ["parity5", 20, 6, 14, 0, 0, 6, "100.0%"],
    ["redundant_or", 8, 2, 3, 3, 0, 2, "100.0%"],
    ["rand6x25", 62, 4, 29, 29, 0, 4, "100.0%"],
]


def suite():
    return [c17(), ripple_carry_adder(3), parity_tree(5),
            redundant_or_chain(), random_circuit(6, 25, seed=4)]


def test_app_atpg(benchmark, show):
    rows = []
    for circuit in suite():
        engine = ATPGEngine(circuit, fault_dropping=True)
        report = engine.run()
        rows.append([
            circuit.name, len(report.results),
            report.count(TestOutcome.DETECTED),
            report.count(TestOutcome.DETECTED_BY_SIMULATION),
            report.count(TestOutcome.REDUNDANT),
            report.count(TestOutcome.ABORTED),
            len(report.vectors),
            f"{report.fault_coverage:.1%}",
        ])
        assert report.count(TestOutcome.ABORTED) == 0
        assert report.fault_coverage == 1.0
    show(format_table(
        ["circuit", "faults", "SAT-det", "sim-det", "redundant",
         "aborted", "vectors", "efficiency"], rows,
        title="A1 -- SAT-based ATPG (Larrabee encoding, fault "
              "dropping)"))
    assert rows == EXPECTED

    report = benchmark(lambda: ATPGEngine(c17()).run())
    assert report.fault_coverage == 1.0
