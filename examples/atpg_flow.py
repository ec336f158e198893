#!/usr/bin/env python
"""ATPG flow: SAT-based test generation for stuck-at faults.

The application the paper's Section 3 opens with [20, 25, 38]: for
every stuck-at fault of a circuit, either generate a detecting input
vector or prove the fault redundant.  Demonstrates fault collapsing,
simulation-based fault dropping, and redundancy identification feeding
logic optimization [17].

Run:  python examples/atpg_flow.py
"""

from repro import ATPGEngine
from repro.apps.atpg import TestOutcome
from repro.apps.redundancy import optimize
from repro.circuits.generators import ripple_carry_adder
from repro.circuits.library import c17, redundant_or_chain
from repro.experiments.tables import format_table


def run_engine(circuit, label):
    engine = ATPGEngine(circuit, collapse=True, fault_dropping=True)
    report = engine.run()
    return [
        label,
        len(engine.fault_list()),
        report.count(TestOutcome.DETECTED),
        report.count(TestOutcome.DETECTED_BY_SIMULATION),
        report.count(TestOutcome.REDUNDANT),
        report.count(TestOutcome.ABORTED),
        len(report.vectors),
        f"{report.fault_coverage:.1%}",
    ]


def main():
    print("=== SAT-based ATPG (Larrabee encoding) ===\n")
    rows = [
        run_engine(c17(), "c17"),
        run_engine(ripple_carry_adder(4), "rca4"),
        run_engine(redundant_or_chain(), "redundant_or"),
    ]
    print(format_table(
        ["circuit", "faults", "SAT-detected", "sim-detected",
         "redundant", "aborted", "vectors", "coverage"],
        rows))

    print("\n=== Redundancy removal (RID-GRASP style, [17]) ===\n")
    circuit = redundant_or_chain()
    optimized, report = optimize(circuit)
    print(f"gates: {report.original_gates} -> {report.optimized_gates}")
    print(f"redundant faults proved: "
          f"{[str(f) for f in report.redundant_faults]}")
    print(f"optimized circuit SAT-certified equivalent: "
          f"{report.equivalent}")


if __name__ == "__main__":
    main()
