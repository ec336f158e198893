#!/usr/bin/env python
"""Signal integrity and optimization: three more Section 3 domains.

* **Crosstalk noise analysis** [8]: how many coupled aggressors can
  *really* switch while a victim net is stable?  SAT separates the
  electrical worst case from the logically feasible one.
* **Path delay faults** [7, 18]: two-vector tests that launch a
  transition down a specific path, generated incrementally.
* **Pseudo-Boolean optimization** [3]: minimum-cost repair/selection
  problems as SAT with cardinality bounds.

Run:  python examples/signal_integrity_and_optimization.py
"""

from repro.apps.crosstalk import CouplingScenario, CrosstalkAnalyzer
from repro.apps.delay_fault import (
    DelayFaultATPG,
    PathTestability,
    enumerate_path_faults,
)
from repro.apps.optimization import PBProblem, minimize
from repro.circuits.library import c17
from repro.experiments.tables import format_table


def crosstalk_demo():
    print("=== Crosstalk: structural vs feasible aggressor "
          "alignment ===\n")
    circuit = c17()
    analyzer = CrosstalkAnalyzer(circuit)
    rows = []
    for victim, aggressors in (("G22", ("G10", "G16", "G19")),
                               ("G23", ("G10", "G11", "G16")),
                               ("G16", ("G10", "G11", "G19", "G22"))):
        report = analyzer.feasible_alignment(
            CouplingScenario(victim, aggressors))
        rows.append([victim, len(aggressors),
                     report.feasible_worst_case, report.overestimate])
    print(format_table(
        ["victim", "coupled aggressors", "feasible switching",
         "overestimate"], rows, title="c17 coupling scenarios"))
    print()


def delay_fault_demo():
    print("=== Path delay faults: two-vector tests ===\n")
    circuit = c17()
    engine = DelayFaultATPG(circuit)
    faults = enumerate_path_faults(circuit, max_paths=6)
    queried = faults[:4]
    for fault in queried:
        result = engine.test_path(fault)
        if result.status is PathTestability.TESTABLE:
            vector1, vector2 = result.vector_pair
            v1 = "".join(str(int(vector1[n])) for n in circuit.inputs)
            v2 = "".join(str(int(vector2[n])) for n in circuit.inputs)
            print(f"{str(fault):28s} test: {v1} -> {v2}")
        else:
            print(f"{str(fault):28s} {result.status.value}")
    print(f"(one persistent solver, {len(queried)} queries, "
          f"{len(engine.solver.learned_clauses())} clauses "
          f"retained)\n")


def optimization_demo():
    print("=== Pseudo-Boolean optimization: minimum-cost test "
          "points ===\n")
    # Choose observation points covering signal groups at least cost.
    problem = PBProblem()
    points = {name: problem.new_var() for name in
              ("p_fast", "p_cheap1", "p_cheap2", "p_wide")}
    costs = {"p_fast": 5, "p_cheap1": 1, "p_cheap2": 1, "p_wide": 3}
    # Each signal group must be observed by one of its candidates.
    problem.add_clause([points["p_fast"], points["p_cheap1"]])
    problem.add_clause([points["p_fast"], points["p_cheap2"]])
    problem.add_clause([points["p_wide"], points["p_cheap1"]])
    problem.add_clause([points["p_wide"], points["p_fast"]])
    problem.set_objective([(costs[name], var)
                           for name, var in points.items()])
    solution = minimize(problem)
    chosen = [name for name, var in points.items()
              if solution.assignment.value_of(var) is True]
    print(f"optimal cost {solution.cost}: insert {sorted(chosen)} "
          f"({solution.sat_calls} SAT calls, optimal proven: "
          f"{solution.proven_optimal})")


if __name__ == "__main__":
    crosstalk_demo()
    delay_fault_demo()
    optimization_demo()
