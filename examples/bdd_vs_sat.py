#!/usr/bin/env python
"""BDDs vs SAT: the comparison behind the paper's opening claim.

"SAT packages are currently expected to have an impact on EDA
applications similar to that of BDD packages" -- this example makes
that concrete on equivalence checking: BDDs answer by canonicity
(instant when they fit) but are ordering- and structure-sensitive;
SAT miters are insensitive to variable order and survive multipliers.
Also shows an UNSAT result being *certified* with a logged RUP proof.

Run:  python examples/bdd_vs_sat.py
"""

from repro.apps.equivalence import check_equivalence
from repro.bdd.circuit import (
    build_output_bdds,
    check_equivalence_bdd,
    interleaved_order,
)
from repro.bdd.manager import BDDManager
from repro.circuits.generators import (
    array_multiplier,
    carry_select_adder,
    ripple_carry_adder,
)
from repro.circuits.tseitin import encode_miter
from repro.experiments.tables import format_table
from repro.verify import check_proof_steps, solve_with_proof_stream


def ordering_demo():
    print("=== BDD ordering sensitivity (SAT has none) ===\n")
    rows = []
    for width in (4, 6, 8):
        circuit = ripple_carry_adder(width)
        bad = BDDManager(len(circuit.inputs))
        build_output_bdds(circuit, bad,
                          input_order=sorted(circuit.inputs))
        good = BDDManager(len(circuit.inputs))
        build_output_bdds(circuit, good,
                          input_order=interleaved_order(circuit))
        rows.append([f"rca{width}", bad.num_nodes, good.num_nodes])
    print(format_table(["adder", "BDD nodes (bus order)",
                        "BDD nodes (interleaved)"], rows))
    print()


def crossover_demo():
    print("=== Equivalence checking: who wins where ===\n")
    rows = []
    for label, left, right in (
            ("rca4 vs csa4", ripple_carry_adder(4),
             carry_select_adder(4)),
            ("mul5 vs mul5", array_multiplier(5),
             array_multiplier(5))):
        bdd = check_equivalence_bdd(left, right, max_nodes=2500)
        sat = check_equivalence(left, right, simulation_vectors=8)
        verdict = {True: "equivalent", False: "different",
                   None: "BLOWUP"}[bdd.equivalent]
        rows.append([label, verdict, bdd.peak_nodes, sat.equivalent,
                     sat.stats.conflicts])
    print(format_table(
        ["pair", "BDD (2500-node budget)", "peak nodes",
         "SAT verdict", "SAT conflicts"], rows))
    print()


def certified_unsat_demo():
    print("=== Certifying an equivalence with a RUP proof ===\n")
    encoding = encode_miter(ripple_carry_adder(3),
                            carry_select_adder(3))
    result, sink = solve_with_proof_stream(encoding.formula)
    check = check_proof_steps(encoding.formula, sink.events)
    print(f"miter: {result.status.value} "
          f"({result.stats.conflicts} conflicts)")
    print(f"proof: {sink.adds} derivation steps, {sink.deletes} "
          f"deletions, complete: {sink.concluded}")
    print(f"independent RUP check: "
          f"{'VALID' if check.valid else 'INVALID'} "
          f"({check.steps_checked} steps verified)")


if __name__ == "__main__":
    ordering_demo()
    crossover_demo()
    certified_unsat_demo()
