"""Experiment X1 (extension) -- BDD vs SAT equivalence checking.

The paper's abstract positions SAT packages against BDD packages, and
the hybrid checkers it cites [16] exist precisely because each
technology fails on different structures.  This experiment reproduces
the classic comparison shape on equivalent circuit pairs:

* shallow/reconvergent logic (adders): BDDs verify by canonicity with
  small node counts, SAT needs real search on the miter;
* multipliers: output BDDs blow past any practical node budget while
  the SAT miter remains decidable -- the crossover that motivated
  SAT-based equivalence checking.
"""

from repro.apps.equivalence import check_equivalence
from repro.bdd.circuit import check_equivalence_bdd
from repro.circuits.generators import (
    array_multiplier,
    carry_select_adder,
    ripple_carry_adder,
)
from repro.circuits.tseitin import encode_miter
from repro.experiments.tables import format_table
from repro.solvers.cdcl import CDCLSolver

#: node budget chosen so adders and the 4x4 multiplier fit comfortably
#: while the 6x6 multiplier does not (it needs ~8k nodes under the
#: natural ordering) -- the blow-up side of the crossover.
BDD_BUDGET = 5000

#: The whole table (BDD verdicts and peak nodes, SAT verdicts and
#: conflicts); a change that moves the search re-pins it and reports
#: the rows it moved.
EXPECTED = [
    ["rca3 vs csa3", "equivalent", 214, True, 71, 45],
    ["rca5 vs csa5", "equivalent", 1056, True, 129, 105],
    ["mul4 vs mul4", "equivalent", 745, True, 347, 8],
    ["mul6 vs mul6", "BLOWUP", 5000, True, 6362, 17],
]


def pairs():
    return [
        ("rca3 vs csa3", ripple_carry_adder(3), carry_select_adder(3)),
        ("rca5 vs csa5", ripple_carry_adder(5), carry_select_adder(5)),
        ("mul4 vs mul4", array_multiplier(4), array_multiplier(4)),
        ("mul6 vs mul6", array_multiplier(6), array_multiplier(6)),
    ]


def test_x1_bdd_vs_sat(benchmark, show):
    rows = []
    for label, left, right in pairs():
        bdd = check_equivalence_bdd(left, right, max_nodes=BDD_BUDGET)
        # The unhashed miter, searched as one formula.
        sat = CDCLSolver(encode_miter(right, left).formula).solve()
        strash = check_equivalence(right, left, simulation_vectors=8)
        assert strash.equivalent is sat.is_unsat
        bdd_verdict = {True: "equivalent", False: "different",
                       None: "BLOWUP"}[bdd.equivalent]
        rows.append([label, bdd_verdict, bdd.peak_nodes,
                     sat.is_unsat, sat.stats.conflicts,
                     strash.stats.conflicts])
    show(format_table(
        ["pair", "BDD verdict", f"BDD nodes (budget {BDD_BUDGET})",
         "SAT equivalent", "SAT conflicts",
         "SAT+strash conflicts"], rows,
        title="X1 -- BDD canonicity vs SAT miters on equivalence "
              "checking"))

    by_label = {row[0]: row for row in rows}
    # Adders: both succeed.
    assert by_label["rca3 vs csa3"][1] == "equivalent"
    assert by_label["rca3 vs csa3"][3] is True
    assert by_label["rca5 vs csa5"][1] == "equivalent"
    # Small multiplier: both technologies succeed.
    assert by_label["mul4 vs mul4"][1] == "equivalent"
    # Larger multiplier: BDD blows the budget, SAT still answers.
    assert by_label["mul6 vs mul6"][1] == "BLOWUP"
    assert by_label["mul6 vs mul6"][3] is True
    assert rows == EXPECTED

    result = benchmark(lambda: check_equivalence_bdd(
        ripple_carry_adder(3), carry_select_adder(3)))
    assert result.equivalent is True
