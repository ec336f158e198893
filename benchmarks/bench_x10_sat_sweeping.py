"""Experiment X10 (extension) -- SAT sweeping for equivalence checking.

Quantifies the internal-equivalence strategy of the hybrid checkers
[16, 26]: sweep the miter's candidate node pairs (simulation-filtered,
SAT-proved, clauses recorded) before the output query.  Expected
shape: structurally related pairs expose many internal merges and the
final check rides on a strengthened clause database; verdicts always
agree with the monolithic CEC.
"""

from repro.apps.equivalence import check_equivalence
from repro.apps.sat_sweeping import check_equivalence_sweeping
from repro.circuits.generators import (
    array_multiplier,
    carry_select_adder,
    ripple_carry_adder,
)
from repro.experiments.tables import format_table

#: The whole table; a change that moves the search re-pins it and
#: reports the rows it moved.
EXPECTED = [
    ["rca3 vs csa3", 71, True, 59, 63, 166, 0],
    ["rca5 vs csa5", 128, True, 92, 98, 263, 0],
    ["mul4 vs mul4", 347, True, 130, 138, 1032, 0],
]


def pairs():
    return [
        ("rca3 vs csa3", ripple_carry_adder(3), carry_select_adder(3)),
        ("rca5 vs csa5", ripple_carry_adder(5), carry_select_adder(5)),
        ("mul4 vs mul4", array_multiplier(4), array_multiplier(4)),
    ]


def test_x10_sat_sweeping(benchmark, show):
    rows = []
    for label, left, right in pairs():
        plain = check_equivalence(left, right, simulation_vectors=0)
        swept, report = check_equivalence_sweeping(left, right)
        assert swept == plain.equivalent
        rows.append([label, plain.stats.conflicts, swept,
                     report.merged_nodes, report.sat_calls,
                     report.stats.conflicts, report.refinements])
    show(format_table(
        ["pair", "monolithic CEC conflicts", "sweeping verdict",
         "internal merges", "sweep SAT calls", "sweep conflicts",
         "cex refinements"],
        rows,
        title="X10 -- SAT sweeping (internal-equivalence CEC, "
              "[16, 26])"))

    assert rows == EXPECTED
    # Structurally related pairs expose internal equivalences.
    assert all(row[3] > 0 for row in rows)

    result = benchmark(
        lambda: check_equivalence_sweeping(ripple_carry_adder(3),
                                           carry_select_adder(3)))
    assert result[0] is True
