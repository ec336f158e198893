"""Experiment A2 -- combinational equivalence checking (Section 3).

Positive pairs (ripple-carry vs carry-select adders) must come back
UNSAT-equivalent; seeded single-gate mutations must be refuted with a
validated counterexample.  Expected shape: equivalent pairs need real
search on the miter, mutations usually fall to the simulation
prefilter.
"""

from repro.apps.equivalence import check_equivalence, mutate_circuit
from repro.circuits.generators import (
    carry_select_adder,
    ripple_carry_adder,
)
from repro.circuits.simulate import output_values, simulate
from repro.experiments.tables import format_table

#: The whole table; a change that moves the search re-pins it and
#: reports the rows it moved.
EXPECTED = [
    ["rca3 vs csa3", "equivalent", 80, 71, "-"],
    ["rca4 vs csa4", "equivalent", 158, 92, "-"],
    ["rca5 vs csa5", "equivalent", 231, 128, "-"],
    ["rca4 vs csa4-mut0", "BUG FOUND", 0, 0, "simulation"],
    ["rca4 vs csa4-mut1", "BUG FOUND", 0, 0, "simulation"],
    ["rca4 vs csa4-mut2", "equivalent (benign swap)", 122, 89, "-"],
]


def test_app_equivalence(benchmark, show):
    rows = []

    for width in (3, 4, 5):
        spec = ripple_carry_adder(width)
        impl = carry_select_adder(width, block=2)
        report = check_equivalence(spec, impl, simulation_vectors=16)
        assert report.equivalent is True
        rows.append([f"rca{width} vs csa{width}", "equivalent",
                     report.stats.decisions, report.stats.conflicts,
                     "-"])

    for seed in range(3):
        spec = ripple_carry_adder(4)
        buggy = mutate_circuit(carry_select_adder(4), seed=seed)
        report = check_equivalence(spec, buggy, simulation_vectors=16)
        if report.equivalent:
            verdict = "equivalent (benign swap)"
            found = "-"
        else:
            verdict = "BUG FOUND"
            found = ("simulation" if report.refuted_by_simulation
                     else "SAT")
            vector = report.counterexample
            good = output_values(spec, simulate(spec, vector))
            bad = output_values(buggy, simulate(buggy, vector))
            assert list(good.values()) != list(bad.values())
        rows.append([f"rca4 vs csa4-mut{seed}", verdict,
                     report.stats.decisions, report.stats.conflicts,
                     found])

    show(format_table(
        ["pair", "verdict", "decisions", "conflicts", "refuted by"],
        rows, title="A2 -- combinational equivalence checking"))

    assert rows == EXPECTED
    assert any("BUG FOUND" in row[1] for row in rows)

    result = benchmark(lambda: check_equivalence(
        ripple_carry_adder(3), carry_select_adder(3),
        simulation_vectors=8))
    assert result.equivalent is True
